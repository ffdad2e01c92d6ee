"""Problem abstraction: min f(x) subject to a(x) <= 0.

The solver works exclusively with inequality constraints.  Richer source
descriptions (equalities, >=, variable boxes) are lowered to this form by
:func:`to_inequality_form`, which also records the mapping back to the
original constraints.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

# The paper's fraction-to-boundary factors of the maximum step, which
# NlpProblem lays out once per row (the line search in ``steps`` reads them).
THETA_P_LINEAR = 0.1       # linear rows
THETA_P_NONLINEAR = 0.25   # nonlinear rows


class EvaluationError(RuntimeError):
    """A solve could not go on: a user callback raised, returned the wrong
    shape, produced a non-finite value or (``hess_lag``) an asymmetric
    matrix, or the start point could not be made interior.  The message
    names the callback and the first offending entry, e.g. ``non-finite
    value from a at entry 3``."""


def _evaluate(what: str, shape: tuple, fn: Callable, *args) -> np.ndarray:
    """``fn(*args)`` as a finite float array of ``shape``, or :class:`EvaluationError`
    when the callback raises, returns another size or a non-finite entry."""
    try:
        out = np.asarray(fn(*args), dtype=float).reshape(shape)
    except Exception as exc:
        raise EvaluationError(f"{type(exc).__name__}: {exc} from {what}") from exc
    finite = np.isfinite(out)
    if not finite.all():
        at = f" at entry {np.flatnonzero(~finite)[0]}" if shape else ""
        raise EvaluationError(f"non-finite value from {what}{at}")
    return out


def _instances(values: np.ndarray, types) -> np.ndarray:
    """``isinstance(v, types)`` for each entry of the object array ``values``."""
    return np.fromiter(map(isinstance, values.flat, repeat(types)), bool,
                       values.size).reshape(values.shape)


def _require_int(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}={value!r} is not an integer")


def _raise_first_fault(entry: Callable, faults) -> None:
    """Raise ``ValueError`` for the first entry that any ``(mask, message)``
    fault marks, in the words of its first fault: ``message.format(*entry(k))``."""
    for k in np.flatnonzero(np.logical_or.reduce([mask for mask, _ in faults]))[:1]:
        raise ValueError(next(text for mask, text in faults if mask[k]).format(*entry(k)))


@dataclass
class NlpProblem:
    """Inequality-form nonlinear program with user-supplied derivatives.

    ``eval_hess_lag(x, v)`` must return the already-assembled matrix
    ``hess(f)(x) + sum_i v_i * hess(a_i)(x)``; the solver supplies the
    weight vector, so individual constraint Hessians are never requested.
    Callbacks must be pure; a single solve calls them from one thread.

    ``bounds`` declares variable-bound rows as ``(row, var, sign, c)``
    entries meaning ``a_row(x) = sign*x_var - sign*c``: a lower bound
    ``x_var >= c`` has ``sign = -1`` and an upper bound ``x_var <= c`` has
    ``sign = +1``.  The solver pins these rows exactly (``w_row = 0``), and
    the Schur assembly trusts the declaration: it adds ``y_row/s_row`` to
    the diagonal entry ``var`` instead of reading the row of ``jac``, so a
    declared row's Jacobian row must be ``sign*e_var`` exactly (checked
    once per solve, at the start point).  ``n``, ``m``, rows, variables
    and ``linear_indices`` must be ``int`` or ``np.integer``.  ``bounds``
    and ``linear_indices`` are decoded into arrays when the problem is
    built; replace them with :func:`dataclasses.replace`, not by assignment.
    """

    n: int
    m: int
    eval_f: Callable[[np.ndarray], float]
    eval_grad_f: Callable[[np.ndarray], np.ndarray]
    eval_a: Callable[[np.ndarray], np.ndarray]
    eval_jac: Callable[[np.ndarray], np.ndarray]
    eval_hess_lag: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bounds: tuple = ()
    linear_indices: frozenset = frozenset()
    name: str = "problem"
    # Decoded by __post_init__: the columns of ``bounds``, the other rows (a
    # slice when the bound rows are the trailing block, as
    # to_inequality_form lays them out, so ``jac[_general_rows]`` is a view)
    # and ``linear_indices`` as the read-only per-row factor ``_theta_p``.
    _bound_row: np.ndarray = field(init=False, compare=False, repr=False)
    _bound_var: np.ndarray = field(init=False, compare=False, repr=False)
    _bound_sign: np.ndarray = field(init=False, compare=False, repr=False)
    _bound_c: np.ndarray = field(init=False, compare=False, repr=False)
    _general_rows: slice | np.ndarray = field(init=False, compare=False, repr=False)
    _theta_p: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _require_int("n", self.n)
        _require_int("m", self.m)
        if self.n < 1:
            raise ValueError("problem needs at least one variable")
        if self.m < 0:
            raise ValueError("negative constraint count")
        table = np.array(self.bounds, dtype=object).reshape(-1, 4)
        text = _instances(table, str)  # read as 0: a fault of their own names them
        row, var, sign, c = np.where(text, 0, table).astype(float).T
        repeated = np.ones(row.size, dtype=bool)
        repeated[np.unique(row, return_index=True)[1]] = False
        _raise_first_fault(self.bounds.__getitem__, (
            (~((0 <= row) & (row < self.m) & (0 <= var) & (var < self.n)),
             "bound row {0} or variable {1} out of range"),
            (~_instances(table[:, :2], (int, np.integer)).all(axis=1),
             "bound row {0} or variable {1} not an integer"),
            (text[:, 2:].any(axis=1), "bound row {0} has a sign or constant given as a string"),
            (np.abs(sign) != 1, "bound row {0} has sign {2}, not +-1"),
            (~np.isfinite(c), "bound row {0} has non-finite constant {3}"),
            (repeated, "bound row {0} declared twice")))
        for i in self.linear_indices:
            if not (isinstance(i, (int, np.integer)) and 0 <= i < self.m):
                raise ValueError(f"linear index {i!r} is not an integer in 0..{self.m - 1}")
        self._bound_row, self._bound_var = row.astype(np.intp), var.astype(np.intp)
        self._bound_sign, self._bound_c = sign, c
        general = np.ones(self.m, dtype=bool)
        general[self._bound_row] = False
        n_general = self.m - row.size
        self._general_rows = (slice(0, n_general) if general[:n_general].all()
                              else np.flatnonzero(general))
        self._theta_p = np.full(self.m, THETA_P_NONLINEAR)
        self._theta_p[list(self.linear_indices)] = THETA_P_LINEAR
        self._theta_p.flags.writeable = False

    # Validating wrappers; all solver code goes through these.
    def f(self, x: np.ndarray) -> float:
        return float(_evaluate("f", (), self.eval_f, x))

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        return _evaluate("grad_f", (self.n,), self.eval_grad_f, x)

    def a(self, x: np.ndarray) -> np.ndarray:
        return _evaluate("a", (self.m,), self.eval_a, x)

    def jac(self, x: np.ndarray) -> np.ndarray:
        return _evaluate("jac", (self.m, self.n), self.eval_jac, x)

    def hess_lag(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        H = _evaluate("hess_lag", (self.n, self.n), self.eval_hess_lag, x, v)
        asym = np.flatnonzero(np.abs(H - H.T) > 1e-12 * max(1.0, float(np.abs(H).max())))
        if asym.size:
            raise EvaluationError(f"asymmetric matrix from hess_lag at entry {asym[0]}")
        return H


class Relation(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass
class SourceConstraint:
    """One nonlinear constraint ``func(x) REL rhs`` of a source problem."""

    func: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    relation: Relation
    rhs: float
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass
class LinearRow:
    """One linear constraint ``coeffs @ x REL rhs``, kept as data."""

    coeffs: np.ndarray
    relation: Relation
    rhs: float


@dataclass
class SourceProblem:
    """Mixed-form problem before lowering to pure inequalities.

    Variable bounds are given as ``lower``/``upper`` arrays with +-inf for
    absent bounds.  Nonlinear ``constraints`` and ``linear_rows`` may be
    <=, >= or ==; :func:`to_inequality_form` splits an equality in two.
    """

    n: int
    eval_f: Callable[[np.ndarray], float]
    eval_grad_f: Callable[[np.ndarray], np.ndarray]
    eval_hess_f: Callable[[np.ndarray], np.ndarray]
    constraints: Sequence[SourceConstraint] = ()
    linear_rows: Sequence[LinearRow] = ()
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    name: str = "problem"


# Row signs per relation: an equality becomes two opposing rows.
_SIGNS = {Relation.LE: (+1,), Relation.GE: (-1,), Relation.EQ: (+1, -1)}


def _check_row(what: str, relation, rhs) -> None:
    """Refuse a source row whose relation is not a :class:`Relation` or
    whose rhs is not a real number (a string is not read as one)."""
    if not isinstance(relation, Relation):
        raise ValueError(f"malformed {what}: relation {relation!r} is not a Relation")
    if not isinstance(rhs, numbers.Real):
        raise ValueError(f"malformed {what}: rhs {rhs!r} is not a real number")


def to_inequality_form(source: SourceProblem) -> tuple[NlpProblem, list[tuple[str, int, int]]]:
    """Lower a mixed-form problem to ``a(x) <= 0`` rows; return the problem
    and, per row, its origin ``(kind, index, sign)``, meaning
    ``a_i(x) = sign*(func(x) - rhs)``.  ``kind`` is "constraint" (``index``
    into ``constraints``), "linear" (into ``linear_rows``), "lower" or
    "upper" (``index`` is then a variable).

    Equalities ``c(x) = b`` become the pair ``c(x)-b <= 0`` and
    ``b-c(x) <= 0``.  Rows come in three blocks: the nonlinear
    ``constraints``; the ``linear_rows`` and, for each fixed variable
    (``l_j = u_j``, no interior), the same shifted pair, as one constant
    block ``A x - b``; the other box bounds, declared in ``bounds``.
    Rejects a constraint or linear row whose relation is not a
    :class:`Relation` or whose rhs is not a finite real number, a linear
    row without ``n`` finite numeric coefficients, a NaN bound, an infinite
    bound on the wrong side (l = +inf or u = -inf) and inconsistent bounds
    (l > u), naming the constraint, row or variable, and an ``n`` that is
    not an integer.
    """
    n = source.n
    _require_int("n", n)
    lower = np.full(n, -np.inf) if source.lower is None else np.asarray(source.lower, float)
    upper = np.full(n, np.inf) if source.upper is None else np.asarray(source.upper, float)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("bound arrays must have length n")
    _raise_first_fault(lambda j: (j, lower[j], upper[j]), (
        (np.isnan(lower) | np.isnan(upper), "NaN bound for variable {0}: lower {1}, upper {2}"),
        ((lower == np.inf) | (upper == -np.inf),
         "infinite bound on the wrong side for variable {0}: lower {1}, upper {2}"),
        (lower > upper, "inconsistent bounds for variable {0}: lower {1} > upper {2}")))

    origins: list[tuple[str, int, int]] = []
    cons_rows: list[tuple[int, SourceConstraint]] = []
    for k, con in enumerate(source.constraints):
        _check_row(f"constraint {k}", con.relation, con.rhs)
        if not np.isfinite(float(con.rhs)):
            raise ValueError(f"malformed constraint {k}: non-finite rhs")
        for sign in _SIGNS[con.relation]:
            cons_rows.append((sign, con))
            origins.append(("constraint", k, sign))

    # The A x - b block as (sign, coefficients, rhs) rows.
    lin: list[tuple[int, np.ndarray, float]] = []
    for k, row in enumerate(source.linear_rows):
        _check_row(f"linear row {k}", row.relation, row.rhs)
        c = np.asarray(row.coeffs)
        if c.dtype.kind not in "biuf":  # strings, None or other objects
            raise ValueError(f"malformed linear row {k}: non-numeric coefficients ({c.dtype})")
        c = c.astype(float, copy=False)
        if c.shape != (n,):
            raise ValueError(f"malformed linear row {k}: coefficients of shape "
                             f"{c.shape}, not ({n},)")
        for sign in _SIGNS[row.relation]:
            lin.append((sign, c, float(row.rhs)))
            origins.append(("linear", k, sign))
    fixed = np.isfinite(lower) & (lower == upper)
    for j in np.flatnonzero(fixed):
        e_j = np.zeros(n)
        e_j[j] = 1.0
        for kind, sign in (("upper", +1), ("lower", -1)):
            lin.append((sign, e_j, float(lower[j])))
            origins.append((kind, int(j), sign))
    A = np.array([sign * c for sign, c, _ in lin]).reshape(len(lin), n)
    b = np.array([sign * r for sign, _, r in lin], dtype=float)
    for i in np.flatnonzero(~(np.isfinite(A).all(axis=1) & np.isfinite(b)))[:1]:
        k = origins[len(cons_rows) + i][1]
        raise ValueError(f"malformed linear row {k}: non-finite coefficient or rhs")

    n_cons = len(cons_rows)
    n_block = n_cons + len(lin)
    # Box rows, variable-major with lower (sign -1) before upper (sign +1).
    box = np.column_stack([lower, upper])
    b_var, b_side = np.divmod(np.flatnonzero(np.isfinite(box) & ~fixed[:, None]), 2)
    b_sign, b_c = 2.0 * b_side - 1.0, box[b_var, b_side]  # float signs: no casts in eval_a
    m = n_block + b_var.size
    b_row = np.arange(n_block, m)
    bounds = tuple(zip(b_row.tolist(), b_var.tolist(), (2 * b_side - 1).tolist(), b_c.tolist()))
    origins += [("upper" if sign > 0 else "lower", j, sign) for _, j, sign, _ in bounds]

    def eval_a(x: np.ndarray) -> np.ndarray:
        out = np.empty(m)
        for i, (sign, con) in enumerate(cons_rows):
            out[i] = sign * (con.func(x) - con.rhs)
        with np.errstate(over="ignore", invalid="ignore"):  # the solver reports an overflow
            out[n_cons:n_block] = np.vecdot(A, x) - b
            # lower: c - x_j <= 0;  upper: x_j - c <= 0
            out[n_block:] = b_sign * x[b_var] - b_sign * b_c
        return out

    def eval_jac(x: np.ndarray) -> np.ndarray:
        J = np.zeros((m, n))
        for i, (sign, con) in enumerate(cons_rows):
            J[i] = sign * np.asarray(con.grad(x), float)
        J[n_cons:n_block] = A
        J[b_row, b_var] = b_sign
        return J

    hess_f = source.eval_hess_f

    def eval_hess_lag(x: np.ndarray, v: np.ndarray) -> np.ndarray:
        H = np.asarray(hess_f(x), float).copy()
        for i, (sign, con) in enumerate(cons_rows):
            if con.hess is not None:
                H += v[i] * sign * np.asarray(con.hess(x), float)
        return H

    problem = NlpProblem(
        n=n,
        m=m,
        eval_f=source.eval_f,
        eval_grad_f=source.eval_grad_f,
        eval_a=eval_a,
        eval_jac=eval_jac,
        eval_hess_lag=eval_hess_lag,
        bounds=bounds,
        linear_indices=frozenset(range(n_cons, m)),
        name=source.name,
    )
    return problem, origins


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    analytic = np.atleast_1d(np.asarray(analytic, float))
    fd = np.atleast_1d(np.asarray(fd, float))
    denom = np.maximum(1.0, np.abs(fd))
    return float(np.max(np.abs(analytic - fd) / denom, initial=0.0))


def check_derivatives(problem: NlpProblem, x: np.ndarray, h: float = 1e-6) -> dict:
    """Compare callbacks against central finite differences at ``x``.

    Returns the max elementwise relative errors as ``{"grad_f_error",
    "jac_error", "hess_error"}``.  The Hessian is probed through the
    Lagrangian gradient with unit constraint weights.  Report-only: never
    raises on mismatch.
    """
    x = np.asarray(x, float)
    n, m = problem.n, problem.m
    v = np.ones(m)

    def lag_grad(z):
        return problem.grad_f(z) + problem.jac(z).T @ v

    fd_grad = np.empty(n)
    fd_jac = np.empty((m, n))
    fd_hess = np.empty((n, n))
    for j in range(n):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        denom = xp[j] - xm[j]  # realized step; exact for nearby floats
        fd_grad[j] = (problem.f(xp) - problem.f(xm)) / denom
        fd_jac[:, j] = (problem.a(xp) - problem.a(xm)) / denom
        fd_hess[:, j] = (lag_grad(xp) - lag_grad(xm)) / denom

    return {
        "grad_f_error": _rel_err(problem.grad_f(x), fd_grad),
        "jac_error": _rel_err(problem.jac(x), fd_jac),
        "hess_error": _rel_err(problem.hess_lag(x, v), 0.5 * (fd_hess + fd_hess.T)),
    }
