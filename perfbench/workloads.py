"""Seeded workload generators and the oracles that check every answer.

Each generator returns a :class:`Workload`.  Every problem's expected
status and answer come from how the generator built it (a planted KKT
point, a Farkas vector, a recession direction, or the analytic optimum
stated in the registry), never from the solver.  Checks re-evaluate the
problem's functions at the returned point with fresh callbacks; nothing
is read from the solver's ``Iterate`` caches except ``x`` and ``y``.

Every solve gets one of three verdicts (see :func:`judge`):

* ``certified``: the planted status, and the answer passes its check;
* ``uncertified``: no certificate (an iteration limit, say), or a valid
  certificate of another kind than the planted one, or a valid first-order
  point other than the known optimum;
* ``wrong``: a certificate that fails its own check, or an exception.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from onephase import (
    NlpProblem,
    ProblemFile,
    Relation,
    SolveResult,
    SourceProblem,
    build_source,
    builtin_registry,
    parse_problem_file,
    serialize_problem_file,
    to_inequality_form,
)
from onephase.problem_file import LinearRow, QuadTerm

# Oracle tolerances.  The solver stops at a scaled KKT residual of 1e-6;
# the oracle allows a decade more so that it tests the answer, not the
# last digit of the stopping rule.
F_TOL = 1e-5
X_TOL = 1e-3
FEAS_TOL = 1e-5
KKT_TOL = 1e-5
EPS_FAR = 1e-3         # the solver's gamma_far threshold for infeasibility
UNBOUNDED_NORM = 1e11  # the solver stops at ||x||_inf >= 1e12
# An unbounded certificate says the iterates diverge inside the relaxed
# region a(x) <= mu0 w: the violation stays bounded while ||x|| grows.
RELAXED_TOL = 1e-6     # max a(x) / ||x||_inf along a diverging run

CERTIFIED, UNCERTIFIED, WRONG = "certified", "uncertified", "wrong"
Check = Callable[[SolveResult], Optional[str]]


@dataclass
class Instance:
    """One solve: the problem handed to ``solve``, its start and its oracle.

    ``status`` is the planted or known status, ``check`` the planted
    answer's check (None when it passes, else a one-line reason) and
    ``fresh`` an independent lowering that :func:`judge` evaluates.
    """

    name: str
    problem: NlpProblem
    x0: np.ndarray
    status: str
    check: Check
    fresh: NlpProblem


@dataclass
class BatchFile:
    name: str
    status: str
    f_star: Optional[float]
    fresh: NlpProblem


@dataclass
class Workload:
    instances: list = field(default_factory=list)  # solved through solve()
    batch_files: list = field(default_factory=list)  # solved through run_cli
    parse_ms: list = field(default_factory=list)    # one entry per parsed file
    lower_ms: list = field(default_factory=list)    # one entry per lowering
    setup_s: float = 0.0  # generation, round trips and lowerings; no oracle work

    @contextmanager
    def timed(self):
        """Count the enclosed work as set-up."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - t0


def _round_trip(pf: ProblemFile, wl: Workload) -> ProblemFile:
    """Serialize to problem-file text and parse it back, timing the parse."""
    with wl.timed():
        text = serialize_problem_file(pf)
        t0 = time.perf_counter()
        back = parse_problem_file(text)
        wl.parse_ms.append(1e3 * (time.perf_counter() - t0))
    return back


def _lower(source_of: Callable[[], SourceProblem], wl: Workload) -> NlpProblem:
    """Build the source problem and lower it to inequality form, timed."""
    with wl.timed():
        t0 = time.perf_counter()
        problem, _ = to_inequality_form(source_of())
        wl.lower_ms.append(1e3 * (time.perf_counter() - t0))
    return problem


def _fresh(pf: ProblemFile) -> NlpProblem:
    """A second, independent lowering for the oracle to evaluate."""
    return to_inequality_form(build_source(pf))[0]


# ------------------------------------------------------------------ oracles

def _kkt(problem: NlpProblem, result: SolveResult) -> Optional[str]:
    """First-order KKT at (x, y): stationarity, feasibility, y >= 0 and
    complementarity, all from fresh callbacks."""
    x, y = result.x, result.iterate.y
    a = problem.a(x) if problem.m else np.zeros(0)
    scale = max(1.0, float(np.max(np.abs(y)))) if problem.m else 1.0
    stat = problem.grad_f(x) + (problem.jac(x).T @ y if problem.m else 0.0)
    if np.max(np.abs(stat)) > KKT_TOL * scale:
        return f"stationarity residual {np.max(np.abs(stat)):.3e}"
    if problem.m:
        if np.max(a) > FEAS_TOL:
            return f"constraint violation {np.max(a):.3e}"
        if np.min(y) < 0:
            return "negative multiplier"
        if np.max(np.abs(a * y)) > KKT_TOL * scale:
            return f"complementarity {np.max(np.abs(a * y)):.3e}"
    return None


def _farkas(problem: NlpProblem, result: SolveResult) -> Optional[str]:
    """Infeasibility from (x, y) for rows a(x) = A x - b <= 0: y >= 0,
    ||A^T y||_1 <= EPS_FAR * a(x)^T y and b^T y < 0, with A and b
    re-evaluated from fresh callbacks (the local Fritz-John test when the
    rows are nonlinear)."""
    if not problem.m:
        return "no constraints to be infeasible"
    x, y = result.x, result.iterate.y
    A = problem.jac(x)
    a = problem.a(x)
    b = A @ x - a
    ay = float(a @ y)
    if np.min(y) < 0 or ay <= 0:
        return "multipliers are not a Farkas ray (y < 0 or a(x)^T y <= 0)"
    if np.abs(A.T @ y).sum() > EPS_FAR * ay:
        return "||A^T y||_1 too large for a Farkas certificate"
    if float(b @ y) >= 0:
        return "b^T y >= 0: rows are not proven inconsistent"
    return None


def _diverged(problem: NlpProblem, result: SolveResult) -> Optional[str]:
    """The paper's unbounded certificate: x has diverged while the
    constraint violation stayed small against ||x||."""
    x = result.x
    norm = float(np.max(np.abs(x)))
    if norm < UNBOUNDED_NORM:
        return f"||x||_inf = {norm:.3e} has not diverged"
    if problem.m and np.max(problem.a(x)) > RELAXED_TOL * norm:
        return f"violation {np.max(problem.a(x)):.3e} grows with ||x||"
    return None


# Check of each certificate kind, whatever the planted status.
VALIDITY = {"optimal": _kkt, "primal-infeasible": _farkas, "unbounded": _diverged}


def judge(result: SolveResult, status: str, check: Check,
          fresh: NlpProblem) -> tuple[str, Optional[str]]:
    """(verdict, reason) of one solve; see the module docstring."""
    got = result.status.value
    if got == status:
        why = check(result)
        if why is None:
            return CERTIFIED, None
    else:
        why = f"status {got}, planted {status}"
    valid = VALIDITY.get(got)
    if valid is None:
        return UNCERTIFIED, f"{why}: no certificate"
    bad = valid(fresh, result)
    if bad:
        return WRONG, f"{why}; the {got} certificate fails its check: {bad}"
    return UNCERTIFIED, f"{why}; the {got} certificate itself is valid"


def _check_optimum(fresh: NlpProblem, f_star: float,
                   x_star: Optional[np.ndarray]) -> Check:
    """Objective and (when unique) minimizer match the known optimum, and
    the point is feasible for freshly built rows."""

    def check(result: SolveResult) -> Optional[str]:
        x = result.x
        f = fresh.f(x)
        if abs(f - f_star) > F_TOL * (1.0 + abs(f_star)):
            return f"objective {f!r}, expected {f_star!r}"
        if x_star is not None and np.max(np.abs(x - x_star)) > X_TOL:
            return f"x off the known minimizer by {np.max(np.abs(x - x_star)):.3e}"
        if fresh.m and np.max(fresh.a(x)) > FEAS_TOL:
            return f"constraint violation {np.max(fresh.a(x)):.3e}"
        return None

    return check


def _check_unbounded(fresh: NlpProblem) -> Check:
    """The returned point is feasible for fresh rows, has diverged past
    UNBOUNDED_NORM, and its objective lies below -UNBOUNDED_NORM."""

    def check(result: SolveResult) -> Optional[str]:
        x = result.x
        if np.max(np.abs(x)) < UNBOUNDED_NORM:
            return f"||x||_inf = {np.max(np.abs(x)):.3e} has not diverged"
        if fresh.m and np.max(fresh.a(x)) > FEAS_TOL:
            return "diverged point is infeasible"
        if fresh.f(x) > -UNBOUNDED_NORM:
            return "objective did not diverge to -inf"
        return None

    return check


# --------------------------------------------------------------- registry

# Analytic optima stated in the registry descriptions: (f*, x* or None).
REGISTRY_OPTIMA = {
    "wachter": (1.0, np.array([1.0, 2.0, 0.0])),
    "qp-simplex": (0.05, np.full(10, 0.1)),
    "qp-2d": (1.0, np.array([0.0, 1.0])),
    "degenerate-lp": (1.0, None),
    "nonconvex-quartic": (-33.75, np.array([3.0])),
}
SEPARABLE_TARGETS = np.array([-1.2, -0.8, -0.4, 0.1, 0.2, 0.4, 0.6, 0.8, 1.2, 1.6])


def _registry_check(name: str, fresh: NlpProblem) -> tuple[str, Check]:
    """Known status and answer check of a registry problem."""
    if name == "infeasible-box":
        return "primal-infeasible", lambda result: _farkas(fresh, result)
    if name == "unbounded-lp":
        return "unbounded", _check_unbounded(fresh)
    if name == "qp-separable10":
        x_star = np.clip(SEPARABLE_TARGETS, 0.0, 1.0)
        f_star = 0.5 * float((x_star - SEPARABLE_TARGETS) @ (x_star - SEPARABLE_TARGETS))
        return "optimal", _check_optimum(fresh, f_star, x_star)
    f_star, x_star = REGISTRY_OPTIMA[name]
    return "optimal", _check_optimum(fresh, f_star, x_star)


def registry_hostile(seed: int, perturbed: int = 5, hostile: int = 96) -> Workload:
    """Every registry problem from its own start and ``perturbed`` seeded
    perturbed starts, plus ``wachter`` from ``hostile`` starts with
    x0[0] drawn from [-100, -0.5].  With the default counts about 70% of
    the solves are wachter, so p50 lies inside that cluster rather than in
    the gap between it and the smaller, faster problems."""
    rng = np.random.default_rng(seed)
    wl = Workload()
    with wl.timed():
        registry = builtin_registry()
    for name, entry in registry.items():
        if entry.file_data is not None:
            pf = _round_trip(entry.file_data, wl)
            problem, fresh = _lower(lambda: build_source(pf), wl), _fresh(pf)
        else:
            problem, fresh = _lower(lambda: entry.source, wl), entry.build()[0]
        status, check = _registry_check(name, fresh)
        with wl.timed():
            starts = [entry.x_start.copy()]
            starts += [entry.x_start + rng.standard_normal(entry.x_start.shape)
                       for _ in range(perturbed)]
            if name == "wachter":
                for _ in range(hostile):
                    x0 = entry.x_start.copy()
                    x0[0] = rng.uniform(-100.0, -0.5)
                    starts.append(x0)
        for k, x0 in enumerate(starts):
            wl.instances.append(Instance(f"{name}#{k}", problem, x0, status, check, fresh))
    return wl


# ---------------------------------------------------------------- box QP

def _planted_qp(rng, n: int, m_ge: int, m_eq: int, name: str):
    """Strictly convex QP with a planted KKT point.

    min 0.5 x'Qx + c'x  s.t.  G x >= h,  E x == e,  l <= x <= u.
    A third of the >= rows and of the bounds are active with positive
    multipliers; c is chosen so that (x*, y*) satisfies stationarity.
    Strict convexity makes x* the unique minimizer.
    """
    # Banded, strictly diagonally dominant Q keeps the file short; the
    # Schur matrix is still dense because the general rows are.
    Q = np.diag(rng.uniform(3.0, 4.0, n))
    for k in (1, 2):
        band = rng.uniform(-0.5, 0.5, n - k)
        Q += np.diag(band, k) + np.diag(band, -k)
    lower = -1.0 - rng.uniform(0.0, 1.0, n)
    upper = 1.0 + rng.uniform(0.0, 1.0, n)
    side = rng.integers(0, 6, n)   # 0: at lower, 1: at upper, else interior
    x = rng.uniform(lower + 0.1, upper - 0.1)
    x[side == 0] = lower[side == 0]
    x[side == 1] = upper[side == 1]
    z = np.where(side <= 1, rng.uniform(0.5, 1.5, n), 0.0)
    z[side == 1] *= -1.0           # upper-bound multipliers enter with -

    G = rng.standard_normal((m_ge, n)) / np.sqrt(n)
    active = rng.random(m_ge) < 1.0 / 3.0
    h = G @ x - np.where(active, 0.0, rng.uniform(0.1, 1.0, m_ge))
    y = np.where(active, rng.uniform(0.5, 1.5, m_ge), 0.0)
    E = rng.standard_normal((m_eq, n)) / np.sqrt(n)
    e = E @ x
    lam = rng.standard_normal(m_eq)

    c = -Q @ x + G.T @ y + E.T @ lam + z
    f_star = 0.5 * float(x @ Q @ x) + float(c @ x)
    rows = [LinearRow(G[i], Relation.GE, float(h[i])) for i in range(m_ge)]
    rows += [LinearRow(E[i], Relation.EQ, float(e[i])) for i in range(m_eq)]
    pf = ProblemFile(
        name=name, n=n, linear=c,
        quad_terms=[QuadTerm(i, j, float(Q[i, j]))
                    for i in range(n) for j in range(i, min(n, i + 3))],
        rows=rows, lower=lower, upper=upper, start=np.zeros(n))
    return pf, f_star, x


def boxqp_dense(seed: int, n: int = 128, count: int = 34) -> Workload:
    """``count`` planted strictly convex QPs with n variables, n/2 general
    >= rows and 2n bound rows, round-tripped through problem-file text.
    n = 128 is where the Cholesky of scipy's OpenBLAS turns multithreaded;
    a solve there takes about 3x as long as at n = 120.  Iteration counts
    vary from QP to QP; 34 of them keep the seed's effect on a pass small,
    and three passes give the 100 solves that put ten beyond p90."""
    rng = np.random.default_rng(seed)
    wl = Workload()
    for k in range(count):
        name = f"boxqp{k}"
        with wl.timed():
            pf, f_star, x_star = _planted_qp(rng, n, n // 2, 0, name)
        pf = _round_trip(pf, wl)
        problem = _lower(lambda: build_source(pf), wl)
        fresh = _fresh(pf)
        wl.instances.append(Instance(name, problem, np.zeros(n), "optimal",
                                     _check_optimum(fresh, f_star, x_star), fresh))
    return wl


# ---------------------------------------------------------- double-well chain

def _chain_problem(t: np.ndarray, radius_sq: float, sum_floor: float) -> NlpProblem:
    """min sum(x^4/4 - x^2 + t x) + 0.5 sum (x_{i+1} - x_i)^2
    s.t. ||x||^2 <= radius_sq,  sum(x) >= sum_floor; vectorized callbacks."""
    n = t.size
    D = np.diff(np.eye(n), axis=0)
    L = D.T @ D

    def eval_f(x):
        d = np.diff(x)
        return float(np.sum(0.25 * x ** 4 - x ** 2 + t * x) + 0.5 * d @ d)

    def eval_grad_f(x):
        return x ** 3 - 2.0 * x + t + L @ x

    def eval_a(x):
        return np.array([x @ x - radius_sq, sum_floor - x.sum()])

    def eval_jac(x):
        return np.vstack([2.0 * x, -np.ones(n)])

    def eval_hess_lag(x, v):
        return L + np.diag(3.0 * x ** 2 - 2.0 + 2.0 * v[0])

    return NlpProblem(n=n, m=2, eval_f=eval_f, eval_grad_f=eval_grad_f,
                      eval_a=eval_a, eval_jac=eval_jac, eval_hess_lag=eval_hess_lag,
                      linear_indices=frozenset({1}), name="chain")


def nonconvex_chain(seed: int, n: int = 60, count: int = 64) -> Workload:
    """``count`` double-well chains with seeded tilts and starts.  A radius
    of 1.8n just inside the wells at +-sqrt(2) (||x||^2 near 2n) makes the
    ball active in about 60% of the chains; at 1.5n it is always active
    and the iteration counts grow a tail too heavy for a steady p90."""
    rng = np.random.default_rng(seed)
    wl = Workload()
    for k in range(count):
        with wl.timed():
            t = rng.uniform(-0.5, 0.5, n)
            problem = _chain_problem(t, radius_sq=1.8 * n, sum_floor=0.1 * n)
            x0 = rng.uniform(-2.0, 2.0, n)
        # The oracle's callbacks come from a second construction.
        fresh = _chain_problem(t.copy(), radius_sq=1.8 * n, sum_floor=0.1 * n)
        wl.instances.append(Instance(f"chain{k}", problem, x0, "optimal",
                                     lambda result, fresh=fresh: _kkt(fresh, result), fresh))
    return wl


# -------------------------------------------------------------- batch mixed

def _farkas_lp(rng, n: int, m: int, name: str, box: Optional[float]):
    """LP whose >= rows G x >= h are inconsistent, proven by an integer
    Farkas vector y >= 0 with G^T y = 0 and h^T y > 0 (exact arithmetic).
    A box [-box, box], if any, only shrinks the set further.  Returns the
    file and y."""
    y = rng.integers(1, 4, m).astype(float)
    y[-1] = 1.0
    G = rng.integers(-5, 6, (m, n)).astype(float)
    G[-1] = -(y[:-1] @ G[:-1])
    h = rng.integers(-3, 4, m).astype(float)
    h[-1] = max(h[-1], 1.0 - float(y[:-1] @ h[:-1]))
    bounds = {} if box is None else {"lower": np.full(n, -box), "upper": np.full(n, box)}
    pf = ProblemFile(name=name, n=n, linear=rng.integers(-3, 4, n).astype(float),
                     rows=[LinearRow(G[i], Relation.GE, float(h[i])) for i in range(m)],
                     **bounds)
    return pf, y


def _assert_farkas(pf: ProblemFile, y: np.ndarray) -> None:
    G = np.array([row.coeffs for row in pf.rows])
    h = np.array([row.rhs for row in pf.rows])
    if not (np.all(y >= 0) and np.all(y @ G == 0.0) and float(h @ y) >= 1.0):
        raise RuntimeError(f"{pf.name}: Farkas plant failed")


def _recession_lp(rng, n: int, m: int, name: str, free: int):
    """LP min c'x s.t. G x >= h, with the first ``free`` variables free and
    the rest in [-10, 10].  Returns the file, an integer feasible point
    x_f and a recession direction d on the free variables (G d >= 0,
    c'd < 0), which prove it unbounded exactly."""
    x_f = rng.integers(-2, 3, n).astype(float)
    d = np.zeros(n)
    d[:free] = rng.integers(1, 3, free)
    G = rng.integers(-5, 6, (m, n)).astype(float)
    G[G @ d < 0] *= -1.0
    h = G @ x_f - rng.integers(0, 4, m).astype(float)
    c = rng.integers(-3, 4, n).astype(float)
    c[0] -= (float(c @ d) + 1.0) / d[0]
    lower, upper = np.full(n, -10.0), np.full(n, 10.0)
    lower[:free], upper[:free] = -np.inf, np.inf
    pf = ProblemFile(name=name, n=n, linear=c,
                     rows=[LinearRow(G[i], Relation.GE, float(h[i])) for i in range(m)],
                     lower=lower, upper=upper)
    return pf, x_f, d


def _assert_recession(pf: ProblemFile, x_f: np.ndarray, d: np.ndarray) -> None:
    G = np.array([row.coeffs for row in pf.rows])
    h = np.array([row.rhs for row in pf.rows])
    free = np.isinf(pf.lower) & np.isinf(pf.upper)
    if not (np.all(G @ d >= 0) and float(pf.linear @ d) < 0 and np.all(G @ x_f >= h)
            and np.all((pf.lower <= x_f) & (x_f <= pf.upper)) and np.all(free[d != 0])):
        raise RuntimeError(f"{pf.name}: recession plant failed")


# Seed of the plain (unboxed, all-free) LPs of batch-mixed; see batch_mixed.
PLAIN_SEED = 0


def batch_mixed(seed: int, directory: Path, n: int = 40, per_kind: int = 32,
                plain: int = 1) -> Workload:
    """Write ``.nlp`` files into ``directory``: ``per_kind`` planted QPs
    (with == rows), Farkas-infeasible LPs boxed in [-10, 10] and
    recession-unbounded LPs with two free variables, plus ``plain``
    unboxed Farkas LPs and ``plain`` recession LPs with every variable
    free.  The plain kinds are the solver's hard cases: at n = 40 the
    unboxed Farkas LPs end ``unbounded`` (the relaxed region is unbounded)
    or at the iteration limit, and the free recession LPs take from a few
    hundred iterations to the limit.  One of each costs about as much as
    the 96 other files together.  They are drawn from PLAIN_SEED, not from
    ``seed``: drawn from the seed, their iteration counts alone moved the
    work of a pass by a third from seed to seed."""
    rng = np.random.default_rng(seed)
    plain_rng = np.random.default_rng(PLAIN_SEED)
    wl = Workload()
    kinds = [(kind, k) for k in range(per_kind) for kind in ("qp", "infeasible", "unbounded")]
    kinds += [(kind, k) for k in range(plain) for kind in ("infeasible-free", "unbounded-free")]
    for kind, k in kinds:
        name = f"{kind}{k:02d}"
        f_star = None
        with wl.timed():
            gen = plain_rng if kind.endswith("-free") else rng
            if kind == "qp":
                pf, f_star, _ = _planted_qp(gen, n, n // 2, n // 8, name)
            elif kind.startswith("infeasible"):
                pf, y = _farkas_lp(gen, n, n // 2, name, None if "free" in kind else 10.0)
            else:
                pf, x_f, d = _recession_lp(gen, n, n // 2, name, n if "free" in kind else 2)
        back = _round_trip(pf, wl)
        _lower(lambda: build_source(back), wl)
        if kind == "qp":
            status = "optimal"
        elif kind.startswith("infeasible"):
            _assert_farkas(pf, y)
            status = "primal-infeasible"
        else:
            _assert_recession(pf, x_f, d)
            status = "unbounded"
        (directory / f"{name}.nlp").write_text(serialize_problem_file(pf))
        wl.batch_files.append(BatchFile(name, status, f_star, _fresh(back)))
    return wl


def check_batch_row(row: dict, expected: BatchFile) -> Optional[str]:
    """CSV status must equal the planted status; a feasible file's CSV
    objective must equal its planted optimum."""
    if row["status"] != expected.status:
        return f"status {row['status']}, expected {expected.status}"
    if expected.f_star is not None:
        f = float(row["objective"])
        if abs(f - expected.f_star) > F_TOL * (1.0 + abs(expected.f_star)):
            return f"objective {f!r}, expected {expected.f_star!r}"
    return None
