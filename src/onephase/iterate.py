"""Iterate state, termination certificates, switching rule and merit functions.

Every iterate carries the barrier parameter ``mu``, primal point ``x``,
slacks ``s``, duals ``y`` and the fixed shift vector ``w``, and maintains

    a(x) + s = mu * w,        s_i y_i / mu in [beta2, 1/beta2],
    mu, s, y > 0.

Slack updates are nonlinear (``s+ = mu+ * w - a(x+)``) precisely so the
first identity survives every step: primal feasibility and complementarity
shrink at the same rate as ``mu``.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .problem import NlpProblem, _require_int


def inf_norm(v: np.ndarray) -> float:
    """Infinity norm with the empty vector mapped to 0."""
    v = np.abs(v)
    return float(v.flat[v.argmax()]) if v.size else 0.0


def one_norm(v: np.ndarray) -> float:
    return float(np.abs(v).sum())


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal-infeasible"
    UNBOUNDED = "unbounded"
    MAX_DELTA = "max-delta"
    ITERATION_LIMIT = "iteration-limit"
    TIME_LIMIT = "time-limit"
    EVALUATION_ERROR = "evaluation-error"


# The paper's fixed parameters read in this module.
BETA1 = 1e-4        # modified log-barrier slope
BETA2 = 0.01        # complementarity corridor [beta2, 1/beta2]
BETA3 = 0.02        # aggressive-step corridor buffer
EPS_FAR = 1e-3      # infeasibility certificate: gamma_far tolerance
EPS_INF = 1e-6      # infeasibility certificate: gamma_inf tolerance
EPS_UNBD = 1e-12    # divergence test ||x||_inf >= 1/eps_unbd


@dataclass
class SolverOptions:
    """The values a caller sets; the method's fixed parameters are module
    constants (``iterate``, ``steps``, ``linalg`` and ``solver``)."""

    eps_opt: float = 1e-6      # optimality tolerance
    mu_scale: float = 1.0      # scales the initial barrier parameter
    max_iter: int = 3000       # inner-iteration budget
    max_time: float = 3600.0   # wall-clock budget, seconds

    def validate(self) -> None:
        for name in ("eps_opt", "mu_scale", "max_time"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):  # bool is an int
                raise ValueError(f"{name}={value!r} is not a number")
            # max_time may be 0 or inf; NaN fails either test
            if not (value >= 0 if name == "max_time" else 0 < value < math.inf):
                raise ValueError(f"{name}={value} outside its admissible interval")
        _require_int("max_iter", self.max_iter)
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class Iterate:
    """Immutable snapshot (mu, x, s, y) with cached evaluations at x.

    Its arrays are never mutated in place, so holding an iterate holds a
    snapshot.  Without rows, s, y, w and a are empty and jac is (0, n):
    every formula holds as an empty sum.

    The measures every consumer of one iterate reads are computed once, on
    first use: ``grad_lag_mu`` and ``grad_lag_0`` (``lagrangian_grad`` at
    ``mu`` and at 0), ``grad_norm`` (``||grad L_mu||_inf``), ``comp_norm``
    (``||Sy - mu e||_inf``), ``sigma`` (``sigma(y)``) and ``optimality``
    (the three measures of ``terminate_optimal``, which the trace also
    reads).  The caches are sound only because the
    arrays are never mutated; the cached arrays are shared with every reader
    and must not be mutated either.
    """

    mu: float
    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    w: np.ndarray
    f: float
    grad_f: np.ndarray
    a: np.ndarray
    jac: np.ndarray

    @property
    def m(self) -> int:
        return self.s.shape[0]

    def lagrangian_grad(self, mu_bar: float) -> np.ndarray:
        """grad f + J^T (y - mu_bar*beta1*e) from the caches."""
        return self.grad_f + self.jac.T @ (self.y - mu_bar * BETA1)

    @cached_property
    def grad_lag_mu(self) -> np.ndarray:
        return self.lagrangian_grad(self.mu)

    @cached_property
    def grad_lag_0(self) -> np.ndarray:
        return self.lagrangian_grad(0.0)

    @cached_property
    def grad_norm(self) -> float:
        return inf_norm(self.grad_lag_mu)

    @cached_property
    def comp_norm(self) -> float:
        return inf_norm(self.s * self.y - self.mu)

    @cached_property
    def sigma(self) -> float:
        return sigma(self.y)

    @cached_property
    def optimality(self) -> tuple[float, float, float]:
        """(sigma ||grad L_0||_inf, sigma ||Sy||_inf, ||a + s||_inf), the
        three measures of :func:`terminate_optimal`, in its order."""
        return (self.sigma * inf_norm(self.grad_lag_0), self.sigma * inf_norm(self.s * self.y),
                inf_norm(self.a + self.s))


def make_iterate(
    problem: NlpProblem,
    mu: float,
    x: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    a: np.ndarray | None = None,
    jac: np.ndarray | None = None,
    f: float | None = None,
    grad_f: np.ndarray | None = None,
) -> Iterate:
    """Evaluate whatever caches were not supplied and freeze the snapshot."""
    x = np.asarray(x, float)
    return Iterate(
        mu=float(mu),
        x=x,
        s=np.asarray(s, float),
        y=np.asarray(y, float),
        w=np.asarray(w, float),
        f=problem.f(x) if f is None else float(f),
        grad_f=problem.grad_f(x) if grad_f is None else np.asarray(grad_f, float),
        a=problem.a(x) if a is None else np.asarray(a, float),
        jac=problem.jac(x) if jac is None else np.asarray(jac, float),
    )


def primal_trial(cur: Iterate, dx: np.ndarray, gamma: float, alpha_p: float,
                 problem: NlpProblem) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Primal part of the iterate update for a trial step size.

    Returns ``(mu+, x+, a(x+), s+)`` with ``s+ = mu+ * w - a(x+)``.  Only
    the constraints are evaluated here; callers check interiority and the
    fraction-to-boundary rule before paying for objective evaluations.
    Raises :class:`EvaluationError` when ``a(x+)`` is non-finite.
    """
    mu_plus = (1.0 - (1.0 - gamma) * alpha_p) * cur.mu
    x_plus = cur.x + alpha_p * dx
    a_plus = problem.a(x_plus)
    s_plus = mu_plus * cur.w - a_plus
    return mu_plus, x_plus, a_plus, s_plus


def check_interior(it: Iterate) -> bool:
    """Interiority test: mu, s, y > 0 and s_i y_i / mu within
    [beta2, 1/beta2] for every constraint."""
    if not (it.mu > 0):
        return False
    if it.s.min(initial=np.inf) <= 0 or it.y.min(initial=np.inf) <= 0:
        return False
    ratio = it.s * it.y / it.mu
    return bool(((ratio >= BETA2) & (ratio <= 1.0 / BETA2)).all())


def sigma(y: np.ndarray) -> float:
    """Dual scaling 100 / max(100, ||y||_inf); lies in (0, 1]."""
    return 100.0 / max(100.0, inf_norm(y))


def terminate_optimal(it: Iterate, eps_opt: float) -> dict | None:
    """Scaled first-order optimality: the certificate (a dict of measured
    values) of sigma||grad L_0||, sigma||Sy|| and the raw primal residual
    ||a(x)+s|| when all three are below ``eps_opt``, else None."""
    dual, comp, primal = it.optimality
    values = {
        "scaled_dual_infeasibility": dual,
        "scaled_complementarity": comp,
        "primal_residual": primal,
    }
    return values if all(v <= eps_opt for v in values.values()) else None


def terminate_infeasible(it: Iterate) -> dict | None:
    """Local-infeasibility certificate: a^T y > 0 with both stationarity
    measures below tolerance, else None.  ``gamma_far = ||J^T y||_1 / a^T y``
    is small when y is close to a Fritz-John ray for infeasibility;
    ``gamma_inf = (||J^T y||_1 + s^T y) / ||y||_1`` is invariant under
    positive rescaling of y.  Both are formed only once a^T y > 0, which
    also makes y nonzero."""
    a_dot_y = float(it.a @ it.y)
    if a_dot_y <= 0:
        return None
    jty = one_norm(it.jac.T @ it.y)
    far = jty / a_dot_y
    inf = (jty + float(it.s @ it.y)) / one_norm(it.y)
    if not (far <= EPS_FAR and inf <= EPS_INF):
        return None
    return {"a_dot_y": a_dot_y, "gamma_far": far, "gamma_inf": inf,
            "dual_norm": inf_norm(it.y)}


def terminate_unbounded(it: Iterate) -> dict | None:
    """Divergence test ||x||_inf >= 1/eps_unbd, else None: as a(x) <= mu^0 w
    all along, diverging x certifies the shifted region is unbounded."""
    x_norm = inf_norm(it.x)
    return {"x_norm": x_norm} if x_norm >= 1.0 / EPS_UNBD else None


def aggressive_criterion(it: Iterate) -> bool:
    """Switching test for taking an aggressive (mu-reducing) step.

    Requires (a) the shifted barrier problem is solved to within mu,
    (b) the modified Lagrangian gradient is no larger than its trivial
    bound (a Farkas-style safeguard), and (c) complementarity sits in the
    tighter [beta3, 1/beta3] corridor so the step has room to move it.
    """
    if it.sigma * it.grad_norm > it.mu:
        return False
    bound_vec = it.grad_f - BETA1 * it.mu * (it.jac.T @ np.ones(it.m))
    if one_norm(it.grad_lag_mu) > one_norm(bound_vec) + float(it.s @ it.y):
        return False
    ratio = it.s * it.y / it.mu
    return bool(((ratio >= BETA3) & (ratio <= 1.0 / BETA3)).all())


def merit_psi(it: Iterate) -> float:
    """Shifted log-barrier merit
    psi_mu(x) = f(x) - mu * sum_i (beta1*a_i(x) + log(mu*w_i - a_i(x))),
    where mu*w - a(x) is the slack ``s``, as every slack update keeps it.

    Returns +inf when any slack is nonpositive, so backtracking treats
    boundary violations like any other merit increase.
    """
    if it.s.min(initial=np.inf) <= 0:
        return math.inf
    return it.f - it.mu * float(BETA1 * it.a.sum() + np.log(it.s).sum())


def merit_phi(it: Iterate) -> float:
    """Augmented barrier merit phi = psi + ||Sy - mu e||_inf^3 / mu^2."""
    psi = merit_psi(it)
    if not math.isfinite(psi):
        return psi
    return psi + it.comp_norm ** 3 / it.mu ** 2


def merit_kkt(it: Iterate) -> float:
    """Scaled KKT merit sigma(y) * max(||grad L_mu||_inf, ||Sy - mu e||_inf)."""
    return it.sigma * max(it.grad_norm, it.comp_norm)
