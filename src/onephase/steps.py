"""Direction computation and the line search both step kinds share.

Both step kinds solve the same factorized system with different right-hand
sides.  A direction targets removing the fraction ``1 - gamma`` of the
current KKT residual: ``gamma = 1`` holds ``mu`` and the primal residual
fixed (stabilization), ``gamma < 1`` drives everything down together
(aggressive).  Every direction is the Newton direction at the iterate the
factorized Schur matrix was assembled at.

After its direction, a step of either kind takes one path,
:func:`_line_search`; the kinds differ only in ``gamma``, the minimum step
size and the acceptance test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .iterate import (
    BETA1,
    BETA2,
    BETA3,
    Iterate,
    check_interior,
    inf_norm,
    make_iterate,
    merit_kkt,
    merit_phi,
    primal_trial,
    sigma,
)
from .linalg import FactorizedSystem, solve_shifted
from .problem import EvaluationError, NlpProblem

# The paper's fixed parameters read in this module.
BETA4 = 0.2                # merit decrease fraction
BETA5 = 2.0 ** -5          # minimum stabilization step size
BETA6 = 0.5                # backtracking factor
BETA_KKT = 0.01            # filter KKT reduction factor
BETA_EXP = 0.5             # fraction-to-boundary step-size exponent
BETA8 = 0.9                # dual-feasibility guard threshold
THETA_B = 0.1              # fraction-to-boundary, acceptance
MAX_GUARD_RETRIES = 10


@dataclass
class Direction:
    """Primal-dual direction with the target reduction that made it.

    ``slope`` is ``-(rhs . dx) = -dx' (M + delta I) dx``, the directional
    derivative that the line search's descent test and Armijo model read.
    Its arrays are never mutated, so ``dx_norm`` (``||dx||_inf``) is
    computed once, on first use."""

    dx: np.ndarray
    ds: np.ndarray
    dy: np.ndarray
    gamma: float
    slope: float

    @cached_property
    def dx_norm(self) -> float:
        return inf_norm(self.dx)


@dataclass
class Filter:
    """(phi, kkt) pairs of every accepted iterate at the current residual
    level.  Stabilization steps keep ``mu`` (hence the residual ``mu*w``)
    fixed, so the level is simply "since the last aggressive acceptance";
    the driver resets the filter whenever ``mu`` changes."""

    entries: list = field(default_factory=list)

    def reset(self, phi: float, kkt: float) -> None:
        self.entries = [(phi, kkt)]

    def add(self, phi: float, kkt: float) -> None:
        self.entries.append((phi, kkt))

    def accepts(self, phi_plus: float, kkt_plus: float, alpha_p: float) -> bool:
        """KKT-progress acceptance against every recorded entry."""
        return all(
            kkt_plus <= (1.0 - BETA_KKT * alpha_p) * kkt_e
            and phi_plus <= phi_e + math.sqrt(kkt_e)
            for phi_e, kkt_e in self.entries
        )


def build_rhs(it: Iterate, gamma: float):
    """Target KKT-residual change: b_D = grad L_{gamma*mu}(x, y),
    b_P = (1-gamma)*mu*w,  b_C = S y - gamma*mu*e.

    b_D is the iterate's cached gradient at gamma = 0 and 1, the same bits
    as ``0.0*mu`` and ``1.0*mu`` are exact."""
    if gamma == 0.0:
        b_d = it.grad_lag_0
    elif gamma == 1.0:
        b_d = it.grad_lag_mu
    else:
        b_d = it.lagrangian_grad(gamma * it.mu)
    b_p = (1.0 - gamma) * it.mu * it.w
    b_c = it.s * it.y - gamma * it.mu
    return b_d, b_p, b_c


def compute_direction(fs: FactorizedSystem, it: Iterate, gamma: float) -> Direction:
    """Newton direction at ``it`` from ``fs``, a factorization of the
    Schur matrix assembled at ``it``.

    dx solves (M + delta I) dx = -(b_D + J^T S^{-1} (Y b_P - b_C));
    ds = -(1-gamma) mu w - J dx;
    dy = S^{-1} Y (J dx + b_P - Y^{-1} b_C), the sign that solves the
    Newton rows S dy + Y ds = -b_C, J dx + ds = -b_P.
    """
    b_d, b_p, b_c = build_rhs(it, gamma)
    rhs = -(b_d + it.jac.T @ ((it.y * b_p - b_c) / it.s))
    dx = solve_shifted(fs, rhs)
    jdx = it.jac @ dx
    dy = (it.y / it.s) * (jdx + b_p - b_c / it.y)
    ds = -(1.0 - gamma) * it.mu * it.w - jdx
    return Direction(dx=dx, ds=ds, dy=dy, gamma=gamma, slope=-float(rhs @ dx))


def _boundary_bound(it: Iterate, direction: Direction, delta: float) -> np.ndarray:
    """min(s, ||dx||_inf (delta + ||dy||_inf + ||dx||_inf^beta_exp) e), the
    bound of both fraction-to-boundary rules; fixed for one direction."""
    dx_norm = direction.dx_norm
    t = dx_norm * (delta + inf_norm(direction.dy) + dx_norm ** BETA_EXP)
    return np.minimum(it.s, t)


def max_primal_step(it: Iterate, direction: Direction, bound: np.ndarray,
                    theta_p: np.ndarray) -> float:
    """Largest alpha in [0,1] with s + alpha*ds >= theta_p * bound, where
    ``bound`` is :func:`_boundary_bound` of ``direction``.

    The bound caps at ``theta_p * s``, so alpha = 0 is always feasible and
    the largest alpha follows from a per-component ratio test.
    """
    floor = theta_p * bound
    room = it.s - floor
    shrinking = direction.ds < 0
    if not shrinking.any():
        return 1.0
    ratios = room[shrinking] / (-direction.ds[shrinking])
    return float(min(1.0, ratios.min()))


def fraction_to_boundary_ok(s_plus: np.ndarray, bound: np.ndarray) -> bool:
    """Acceptance-side rule s+ >= theta_b * bound, where ``bound`` is
    :func:`_boundary_bound` of the trial's direction."""
    return bool((s_plus >= THETA_B * bound).all())


def dual_interval(s_plus: np.ndarray, mu_plus: float, it: Iterate,
                  direction: Direction) -> tuple[float, float] | None:
    """Feasible dual step sizes: the largest [lo, hi] within [0,1] keeping
    s+_i (y + alpha dy)_i / mu+ in [beta2, 1/beta2] and
    y + alpha dy >= theta_b * y * min(1, ||dx||_inf).

    Needs s+ > 0 and mu+ > 0 when there are rows (the line search rejects
    other trials first).  Returns None when the intersection is empty (the
    trial is rejected).
    """
    if it.m == 0:
        # The argmin below raises on an empty array; it is kept over an
        # initial= reduction for a zero hi's sign.
        return (0.0, 1.0)
    lower = np.maximum(
        BETA2 * mu_plus / s_plus,
        THETA_B * it.y * min(1.0, direction.dx_norm),
    )
    upper = mu_plus / (BETA2 * s_plus)
    if np.count_nonzero(lower > upper):
        return None
    # A dy of 0.0, -0.0 or NaN leaves y_i fixed: as a signed zero it makes
    # both ratios infinite (NaN on a corridor end), emptying the interval
    # exactly when y_i is outside [lower_i, upper_i].  NaN ratios never
    # tighten it, and the first of tied minima sets hi (and a zero hi's sign).
    y, dy = it.y, np.where(np.isnan(direction.dy), 0.0, direction.dy)
    with np.errstate(divide="ignore", invalid="ignore"):
        to_lower = (lower - y) / dy
        to_upper = (upper - y) / dy
    falling = np.signbit(dy)
    lo_ratios = np.fmax(np.where(falling, to_upper, to_lower), -np.inf)
    hi_ratios = np.fmin(np.where(falling, to_lower, to_upper), np.inf)
    lo = max(0.0, lo_ratios[lo_ratios.argmax()])
    hi = min(1.0, hi_ratios[hi_ratios.argmin()])
    return None if lo > hi else (lo, hi)


def dual_step_size(s_plus: np.ndarray, mu_plus: float,
                   grad_f_plus: np.ndarray, jac_plus: np.ndarray,
                   it: Iterate, direction: Direction,
                   interval: tuple[float, float], alpha_p: float) -> float:
    """Least-squares dual step within the feasible interval.

    Minimizes ||S+ y - mu+ e + zeta S+ dy||^2 +
    ||grad f(x+) + J(x+)^T (y + zeta dy)||^2 over the interval, then pushes
    the result up to at least alpha_p (capped at the interval's top) so the
    duals are not left behind when delta is large.
    """
    lo, hi = interval
    p = np.concatenate([s_plus * it.y - mu_plus, grad_f_plus + jac_plus.T @ it.y])
    q = np.concatenate([s_plus * direction.dy, jac_plus.T @ direction.dy])
    qq = float(q @ q)
    if qq == 0.0:
        zeta = hi
    else:
        zeta = min(max(-float(p @ q) / qq, lo), hi)
    return min(max(zeta, alpha_p), hi)


@dataclass
class StepOutcome:
    success: bool
    iterate: Iterate | None
    direction: Direction
    alpha_p: float = 0.0
    alpha_d: float = 0.0
    reason: str = ""


def theta_bar(mu: float, s: np.ndarray, w: np.ndarray) -> float:
    """Minimum aggressive step size.

    min(1/2, beta6/(4 mu) * min((beta3-beta2)/beta3, 1-theta_b)
        * min_{i: w_i>0} s_i/w_i);
    the slack-ratio factor is vacuous (treated as infinite) when no
    constraint is shifted.  Rejection is strict (alpha_P < theta_bar):
    the trial at exactly theta_bar must stay admissible because the cap
    1/2 coincides with the first backtrack beta6 * 1 whenever the
    fraction-to-boundary maximum is a full step, and that trial is the
    only viable one when the full gamma=0 step zeroes mu.
    """
    shifted = w > 0
    if not shifted.any():
        return 0.5
    slack_ratio = float((s[shifted] / w[shifted]).min())
    corridor = min((BETA3 - BETA2) / BETA3, 1.0 - THETA_B)
    return min(0.5, BETA6 / (4.0 * mu) * corridor * slack_ratio)


def _finite_direction(direction: Direction) -> bool:
    return bool(
        np.isfinite(direction.dx).all()
        and np.isfinite(direction.dy).all()
        and np.isfinite(direction.ds).all()
    )


_REJECTED = (None, 0.0, math.inf)   # (new, alpha_d, tau) of a rejected trial


def _trial(it: Iterate, problem: NlpProblem, direction: Direction,
           bound: np.ndarray, alpha_p: float) -> tuple[Iterate | None, float, float]:
    """``(new, alpha_d, tau)`` at ``alpha_p``; ``new`` is None on rejection.

    s+ = mu+ w - a(x+) must be positive and pass the fraction-to-boundary
    rule against ``bound``; the dual step needs a nonempty dual interval and
    grad f, J at x+.  Then the dual-feasibility guard: if mu+ < (1 - beta8) mu, a tau below 1
    rejects the trial before f is evaluated at x+.
    """
    mu_plus, x_plus, a_plus, s_plus = primal_trial(
        it, direction.dx, direction.gamma, alpha_p, problem)
    # Without rows, a trial that zeroes mu must still reach the guard,
    # whose retry jumps to beta8^2 instead of halving (and np.min of an
    # empty s_plus would raise).
    if it.m and (mu_plus <= 0 or s_plus.min() <= 0):
        return _REJECTED
    if not fraction_to_boundary_ok(s_plus, bound):
        return _REJECTED
    interval = dual_interval(s_plus, mu_plus, it, direction)
    if interval is None:
        return _REJECTED
    grad_f_plus = problem.grad_f(x_plus)
    jac_plus = problem.jac(x_plus)
    alpha_d = dual_step_size(s_plus, mu_plus, grad_f_plus, jac_plus,
                             it, direction, interval, alpha_p)
    y_plus = it.y + alpha_d * direction.dy
    if mu_plus / it.mu < 1.0 - BETA8:
        # mu dropped hard; make sure the dual infeasibility followed.
        grad_l_plus = grad_f_plus + jac_plus.T @ (y_plus - mu_plus * BETA1)
        denom = (1.0 - BETA8) * sigma(y_plus) * inf_norm(grad_l_plus)
        tau = mu_plus / denom if denom > 0 else math.inf
        if tau < 1.0:
            return None, 0.0, tau
    new = make_iterate(problem, mu_plus, x_plus, s_plus, y_plus, it.w,
                       a=a_plus, jac=jac_plus, grad_f=grad_f_plus)
    return new, alpha_d, math.inf


def _line_search(fs: FactorizedSystem, it: Iterate, problem: NlpProblem,
                 direction: Direction,
                 below_minimum: Callable[[float], bool],
                 accepts: Callable[[Iterate, float], bool]) -> StepOutcome:
    """Backtracking search shared by both step kinds.

    Prelude: a non-finite direction, or one whose ``slope`` is not
    negative, fails at once; trials start from the fraction-to-boundary
    maximum.  The boundary bound is formed once, for the maximum and every
    trial.  Trial: :func:`_trial`, then ``accepts(new, alpha_p)`` and the
    complementarity corridor.
    Halving: any rejection, failed evaluation included, multiplies
    ``alpha_p`` by beta6.  Guard: its rejection instead jumps to
    max(beta8^2, alpha_p tau^2), at most MAX_GUARD_RETRIES times (a
    stabilization step, mu+ = mu, never meets it).  The search fails once
    ``below_minimum(alpha_p)`` holds.
    """
    if not _finite_direction(direction):
        return StepOutcome(False, None, direction, reason="non-finite direction")
    if direction.slope >= 0:
        return StepOutcome(False, None, direction, reason="not a descent direction")
    bound = _boundary_bound(it, direction, fs.delta)
    alpha_p = max_primal_step(it, direction, bound, problem._theta_p)
    guard_retries = 0
    while not below_minimum(alpha_p):
        try:
            new, alpha_d, tau = _trial(it, problem, direction, bound, alpha_p)
        except EvaluationError:
            new, alpha_d, tau = _REJECTED
        if tau < 1.0:
            guard_retries += 1
            if guard_retries > MAX_GUARD_RETRIES:
                return StepOutcome(False, None, direction,
                                   reason="dual-feasibility guard retries exhausted")
            alpha_p = max(BETA8 ** 2, alpha_p * tau ** 2)
            continue
        if new is not None and accepts(new, alpha_p) and check_interior(new):
            return StepOutcome(True, new, direction, alpha_p=alpha_p, alpha_d=alpha_d)
        alpha_p *= BETA6
    return StepOutcome(False, None, direction, reason="step size below minimum")


def aggressive_step(fs: FactorizedSystem, it: Iterate, problem: NlpProblem) -> StepOutcome:
    """Mehrotra-style mu-reducing step.

    A pure predictor (gamma = 0) direction sets the corrector target
    gamma = min(0.5, (1 - alpha_max)^2), and the corrector direction goes
    through the shared search with any trial above theta_bar accepted.
    """
    predictor = compute_direction(fs, it, 0.0)
    if not _finite_direction(predictor):
        return StepOutcome(False, None, predictor, reason="non-finite direction")
    alpha_hat = max_primal_step(it, predictor, _boundary_bound(it, predictor, fs.delta),
                                problem._theta_p)
    gamma = min(0.5, (1.0 - alpha_hat) ** 2)
    alpha_min = theta_bar(it.mu, it.s, it.w)
    return _line_search(fs, it, problem, compute_direction(fs, it, gamma),
                        below_minimum=lambda alpha: alpha < alpha_min,
                        accepts=lambda new, alpha: True)


def stabilization_step(fs: FactorizedSystem, it: Iterate, filt: Filter,
                       problem: NlpProblem, phi_cur: float) -> StepOutcome:
    """gamma = 1 step: hold mu and the primal residual, descend the merits.

    The trial point must either make sufficient progress on the augmented
    barrier phi from ``phi_cur``, ``merit_phi(it)`` (Armijo-style, with the
    regularization term folded into the model slope) or pass the KKT
    filter against every accepted iterate at this residual level.
    """
    direction = compute_direction(fs, it, 1.0)
    comp_term = it.comp_norm ** 3 / it.mu ** 2
    dx_sq = float(direction.dx @ direction.dx)

    def sufficient(new: Iterate, alpha_p: float) -> bool:
        phi_plus = merit_phi(new)
        model = 0.5 * (direction.slope - 0.5 * fs.delta * alpha_p * dx_sq) - comp_term
        if phi_plus <= phi_cur + alpha_p * BETA4 * model:
            return True
        return filt.accepts(phi_plus, merit_kkt(new), alpha_p)

    return _line_search(fs, it, problem, direction,
                        below_minimum=lambda alpha: alpha <= BETA5,
                        accepts=sufficient)
