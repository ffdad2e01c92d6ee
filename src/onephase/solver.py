"""The solve: initialization, the iteration loop, termination.

Each inner iteration takes one step from a factorization of the Schur
matrix assembled at the current iterate.  An outer iteration assembles and
factorizes that matrix (one Hessian evaluation) and lasts until a step is
accepted: a rejected step escalates the regularization shift and refactors
the same matrix.  ``outer_iterations`` thus counts the Schur matrices used.
"""

from __future__ import annotations

import copy
import csv
import io
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .iterate import (
    BETA3,
    Certificate,
    Iterate,
    SolveStatus,
    SolverOptions,
    aggressive_criterion,
    check_interior,
    inf_norm,
    make_iterate,
    merit_kkt,
    merit_phi,
    terminate_infeasible,
    terminate_optimal,
    terminate_unbounded,
)
from .linalg import (
    FactorizedSystem,
    MaxDeltaError,
    assemble_schur,
    escalate_delta,
    factorize_growing_shift,
    factorize_with_shift,
    shift_floor,
)
from .problem import EvaluationError, NlpProblem
from .steps import (
    Direction,
    Filter,
    aggressive_step,
    compute_direction,
    stabilization_step,
)


# The paper's fixed parameters read in this module.
BETA10 = 1e-4      # minimum initial slack shift
BETA11 = 1e-2      # minimum initial dual value
BETA12 = 1e3       # maximum initial dual value
KAPPA = 1e-2       # relative margin of the start point inside its bounds


class InitializationError(EvaluationError):
    """The starting point could not be made interior."""

    def __init__(self, message: str):
        RuntimeError.__init__(self, message)
        self.what = "initialization"
        self.index = None


TRACE_SCHEMA_VERSION = "onephase-trace-v2"


@dataclass
class TraceRecord:
    """One trace row; the field order is the CSV column order."""

    iter: int
    outer: int
    kind: str
    accepted: bool
    gamma: float
    delta: float
    alpha_p: float
    alpha_d: float
    mu: float
    mu_pre: float
    primal_resid: float
    opt_dual: float
    opt_comp: float
    switch_dual: float
    phi: float
    kkt: float
    filter_size: int
    f_evals: int
    grad_evals: int
    cons_evals: int
    jac_evals: int
    hess_evals: int
    factorizations: int
    backsolves: int

    def row(self) -> list:
        return [getattr(self, c) for c in TRACE_COLUMNS]


TRACE_COLUMNS = [f.name for f in fields(TraceRecord)]


@dataclass
class SolveTrace:
    records: list = field(default_factory=list)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def write_csv(self, stream: io.TextIOBase) -> None:
        stream.write(f"# {TRACE_SCHEMA_VERSION}\n")
        writer = csv.writer(stream)
        writer.writerow(TRACE_COLUMNS)
        for rec in self.records:
            writer.writerow(rec.row())


@dataclass
class SolveResult:
    """``inner_iterations`` counts the steps tried; ``outer_iterations``
    counts the Schur matrices assembled, each used until a step is accepted."""

    status: SolveStatus
    iterate: Optional[Iterate]
    certificate: Certificate
    trace: SolveTrace
    counters: dict
    inner_iterations: int
    outer_iterations: int
    wall_time: float
    detail: str = ""

    @property
    def x(self) -> Optional[np.ndarray]:
        return None if self.iterate is None else self.iterate.x

    @property
    def f(self) -> Optional[float]:
        return None if self.iterate is None else self.iterate.f


ProgressCallback = Callable[[TraceRecord], None]
StepObserver = Callable[[Iterate, Direction, float, float, Iterate, str], None]


def _counting_problem(problem: NlpProblem) -> tuple[NlpProblem, dict]:
    """``problem`` with counted callbacks, and the counts: one per callback,
    then ``factorizations`` and ``backsolves``, which the solve adds."""
    counts = {"f": 0, "grad": 0, "cons": 0, "jac": 0, "hess": 0,
              "factorizations": 0, "backsolves": 0}

    def tally(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    # A shallow copy: ``problem`` was checked when it was built.
    counted = copy.copy(problem)
    for key, name in (("f", "eval_f"), ("grad", "eval_grad_f"), ("cons", "eval_a"),
                      ("jac", "eval_jac"), ("hess", "eval_hess_lag")):
        setattr(counted, name, tally(key, getattr(problem, name)))
    return counted, counts


def _project_onto_bounds(x: np.ndarray, var: np.ndarray, sign: np.ndarray,
                         c: np.ndarray) -> np.ndarray:
    """Push the start point strictly inside its declared variable bounds,
    given as the ``var``, ``sign`` and ``c`` columns of ``NlpProblem.bounds``.

    Uses the relative margin min(kappa*max(1,|bound|), kappa*(u-l)) on each
    side, so one-sided bounds get a fixed push and tight boxes remain
    ordered.
    """
    lower = np.full(x.shape[0], -np.inf)
    upper = np.full(x.shape[0], np.inf)
    # Each side keeps its tightest bound and, of equal ones, the first (so the
    # sign of a zero), as min/max do: a stable sort by variable, then tightness.
    for side, rows, key in ((upper, sign > 0, c), (lower, sign <= 0, -c)):
        order = np.flatnonzero(rows)[np.lexsort((key[rows], var[rows]))]
        j, first = np.unique(var[order], return_index=True)
        side[j] = c[order[first]]
    # A missing side's pad is inf, so its target inf - inf is NaN, which the
    # strict comparisons below skip; on a tie they keep x, as max/min do.
    with np.errstate(invalid="ignore", over="ignore"):
        width = upper - lower
        pad_lo = np.minimum(KAPPA * np.maximum(1.0, np.abs(lower)), KAPPA * width)
        pad_hi = np.minimum(KAPPA * np.maximum(1.0, np.abs(upper)), KAPPA * width)
        lo, hi = lower + pad_lo, upper - pad_hi
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def initial_slack_shift(s_raw: np.ndarray) -> np.ndarray:
    """Raw slacks plus the scalar shift max(-2 min_i s_raw_i, beta10)."""
    return s_raw + max(-2.0 * float(np.min(s_raw)), BETA10)


def clip_initial_duals(y: np.ndarray, s0: np.ndarray, mu0: float) -> np.ndarray:
    """Clamp dual estimates into the [beta3, 1/beta3] complementarity corridor."""
    return np.minimum(np.maximum(BETA3 * mu0 / s0, y), mu0 / (BETA3 * s0))


def initialize(problem: NlpProblem, x_start: np.ndarray,
               opts: SolverOptions, counters: Optional[dict] = None) -> Iterate:
    """Build the starting iterate (mu0, x0, s0, y0) and the shift vector w.

    The start point is projected strictly inside any variable bounds; bound
    rows get w_i = 0 so they stay satisfied forever.  Dual estimates come
    from one Newton direction on the KKT system at unit duals, followed by
    shifts and clipping that center complementarity.  Finally
    w = (a(x0) + s0)/mu0, which makes the residual identity hold exactly.
    The probe's trial factorizations and backsolves are added to
    ``counters`` when given.

    Raises :class:`InitializationError` when a bound row is active or
    violated after projection, or when the Jacobian row of a declared bound
    row is not ``sign*e_var`` (the Schur assembly relies on it); evaluation
    failures at the start point propagate.
    """
    x0 = np.array(x_start, float)  # a copy: iterates own their arrays
    if x0.shape != (problem.n,):
        raise ValueError(f"x_start must have shape ({problem.n},)")
    if not np.all(np.isfinite(x0)):
        raise InitializationError("x_start has non-finite entries")

    m = problem.m
    if m == 0:
        # No duals to estimate: the general path below would divide by m
        # and spend one Hessian and one factorization more.
        mu0 = opts.mu_scale * 1.0
        empty = np.zeros(0)
        return make_iterate(problem, mu0, x0, empty, empty, empty)

    rows, var, sign = problem._bound_row, problem._bound_var, problem._bound_sign
    x0 = _project_onto_bounds(x0, var, sign, problem._bound_c)
    a0 = problem.a(x0)
    s_raw = -a0

    bound_mask = np.zeros(m, dtype=bool)
    bound_mask[rows] = True
    if np.any(s_raw[bound_mask] <= 0):
        bad = int(np.flatnonzero(bound_mask & (s_raw <= 0))[0])
        raise InitializationError(
            f"bound row {bad} active or violated after projection")

    # One Newton direction at unit duals to estimate y.  The shifted slacks
    # only serve this solve; the residual target is a(x0) + s_tilde.
    y_tilde = np.ones(m)
    s_tilde = initial_slack_shift(s_raw)
    probe_w = a0 + s_tilde
    probe = make_iterate(problem, 1.0, x0, s_tilde, y_tilde, probe_w, a=a0)
    declared = np.zeros((rows.size, problem.n))
    declared[np.arange(rows.size), var] = sign
    for k in np.flatnonzero((probe.jac[rows] != declared).any(axis=1))[:1]:
        raise InitializationError(
            f"bound row {rows[k]} is declared as {sign[k]:g}*e_{var[k]} but its Jacobian row differs")
    fs = factorize_with_shift(assemble_schur(problem, probe), 0.0)
    direction = compute_direction(fs, probe, 0.0)
    if counters is not None:
        counters["factorizations"] += fs.attempts
        counters["backsolves"] += fs.solves

    y_tilde = y_tilde + direction.dy
    s_tilde = s_raw.copy()

    eps_y = max(-2.0 * float(np.min(y_tilde)), 0.0)
    y_tilde = y_tilde + eps_y
    grad_l0 = probe.grad_f + probe.jac.T @ y_tilde
    eps_s = max(-2.0 * float(np.min(s_tilde)),
                inf_norm(grad_l0) / (float(np.linalg.norm(y_tilde)) + 1.0))
    free = ~bound_mask
    s_tilde[free] += eps_s

    denom_s = 2.0 * float(s_tilde.sum())
    if denom_s > 0:
        y_tilde = y_tilde + float(s_tilde @ y_tilde) / denom_s
    y_tilde = np.clip(y_tilde, BETA11, BETA12)
    s_tilde[free] += float(s_tilde @ y_tilde) / (2.0 * float(y_tilde.sum()))

    mu_tilde = float(s_tilde @ y_tilde) / m
    mu0 = opts.mu_scale * mu_tilde
    s0 = s_tilde
    if mu0 <= 0 or np.min(s0) <= 0:
        raise InitializationError("could not construct a strictly interior start")
    w = (a0 + s0) / mu0
    y0 = clip_initial_duals(y_tilde, s0, mu0)

    start = make_iterate(problem, mu0, x0, s0, y0, w, a=a0,
                         jac=probe.jac, f=probe.f, grad_f=probe.grad_f)
    assert check_interior(start)
    return start


def _refactorize(M: np.ndarray, delta: float) -> FactorizedSystem:
    """Factor M + delta*I at an escalated shift, growing delta on numerical
    failure (the escalation formula does not guarantee positive
    definiteness by itself)."""
    return factorize_growing_shift(M, delta)


def solve(
    problem: NlpProblem,
    x_start: np.ndarray,
    opts: Optional[SolverOptions] = None,
    progress: Optional[ProgressCallback] = None,
    step_observer: Optional[StepObserver] = None,
) -> SolveResult:
    """Run the one-phase interior point method.

    Returns a terminal status with its certificate: first-order optimality,
    local primal infeasibility (a^T y > 0 with vanishing stationarity
    measures), unboundedness of the shifted feasible set, or one of the
    failure statuses (shift cap, iteration/time limit, evaluation error).

    ``progress`` receives each :class:`TraceRecord` as it is produced and
    must not mutate solver state.  ``step_observer`` is called on every
    accepted step with ``(previous, direction, alpha_p, alpha_d, new,
    kind)``; it exists for verification and diagnostics.
    """
    opts = SolverOptions() if opts is None else opts
    opts.validate()
    counted, counters = _counting_problem(problem)
    t0 = time.perf_counter()
    trace = SolveTrace()
    rejected: Counter = Counter()   # (step kind, reason) of every rejected step

    def result(status, iterate, certificate, detail=""):
        return SolveResult(
            status=status,
            iterate=iterate,
            certificate=certificate,
            trace=trace,
            counters=dict(counters),
            inner_iterations=inner_count,
            outer_iterations=outer_count,
            wall_time=time.perf_counter() - t0,
            detail=detail,
        )

    def stall_detail() -> str:
        text = f"{rejected.total()} of {inner_count} steps rejected"
        if rejected:
            (kind, reason), _count = rejected.most_common(1)[0]
            text += f"; most often {kind}: {reason}"
        return text

    def check_termination(it: Iterate):
        if cert := terminate_optimal(it, opts.eps_opt):
            return SolveStatus.OPTIMAL, cert
        if cert := terminate_infeasible(it):
            return SolveStatus.PRIMAL_INFEASIBLE, cert
        if cert := terminate_unbounded(it):
            return SolveStatus.UNBOUNDED, cert
        if inner_count >= opts.max_iter:
            return (SolveStatus.ITERATION_LIMIT,
                    Certificate({"inner_iterations": inner_count}), stall_detail())
        if time.perf_counter() - t0 >= opts.max_time:
            return (SolveStatus.TIME_LIMIT,
                    Certificate({"seconds": time.perf_counter() - t0}), stall_detail())
        return None

    inner_count = 0
    outer_count = 0
    cur: Optional[Iterate] = None
    try:
        cur = initialize(counted, x_start, opts, counters)
        phi, kkt = merit_phi(cur), merit_kkt(cur)   # cur's, for the filter and trace
        filt = Filter()
        filt.reset(phi, kkt)
        M = None    # the Schur matrix at cur, until a step leaves cur
        fs = None   # its live factorization; after a step, the previous one

        while (hit := check_termination(cur)) is None:
            if M is None:
                M = assemble_schur(counted, cur)
                outer_count += 1
                floor = shift_floor(cur.grad_norm, inf_norm(cur.x))
                fs = factorize_with_shift(M, fs.delta if fs else 0.0, floor)
                counters["factorizations"] += fs.attempts
            inner_count += 1

            mu_pre = cur.mu
            switch_dual = cur.sigma * cur.grad_norm
            take_aggressive = aggressive_criterion(cur)
            if take_aggressive:
                outcome = aggressive_step(fs, cur, counted)
                kind = "aggressive"
            else:
                outcome = stabilization_step(fs, cur, filt, counted, phi)
                kind = "stabilization"
            counters["backsolves"] += fs.solves

            if not outcome.success:
                rejected[kind, outcome.reason] += 1
            else:
                prev = cur
                cur = outcome.iterate
                phi, kkt = merit_phi(cur), merit_kkt(cur)
                if take_aggressive:
                    filt.reset(phi, kkt)
                else:
                    filt.add(phi, kkt)
                if step_observer is not None:
                    step_observer(prev, outcome.direction, outcome.alpha_p,
                                  outcome.alpha_d, cur, kind)

            opt_dual, opt_comp = cur.scaled_optimality
            record = TraceRecord(
                iter=inner_count, outer=outer_count, kind=kind,
                accepted=outcome.success,
                gamma=outcome.direction.gamma,
                delta=fs.delta, alpha_p=outcome.alpha_p, alpha_d=outcome.alpha_d,
                mu=cur.mu, mu_pre=mu_pre,
                primal_resid=inf_norm(cur.primal_residual()),
                opt_dual=opt_dual, opt_comp=opt_comp,
                switch_dual=switch_dual,
                phi=phi, kkt=kkt,
                filter_size=len(filt.entries),
                f_evals=counters["f"], grad_evals=counters["grad"],
                cons_evals=counters["cons"], jac_evals=counters["jac"],
                hess_evals=counters["hess"],
                factorizations=counters["factorizations"],
                backsolves=counters["backsolves"],
            )
            trace.append(record)
            if progress is not None:
                progress(record)

            if outcome.success:
                M = None
            else:
                # Escalate the shift and refactor the same M; cur has not moved.
                dx_norm = outcome.direction.dx_norm
                delta = escalate_delta(fs.delta, cur.grad_norm, dx_norm if dx_norm > 0 else 1.0)
                fs = _refactorize(M, delta)
                counters["factorizations"] += fs.attempts
        return result(hit[0], cur, *hit[1:])
    except MaxDeltaError as exc:
        counters["factorizations"] += exc.attempts
        return result(SolveStatus.MAX_DELTA, cur, Certificate({"delta": exc.delta}), str(exc))
    except EvaluationError as exc:
        return result(SolveStatus.EVALUATION_ERROR, cur, Certificate({}), str(exc))
