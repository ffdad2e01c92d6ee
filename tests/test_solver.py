import io
import json
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import onephase.linalg as linalg_module
import onephase.solver as solver_module
from onephase import (
    EvaluationError,
    LinearRow,
    NlpProblem,
    Relation,
    SolveStatus,
    SolverOptions,
    SourceConstraint,
    SourceProblem,
    builtin_registry,
    solve,
    to_inequality_form,
)
from onephase.iterate import check_interior, inf_norm
from onephase.linalg import MaxDeltaError
from onephase.solver import (
    TRACE_SCHEMA_VERSION,
    InitializationError,
    _refactorize,
    clip_initial_duals,
    initial_slack_shift,
    initialize,
)

from helpers import quadratic_problem, run_python
from test_golden_record import GOLDEN, _nan_region_problem
from test_golden_record import _steps as golden_steps


def lp_min_x_ge_1():
    source = SourceProblem(
        n=1,
        eval_f=lambda x: float(x[0]),
        eval_grad_f=lambda x: np.array([1.0]),
        eval_hess_f=lambda x: np.zeros((1, 1)),
        linear_rows=[LinearRow(np.array([1.0]), Relation.GE, 1.0)],
        name="lp-1d",
    )
    problem, _ = to_inequality_form(source)
    return problem


class TestInitializeHelpers:
    def test_slack_shift_small_raw(self):
        # s_raw = (2,): shift = max(-4, 1e-4) = 1e-4.
        out = initial_slack_shift(np.array([2.0]))
        assert_allclose(out, [2.0001])

    def test_slack_shift_negative_raw(self):
        out = initial_slack_shift(np.array([-1.0, 3.0]))
        assert_allclose(out, [1.0, 5.0])

    def test_dual_clip_lower(self):
        y0 = clip_initial_duals(np.zeros(2), np.array([1.0, 2.0]), 0.5)
        assert_allclose(y0, [0.02 * 0.5, 0.02 * 0.25])

    def test_dual_clip_upper(self):
        y0 = clip_initial_duals(np.full(1, 1e9), np.array([1.0]), 0.5)
        assert_allclose(y0, [0.5 / 0.02])


def far_box_qp():
    """min (x-0.5)^2 s.t. 0 <= x <= 1."""
    return SourceProblem(
        n=1, eval_f=lambda x: float((x[0] - 0.5) ** 2),
        eval_grad_f=lambda x: 2 * (x - 0.5), eval_hess_f=lambda x: 2 * np.eye(1),
        lower=np.array([0.0]), upper=np.array([1.0]))


def far_half_line_lp():
    """min x s.t. x >= 0.5."""
    return SourceProblem(
        n=1, eval_f=lambda x: float(x[0]), eval_grad_f=lambda x: np.ones(1),
        eval_hess_f=lambda x: np.zeros((1, 1)), lower=np.array([0.5]))


def _project_onto_bounds_loop(x, bounds, kappa=1e-2):
    """The per-variable loop ``_project_onto_bounds`` replaced, kept as its reference."""
    n = x.shape[0]
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    for _row, j, sign, c in bounds:
        if sign > 0:   # x_j - c <= 0
            upper[j] = min(upper[j], c)
        else:          # c - x_j <= 0
            lower[j] = max(lower[j], c)
    out = np.array(x, float)
    for j in range(n):
        lo, hi = lower[j], upper[j]
        if np.isfinite(lo) and np.isfinite(hi):
            width = hi - lo
            pad_lo = min(kappa * max(1.0, abs(lo)), kappa * width)
            pad_hi = min(kappa * max(1.0, abs(hi)), kappa * width)
            out[j] = min(max(out[j], lo + pad_lo), hi - pad_hi)
        elif np.isfinite(lo):
            out[j] = max(out[j], lo + kappa * max(1.0, abs(lo)))
        elif np.isfinite(hi):
            out[j] = min(out[j], hi - kappa * max(1.0, abs(hi)))
    return out


BOX_KINDS = ("free", "lower", "upper", "two-sided", "tight", "fixed", "crossed")


def _random_projection_case(rng):
    """A start point and shuffled bound rows: free, one-sided, two-sided,
    tight (width 1e-12 relative), fixed and crossed boxes, a repeated bound
    on one side of a variable (sometimes the same zero with the other
    sign), and ends and starts of magnitude up to 1e308."""
    n = int(rng.integers(1, 6))
    special = np.array([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e308, -1e308])

    def value():
        if rng.random() < 0.3:
            return float(rng.choice(special))
        return float(rng.standard_normal() * 10.0 ** rng.uniform(-3, 3))

    def finite(v):  # declared bound constants are finite
        return float(np.clip(v, -1.7e308, 1.7e308))

    bounds, kinds = [], []
    for j in range(n):
        kind = BOX_KINDS[int(rng.integers(0, len(BOX_KINDS)))]
        lo = value()
        hi = {"tight": lo + 1e-12 * max(1.0, abs(lo)), "fixed": lo,
              "crossed": lo - 1.0 - 0.5 * abs(lo)}.get(kind, lo + abs(value()) + 1e-3)
        hi = finite(hi)
        sides = {"free": (), "lower": (-1,), "upper": (1,)}.get(kind, (-1, 1))
        for sign in sides:
            c = lo if sign < 0 else hi
            bounds.append((0, j, sign, c))
            if rng.random() < 0.25:  # a repeat on the same side
                again = -c if c == 0.0 else c + sign * float(rng.choice([-0.5, 0, 0.5])) * abs(c)
                bounds.append((0, j, sign, finite(again)))
                kind += "+repeat"
        kinds.append(kind)
    order = rng.permutation(len(bounds))
    bounds = tuple((int(k), *bounds[i][1:]) for k, i in enumerate(order))
    x = np.array([value() for _ in range(n)])
    return x, bounds, kinds


class TestProjectOntoBoundsMatchesLoop:
    def test_random_cases_identical(self):
        rng = np.random.default_rng(31)
        seen = dict.fromkeys(BOX_KINDS, 0) | {"repeat": 0, "huge": 0, "zero": 0}
        for _ in range(3000):
            x, bounds, kinds = _random_projection_case(rng)
            want = _project_onto_bounds_loop(x, bounds)
            _, var, sign, c = np.array(bounds, dtype=float).reshape(-1, 4).T
            got = solver_module._project_onto_bounds(x, var.astype(np.intp), sign, c)
            assert got.tobytes() == want.tobytes(), (x, bounds)
            for kind in kinds:
                seen[kind.split("+")[0]] += 1
                seen["repeat"] += "+repeat" in kind
            ends = np.array([c for *_, c in bounds] + list(x))
            seen["huge"] += bool(np.any(np.abs(ends) >= 1e300))
            seen["zero"] += bool(np.any(ends == 0.0))
        assert min(seen.values()) > 200, seen


class TestInitialize:
    def test_residual_identity_and_interiority(self):
        opts = SolverOptions()
        for entry in builtin_registry().values():
            problem, _ = entry.build()
            it = initialize(problem, entry.x_start, opts)
            assert check_interior(it), entry.name
            if problem.m:
                resid = inf_norm(it.primal_residual())
                assert resid <= 1e-12 * (1.0 + it.mu * inf_norm(it.w)), entry.name
                assert np.all(it.w >= 0), entry.name

    def test_bound_rows_get_zero_shift(self):
        opts = SolverOptions()
        entry = builtin_registry()["qp-separable10"]
        problem, _ = entry.build()
        it = initialize(problem, entry.x_start, opts)
        assert problem.bounds
        for row, _var, _sign, _c in problem.bounds:
            assert it.w[row] == 0.0

    def test_start_projected_inside_bounds(self):
        opts = SolverOptions()
        entry = builtin_registry()["qp-separable10"]
        problem, _ = entry.build()
        it = initialize(problem, np.full(10, 25.0), opts)
        assert np.all(problem.a(it.x) < 0)

    def test_start_iterate_does_not_alias_x_start(self):
        # Unconstrained and already optimal: the start is the result.
        x_start = np.zeros(2)
        result = solve(quadratic_problem(np.eye(2), np.zeros(2)), x_start)
        assert result.status is SolveStatus.OPTIMAL and result.inner_iterations == 0
        x_start[0] = 7.0
        assert result.x[0] == 0.0

    def test_degenerate_bounds_fatal(self):
        # Declared bound rows 1 <= x0 <= 1 have no interior to project into.
        # (to_inequality_form lowers l = u to shifted rows instead.)
        problem = NlpProblem(
            n=1, m=2,
            eval_f=lambda x: float(x[0]),
            eval_grad_f=lambda x: np.array([1.0]),
            eval_a=lambda x: np.array([1.0 - x[0], x[0] - 1.0]),
            eval_jac=lambda x: np.array([[-1.0], [1.0]]),
            eval_hess_lag=lambda x, v: np.zeros((1, 1)),
            bounds=((0, 0, -1, 1.0), (1, 0, 1, 1.0)),
            linear_indices=frozenset({0, 1}),
        )
        with pytest.raises(InitializationError, match="bound row 0"):
            initialize(problem, np.zeros(1), SolverOptions())

    def test_declared_bound_row_must_match_the_jacobian(self):
        # Row 0 is declared as x_0 >= 1, whose Jacobian row is -e_0, but
        # eval_jac returns 2.0 there: the Schur assembly would use -e_0.
        problem = NlpProblem(
            n=1, m=1,
            eval_f=lambda x: float(x[0]),
            eval_grad_f=lambda x: np.array([1.0]),
            eval_a=lambda x: np.array([1.0 - x[0]]),
            eval_jac=lambda x: np.array([[2.0]]),
            eval_hess_lag=lambda x, v: np.zeros((1, 1)),
            bounds=((0, 0, -1, 1.0),),
            linear_indices=frozenset({0}),
        )
        with pytest.raises(InitializationError, match="bound row 0"):
            initialize(problem, np.zeros(1), SolverOptions())
        result = solve(problem, np.zeros(1))
        assert result.status is SolveStatus.EVALUATION_ERROR
        assert result.detail == "bound row 0 is declared as -1*e_0 but its Jacobian row differs"

    @pytest.mark.parametrize("source, x0", [
        (far_box_qp, 1e16), (far_box_qp, 1e17), (far_box_qp, -1e17),
        (far_half_line_lp, -1e17),
    ], ids=["box-1e16", "box-1e17", "box-neg1e17", "half-line-neg1e17"])
    def test_far_start_projects_onto_exact_bounds(self, source, x0):
        # Bound constants come from the declaration, not from a(x0) - sign*x0,
        # which rounds the constant away when |x0| dwarfs it.
        problem, _ = to_inequality_form(source())
        result = solve(problem, np.array([x0]))
        assert result.status is SolveStatus.OPTIMAL
        assert abs(result.x[0] - 0.5) <= 1e-5

    def test_unconstrained_start(self):
        p = quadratic_problem(np.eye(2), np.zeros(2))
        it = initialize(p, np.array([3.0, -4.0]), SolverOptions(mu_scale=2.0))
        assert it.mu == 2.0
        assert_allclose(it.x, [3.0, -4.0])


class TestSolveBasics:
    def test_already_optimal_takes_no_steps(self):
        p = quadratic_problem(np.eye(2), np.zeros(2))
        result = solve(p, np.zeros(2))
        assert result.status is SolveStatus.OPTIMAL
        assert result.inner_iterations == 0
        assert len(result.trace) == 0

    def test_one_d_lp(self):
        result = solve(lp_min_x_ge_1(), np.zeros(1))
        assert result.status is SolveStatus.OPTIMAL
        assert abs(result.x[0] - 1.0) <= 1e-5

    def test_infeasible_pair_certificate(self):
        entry = builtin_registry()["infeasible-box"]
        problem, _ = entry.build()
        result = solve(problem, entry.x_start)
        assert result.status is SolveStatus.PRIMAL_INFEASIBLE
        cert = result.certificate.values
        assert cert["a_dot_y"] > 0
        assert cert["gamma_far"] <= 1e-3
        assert cert["gamma_inf"] <= 1e-6

    def test_iteration_limit(self):
        entry = builtin_registry()["unbounded-lp"]
        problem, _ = entry.build()
        result = solve(problem, entry.x_start, SolverOptions(max_iter=5))
        assert result.status is SolveStatus.ITERATION_LIMIT
        assert result.inner_iterations == 5
        assert result.detail == ("2 of 5 steps rejected; "
                                 "most often stabilization: step size below minimum")

    def test_time_limit(self):
        result = solve(lp_min_x_ge_1(), np.zeros(1), SolverOptions(max_time=0.0))
        assert result.status is SolveStatus.TIME_LIMIT
        assert result.detail == "0 of 0 steps rejected"

    def test_evaluation_error_at_start(self):
        p = quadratic_problem(np.eye(1), np.zeros(1))
        bad = replace(p, eval_f=lambda x: float("nan"))
        result = solve(bad, np.ones(1))
        assert result.status is SolveStatus.EVALUATION_ERROR

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            solve(lp_min_x_ge_1(), np.zeros(1), SolverOptions(max_time=float("nan")))

    def test_accepted_steps_keep_invariants(self):
        # Every accepted iterate stays in the complementarity corridor, and its
        # rebuilt slacks satisfy a(x) + s = mu*w up to rounding at its own
        # magnitude, measured against mu0*||w||_inf of the start.
        opts = SolverOptions()
        eps = np.finfo(float).eps
        for name in ("wachter", "qp-separable10"):
            entry = builtin_registry()[name]
            problem, _ = entry.build()
            start = []
            accepted = []

            def observer(prev, direction, alpha_p, alpha_d, new, kind):
                if not start:
                    start.append(prev.mu * inf_norm(prev.w))
                assert check_interior(new), name
                scale = inf_norm(new.s) + inf_norm(new.a) + new.mu * inf_norm(new.w)
                assert inf_norm(new.primal_residual()) <= (
                    1e-8 * (1.0 + start[0]) + 16 * eps * scale), name
                accepted.append(kind)

            result = solve(problem, entry.x_start, opts, step_observer=observer)
            assert result.status is SolveStatus.OPTIMAL, name
            assert accepted, name


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in ("wachter", "qp-simplex", "degenerate-lp", "nonconvex-quartic"):
        entry = builtin_registry()[name]
        problem, _ = entry.build()
        out[name] = solve(problem, entry.x_start)
    return out


class TestSolveTraceInvariants:
    def test_mu_column_nonincreasing(self, traced):
        for name, result in traced.items():
            mus = [r.mu for r in result.trace.records]
            assert all(b <= a + 1e-15 for a, b in zip(mus, mus[1:])), name

    def test_mu_strictly_decreasing_on_aggressive(self, traced):
        for name, result in traced.items():
            for rec in result.trace.records:
                if rec.kind == "aggressive" and rec.accepted:
                    assert rec.mu < rec.mu_pre, name

    def test_primal_residual_bounded(self, traced):
        for name, result in traced.items():
            entry = builtin_registry()[name]
            problem, _ = entry.build()
            it0 = initialize(problem, entry.x_start, SolverOptions())
            allowance = 1e-8 * (1.0 + it0.mu * inf_norm(it0.w))
            for rec in result.trace.records:
                assert rec.primal_resid <= allowance, name

    def test_aggressive_dispatch_satisfied_switching(self, traced):
        # accepted aggressive steps were dispatched with
        # sigma(y)||grad L_mu||_inf <= mu at the pre-step point.
        for name, result in traced.items():
            for rec in result.trace.records:
                if rec.kind == "aggressive":
                    assert rec.switch_dual <= rec.mu_pre * (1 + 1e-12), name

    def test_filter_resets_exactly_on_mu_change(self, traced):
        for name, result in traced.items():
            prev_mu = None
            prev_size = None
            for rec in result.trace.records:
                if rec.accepted and prev_mu is not None:
                    if rec.mu < prev_mu:
                        assert rec.filter_size == 1, name
                    else:
                        assert rec.filter_size == prev_size + 1, name
                if prev_mu is None:
                    prev_mu, prev_size = rec.mu, rec.filter_size
                elif rec.accepted:
                    prev_mu, prev_size = rec.mu, rec.filter_size

    def test_delta_below_cap(self, traced):
        for name, result in traced.items():
            for rec in result.trace.records:
                assert rec.delta <= 1e50, name

    def test_hessian_once_per_outer(self, traced):
        for name, result in traced.items():
            problem, _ = builtin_registry()[name].build()
            expected = result.outer_iterations + (1 if problem.m else 0)
            assert result.counters["hess"] == expected, name

    def test_csv_roundtrip_schema(self, traced):
        result = traced["wachter"]
        buf = io.StringIO()
        result.trace.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == f"# {TRACE_SCHEMA_VERSION}"
        # the onephase-trace-v2 header, pinned column by column
        assert lines[1] == (
            "iter,outer,kind,accepted,gamma,delta,alpha_p,alpha_d,mu,"
            "mu_pre,primal_resid,opt_dual,opt_comp,switch_dual,phi,kkt,"
            "filter_size,f_evals,grad_evals,cons_evals,jac_evals,hess_evals,"
            "factorizations,backsolves")
        assert len(lines) == 2 + len(result.trace)


class TestOneFactorizationPerStep:
    """Each outer iteration assembles one Schur matrix at the current
    iterate and lasts until a step from it is accepted."""

    @pytest.mark.parametrize("name", ["wachter", "qp-separable10", "infeasible-box"])
    def test_outer_iteration_ends_at_each_accepted_step(self, name):
        entry = builtin_registry()[name]
        problem, _ = entry.build()
        result = solve(problem, entry.x_start)
        assert result.status in (SolveStatus.OPTIMAL, SolveStatus.PRIMAL_INFEASIBLE)
        # one Hessian per outer iteration plus the initial probe's (an
        # unconstrained solve has no probe: see test_hessian_once_per_outer)
        assert result.counters["hess"] == result.outer_iterations + 1
        assert result.outer_iterations <= result.inner_iterations
        records = result.trace.records
        assert records[0].outer == 1
        for rec, after in zip(records, records[1:]):
            assert after.outer == rec.outer + rec.accepted, (name, rec.iter)
        assert records[-1].outer == result.outer_iterations


class TestCallbacks:
    def test_progress_sees_every_record(self):
        entry = builtin_registry()["qp-2d"]
        problem, _ = entry.build()
        seen = []
        result = solve(problem, entry.x_start, progress=seen.append)
        assert len(seen) == len(result.trace)
        assert [r.iter for r in seen] == [r.iter for r in result.trace.records]

    def test_observer_reports_consistent_updates(self):
        entry = builtin_registry()["qp-simplex"]
        problem, _ = entry.build()
        steps = []

        def observer(prev, direction, alpha_p, alpha_d, new, kind):
            steps.append((prev, direction, alpha_p, alpha_d, new, kind))

        result = solve(problem, entry.x_start, step_observer=observer)
        assert result.status is SolveStatus.OPTIMAL
        assert steps
        for prev, direction, alpha_p, alpha_d, new, kind in steps:
            assert_allclose(new.x, prev.x + alpha_p * direction.dx, atol=1e-14)
            assert_allclose(new.y, prev.y + alpha_d * direction.dy, atol=1e-14)
            factor = 1.0 - (1.0 - direction.gamma) * alpha_p
            assert new.mu == pytest.approx(factor * prev.mu, rel=1e-14)

    def test_linear_slack_update_equivalence(self):
        # On all-linear problems the nonlinear slack rebuild equals the
        # linear update s + alpha_P * ds.
        for name in ("qp-simplex", "qp-2d", "degenerate-lp", "qp-separable10"):
            entry = builtin_registry()[name]
            problem, _ = entry.build()
            worst = 0.0

            def observer(prev, direction, alpha_p, alpha_d, new, kind):
                nonlocal worst
                err = inf_norm(new.s - (prev.s + alpha_p * direction.ds))
                worst = max(worst, err / (1.0 + inf_norm(prev.s)))

            result = solve(problem, entry.x_start, step_observer=observer)
            assert result.status is SolveStatus.OPTIMAL
            assert worst <= 1e-10, name


class TestFactorizationLifetime:
    def test_superseded_factorizations_are_freed(self, monkeypatch):
        # solve() keeps only the live factorization; every superseded one
        # is released once its counts are in result.counters.
        made = []

        def recording(fn):
            def wrapper(*args):
                fs = fn(*args)
                made.append(weakref.ref(fs))
                return fs
            return wrapper

        monkeypatch.setattr(solver_module, "factorize_with_shift",
                            recording(solver_module.factorize_with_shift))
        monkeypatch.setattr(solver_module, "_refactorize",
                            recording(solver_module._refactorize))
        alive = []

        def progress(record):
            alive.append(sum(ref() is not None for ref in made))

        entry = builtin_registry()["wachter"]
        problem, _ = entry.build()
        x0 = entry.x_start.copy()
        x0[0] = -100.0
        result = solve(problem, x0, progress=progress)
        assert result.status is SolveStatus.OPTIMAL
        assert result.outer_iterations >= 5
        assert len(made) >= result.outer_iterations
        assert max(alive) <= 1
        assert result.counters["factorizations"] >= len(made)


def _max_delta_example():
    """Unconstrained n = 2 quadratic whose Hessian needs a shift near 1e55,
    past the cap, from x0 = (1, 0)."""
    return quadratic_problem([[1.0, 1e55], [1e55, 1.0]], [0.0, 0.0]), np.array([1.0, 0.0]), None


def _wachter_far_start():
    entry = builtin_registry()["wachter"]
    x0 = entry.x_start.copy()
    x0[0] = -100.0
    return entry.build()[0], x0, None


class TestWorkCounters:
    """``factorizations`` counts every trial Cholesky, failed ones included,
    and is the sum of ``attempts`` over the factorizations the solve makes;
    ``backsolves`` is the sum of their ``solves``."""

    @pytest.mark.parametrize("make, status, trial_count", [
        (_wachter_far_start, SolveStatus.OPTIMAL, None),
        (lambda: (_nan_region_problem("eval_a"), np.array([0.0]), SolverOptions(max_iter=200)),
         SolveStatus.ITERATION_LIMIT, None),
        (_max_delta_example, SolveStatus.MAX_DELTA, 66),
    ], ids=["wachter", "nan-eval_a", "max-delta"])
    def test_counts_add_up(self, monkeypatch, make, status, trial_count):
        made = []     # every FactorizedSystem, the probe's included
        trials = []   # every trial Cholesky

        def recording(fn, log):
            def wrapper(*args):
                out = fn(*args)
                log.append(out)
                return out
            return wrapper

        for name in ("factorize_with_shift", "_refactorize"):
            monkeypatch.setattr(solver_module, name, recording(getattr(solver_module, name), made))
        monkeypatch.setattr(linalg_module, "_try_cholesky",
                            recording(linalg_module._try_cholesky, trials))

        def sums():
            return sum(fs.attempts for fs in made), sum(fs.solves for fs in made)

        def progress(record):
            assert (record.factorizations, record.backsolves) == sums(), record.iter
            assert record.factorizations == len(trials), record.iter

        problem, x0, opts = make()
        result = solve(problem, x0, opts, progress=progress)
        assert result.status is status
        assert result.counters["factorizations"] == len(trials) > 0
        assert result.counters["backsolves"] == sums()[1]
        if trial_count is not None:
            assert len(trials) == trial_count


class TestEscalationShift:
    def test_escalation_receives_live_shift(self, monkeypatch):
        # escalate_delta reads the shift of the live factorization and
        # nothing else: the solver keeps no second remembered shift.
        live = []
        escalations = []

        def factoring(fn):
            def wrapper(*args):
                fs = fn(*args)
                live.append(fs.delta)
                return fs
            return wrapper

        def escalating(delta, grad_norm, dx_norm):
            escalations.append((delta, live[-1]))
            return escalate(delta, grad_norm, dx_norm)

        escalate = solver_module.escalate_delta
        monkeypatch.setattr(solver_module, "escalate_delta", escalating)
        monkeypatch.setattr(solver_module, "factorize_with_shift",
                            factoring(solver_module.factorize_with_shift))
        monkeypatch.setattr(solver_module, "_refactorize",
                            factoring(solver_module._refactorize))
        escalated = set()
        for name, entry in builtin_registry().items():
            problem, _ = entry.build()
            before = len(escalations)
            solve(problem, entry.x_start)
            if len(escalations) > before:
                escalated.add(name)
        assert {"qp-separable10", "unbounded-lp"} <= escalated
        for delta, live_delta in escalations:
            assert delta == live_delta


def _one_sided_lp(**callbacks):
    """min x s.t. -1 - x <= 0 with some callbacks replaced."""
    evals = {
        "eval_f": lambda x: float(x[0]),
        "eval_grad_f": lambda x: np.array([1.0]),
        "eval_a": lambda x: np.array([-1.0 - x[0]]),
        "eval_jac": lambda x: np.array([[-1.0]]),
        "eval_hess_lag": lambda x, v: np.zeros((1, 1)),
    }
    evals.update(callbacks)
    return NlpProblem(n=1, m=1, linear_indices=frozenset({0}), name="one-sided-lp", **evals)


def _asymmetric_hessian_qp():
    """min 0.5 x'Hx + x1 + x2 s.t. x1 + x2 <= 1 with H[0, 1] != H[1, 0]."""
    return quadratic_problem([[2.0, 0.5], [0.0, 2.0]], [1.0, 1.0], [[1.0, 1.0]], [-1.0])


def _a_raising_below_half(x):
    if x[0] <= -0.5:
        raise ValueError("a is undefined here")
    return np.array([-1.0 - x[0]])


class TestHostileCallbacks:
    @pytest.mark.parametrize("callbacks, detail", [
        ({"eval_f": lambda x: 1 / 0}, "ZeroDivisionError: division by zero from f"),
        ({"eval_grad_f": lambda x: np.array([1.0, 2.0])},
         "ValueError: cannot reshape array of size 2 into shape (1,) from grad_f"),
        ({"eval_hess_lag": lambda x, v: np.zeros((2, 2))},
         "ValueError: cannot reshape array of size 4 into shape (1,1) from hess_lag"),
    ], ids=["f-raises", "grad-wrong-length", "hess-wrong-shape"])
    def test_bad_callback_is_reported_failure(self, callbacks, detail):
        result = solve(_one_sided_lp(**callbacks), np.array([1.0]))
        assert result.status is SolveStatus.EVALUATION_ERROR
        assert result.detail == detail
        assert result.iterate is None
        assert result.outer_iterations == 0

    def test_wrapper_chains_the_callback_exception(self):
        with pytest.raises(EvaluationError) as info:
            _one_sided_lp(eval_f=lambda x: 1 / 0).f(np.zeros(1))
        assert info.value.what == "f"
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_raising_constraint_region_is_rejected_like_nan(self):
        result = solve(_one_sided_lp(eval_a=_a_raising_below_half), np.array([1.0]),
                       SolverOptions(max_iter=200))
        assert result.status is SolveStatus.ITERATION_LIMIT
        rejected = sum(not rec.accepted for rec in result.trace.records)
        assert result.detail.startswith(f"{rejected} of 200 steps rejected; most often ")

    def test_raising_constraint_matches_golden_nan_record(self):
        # From the golden record's start, raising where eval_a is NaN there
        # gives the same status, counters and step sequence.
        golden = json.loads(GOLDEN.read_text())["nan-eval_a"]
        result = solve(_one_sided_lp(eval_a=_a_raising_below_half), np.array([0.0]),
                       SolverOptions(max_iter=200))
        assert result.status.value == golden["status"]
        assert result.counters == golden["counters"]
        assert golden_steps(result.trace) == golden["steps"]

    def test_asymmetric_hessian_is_reported_failure(self):
        result = solve(_asymmetric_hessian_qp(), np.zeros(2))
        assert result.status is SolveStatus.EVALUATION_ERROR
        assert result.detail == "asymmetric matrix from hess_lag at entry 1"
        assert result.iterate is None

    def test_asymmetric_hessian_is_reported_under_optimize_flag(self):
        # python -O strips assert statements (the script's own assert shows
        # the flag took effect); the symmetry check must not be one.
        out = run_python("import numpy as np; assert False; "
                         "from test_solver import _asymmetric_hessian_qp, solve; "
                         "r = solve(_asymmetric_hessian_qp(), np.zeros(2)); "
                         "print(r.status.value); print(r.detail)", "-O")
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "evaluation-error", "asymmetric matrix from hess_lag at entry 1"]

    def test_max_delta_detail(self):
        p = quadratic_problem(np.eye(1), np.zeros(1))
        bad = replace(p, eval_hess_lag=lambda x, v: np.array([[-1e60]]))
        result = solve(bad, np.ones(1))
        assert result.status is SolveStatus.MAX_DELTA
        assert result.detail.startswith("shift ")
        assert "reached cap" in result.detail

    def test_iteration_limit_names_the_most_frequent_rejection(self):
        result = solve(_nan_region_problem("eval_a"), np.array([0.0]),
                       SolverOptions(max_iter=200))
        assert result.status is SolveStatus.ITERATION_LIMIT
        kinds = [rec.kind for rec in result.trace.records if not rec.accepted]
        assert kinds.count("stabilization") > len(kinds) / 2
        assert result.detail == (f"{len(kinds)} of 200 steps rejected; "
                                 "most often stabilization: step size below minimum")

    def test_overflowing_direction_is_a_rejected_step(self):
        # A curvature of 1e-300 under a gradient of 1e10 overflows the
        # unshifted Newton step; the refinement backsolve then sees an
        # infinite residual, which must reject the step, not raise nor warn.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = solve(quadratic_problem([[1e-300]], [1e10]), np.zeros(1),
                           SolverOptions(max_iter=20))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert result.status is SolveStatus.ITERATION_LIMIT
        assert result.detail.endswith("most often stabilization: non-finite direction")


class TestInteriorOptimum:
    def test_inactive_curved_constraint(self):
        # Optimum strictly inside the ball: near convergence the predictor
        # allows a full step, the affine trial zeroes mu, and the line
        # search must still accept the trial at the minimum-step cap.
        source = SourceProblem(
            n=2,
            eval_f=lambda x: 0.5 * float((x - 1.0) @ (x - 1.0)),
            eval_grad_f=lambda x: x - 1.0,
            eval_hess_f=lambda x: np.eye(2),
            constraints=[SourceConstraint(
                func=lambda x: float(x @ x), grad=lambda x: 2.0 * x,
                hess=lambda x: 2.0 * np.eye(2),
                relation=Relation.LE, rhs=100.0)],
        )
        problem, _ = to_inequality_form(source)
        result = solve(problem, np.array([5.0, -3.0]))
        assert result.status is SolveStatus.OPTIMAL
        assert np.abs(result.x - 1.0).max() <= 1e-5
        assert abs(result.f) <= 1e-8


class TestRefactorize:
    def test_grows_shift_until_definite(self):
        fs = _refactorize(np.array([[-5.0]]), 1.0)
        # 1 fails (pivot -4), 8 succeeds (pivot 3)
        assert fs.delta == 8.0
        assert fs.attempts == 2

    def test_cap_respected(self):
        with pytest.raises(MaxDeltaError):
            _refactorize(np.array([[-1e60]]), 1.0)


class TestNonconvexEscalation:
    def test_quartic_uses_shift_escalation(self):
        entry = builtin_registry()["nonconvex-quartic"]
        problem, _ = entry.build()
        result = solve(problem, entry.x_start)
        assert result.status is SolveStatus.OPTIMAL
        assert abs(result.x[0] - 3.0) <= 1e-6
        # the start has negative curvature: some record must carry delta > 0
        assert any(rec.delta > 0 for rec in result.trace.records)
        # and the endgame should be unshifted Newton
        assert result.trace.records[-1].delta == 0.0


def _free_lp(c, G, h, name):
    """min c'x s.t. G x >= h with every variable free."""
    c = np.array(c, float)
    source = SourceProblem(
        n=c.size,
        eval_f=lambda x: float(c @ x),
        eval_grad_f=lambda x: c,
        eval_hess_f=lambda x: np.zeros((c.size, c.size)),
        linear_rows=[LinearRow(np.array(g, float), Relation.GE, float(b))
                     for g, b in zip(G, h)],
        name=name,
    )
    problem, _ = to_inequality_form(source)
    return problem


# The perfbench generators' all-free LPs at n = 8, m = 4: _recession_lp with
# default_rng(1) and free=8 (recession direction d = [1,1,2,1,1,2,1,1], c'd < 0)
# and _farkas_lp with default_rng(2) and no box (Farkas y = [3,1,1,1]).
RECESSION_LP = (
    [-5, 0, 3, -2, 2, -2, -1, 3],
    [[2, 1, -5, -5, 4, 3, 4, 0], [-3, 2, 1, -3, 4, 2, 4, 1],
     [-5, 4, 1, 1, -4, 3, 0, 3], [5, -3, 5, 2, 0, 0, 4, -5]],
    [-23, -10, 11, 5],
)
FARKAS_LP = (
    [-1, -1, 1, 0, 1, 3, 3, 2],
    [[-1, 3, -1, -4, -2, 1, 3, 3], [5, -3, 4, -5, 1, -2, -3, 2],
     [-2, 1, -3, -4, 3, -1, 2, 2], [0, -7, 2, 21, 2, 0, -8, -13]],
    [-1, -1, -3, 8],
)


class TestFreeLpShiftFloor:
    """M = J^T D J is singular along a recession direction of an all-free
    LP.  With the shift restarting at DELTA_MIN each step is capped near
    ||g||/DELTA_MIN, ||x|| grows additively and neither LP certifies in
    1000 iterations; the floor relative to gradient over position lets
    ||x|| grow geometrically."""

    def test_recession_lp_ends_unbounded(self):
        result = solve(_free_lp(*RECESSION_LP, "recession-free8"), np.zeros(8),
                       SolverOptions(max_iter=200))
        assert result.status is SolveStatus.UNBOUNDED
        assert result.f < 0

    def test_farkas_lp_ends_with_a_certificate(self):
        result = solve(_free_lp(*FARKAS_LP, "farkas-free8"), np.zeros(8),
                       SolverOptions(max_iter=200))
        # Its relaxed region a(x) <= mu*w is unbounded, so either is valid.
        assert result.status in (SolveStatus.PRIMAL_INFEASIBLE, SolveStatus.UNBOUNDED)
