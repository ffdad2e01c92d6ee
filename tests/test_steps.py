import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onephase import NlpProblem, SolverOptions, builtin_registry, check_derivatives
from onephase.iterate import (
    BETA1,
    BETA2,
    check_interior,
    inf_norm,
    make_iterate,
    merit_phi,
    merit_psi,
    terminate_infeasible,
)
from onephase.linalg import assemble_schur, factorize_with_shift
import onephase.steps as steps_module
from onephase.solver import initialize
from onephase.steps import (
    Direction,
    Filter,
    _boundary_bound,
    _line_search,
    _trial,
    aggressive_step,
    build_rhs,
    compute_direction,
    dual_interval,
    dual_step_size,
    fraction_to_boundary_ok,
    max_primal_step,
    stabilization_step,
    theta_bar,
)
from onephase.steps import BETA8, THETA_B

from helpers import linear_problem, quadratic_problem, random_interior_setup, raw_iterate


def direction(dx, ds, dy, gamma=1.0):
    dx = np.atleast_1d(np.asarray(dx, float))
    ds = np.atleast_1d(np.asarray(ds, float))
    dy = np.atleast_1d(np.asarray(dy, float))
    # slope: only the line search reads it, and no test here hands it one
    return Direction(dx=dx, ds=ds, dy=dy, gamma=gamma, slope=np.nan)


def factorized_at(problem, it, delta_in=0.0):
    return factorize_with_shift(assemble_schur(problem, it), delta_in)


def _no_rows():
    """min 0.5||x||^2 - x0 at x = (2, -1) with no constraint rows, and its
    predictor direction."""
    p = quadratic_problem(np.eye(2), [-1.0, 0.0])
    it = make_iterate(p, 0.5, np.array([2.0, -1.0]), np.zeros(0), np.zeros(0), np.zeros(0))
    return p, it, compute_direction(factorized_at(p, it), it, 0.0)


# (function, value on an m = 0 iterate, the value its deleted m == 0 branch returned)
NO_ROW_VALUES = [
    ("check_interior", lambda p, it, d: check_interior(it), True),
    ("terminate_infeasible", lambda p, it, d: terminate_infeasible(it) is not None, False),
    ("merit_psi", lambda p, it, d: merit_psi(it), lambda it: it.f),
    ("max_primal_step", lambda p, it, d: max_primal_step(
        it, d, _boundary_bound(it, d, 0.0), p._nonlinear_rows), 1.0),
    ("fraction_to_boundary_ok", lambda p, it, d: fraction_to_boundary_ok(
        np.zeros(0), _boundary_bound(it, d, 0.0)), True),
    ("dual_step_size", lambda p, it, d: dual_step_size(
        np.zeros(0), 0.25, it.grad_f, it.jac, it, d, (0.2, 0.75), 0.1), 0.75),
    ("compute_direction.dy", lambda p, it, d: d.dy, np.zeros(0)),
    ("compute_direction.ds", lambda p, it, d: d.ds, np.zeros(0)),
    ("lagrangian_grad", lambda p, it, d: it.lagrangian_grad(0.3), lambda it: it.grad_f),
    ("compute_direction.slope", lambda p, it, d: d.slope,
     lambda it: -float(it.grad_f @ it.grad_f)),
    ("check_derivatives.jac_error", lambda p, it, d: check_derivatives(p, it.x)["jac_error"], 0.0),
]


@pytest.mark.parametrize("value, expected", [case[1:] for case in NO_ROW_VALUES],
                         ids=[case[0] for case in NO_ROW_VALUES])
def test_no_rows_give_the_values_of_the_deleted_branches(value, expected):
    p, it, d = _no_rows()
    expected = expected(it) if callable(expected) else expected
    np.testing.assert_array_equal(value(p, it, d), expected, strict=True)


class TestBuildRhs:
    def test_stabilization_target(self):
        it = raw_iterate(0.8, [0.0], [2.0], [1.5], [0.7], grad_f=[1.0], jac=[[2.0]])
        b_d, b_p, b_c = build_rhs(it, 1.0)
        assert_allclose(b_p, [0.0])
        assert_allclose(b_c, it.s * it.y - it.mu)

    def test_affine_target_hand_values(self):
        it = raw_iterate(0.5, [0.0], [1.0], [1.0], [1.0], grad_f=[0.0], jac=[[1.0]])
        b_d, b_p, b_c = build_rhs(it, 0.0)
        assert_allclose(b_p, [0.5])
        assert_allclose(b_c, [1.0])

    def test_centered_point_zero_rhs(self):
        grad = -(1.0 - BETA1)
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0],
                         grad_f=[grad], a=[-1.0], jac=[[1.0]])
        b_d, b_p, b_c = build_rhs(it, 1.0)
        assert_allclose(b_d, [0.0], atol=1e-16)
        assert_allclose(b_p, [0.0])
        assert_allclose(b_c, [0.0])


class TestComputeDirection:
    def test_zero_rhs_zero_direction(self):
        p = linear_problem([-(1.0 - BETA1)], [[1.0]], [-1.0])
        it = make_iterate(p, 1.0, np.zeros(1), np.ones(1), np.ones(1), np.zeros(1))
        fs = factorized_at(p, it)
        d = compute_direction(fs, it, 1.0)
        assert_allclose(d.dx, [0.0], atol=1e-14)
        assert_allclose(d.dy, [0.0], atol=1e-14)
        assert_allclose(d.ds, [0.0], atol=1e-14)

    def test_one_d_qp_hand_trace(self):
        # f = x^2/2, a = x-1 at x=0, s=1, y=1, mu=1, w=0, gamma=1, delta=0:
        # M = 2, rhs = -(1 - beta1), dx = -(1 - beta1)/2.
        p = quadratic_problem([[1.0]], [0.0], [[1.0]], [-1.0])
        it = make_iterate(p, 1.0, np.zeros(1), np.ones(1), np.ones(1), np.zeros(1))
        M = assemble_schur(p, it)
        assert_allclose(M, [[2.0]])
        fs = factorize_with_shift(M, 0.0)
        assert fs.delta == 0.0
        d = compute_direction(fs, it, 1.0)
        assert_allclose(d.dx, [-(1.0 - BETA1) / 2.0], rtol=1e-12)

    def test_direction_invariants(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            problem, it = random_interior_setup(rng)
            fs = factorized_at(problem, it)
            d1 = compute_direction(fs, it, 1.0)
            assert_allclose(build_rhs(it, 1.0)[1], np.zeros(it.m))
            assert_allclose(d1.ds, -it.jac @ d1.dx, atol=1e-12)
            gamma = float(rng.uniform(0.0, 1.0))
            assert_allclose(build_rhs(it, gamma)[1], (1.0 - gamma) * it.mu * it.w, atol=1e-15)

    def test_newton_system_rows_at_snapshot(self):
        # At the assembly point the reduced solve must satisfy the full
        # Newton system: (H+dI)dx + J'dy = -b_D, J dx + ds = -b_P,
        # S dy + Y ds = -b_C.
        rng = np.random.default_rng(22)
        for _ in range(30):
            problem, it = random_interior_setup(rng)
            fs = factorized_at(problem, it)
            H = problem.hess_lag(it.x, it.y - it.mu * BETA1)
            for gamma in (0.0, float(rng.uniform()), 1.0):
                d = compute_direction(fs, it, gamma)
                b_d, b_p, b_c = build_rhs(it, gamma)
                scale = 1.0 + np.abs(b_d).max(initial=0.0)
                row1 = (H + fs.delta * np.eye(problem.n)) @ d.dx + it.jac.T @ d.dy
                assert_allclose(row1, -b_d, atol=1e-7 * scale)
                row2 = it.jac @ d.dx + d.ds
                assert_allclose(row2, -b_p, atol=1e-8 * scale)
                row3 = it.s * d.dy + it.y * d.ds
                assert_allclose(row3, -b_c, atol=1e-7 * scale)


def _barrier_grad(it):
    """``Iterate.barrier_grad``, deleted; kept as the reference for the
    slope of a gamma = 1 direction."""
    return it.grad_f + it.jac.T @ (it.mu / it.s - it.mu * BETA1)


def _aggressive_descent_grad(it, gamma):
    """The gradient ``aggressive_step`` formed at the duals of the deleted
    ``_trial_duals``, mu S^{-1} (gamma e + (1-gamma) Y w); kept as the
    reference for the slope of a gamma < 1 direction."""
    y_tilde = it.mu / it.s * (gamma + (1.0 - gamma) * it.y * it.w)
    return it.grad_f + it.jac.T @ (y_tilde - gamma * it.mu * BETA1)


class TestSlope:
    def test_equals_the_deleted_formulas_to_rounding(self):
        # The slope is -(rhs . dx); the deleted descent gradients are -rhs
        # in exact arithmetic, so each dotted with dx differs from the slope
        # only by the rounding of its terms.
        rng = np.random.default_rng(26)
        for _ in range(200):
            problem, it = random_interior_setup(rng)
            fs = factorized_at(problem, it)
            for gamma in (0.0, 0.25, 0.5, 1.0):
                d = compute_direction(fs, it, gamma)
                g = _barrier_grad(it) if gamma == 1.0 else _aggressive_descent_grad(it, gamma)
                terms = np.abs(it.grad_f) + np.abs(it.jac).T @ (
                    it.y + it.mu / it.s * (1.0 + it.y * it.w) + it.mu * BETA1)
                assert abs(d.slope - float(g @ d.dx)) <= 1e-13 * float(terms @ np.abs(d.dx))

    def test_descends_along_the_direction_of_its_gamma(self):
        # The slope is -dx' (M + delta I) dx < 0 at the assembly point.
        rng = np.random.default_rng(27)
        for _ in range(50):
            problem, it = random_interior_setup(rng)
            fs = factorized_at(problem, it)
            for gamma in (0.0, 0.25, 1.0):
                d = compute_direction(fs, it, gamma)
                if inf_norm(d.dx) <= 1e-12:
                    continue
                quad = float(d.dx @ (fs.shifted @ d.dx))
                assert quad > 0
                assert d.slope == pytest.approx(-quad, rel=1e-6)


class TestMaxPrimalStep:
    def test_growing_slacks_allow_full_step(self):
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        d = direction(1.0, 0.5, 0.0)
        bound = _boundary_bound(it, d, 0.0)
        assert max_primal_step(it, d, bound, np.array([0.25])) == 1.0

    def test_ratio_test_hand_value(self):
        # bound term t = 1*(0 + 0 + 1) = 1, floor 0.25: alpha = 0.75.
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        d = direction(1.0, -1.0, 0.0)
        bound = _boundary_bound(it, d, 0.0)
        assert max_primal_step(it, d, bound, np.array([0.25])) == pytest.approx(0.75)

    def test_zero_dx_allows_boundary(self):
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        d = direction(0.0, -1.0, 0.0)
        bound = _boundary_bound(it, d, 0.0)
        assert max_primal_step(it, d, bound, np.array([0.25])) == pytest.approx(1.0)


class TestFractionToBoundary:
    def test_zero_step_passes(self):
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        d = direction(1.0, 0.0, 0.0)
        assert fraction_to_boundary_ok(it.s.copy(), _boundary_bound(it, d, 0.0))

    def test_zero_dx_relaxes_rule(self):
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        d = direction(0.0, -1.0, 0.0)
        assert fraction_to_boundary_ok(np.array([1e-9]), _boundary_bound(it, d, 0.0))

    def test_shrinking_below_floor_fails(self):
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        d = direction(1.0, -0.95, 0.0)
        assert not fraction_to_boundary_ok(np.array([0.05]), _boundary_bound(it, d, 1.0))


@pytest.fixture
def boundary_tests(monkeypatch):
    """``(rows tested, passed)`` of every fraction-to-boundary test the line
    search makes while the fixture is active."""
    calls = []
    test = steps_module.fraction_to_boundary_ok

    def recording(s_plus, bound):
        calls.append((s_plus.size, test(s_plus, bound)))
        return calls[-1][1]

    monkeypatch.setattr(steps_module, "fraction_to_boundary_ok", recording)
    return calls


def _one_row(a, da, linear):
    """min 0 s.t. a(x) <= 0 in one variable, at x = 0 with mu = 1, w = 0."""
    p = NlpProblem(
        n=1, m=1,
        eval_f=lambda x: 0.0,
        eval_grad_f=lambda x: np.zeros(1),
        eval_a=lambda x: np.array([a(x[0])]),
        eval_jac=lambda x: np.array([[da(x[0])]]),
        eval_hess_lag=lambda x, v: np.zeros((1, 1)),
        linear_indices=frozenset({0}) if linear else frozenset(),
    )
    it = make_iterate(p, 1.0, np.zeros(1), np.ones(1), np.ones(1), np.zeros(1))
    return p, it


class TestLinearRowRule:
    """Up to the ratio-test maximum, the fraction-to-boundary rule tests
    only the nonlinear rows; above it, every row."""

    def test_linear_rows_never_reject_the_trial_at_alpha_max(self, boundary_tests):
        # Random linear-row iterates; searches that stop after their first
        # trial.  In exact arithmetic the ratio test puts the binding row on
        # the bound, so testing the linear rows again rejects about half of
        # these trials on rounding alone.
        binding = 0
        for seed in range(20):
            problem, it = random_interior_setup(np.random.default_rng(seed), n=8, m=12)
            fs = factorized_at(problem, it)
            for gamma in (0.0, 0.5, 1.0):
                d = compute_direction(fs, it, gamma)
                alpha_max = max_primal_step(it, d, _boundary_bound(it, d, fs.delta),
                                            problem._nonlinear_rows)
                binding += bool(alpha_max < 1.0 and d.slope < 0)
                _line_search(fs, it, problem, d,
                             below_minimum=lambda alpha: alpha != alpha_max,
                             accepts=lambda new, alpha: True)
        assert binding >= 20
        assert all(passed for _, passed in boundary_tests)

    def test_nonlinear_row_below_the_floor_is_rejected(self, boundary_tests):
        # a = x^2 - 1 has ds = 0 at x = 0, so alpha_max = 1, but s+ = 1 -
        # 0.99^2 = 0.0199 lies below theta_b * bound = 0.0985.
        p, it = _one_row(lambda x: x * x - 1.0, lambda x: 2.0 * x, linear=False)
        d = direction(0.99, 0.0, 0.0)
        bound = _boundary_bound(it, d, 0.0)
        assert max_primal_step(it, d, bound, p._nonlinear_rows) == 1.0
        assert _trial(it, p, d, bound, 1.0, 1.0) == (None, 0.0, np.inf)
        assert boundary_tests == [(1, False)]

    def test_trial_above_alpha_max_tests_every_row(self, boundary_tests):
        # a = x - 1: alpha_max = 0.9015 / 0.99; the full step leaves
        # s+ = 0.01 below theta_b * bound = 0.0985.
        p, it = _one_row(lambda x: x - 1.0, lambda x: 1.0, linear=True)
        d = direction(0.99, -0.99, 0.0)
        bound = _boundary_bound(it, d, 0.0)
        alpha_max = max_primal_step(it, d, bound, p._nonlinear_rows)
        assert alpha_max == pytest.approx(0.9015 / 0.99, rel=1e-3)
        assert _trial(it, p, d, bound, alpha_max, 1.0) == (None, 0.0, np.inf)
        _trial(it, p, d, bound, alpha_max, alpha_max)
        assert boundary_tests == [(1, False), (0, True)]


class TestDualInterval:
    def test_constant_feasible_interval(self):
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        d = direction(0.0, 0.0, 0.0)
        assert dual_interval(np.ones(1), 1.0, it, d) == (0.0, 1.0)

    def test_hand_intersection(self):
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        d = direction(1.0, 0.0, -1.0)
        interval = dual_interval(np.ones(1), 1.0, it, d)
        assert interval is not None
        lo, hi = interval
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(0.9)

    def test_unreachable_corridor_is_empty(self):
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        d = direction(1.0, 0.0, 0.0)
        # s+ y / mu+ = 200 for every alpha: empty.
        assert dual_interval(np.array([2.0]), 0.01, it, d) is None


def _dual_interval_loop(s_plus, mu_plus, it, direction):
    """The row-by-row loop that ``dual_interval`` vectorizes; the reference
    for its equivalence test."""
    if it.m == 0:
        return (0.0, 1.0)
    if np.min(s_plus) <= 0 or mu_plus <= 0:
        return None
    lower = np.maximum(
        BETA2 * mu_plus / s_plus,
        THETA_B * it.y * min(1.0, inf_norm(direction.dx)),
    )
    upper = mu_plus / (BETA2 * s_plus)

    lo, hi = 0.0, 1.0
    for yi, di, li, ui in zip(it.y, direction.dy, lower, upper):
        if li > ui:
            return None
        if di > 0:
            lo = max(lo, (li - yi) / di)
            hi = min(hi, (ui - yi) / di)
        elif di < 0:
            lo = max(lo, (ui - yi) / di)
            hi = min(hi, (li - yi) / di)
        else:
            if not (li <= yi <= ui):
                return None
        if lo > hi:
            return None
    return (lo, hi)


def _random_dual_interval_case(rng):
    """Inputs mixing rows inside and outside the corridor, rows sitting
    exactly on a corridor end (zero ratios of either sign), ``lower > upper``
    rows (y far above the corridor) and ``dy`` entries equal to 0.0, -0.0 or
    NaN."""
    m = int(rng.integers(1, 7))
    s_plus = 10.0 ** rng.uniform(-2, 2, m)
    mu_plus = 10.0 ** rng.uniform(-2, 1)
    y = mu_plus / s_plus * 10.0 ** rng.uniform(-3, 4.5, m)
    on_end = rng.integers(0, 4, m)
    y = np.where(on_end == 0, BETA2 * mu_plus / s_plus, y)
    y = np.where(on_end == 1, mu_plus / (BETA2 * s_plus), y)
    kind = rng.integers(0, 10, m)
    dy = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 1, m)
    dy[kind == 6] = 0.0
    dy[kind == 7] = -0.0
    dy[(kind == 8) & (rng.random(m) < 0.2)] = np.nan
    dx = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 1)
    it = raw_iterate(mu_plus, np.zeros(2), s_plus, y, np.zeros(m))
    d = direction(dx, np.zeros(m), dy)
    return s_plus, mu_plus, it, d


class TestDualIntervalMatchesLoop:
    def test_random_cases_identical(self):
        rng = np.random.default_rng(20)
        seen = {"none": 0, "interval": 0, "zero": 0, "negzero": 0, "crossed": 0,
                "zero_hi": 0}
        for _ in range(5000):
            case = _random_dual_interval_case(rng)
            want = _dual_interval_loop(*case)
            got = dual_interval(*case)
            s_plus, mu_plus, it, d = case
            if want is None:
                assert got is None, case
            else:
                assert got is not None, case
                assert got == want, case
                assert np.signbit(got).tolist() == np.signbit(want).tolist(), case
            seen["none" if want is None else "interval"] += 1
            seen["zero_hi"] += bool(want is not None and want[1] == 0.0)
            seen["zero"] += bool(np.any((d.dy == 0) & ~np.signbit(d.dy)))
            seen["negzero"] += bool(np.any((d.dy == 0) & np.signbit(d.dy)))
            lower = np.maximum(BETA2 * mu_plus / s_plus,
                               THETA_B * it.y * min(1.0, inf_norm(d.dx)))
            seen["crossed"] += bool(np.any(lower > mu_plus / (BETA2 * s_plus)))
        assert min(seen.values()) > 200, seen


class TestDualStepSize:
    def test_perfect_point_keeps_primal_step(self):
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        d = direction(0.0, 0.0, 1.0)
        alpha = dual_step_size(np.ones(1), 1.0, np.array([-1.0]), np.array([[1.0]]),
                               it, d, (0.0, 1.0), alpha_p=0.3)
        assert alpha == pytest.approx(0.3)

    def test_least_squares_unit_solution(self):
        it = raw_iterate(1.0, [0.0], [2.0], [1.0], [0.0])
        d = direction(0.0, 0.0, -0.4)
        alpha = dual_step_size(np.array([2.0]), 1.0, np.array([-1.0]),
                               np.array([[1.0]]), it, d, (0.0, 1.0), alpha_p=0.1)
        assert alpha == pytest.approx(1.0)

    def test_clipped_to_interval_top(self):
        it = raw_iterate(1.0, [0.0], [1.0], [5.0], [0.0])
        d = direction(0.0, 0.0, -2.0)
        alpha = dual_step_size(np.ones(1), 1.0, np.zeros(1), np.array([[0.0]]),
                               it, d, (0.0, 0.9), alpha_p=0.3)
        assert alpha == pytest.approx(0.9)

    def test_zero_dual_direction_prefers_progress(self):
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        d = direction(0.0, 0.0, 0.0)
        alpha = dual_step_size(np.ones(1), 1.0, np.ones(1), np.array([[1.0]]),
                               it, d, (0.0, 0.8), alpha_p=0.1)
        assert alpha == pytest.approx(0.8)

    def test_result_always_inside_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            it = raw_iterate(1.0, [0.0], rng.uniform(0.5, 2, m),
                             rng.uniform(0.5, 2, m), np.zeros(m))
            d = direction(np.zeros(1), np.zeros(m), rng.standard_normal(m))
            lo = float(rng.uniform(0.0, 0.4))
            hi = float(rng.uniform(lo, 1.0))
            alpha = dual_step_size(rng.uniform(0.5, 2, m), 1.0,
                                   rng.standard_normal(1), rng.standard_normal((m, 1)),
                                   it, d, (lo, hi), alpha_p=float(rng.uniform(0, 1)))
            assert lo - 1e-15 <= alpha <= hi + 1e-15


class TestThetaBar:
    def test_default_hand_value(self):
        val = theta_bar(1.0, np.ones(1), np.ones(1))
        assert val == pytest.approx(0.0625)

    def test_no_shifted_constraints_caps_at_half(self):
        assert theta_bar(1.0, np.ones(2), np.zeros(2)) == 0.5

    def test_cap_at_half(self):
        val = theta_bar(1e-3, np.ones(1), np.ones(1))
        assert val == 0.5


class TestThetaPVector:
    def test_linear_rows_get_the_linear_factor(self):
        p = replace(linear_problem([0.0], [[1.0], [2.0], [3.0]], [0.0, 0.0, 0.0]),
                    linear_indices=frozenset({0, 2}))
        assert p._nonlinear_rows.tolist() == [False, True, False]
        assert not p._nonlinear_rows.flags.writeable
        assert quadratic_problem([[1.0]], [0.0])._nonlinear_rows.shape == (0,)


class TestFilter:
    def test_accepts_requires_both_curves(self):
        filt = Filter()
        filt.reset(10.0, 4.0)
        assert filt.accepts(11.0, 3.9, 1.0)
        assert not filt.accepts(12.1, 3.9, 1.0)  # phi above envelope
        assert not filt.accepts(11.0, 3.97, 1.0)  # kkt not reduced

    def test_every_entry_must_pass(self):
        filt = Filter()
        filt.reset(10.0, 4.0)
        filt.add(5.0, 1.0)
        # passes against (10,4) but not against (5,1)
        assert not filt.accepts(8.0, 2.0, 1.0)

    def test_reset_clears(self):
        filt = Filter()
        filt.reset(10.0, 4.0)
        filt.add(5.0, 1.0)
        filt.reset(3.0, 2.0)
        assert filt.entries == [(3.0, 2.0)]


class TestAggressiveStep:
    def test_feasible_start_reduces_mu(self):
        entry = builtin_registry()["qp-separable10"]
        problem, _ = entry.build()
        it = initialize(problem, entry.x_start, SolverOptions())
        fs = factorized_at(problem, it)
        out = aggressive_step(fs, it, problem)
        assert out.success
        assert out.direction.gamma == 0.0  # predictor took a full step
        assert out.iterate.mu < it.mu
        expect = 1.0 - (1.0 - out.direction.gamma) * out.alpha_p
        assert out.iterate.mu / it.mu == pytest.approx(expect, rel=1e-12)

    def test_guard_retry_jumps_to_beta8_squared(self):
        # Unconstrained quartic at x=0.5: the full affine trial zeroes mu
        # with a nonzero gradient left over, so the dual-feasibility guard
        # rejects it and restarts the search at alpha_P = beta8^2.
        p = NlpProblem(
            n=1, m=0,
            eval_f=lambda x: 0.25 * float(x[0] ** 4),
            eval_grad_f=lambda x: np.array([x[0] ** 3]),
            eval_a=lambda x: np.zeros(0),
            eval_jac=lambda x: np.zeros((0, 1)),
            eval_hess_lag=lambda x, v: np.array([[3.0 * x[0] ** 2]]),
        )
        it = make_iterate(p, 1.0, np.array([0.5]), np.zeros(0), np.zeros(0), np.zeros(0))
        fs = factorized_at(p, it)
        out = aggressive_step(fs, it, p)
        assert out.success
        assert out.alpha_p == pytest.approx(BETA8 ** 2)
        assert out.iterate.mu == pytest.approx(1.0 - BETA8 ** 2)

    def test_mu_update_identity_random(self):
        rng = np.random.default_rng(24)
        hits = 0
        for _ in range(40):
            problem, it = random_interior_setup(rng)
            fs = factorized_at(problem, it)
            out = aggressive_step(fs, it, problem)
            if out.success:
                hits += 1
                expect = (1.0 - (1.0 - out.direction.gamma) * out.alpha_p) * it.mu
                assert out.iterate.mu == pytest.approx(expect, rel=1e-12)
                assert out.iterate.mu < it.mu
        assert hits > 5  # the sampler produces plenty of workable states


class TestStabilizationStep:
    def test_full_newton_step_on_quadratic(self):
        p = quadratic_problem([[1.0]], [0.0])
        it = make_iterate(p, 1.0, np.array([1.0]), np.zeros(0), np.zeros(0), np.zeros(0))
        fs = factorized_at(p, it)
        filt = Filter()
        filt.reset(np.inf, np.inf)
        out = stabilization_step(fs, it, filt, p, merit_phi(it))
        assert out.success
        assert out.alpha_p == 1.0
        assert_allclose(out.iterate.x, [0.0], atol=1e-15)

    def test_zero_gradient_rejected_early(self):
        p = quadratic_problem([[1.0]], [0.0])
        it = make_iterate(p, 1.0, np.zeros(1), np.zeros(0), np.zeros(0), np.zeros(0))
        fs = factorized_at(p, it)
        out = stabilization_step(fs, it, Filter(), p, merit_phi(it))
        assert not out.success
        assert "descent" in out.reason

    def test_descent_against_power_iteration_bound(self):
        # gamma=1 at the assembly point: grad_psi' dx <= -||grad_psi||^2 / lmax.
        rng = np.random.default_rng(25)
        for _ in range(25):
            problem, it = random_interior_setup(rng)
            M = assemble_schur(problem, it)
            fs = factorize_with_shift(M, 0.0)
            d = compute_direction(fs, it, 1.0)
            g = _barrier_grad(it)
            gnorm = float(np.linalg.norm(g))
            if gnorm <= 1e-12:
                continue
            A = M + fs.delta * np.eye(problem.n)
            v = rng.standard_normal(problem.n)
            v /= np.linalg.norm(v)
            lam = 0.0
            for _ in range(200):
                v = A @ v
                new_lam = float(np.linalg.norm(v))
                v /= new_lam
                if abs(new_lam - lam) <= 1e-13 * new_lam:
                    lam = new_lam
                    break
                lam = new_lam
            assert d.slope < 0
            assert d.slope <= -(gnorm ** 2) / (lam * (1.0 + 1e-6)) + 1e-12


class TestLineSearchExits:
    """Exits of the shared search that no solve in the other tests reaches."""

    def test_overflowing_direction_is_non_finite(self):
        # A curvature of 1e-300 under a gradient of 1e10: the Newton step
        # overflows to -inf in both coordinates (the refinement residual is
        # 0 * inf = NaN, so it is skipped), and no warning reaches the user.
        p = quadratic_problem(1e-300 * np.eye(2), [1e10, 1e10])
        it = make_iterate(p, 1.0, np.zeros(2), np.zeros(0), np.zeros(0), np.zeros(0))
        fs = factorized_at(p, it)
        assert fs.delta == 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes = (stabilization_step(fs, it, Filter(), p, merit_phi(it)),
                        aggressive_step(fs, it, p))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        for out in outcomes:
            assert not out.success
            assert out.reason == "non-finite direction"
            assert not np.all(np.isfinite(out.direction.dx))

    def test_guard_retries_exhausted(self):
        # min 0.5 h x^2 + g x s.t. x <= 1e7 from x = 0 on the central path.
        # The predictor reaches 0.999 of the way to the fraction-to-boundary
        # floor, so gamma is about 1e-6 and every trial down to alpha_p = 0.9
        # cuts mu below (1 - beta8) mu.  The gradient shrinks with mu+ along
        # the step, so the guard's tau stays near 0.998 and each retry
        # alpha_p tau^2 lands in that range again.
        p = quadratic_problem([[1.112e-6]], [-10.02], [[1.0]], [-1e7])
        it = make_iterate(p, 1.0, np.zeros(1), np.array([1e7]), np.array([1e-7]), np.zeros(1))
        fs = factorized_at(p, it)
        out = aggressive_step(fs, it, p)
        assert not out.success
        assert out.reason == "dual-feasibility guard retries exhausted"
        assert 0.0 < out.direction.gamma < 1e-5
