import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onephase import (
    EvaluationError,
    SolverOptions,
    SolveStatus,
    builtin_registry,
    iterate,
    linalg,
    solve,
    solver,
    steps,
)
from onephase.iterate import (
    Iterate,
    aggressive_criterion,
    check_interior,
    inf_norm,
    make_iterate,
    merit_kkt,
    merit_phi,
    merit_psi,
    primal_trial,
    sigma,
    terminate_infeasible,
    terminate_optimal,
    terminate_unbounded,
)

from helpers import linear_problem, random_interior_setup, raw_iterate


def step_to(cur, dx, gamma, alpha_p, problem, dy=0.0, alpha_d=0.0):
    """The solver's nonlinear update: primal trial, then the new iterate."""
    mu_plus, x_plus, a_plus, s_plus = primal_trial(
        cur, np.atleast_1d(np.asarray(dx, float)), gamma, alpha_p, problem)
    y_plus = cur.y + alpha_d * np.atleast_1d(np.asarray(dy, float))
    return make_iterate(problem, mu_plus, x_plus, s_plus, y_plus, cur.w, a=a_plus)


class TestUpdateIterate:
    def problem(self):
        # a(x) = x, f = 0
        return linear_problem([0.0], [[1.0]], [0.0])

    def test_stabilization_keeps_mu_bitwise(self):
        p = self.problem()
        mu = 0.7300000000000001
        cur = raw_iterate(mu, [-1.0], [mu * 1.0 + 1.0], [1.0], [1.0], jac=[[1.0]])
        new = step_to(cur, -0.1, 1.0, 0.8, p)
        assert new.mu == mu  # bit-identical
        assert_allclose(new.a + new.s - new.mu * new.w, [0.0], atol=1e-12)

    def test_affine_step_halves_mu(self):
        p = self.problem()
        cur = raw_iterate(1.0, [-2.0], [3.0], [0.5], [1.0], jac=[[1.0]])
        new = step_to(cur, 0.0, 0.0, 0.5, p)
        assert new.mu == 0.5

    def test_linear_slack_update_matches_step(self):
        # w=1, mu=1, x=0, s=1, gamma=0, d_x=-0.4 so d_s = -mu*w - J d_x = -0.6;
        # at alpha_P = 0.5: x+=-0.2, mu+=0.5, s+ = 0.5 - (-0.2) = 0.7 = s + 0.5*d_s.
        p = self.problem()
        cur = raw_iterate(1.0, [0.0], [1.0], [1.0], [1.0], jac=[[1.0]])
        new = step_to(cur, -0.4, 0.0, 0.5, p, dy=0.3, alpha_d=0.5)
        assert_allclose(new.x, [-0.2])
        assert new.mu == 0.5
        assert_allclose(new.s, [0.7])
        assert_allclose(new.s, cur.s + 0.5 * -0.6)
        assert_allclose(new.y, [1.15])

    def test_lost_interiority_signals(self):
        p = self.problem()
        cur = raw_iterate(1.0, [0.0], [1.0], [1.0], [1.0], jac=[[1.0]])
        # x+ = 2 makes s+ = mu+ w - a = 1 - 2 < 0
        _mu, _x, _a, s_plus = primal_trial(cur, np.array([2.0]), 1.0, 1.0, p)
        assert_allclose(s_plus, [-1.0])

    def test_nonfinite_constraints_reject_trial(self):
        p = self.problem()
        p.eval_a = lambda x: np.array([np.nan])
        cur = raw_iterate(1.0, [0.0], [1.0], [1.0], [1.0], jac=[[1.0]])
        with pytest.raises(EvaluationError) as err:
            primal_trial(cur, np.array([0.5]), 1.0, 1.0, p)
        assert str(err.value) == "non-finite value from a at entry 0"


class TestSolverOptionDefaults:
    def test_default_tuning_table(self):
        opts = SolverOptions()
        assert opts.eps_opt == 1e-6
        assert opts.mu_scale == 1.0
        assert opts.max_iter == 3000
        assert opts.max_time == 3600.0
        opts.validate()
        assert (iterate.EPS_FAR, iterate.EPS_INF, iterate.EPS_UNBD) == (1e-3, 1e-6, 1e-12)
        assert (iterate.BETA1, iterate.BETA2, iterate.BETA3) == (1e-4, 0.01, 0.02)
        assert (steps.BETA4, steps.BETA5, steps.BETA6) == (0.2, 2.0 ** -5, 0.5)
        assert (steps.BETA_KKT, steps.BETA_EXP, steps.BETA8) == (0.01, 0.5, 0.9)
        assert (steps.THETA_B, steps.THETA_P_LINEAR, steps.THETA_P_NONLINEAR) == (
            0.1, 0.1, 0.25)
        assert (linalg.DELTA_MIN, linalg.DELTA_INC, linalg.DELTA_MAX) == (1e-8, 8.0, 1e50)
        assert linalg.DELTA_DEC == pytest.approx(np.pi)
        assert (solver.BETA10, solver.BETA11, solver.BETA12) == (1e-4, 1e-2, 1e3)

    def test_constants_lie_in_admissible_intervals(self):
        for value in (iterate.EPS_FAR, iterate.EPS_INF, iterate.EPS_UNBD, iterate.BETA1,
                      steps.BETA4, steps.BETA5, steps.BETA6, steps.BETA_KKT,
                      steps.BETA_EXP, steps.THETA_B, solver.BETA10):
            assert 0 < value < 1
        assert 0 < iterate.BETA2 < iterate.BETA3 < 1
        assert 0.5 < steps.BETA8 < 1
        assert steps.THETA_B <= steps.THETA_P_LINEAR < 1
        assert steps.THETA_B <= steps.THETA_P_NONLINEAR < 1
        assert 0 < linalg.DELTA_MIN < linalg.DELTA_MAX < math.inf
        assert linalg.DELTA_INC > 1 and linalg.DELTA_DEC > 1
        assert 0 < solver.BETA11 <= solver.BETA12 < math.inf

    def test_interval_violations_rejected(self):
        for bad in (
            SolverOptions(eps_opt=0.0),
            SolverOptions(eps_opt=math.inf),
            SolverOptions(mu_scale=-1.0),
            SolverOptions(mu_scale=math.nan),
            SolverOptions(max_iter=0),
            SolverOptions(max_time=-1.0),
            SolverOptions(max_time=math.nan),
            SolverOptions(eps_opt=True),
            SolverOptions(mu_scale=True),
            SolverOptions(max_time=True),
            SolverOptions(eps_opt="1e-6"),
            SolverOptions(max_time=None),
        ):
            with pytest.raises(ValueError):
                bad.validate()
        SolverOptions(max_time=0.0).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 3000.0, "7", True],
                             ids=["nan", "inf", "fraction", "integral-float", "string", "bool"])
    def test_non_integer_max_iter_rejected(self, value):
        # inner_count >= nan is never true: a NaN budget would switch the limit off
        with pytest.raises(ValueError, match=f"max_iter={value!r} is not an integer"):
            SolverOptions(max_iter=value).validate()
        SolverOptions(max_iter=np.int64(7)).validate()


class TestCheckInterior:
    def test_centered_point(self):
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0])
        assert check_interior(it)

    def test_small_product_fails(self):
        it = raw_iterate(1.0, [0.0], [1.0], [0.005], [0.0])
        assert not check_interior(it)

    def test_zero_mu_fails(self):
        it = raw_iterate(0.0, [0.0], [1.0], [1.0], [0.0])
        assert not check_interior(it)


class TestSigma:
    def test_zero_duals(self):
        assert sigma(np.zeros(3)) == 1.0

    def test_large_duals(self):
        assert sigma(np.array([400.0, -1.0])) == 0.25

    def test_boundary(self):
        assert sigma(np.array([100.0])) == 1.0


class TestTerminateOptimal:
    def test_clean_kkt_point(self):
        # grad L_0 = 0 (zero objective gradient, zero jacobian), S y = 1e-7.
        it = raw_iterate(1.0, [0.0], [1.0], [1e-7], [0.0], a=[-1.0])
        assert terminate_optimal(it, 1e-6)

    def test_primal_residual_unscaled(self):
        it = raw_iterate(1.0, [0.0], [1.0 + 1e-3], [1e-9], [0.0], a=[-1.0])
        assert not terminate_optimal(it, 1e-6)

    def test_dual_scaling_admits_large_duals(self):
        # ||y||=1e6 shrinks sigma to 1e-4, so ||grad L_0|| = 5e-3 passes.
        it = raw_iterate(1.0, [0.0], [1e-9], [1e6], [0.0],
                         grad_f=[5e-3], a=[-1e-9], jac=[[0.0]])
        assert terminate_optimal(it, 1e-6)

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            it = raw_iterate(
                rng.uniform(1e-8, 1.0), rng.standard_normal(1),
                rng.uniform(1e-9, 1.0, 1), rng.uniform(1e-9, 10.0, 1), [0.0],
                grad_f=rng.standard_normal(1) * 1e-5,
                a=-rng.uniform(1e-9, 1.0, 1), jac=rng.standard_normal((1, 1)))
            eps = float(rng.uniform(1e-8, 1e-4))
            if terminate_optimal(it, eps):
                assert terminate_optimal(it, eps * 10)


class TestGammaMeasures:
    """The two stationarity measures, as the certificate of
    ``terminate_infeasible`` reports them."""

    def test_far_zero_at_stationarity(self):
        it = raw_iterate(1.0, [0.0], [1e-9, 1e-9], [1.0, 1.0], [0.0, 0.0],
                         a=[1.0, 0.0], jac=[[1.0], [-1.0]])
        assert terminate_infeasible(it)["gamma_far"] == 0.0

    def test_far_hand_value(self):
        # ||J^T y||_1 = 2^-20 and a^T y = 2, both exact in binary.
        it = raw_iterate(1.0, [0.0], [2.0 ** -30] * 2, [1.0, 1.0], [0.0, 0.0],
                         a=[1.0, 1.0], jac=[[1.0], [2.0 ** -20 - 1.0]])
        assert terminate_infeasible(it)["gamma_far"] == 2.0 ** -21

    def test_far_undefined(self):
        # a^T y = 0 leaves gamma_far undefined (0/0): no certificate, no division.
        it = raw_iterate(1.0, [0.0], [1e-9], [1.0], [0.0], a=[0.0], jac=[[0.0]])
        assert terminate_infeasible(it) is None

    def test_inf_hand_value(self):
        # (||J^T y||_1 + s^T y) / ||y||_1 = (3*2^-21 + 3*2^-22) / 3.
        it = raw_iterate(1.0, [0.0], [2.0 ** -22], [3.0], [0.0], a=[1.0], jac=[[2.0 ** -21]])
        assert terminate_infeasible(it)["gamma_inf"] == 3 * 2.0 ** -22

    def test_inf_scale_invariant(self):
        # Rows 0 and 1 cancel exactly in J^T y (dyadic products), so both
        # measures are formed without cancellation and rescaling y by t
        # changes only their rounding.
        rng = np.random.default_rng(13)
        for _ in range(25):
            r, u = rng.integers(1, 100, 2) / 64.0
            v, e = rng.uniform(0.1, 2.0), rng.uniform(1e-9, 1e-7)
            it = raw_iterate(1.0, [0.0, 0.0], rng.uniform(1e-9, 1e-7, 3), [u, u, v],
                             np.zeros(3), a=rng.uniform(0.1, 2.0, 3),
                             jac=[[r, 0.0], [-r, 0.0], [0.0, e]])
            t = float(rng.uniform(0.1, 100.0))
            scaled = raw_iterate(it.mu, it.x, it.s, t * it.y, it.w, a=it.a, jac=it.jac)
            cert, cert_scaled = terminate_infeasible(it), terminate_infeasible(scaled)
            for key in ("gamma_far", "gamma_inf"):
                assert cert_scaled[key] == pytest.approx(cert[key], rel=1e-12)

    def test_inf_zero_limit(self):
        it = raw_iterate(1.0, [0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0],
                         a=[1.0, 1.0], jac=[[1.0], [-1.0]])
        assert terminate_infeasible(it)["gamma_inf"] == 0.0


class TestTerminateInfeasible:
    def test_certificate_holds(self):
        it = raw_iterate(1.0, [0.0], [1e-8, 1e-8], [1.0, 1.0], [1.0, 1.0],
                         a=[1.0, 1.0], jac=[[1.0], [-1.0]])
        assert terminate_infeasible(it)

    def test_nonpositive_pairing_blocks(self):
        it = raw_iterate(1.0, [0.0], [1e-8], [1.0], [1.0], a=[-1.0], jac=[[1.0]])
        assert not terminate_infeasible(it)

    def test_far_measure_blocks(self):
        it = raw_iterate(1.0, [0.0], [1e-9, 1e-9], [1.0, 1.0], [1.0, 1.0],
                         a=[1.0, 1.0], jac=[[1.0], [-0.98]])
        # gamma_far = 0.02/2 = 0.01 > 1e-3
        assert not terminate_infeasible(it)


class TestTerminateUnbounded:
    def test_diverged(self):
        it = raw_iterate(1.0, [1e13], [1.0], [1.0], [0.0])
        assert terminate_unbounded(it)

    def test_moderate(self):
        it = raw_iterate(1.0, [1.0], [1.0], [1.0], [0.0])
        assert not terminate_unbounded(it)

    def test_boundary(self):
        it = raw_iterate(1.0, [1e12], [1.0], [1.0], [0.0])
        assert terminate_unbounded(it)


class TestAggressiveCriterion:
    def test_exact_shifted_solution(self):
        # grad L_mu = 0 and s y = mu: all three clauses slack.
        beta1 = iterate.BETA1
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.5],
                         grad_f=[-(1.0 - beta1)], a=[-0.5], jac=[[1.0]])
        assert aggressive_criterion(it)

    def test_complementarity_buffer_blocks(self):
        beta1 = iterate.BETA1
        it = raw_iterate(1.0, [0.0], [1.0], [0.015], [0.5],
                         grad_f=[-(0.015 - beta1)], a=[-0.5], jac=[[1.0]])
        assert not aggressive_criterion(it)

    def test_unsolved_barrier_blocks(self):
        beta1 = iterate.BETA1
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.5],
                         grad_f=[2.0 - (1.0 - beta1)], a=[-0.5], jac=[[1.0]])
        assert not aggressive_criterion(it)


class TestMerits:
    def test_psi_plain_log(self):
        # log(mu*w - a) = log 1 = 0 leaves the slope term -mu*beta1*a.
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0], f=0.0, a=[-1.0])
        assert merit_psi(it) == pytest.approx(iterate.BETA1, rel=1e-12)

    def test_psi_shifted(self):
        it = raw_iterate(1.0, [0.0], [2.0], [1.0], [1.0], f=0.0, a=[-1.0])
        assert merit_psi(it) == pytest.approx(iterate.BETA1 - math.log(2.0), rel=1e-12)

    def test_psi_boundary_signal(self):
        it = raw_iterate(1.0, [0.0], [0.0], [1.0], [1.0], f=0.0, a=[1.0])
        assert merit_psi(it) == math.inf

    def test_phi_equals_psi_when_centered(self):
        it = raw_iterate(1.0, [0.0], [2.0], [0.5], [1.0], f=0.3, a=[-1.0])
        assert merit_phi(it) == pytest.approx(merit_psi(it), rel=1e-12)

    def test_phi_cubic_term(self):
        it = raw_iterate(1.0, [0.0], [2.0], [1.0], [1.0], f=0.0, a=[-1.0])
        psi = merit_psi(it)
        assert merit_phi(it) == pytest.approx(psi + 1.0, rel=1e-12)

    def test_phi_hand_value(self):
        # psi = mu*beta1, |Sy - mu| = 0.2, mu = 0.5 -> 0.008/0.25 = 0.032
        it = raw_iterate(0.5, [0.0], [1.0], [0.7], [0.0], f=0.0, a=[-1.0])
        psi = 0.5 * iterate.BETA1
        assert merit_psi(it) == pytest.approx(psi, rel=1e-12)
        assert merit_phi(it) == pytest.approx(psi + 0.032, rel=1e-12)

    def test_kkt_zero_at_center(self):
        beta1 = iterate.BETA1
        it = raw_iterate(1.0, [0.0], [1.0], [1.0], [0.0],
                         grad_f=[-(1.0 - beta1)], a=[-1.0], jac=[[1.0]])
        assert merit_kkt(it) == 0.0

    def test_kkt_max_of_pair(self):
        it = raw_iterate(1.0, [0.0], [2.0], [1.0], [0.0],
                         grad_f=[2.0 + iterate.BETA1], a=[-2.0], jac=[[1.0]])
        # grad L = 2 + beta1 + (1 - beta1) = 3, Sy - mu = 1
        assert merit_kkt(it) == pytest.approx(3.0)

    def test_kkt_scaled(self):
        it = raw_iterate(1.0, [0.0], [0.01], [200.0], [0.0],
                         grad_f=[-197.0 + iterate.BETA1], a=[-0.01], jac=[[1.0]])
        # sigma = 0.5, grad L = -197 + beta1 + (200 - beta1) = 3, Sy - mu = 1
        assert merit_kkt(it) == pytest.approx(1.5)


def same_bits(a, b):
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


def measured_states():
    """Random interior states with rows, some with duals above 100 (so
    sigma < 1), and states without rows."""
    rng = np.random.default_rng(16)
    for _ in range(60):
        yield random_interior_setup(rng)[1]
    for _ in range(20):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        s = rng.uniform(0.01, 2.0, m)
        yield raw_iterate(rng.uniform(0.1, 2.0), rng.standard_normal(n), s,
                          rng.uniform(1.0, 1e3, m), rng.uniform(0.0, 2.0, m),
                          grad_f=rng.standard_normal(n), jac=rng.standard_normal((m, n)))
    for n in (1, 4):
        yield raw_iterate(rng.uniform(0.1, 2.0), rng.standard_normal(n), [], [], [],
                          grad_f=rng.standard_normal(n))


class TestCachedMeasures:
    def test_each_measure_is_its_formula_to_the_bit(self):
        for it in measured_states():
            grad_mu = it.grad_f + it.jac.T @ (it.y - it.mu * iterate.BETA1)
            grad_0 = it.grad_f + it.jac.T @ (it.y - 0.0 * iterate.BETA1)
            comp = inf_norm(it.s * it.y - it.mu)
            sig = 100.0 / max(100.0, inf_norm(it.y))
            assert same_bits(it.grad_lag_mu, grad_mu)
            assert same_bits(it.grad_lag_0, grad_0)
            assert same_bits(it.grad_norm, inf_norm(grad_mu))
            assert same_bits(it.comp_norm, comp)
            assert same_bits(it.sigma, sig)
            # The readers give the values of the formulas they replaced.
            assert same_bits(merit_kkt(it), sig * max(inf_norm(grad_mu), comp))
            psi = merit_psi(it)
            if math.isfinite(psi):
                assert same_bits(merit_phi(it), psi + comp ** 3 / it.mu ** 2)
            cert = terminate_optimal(it, math.inf)
            assert same_bits(cert["scaled_dual_infeasibility"],
                             sig * inf_norm(grad_0))
            for gamma in (0.0, 0.5, 1.0):
                b_d, _, _ = steps.build_rhs(it, gamma)
                assert same_bits(b_d, it.lagrangian_grad(gamma * it.mu))

    def test_each_measure_is_formed_once(self, monkeypatch):
        calls = []
        real = Iterate.lagrangian_grad
        monkeypatch.setattr(Iterate, "lagrangian_grad",
                            lambda self, mu_bar: calls.append(mu_bar) or real(self, mu_bar))
        _, it = random_interior_setup(np.random.default_rng(16))
        for _ in range(2):
            merit_kkt(it)
            aggressive_criterion(it)
            terminate_optimal(it, 1e-6)
            steps.build_rhs(it, 0.0)
            steps.build_rhs(it, 1.0)
        assert calls == [it.mu, 0.0]
        assert it.grad_lag_mu is it.grad_lag_mu


class TestLagrangianGradCalls:
    def test_calls_per_inner_iteration_on_wachter(self, monkeypatch):
        calls = []
        real = Iterate.lagrangian_grad
        monkeypatch.setattr(Iterate, "lagrangian_grad",
                            lambda self, mu_bar: calls.append(mu_bar) or real(self, mu_bar))
        entry = builtin_registry()["wachter"]
        problem, _ = entry.build()
        result = solve(problem, entry.x_start)
        assert result.status is SolveStatus.OPTIMAL
        # 33 calls over 10 inner iterations when this bound was set; forming
        # each measure at each use took 73.
        assert 10 * len(calls) <= 33 * result.inner_iterations
