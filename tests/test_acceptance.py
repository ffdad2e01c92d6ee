"""Acceptance criteria for the solver, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all).
Expected values come from analytic solutions or independent oracles coded
inline; tolerances are fixed here, not tuned to the solver.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from onephase import (
    LinearRow,
    Relation,
    SolveStatus,
    SourceProblem,
    builtin_registry,
    solve,
    to_inequality_form,
)
from onephase import linalg
from onephase.iterate import BETA1, BETA2, inf_norm, one_norm
from onephase.linalg import (
    MaxDeltaError,
    assemble_schur,
    factorize_with_shift,
)
from onephase.steps import compute_direction

from helpers import observed_steps, random_interior_setup


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def run_registry(name, opts=None, x_start=None):
    entry = builtin_registry()[name]
    problem, _ = entry.build()
    start = entry.x_start if x_start is None else x_start
    return problem, solve(problem, start, opts)


def collect_steps(name):
    with observed_steps() as steps:
        problem, result = run_registry(name)
    return problem, result, steps


def test_01_wachter_example_converges_from_hostile_starts():
    with criterion(1, "equality-split benchmark reaches x*=1 from x0 in {-2,-10,-0.5}"):
        for x0 in (-2.0, -10.0, -0.5):
            t0 = time.perf_counter()
            _, result = run_registry("wachter", x_start=np.array([x0, 1.0, 1.0]))
            elapsed = time.perf_counter() - t0
            assert result.status is SolveStatus.OPTIMAL, x0
            assert abs(result.x[0] - 1.0) <= 1e-5, x0
            assert result.inner_iterations <= 300, x0
            assert elapsed < 1.0, x0


def test_02_iterate_invariants_hold_on_every_registry_problem():
    with criterion(2, "residual identity and complementarity corridor never violated"):
        for name in builtin_registry():
            problem, result, steps = collect_steps(name)
            if problem.m == 0:
                continue
            iterates = []
            if steps:
                iterates.append(steps[0][0])
                iterates.extend(step[4] for step in steps)
            violations = 0
            mu0_w = None
            for it in iterates:
                if mu0_w is None:
                    mu0_w = it.mu * inf_norm(it.w)
                if inf_norm(it.a + it.s - it.mu * it.w) > 1e-8 * (1.0 + mu0_w):
                    violations += 1
                ratio = it.s * it.y / it.mu
                if np.min(ratio) < BETA2 or np.max(ratio) > 1.0 / BETA2:
                    violations += 1
            assert violations == 0, name


def test_03_linear_slack_update_equivalence():
    with criterion(3, "nonlinear slack rebuild equals s + alpha_P*ds on linear problems"):
        linear = ("qp-simplex", "qp-2d", "qp-separable10", "degenerate-lp",
                  "unbounded-lp", "infeasible-box")
        for name in linear:
            _, _, steps = collect_steps(name)
            assert steps, name
            for prev, direction, alpha_p, _ad, new, _kind in steps:
                err = inf_norm(new.s - (prev.s + alpha_p * direction.ds))
                assert err <= 1e-9 * (1.0 + inf_norm(prev.s)), name


def random_infeasible_box(seed, n):
    rng = np.random.default_rng(seed)
    row = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    mid = rng.standard_normal(n)
    level = float(row @ mid)
    extra = rng.uniform(0.5, 2.0, n)
    rows = [
        LinearRow(row, Relation.LE, level - 1.0),
        LinearRow(row, Relation.GE, level + 1.0),
        LinearRow(extra, Relation.LE, float(extra @ mid) + 10.0),
    ]
    source = SourceProblem(
        n=n,
        eval_f=lambda x: 0.5 * float(x @ x),
        eval_grad_f=lambda x: np.asarray(x, float),
        eval_hess_f=lambda x: np.eye(n),
        linear_rows=rows,
        name=f"random-infeasible-{seed}",
    )
    problem, _ = to_inequality_form(source)
    return problem, mid


def test_04_infeasibility_certificates_verified_independently():
    with criterion(4, "infeasible boxes certified with a'y>0 and gamma_inf<=1e-6"):
        cases = []
        entry = builtin_registry()["infeasible-box"]
        problem, _ = entry.build()
        cases.append((problem, entry.x_start))
        for seed, n in ((101, 2), (202, 5)):
            problem, start = random_infeasible_box(seed, n)
            cases.append((problem, start))
        for problem, start in cases:
            result = solve(problem, np.asarray(start, float))
            assert result.status is SolveStatus.PRIMAL_INFEASIBLE, problem.name
            assert result.inner_iterations <= 100, problem.name
            it = result.iterate
            # recompute from raw callbacks, independent of solver caches
            a = problem.a(it.x)
            J = problem.jac(it.x)
            assert float(a @ it.y) > 0, problem.name
            gamma_inf = (one_norm(J.T @ it.y) + float(it.s @ it.y)) / one_norm(it.y)
            assert gamma_inf <= 1e-6, problem.name


def test_05_convex_qp_golden_and_degenerate_duals():
    with criterion(5, "simplex QP optimum e/10 with f*=0.05; degenerate LP keeps duals bounded"):
        _, result = run_registry("qp-simplex")
        assert result.status is SolveStatus.OPTIMAL
        assert inf_norm(result.x - 0.1) <= 1e-5
        assert abs(result.f - 0.05) <= 1e-6
        _, degen = run_registry("degenerate-lp")
        assert degen.status is SolveStatus.OPTIMAL
        assert inf_norm(degen.iterate.y) <= 1e4


def test_06_unboundedness_detected():
    with criterion(6, "min x s.t. x<=0 certified unbounded within 500 inner iterations"):
        _, result = run_registry("unbounded-lp")
        assert result.status is SolveStatus.UNBOUNDED
        assert result.inner_iterations <= 500
        assert inf_norm(result.iterate.x) >= 1e12


def test_07_descent_property_of_stabilization_directions():
    with criterion(7, "gamma=1 directions descend the barrier on 100 random instances"):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 100:
            problem, it = random_interior_setup(rng)
            M = assemble_schur(problem, it)
            fs = factorize_with_shift(M, 0.0)
            d = compute_direction(fs, it, 1.0)
            g = it.grad_f + it.jac.T @ (it.mu / it.s - it.mu * BETA1)  # grad psi_mu
            if inf_norm(g) <= 1e-12:
                continue
            checked += 1
            # exact-arithmetic oracle: the slope must equal the negative
            # quadratic form of the direction in M + delta*I, and the
            # barrier's directional derivative
            quad = float(d.dx @ ((M + fs.delta * np.eye(problem.n)) @ d.dx))
            assert quad > 0
            assert d.slope < 0
            assert d.slope == pytest.approx(-quad, rel=1e-6)
            assert d.slope == pytest.approx(float(g @ d.dx), rel=1e-6)


def oracle_shift_sequence(matrices, delta_cfg):
    """Hand-coded trace of the factorization strategy (division reading),
    independent of the production implementation."""
    delta_min, delta_inc, delta_dec, delta_max = delta_cfg
    delta = 0.0
    out = []
    for M in matrices:
        M = np.atleast_2d(np.asarray(M, float))
        previous = delta
        tau = min(M[i, i] for i in range(M.shape[0]))

        def chol_ok(A):
            try:
                np.linalg.cholesky(A)
                return True
            except np.linalg.LinAlgError:
                return False

        if tau > 0 and chol_ok(M):
            delta = 0.0
            out.append(0.0)
            continue
        if tau > 0:
            tau = 0.0
        delta = max(previous / delta_dec, delta_min - tau)
        while True:
            if delta >= delta_max:
                out.append("failure")
                return out
            if chol_ok(M + delta * np.eye(M.shape[0])):
                out.append(delta)
                break
            delta = delta_inc * delta
    return out


def test_08_factorization_strategy_matches_hand_trace():
    with criterion(8, "shift sequence identical to the appendix-algorithm oracle"):
        matrices = [
            [[-1.0]],
            [[2.0, 0.0], [0.0, 3.0]],
            [[0.5, 2.0], [2.0, 0.5]],
            [[-3.0]],
            [[-1e60]],
        ]
        cfg = (linalg.DELTA_MIN, linalg.DELTA_INC, linalg.DELTA_DEC, linalg.DELTA_MAX)
        expected = oracle_shift_sequence(matrices, cfg)

        delta = 0.0
        produced = []
        for M in matrices:
            try:
                fs = factorize_with_shift(np.atleast_2d(np.asarray(M, float)), delta)
            except MaxDeltaError:
                produced.append("failure")
                break
            produced.append(fs.delta)
            delta = fs.delta

        assert produced == expected
        # the division reading is visible in the fourth entry:
        # restart max(10.74/pi, 1e-8 + 3) = 3.417..., not 10.74*pi.
        assert produced[3] == pytest.approx(produced[2] / float(np.pi))


def test_09_nonconvex_quartic_reaches_global_minimum():
    with criterion(9, "quartic descends to x*=3 with f*=-33.75"):
        # oracle: the real root of f'(x) = x^3 - 6x - 9
        root = float(np.real([r for r in np.roots([1.0, 0.0, -6.0, -9.0])
                              if abs(np.imag(r)) < 1e-12][0]))
        assert root == pytest.approx(3.0, abs=1e-12)
        problem, result = run_registry("nonconvex-quartic")
        assert result.status is SolveStatus.OPTIMAL
        assert abs(result.x[0] - root) <= 1e-5
        assert abs(result.f - (-33.75)) <= 1e-5


def test_10_aggressive_steps_reduce_mu_at_the_stated_rate():
    with criterion(10, "accepted aggressive steps satisfy mu+/mu = 1-(1-gamma)alpha_P"):
        seen = 0
        for name in builtin_registry():
            _problem, _result, steps = collect_steps(name)
            for prev, direction, alpha_p, _ad, new, kind in steps:
                if kind != "aggressive":
                    continue
                seen += 1
                assert new.mu < prev.mu, name
                expected = 1.0 - (1.0 - direction.gamma) * alpha_p
                assert new.mu / prev.mu == pytest.approx(expected, rel=1e-12), name
        assert seen > 0
