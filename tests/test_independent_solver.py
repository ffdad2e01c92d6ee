"""Convex LP and QP objectives agree with an independent solver.

Each program is held as :class:`ProblemFile` data.  onephase solves it
through ``build_source`` and ``to_inequality_form``; scipy reads the same
data as dense arrays: ``linprog(method="highs")`` when the objective is
linear, ``minimize(method="trust-constr")`` when it is strictly convex
quadratic.  The tolerance, ten times the default ``eps_opt`` relative to
``1 + |f*|``, is fixed here and not tuned to the results.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, minimize

from onephase import (
    LinearRow,
    ProblemFile,
    Relation,
    SolveStatus,
    build_source,
    builtin_registry,
    solve,
    to_inequality_form,
)
from onephase.problem_file import QuadTerm, default_start

REL_TOL = 1e-5
# From its default barrier start (0.1), trust-constr stops by ``gtol`` with
# its barrier parameter still far from 0 and its objective off by as much:
# 8e-4 on qp-2d, whose optimum is 1, and 1.6e-4 with gtol 1e-10.  Started
# at 1e-6, its objectives on seeds 0..39 lie within 8e-6 of SLSQP's at
# ftol 1e-15.
TRUST_CONSTR_OPTIONS = {"gtol": 1e-10, "xtol": 1e-12, "barrier_tol": 1e-10,
                        "initial_barrier_parameter": 1e-6,
                        "initial_barrier_tolerance": 1e-6}


def random_program(seed: int, quadratic: bool) -> ProblemFile:
    """n = 2..8 variables in the box [-2, 2] and 1..6 ``<=`` rows, with a
    start inside the box that satisfies every row with slack at least 0.1;
    the objective is linear, or strictly convex with Hessian B B^T + 0.1 I."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 9)), int(rng.integers(1, 7))
    start = rng.uniform(-1.5, 1.5, n)
    A = rng.standard_normal((k, n))
    b = A @ start + rng.uniform(0.1, 1.0, k)
    quad_terms = []
    if quadratic:
        B = rng.standard_normal((n, n))
        Q = B @ B.T + 0.1 * np.eye(n)
        quad_terms = [QuadTerm(i, j, Q[i, j]) for i in range(n) for j in range(i, n)]
    return ProblemFile(
        name=f"random-{'qp' if quadratic else 'lp'}-{seed}",
        n=n,
        linear=rng.standard_normal(n),
        quad_terms=quad_terms,
        rows=[LinearRow(A[i], Relation.LE, float(b[i])) for i in range(k)],
        lower=np.full(n, -2.0),
        upper=np.full(n, 2.0),
        start=start,
    )


def scipy_optimum(pf: ProblemFile) -> float:
    """The optimal objective of ``pf`` as scipy finds it."""
    n = pf.n
    Q = np.zeros((n, n))
    for term in pf.quad_terms:
        Q[term.i, term.j] = Q[term.j, term.i] = term.value
    c = np.asarray(pf.linear, float)
    # Every row here is <= or >=; both sides read them as ``A x <= b``.
    sign = np.array([{Relation.LE: 1.0, Relation.GE: -1.0}[r.relation] for r in pf.rows])
    A = sign[:, None] * np.array([r.coeffs for r in pf.rows])
    b = sign * np.array([r.rhs for r in pf.rows])
    if not Q.any():
        res = linprog(c, A_ub=A, b_ub=b, bounds=list(zip(pf.lower, pf.upper)),
                      method="highs")
        assert res.status == 0, res.message
        return pf.constant + float(res.fun)
    constraints = [LinearConstraint(A, -np.inf, b)] if pf.rows else []
    boxed = np.isfinite(pf.lower).any() or np.isfinite(pf.upper).any()
    res = minimize(
        lambda x: float(c @ x + 0.5 * x @ Q @ x), default_start(pf),
        jac=lambda x: c + Q @ x, hess=lambda x: Q,
        method="trust-constr", constraints=constraints,
        bounds=Bounds(pf.lower, pf.upper) if boxed else None,
        options=TRUST_CONSTR_OPTIONS,
    )
    assert res.success, res.message
    return pf.constant + float(res.fun)


def assert_agrees(problem, x_start, pf: ProblemFile) -> None:
    result = solve(problem, x_start)
    assert result.status is SolveStatus.OPTIMAL, (pf.name, result.detail)
    f_star = scipy_optimum(pf)
    assert abs(result.f - f_star) <= REL_TOL * (1.0 + abs(f_star)), (pf.name, result.f, f_star)


@pytest.mark.parametrize("quadratic", [False, True], ids=["lp", "qp"])
@pytest.mark.parametrize("seed", range(20))
def test_random_program_matches_scipy(seed, quadratic):
    pf = random_program(seed, quadratic)
    problem, _ = to_inequality_form(build_source(pf))
    assert_agrees(problem, pf.start, pf)


@pytest.mark.parametrize("name", ["qp-simplex", "qp-2d", "qp-separable10", "degenerate-lp"])
def test_registry_convex_entry_matches_scipy(name):
    entry = builtin_registry()[name]
    problem, _ = entry.build()
    assert_agrees(problem, entry.x_start, entry.file_data)
