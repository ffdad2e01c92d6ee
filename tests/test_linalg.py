import ctypes

import numpy as np
import pytest
import scipy.linalg
from numpy.linalg import _umath_linalg
from numpy.testing import assert_allclose

import onephase.linalg as linalg_module
import onephase.solver as solver_module
from onephase import (
    LinearRow,
    NlpProblem,
    Relation,
    SolveStatus,
    SourceConstraint,
    SourceProblem,
    builtin_registry,
    solve,
    to_inequality_form,
)
from onephase.iterate import BETA1, make_iterate
from onephase.linalg import (
    DELTA_INC,
    DELTA_MIN,
    MaxDeltaError,
    _backsolve,
    _bind_lapack,
    _try_cholesky,
    assemble_schur,
    escalate_delta,
    factorize_with_shift,
    shift_floor,
    solve_shifted,
)
from onephase.solver import _refactorize

from helpers import planted_qp, quadratic_problem, run_python


def matrix(M):
    return np.atleast_2d(np.asarray(M, float))


def point(problem, x, s, y, mu=1.0):
    return make_iterate(problem, mu, x, s, y, np.zeros(len(s)))


def dense_schur(problem, it):
    """The dense product over every row: ``M`` before bound rows became a diagonal."""
    H = np.array(problem.hess_lag(it.x, it.y - it.mu * BETA1), dtype=float)
    Hs = 0.5 * (H + H.T)
    Hs += (it.jac.T * (it.y / it.s)) @ it.jac
    return 0.5 * (Hs + Hs.T)


def random_point(problem, rng):
    s, y = rng.uniform(0.1, 3.0, (2, problem.m))
    return point(problem, rng.standard_normal(problem.n), s, y, mu=0.3)


def assert_matches_dense(problem, rng, trials=20):
    for _ in range(trials):
        it = random_point(problem, rng)
        M, want = assemble_schur(problem, it), dense_schur(problem, it)
        assert np.array_equal(M, M.T)
        assert np.abs(M - want).max() <= 1e-13 * np.abs(want).max()


class TestAssembleSchur:
    def test_one_d_qp(self):
        # f = x^2/2, a = x - 1: M = 1 + 1*(2/0.5)*1 = 5
        p = quadratic_problem([[1.0]], [0.0], [[1.0]], [-1.0])
        M = assemble_schur(p, point(p, np.zeros(1), [0.5], [2.0]))
        assert_allclose(M, [[5.0]])

    def test_unconstrained_is_hessian(self):
        H = np.array([[2.0, 0.3], [0.3, 1.0]])
        p = quadratic_problem(H, np.zeros(2))
        M = assemble_schur(p, point(p, np.zeros(2), [], []))
        assert_allclose(M, H)

    def test_unit_ratio_adds_jtj(self):
        # y = s makes Y S^{-1} the identity: M = hess + J^T J
        p = quadratic_problem([[3.0]], [0.0], [[1.0]], [0.0])
        v = np.array([0.7])
        M = assemble_schur(p, point(p, np.zeros(1), v, v))
        assert_allclose(M, [[4.0]])

    def test_returns_exactly_symmetric_array(self):
        # The factorization reads M itself: a plain array, symmetric to the bit.
        H = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 4.0]])
        J = np.array([[1.0, 2.0, -1.0], [0.5, -1.0, 3.0]])
        p = quadratic_problem(H, np.zeros(3), J, np.zeros(2))
        M = assemble_schur(p, point(p, np.zeros(3), [0.3, 0.7], [1.9, 0.2]))
        assert type(M) is np.ndarray
        assert np.array_equal(M, M.T)

    def test_lowered_box_one_sided_fixed_and_equality_rows(self):
        # x0 in [-1, 2], x1 >= 0.5, x2 fixed at 1 (an == pair in the A x - b
        # block), x3 free; a nonlinear equality and a linear >= row.
        n = 4
        Q = np.array([[3.0, 1.0, 0.0, 0.5], [1.0, 2.0, 0.3, 0.0],
                      [0.0, 0.3, 1.5, 0.2], [0.5, 0.0, 0.2, 4.0]])
        source = SourceProblem(
            n=n, eval_f=lambda x: 0.5 * float(x @ Q @ x), eval_grad_f=lambda x: Q @ x,
            eval_hess_f=lambda x: Q,
            constraints=[SourceConstraint(func=lambda x: float(x @ x), grad=lambda x: 2 * x,
                                          relation=Relation.EQ, rhs=2.0,
                                          hess=lambda x: 2 * np.eye(n))],
            linear_rows=[LinearRow(np.array([1.0, -2.0, 0.5, 3.0]), Relation.GE, -1.0)],
            lower=np.array([-1.0, 0.5, 1.0, -np.inf]),
            upper=np.array([2.0, np.inf, 1.0, np.inf]))
        problem, _ = to_inequality_form(source)
        assert len(problem.bounds) == 3 and problem.m == 8
        assert isinstance(problem._general_rows, slice)
        assert_matches_dense(problem, np.random.default_rng(5))

    def test_bound_rows_first_and_in_the_middle(self):
        # Rows 0, 2 and 4 are declared bounds, so the other rows are an index array.
        J = np.array([[-1.0, 0.0, 0.0], [1.0, 2.0, -1.0], [0.0, 0.0, 1.0],
                      [0.5, -1.0, 3.0], [1.0, 0.0, 0.0]])
        H = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 4.0]])
        problem = NlpProblem(
            n=3, m=5, eval_f=lambda x: 0.5 * float(x @ H @ x), eval_grad_f=lambda x: H @ x,
            eval_a=lambda x: J @ x, eval_jac=lambda x: J, eval_hess_lag=lambda x, v: H,
            bounds=((0, 0, -1, 0.0), (2, 2, 1, 0.0), (4, 0, 1, 0.0)))
        assert problem._general_rows.tolist() == [1, 3]
        assert_matches_dense(problem, np.random.default_rng(6))

    def test_every_assembly_of_a_solve_is_exactly_symmetric(self, monkeypatch):
        # _try_cholesky factors the upper triangle of M as if it were the
        # lower one: that is M only when M equals its transpose to the bit.
        asymmetric, assemblies = [], []

        def checked(problem, it):
            M = assemble(problem, it)
            assemblies.append(problem.name)
            if not np.array_equal(M, M.T):
                asymmetric.append(problem.name)
            return M

        assemble = solver_module.assemble_schur
        monkeypatch.setattr(solver_module, "assemble_schur", checked)
        for entry in builtin_registry().values():
            problem, _ = entry.build()
            solve(problem, entry.x_start)
        problem = planted_qp(27)
        solve(problem, np.zeros(problem.n))
        assert len(set(assemblies)) == len(builtin_registry()) + 1
        assert asymmetric == []

    def test_no_bounds_is_the_dense_product_to_the_bit(self):
        rng = np.random.default_rng(7)
        H = rng.standard_normal((5, 5))
        J = rng.standard_normal((4, 5))
        problem = quadratic_problem(H + H.T, np.zeros(5), J, np.zeros(4))
        for _ in range(20):
            it = random_point(problem, rng)
            assert assemble_schur(problem, it).tobytes() == dense_schur(problem, it).tobytes()


class TestFactorizeWithShift:
    def test_positive_definite_unshifted(self):
        fs = factorize_with_shift(matrix([[5.0]]), 0.0)
        assert fs.delta == 0.0
        assert_allclose(fs.factor, [[np.sqrt(5.0)]])

    def test_negative_scalar_takes_first_shift(self):
        # tau = -1: first trial delta = max(0, 1e-8 + 1) succeeds with a
        # ~1e-8 pivot, factor ~1e-4.
        fs = factorize_with_shift(matrix([[-1.0]]), 0.0)
        assert fs.delta == max(0.0, 1e-8 - (-1.0))
        assert_allclose(fs.factor[0, 0], 1e-4, rtol=1e-6)

    def test_pathological_scale_hits_cap(self):
        with pytest.raises(MaxDeltaError):
            factorize_with_shift(matrix([[-1e60]]), 0.0)

    def test_overflowed_matrix_terminates_at_cap(self):
        # inf entries can appear from overflowing assembly; no shift can
        # fix them, so the loop must end in the max-delta failure.
        with pytest.raises(MaxDeltaError):
            factorize_with_shift(matrix([[np.inf, 0.0], [0.0, 1.0]]), 0.0)

    def test_random_spd_never_shifted(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((n, n))
            M = A @ A.T + 0.1 * np.eye(n)
            fs = factorize_with_shift(matrix(M), float(rng.uniform(0, 2)))
            assert fs.delta == 0.0

    def test_shifted_system_positive(self):
        # r' (M + delta I)^{-1} r > 0 certifies the factored matrix is PD.
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((n, n))
            M = 0.5 * (A + A.T)
            fs = factorize_with_shift(matrix(M), 0.0)
            r = rng.standard_normal(n)
            assert float(r @ solve_shifted(fs, r)) > 0

    def test_reconstruction_matches(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((4, 4))
        M = 0.5 * (A + A.T) - 2.0 * np.eye(4)
        fs = factorize_with_shift(matrix(M), 0.0)
        L = np.tril(fs.factor)  # the strict upper triangle is unspecified
        assert_allclose(L @ L.T, M + fs.delta * np.eye(4), rtol=1e-8, atol=1e-10)


# The shift loop once multiplied a zero start shift by delta_inc forever
# when M had a NaN on its diagonal (tau = nan), so these run in a fresh
# interpreter with a timeout.  A non-finite M must fail before any trial.
_NONFINITE_SCRIPT = """
import numpy as np
import onephase.linalg as linalg
def no_trial(A):
    raise AssertionError("trial factorization of a non-finite M")
linalg._try_cholesky = no_trial
M = np.array({rows}, float)
try:
    linalg.factorize_with_shift(M, 0.0)
except linalg.MaxDeltaError as exc:
    print(exc.delta, exc)
"""


class TestNonFiniteSchur:
    @pytest.mark.parametrize("rows", [
        "[[np.nan, 0.0], [0.0, 1.0]]",
        "[[1.0, np.nan], [np.nan, 1.0]]",
        "[[1.0, np.inf], [np.inf, 1.0]]",
        "[[1.0, 0.0], [0.0, -np.inf]]",
    ], ids=["nan-diagonal", "nan-off-diagonal", "plus-inf", "minus-inf"])
    def test_fails_at_once_with_max_delta(self, rows):
        out = run_python(_NONFINITE_SCRIPT.format(rows=rows))
        assert out.returncode == 0, out.stderr
        assert out.stdout.split(maxsplit=1) == [
            "inf", "Schur matrix has non-finite entries; no shift factors it\n"]


class TestLapackBinding:
    def test_every_routine_binds_at_numpy_integer_width(self):
        width = ctypes.c_int64 if _umath_linalg._ilp64 else ctypes.c_int
        assert linalg_module._LapackInt is width
        for routine in ("dpotrf", "dpotrs"):
            assert callable(_bind_lapack(routine))

    def test_missing_routine_is_named(self):
        with pytest.raises(ImportError, match="exports no dnosuch "):
            _bind_lapack("dnosuch")


# Sizes on both sides of OpenBLAS's switches from the unblocked to the
# blocked and the threaded potrf.  Each indefinite matrix is an SPD one with
# a negative diagonal entry halfway down, so the failure comes mid-factor.
_BIT_IDENTITY_SCRIPT = """
import numpy as np
from onephase.linalg import _try_cholesky
rng = np.random.default_rng(27)
for n in (1, 2, 31, 32, 33, 60, 63, 64, 65, 127, 128, 129, 200, 256):
    B = rng.standard_normal((n, n))
    spd = B @ B.T / n + 0.1 * np.eye(n)
    indefinite = spd.copy()
    indefinite[n // 2, n // 2] = -1.0
    for kind, A in (("spd", spd), ("indefinite", indefinite)):
        A = 0.5 * (A + A.T)
        try:
            want = np.asfortranarray(np.linalg.cholesky(A))
        except np.linalg.LinAlgError:
            want = None
        got = _try_cholesky(A)
        if want is None:
            print(n, kind, "none" if got is None else "factor where numpy raises")
        else:
            # dpotrs reads the lower triangle only; the upper holds entries of A
            same = got.flags.f_contiguous and np.tril(got).tobytes() == want.tobytes()
            print(n, kind, "equal" if same else "differs")
"""


class TestTryCholesky:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bits_equal_numpy_cholesky(self, threads):
        out = run_python(_BIT_IDENTITY_SCRIPT, env={"OPENBLAS_NUM_THREADS": threads})
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert len(lines) == 28
        for line in lines:
            n, kind, outcome = line.split(maxsplit=2)
            assert outcome == ("equal" if kind == "spd" else "none"), line

    def test_raises_on_lapack_info(self):
        # LAPACK wants LDA >= max(1, N): an empty matrix is refused by
        # dpotrf itself.
        with pytest.raises(ValueError, match="4th argument"):
            _try_cholesky(np.zeros((0, 0)))

    def test_refuses_a_matrix_it_would_overrun(self):
        # dpotrf sees only a pointer: it would read n*n entries of a 2 x 3 array.
        with pytest.raises(ValueError, match="square matrix"):
            _try_cholesky(np.ones((2, 3)))


class TestSingleBlasFactorization:
    @pytest.mark.parametrize("n", [3, 127, 128, 200])
    @pytest.mark.parametrize("kind", ["spd", "indefinite"])
    def test_factor_reconstructs_and_solves(self, n, kind):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        M = A @ A.T / n + 0.1 * np.eye(n) if kind == "spd" else 0.5 * (A + A.T)
        fs = factorize_with_shift(matrix(M), 0.0)
        assert (fs.delta == 0.0) == (kind == "spd")
        assert fs.factor.flags.f_contiguous  # _backsolve refuses a C-ordered factor
        L = np.tril(fs.factor)  # the strict upper triangle is unspecified
        assert_allclose(L @ L.T, fs.shifted, rtol=0,
                        atol=1e-12 * np.abs(fs.shifted).max())
        rhs = rng.standard_normal(n)
        assert_allclose(solve_shifted(fs, rhs), np.linalg.solve(fs.shifted, rhs),
                        rtol=1e-8, atol=1e-10)

    def test_solve_never_calls_scipy_cholesky(self, monkeypatch):
        def second_blas(*args, **kwargs):
            raise AssertionError("scipy.linalg.cholesky called")
        monkeypatch.setattr(scipy.linalg, "cholesky", second_blas)
        n = 128
        rng = np.random.default_rng(0)
        A = rng.standard_normal((n, n))
        J = rng.standard_normal((n // 2, n))
        p = quadratic_problem(A @ A.T / n + np.eye(n), rng.standard_normal(n),
                              J, -np.ones(n // 2))
        assert solve(p, np.zeros(n)).status is SolveStatus.OPTIMAL


def cho_solve_shifted(fs, rhs):
    """``solve_shifted`` as written on ``scipy.linalg.cho_solve``, the
    reference; also returns whether the refinement round ran."""
    d = scipy.linalg.cho_solve((fs.factor, True), rhs, check_finite=False)
    resid = rhs - fs.shifted @ d
    refined = bool(np.abs(resid).max(initial=0.0) > 1e-10 * (1.0 + np.abs(rhs).max(initial=0.0)))
    if refined:
        d = d + scipy.linalg.cho_solve((fs.factor, True), resid, check_finite=False)
    return d, refined


def matches_cho_solve(rng, n):
    """Check ``solve_shifted`` against :func:`cho_solve_shifted` to the bit
    on a random SPD matrix of size ``n`` with a condition number up to
    1e14; return whether the refinement round ran."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = (Q * np.geomspace(1.0, 10.0 ** -rng.uniform(0, 14), n)) @ Q.T
    fs = factorize_with_shift(0.5 * (M + M.T), 0.0)
    rhs = rng.standard_normal(n)
    want, refined = cho_solve_shifted(fs, rhs)
    solves = fs.solves
    got = solve_shifted(fs, rhs)
    assert got.tobytes() == want.tobytes()
    assert fs.solves - solves == 1 + refined
    return refined


class TestSolveShifted:
    def test_equals_cho_solve_to_the_bit(self):
        # Condition numbers up to 1e14, so that both branches, with and
        # without refinement, are taken.  The small sizes are the registry's;
        # 40 to 256 span the benchmark's, where dtrsm works in blocks.
        rng = np.random.default_rng(16)
        refined_seen = {matches_cho_solve(rng, int(rng.integers(1, 12))) for _ in range(80)}
        assert refined_seen == {False, True}
        rng = np.random.default_rng(26)
        refined_seen = {matches_cho_solve(rng, n) for n in (40, 60, 128, 256) for _ in range(4)}
        assert refined_seen == {False, True}

    def test_backsolve_refuses_a_factor_it_would_misread(self):
        # dpotrs gets only a pointer: it would solve with the transpose of a
        # C-ordered factor, or read a float32 one as garbage.
        L = factorize_with_shift(matrix([[4.0, 2.0], [2.0, 3.0]]), 0.0).factor
        rhs = np.array([1.0, 2.0])
        for bad in (np.ascontiguousarray(L), np.asfortranarray(L, dtype=np.float32)):
            with pytest.raises(ValueError, match="Fortran-ordered float64"):
                _backsolve(bad, rhs)
        with pytest.raises(ValueError, match="length-n right-hand side"):
            _backsolve(L, rhs[:1])

    def test_backsolve_raises_on_lapack_info(self):
        # LAPACK wants LDA >= max(1, N): an empty factor passes the layout
        # checks and is refused by dpotrs itself.
        with pytest.raises(ValueError, match="5th argument"):
            _backsolve(np.zeros((0, 0), order="F"), np.zeros(0))

    def test_scalar(self):
        fs = factorize_with_shift(matrix([[5.0]]), 0.0)
        assert_allclose(solve_shifted(fs, np.array([-10.0])), [-2.0])

    def test_zero_rhs(self):
        fs = factorize_with_shift(matrix([[5.0]]), 0.0)
        assert_allclose(solve_shifted(fs, np.zeros(1)), [0.0])

    def test_diagonal(self):
        fs = factorize_with_shift(matrix(np.diag([2.0, 8.0])), 0.0)
        assert_allclose(solve_shifted(fs, np.array([2.0, 4.0])), [1.0, 0.5])

    def test_relative_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            M = 0.5 * (A + A.T)
            fs = factorize_with_shift(matrix(M), 0.0)
            rhs = rng.standard_normal(n)
            d = solve_shifted(fs, rhs)
            resid = rhs - (M + fs.delta * np.eye(n)) @ d
            assert np.abs(resid).max() <= 1e-8 * (1.0 + np.abs(rhs).max())


class TestEscalateDelta:
    def test_gradient_ratio_dominates(self):
        assert escalate_delta(0.0, grad_norm=1.0, dx_norm=2.0) == 0.5

    def test_multiplicative_growth_dominates(self):
        assert escalate_delta(1.0, grad_norm=1e-6, dx_norm=1.0) == 8.0

    def test_cap_exceeded(self):
        # The escalated shift passes the cap; factoring at it raises before
        # any trial, with the escalated shift and the cap in the message.
        with pytest.raises(MaxDeltaError) as err:
            _refactorize(matrix([[1.0]]), escalate_delta(2e49, grad_norm=1.0, dx_norm=1.0))
        assert err.value.delta == 1.6e50
        assert str(err.value) == "shift 1.600e+50 reached cap 1.000e+50"

    def test_zero_terms_fall_back_to_minimum(self):
        assert escalate_delta(0.0, grad_norm=0.0, dx_norm=1.0) == 1e-8


class TestShiftFloor:
    def test_zero_gradient_falls_back_to_minimum(self):
        assert shift_floor(0.0, 5.0) == DELTA_MIN

    def test_gradient_over_position_beyond_unit_norm(self):
        assert shift_floor(1e-4, 1e6) == 1e-10

    def test_position_below_one_does_not_scale(self):
        assert shift_floor(1e-12, 0.5) == 1e-12

    def test_capped_at_minimum(self):
        assert shift_floor(1.0, 10.0) == DELTA_MIN

    def test_restart_starts_at_the_floor(self):
        # Singular PSD with a positive diagonal: the unshifted trial fails
        # and the restart takes the floor itself.
        fs = factorize_with_shift(matrix([[1.0, 1.0], [1.0, 1.0]]), 0.0, 1e-12)
        assert fs.delta == 1e-12
        assert fs.attempts == 2

    def test_zero_gradient_floor_terminates(self):
        # Indefinite with a positive diagonal: a floor of 0 would restart at
        # delta = 0 and never grow.  From DELTA_MIN, nine growths by DELTA_INC
        # pass the eigenvalue -1.
        fs = factorize_with_shift(matrix([[1.0, 2.0], [2.0, 1.0]]), 0.0, shift_floor(0.0, 5.0))
        assert fs.delta == DELTA_MIN * DELTA_INC**9
        assert fs.delta == pytest.approx(1.342, abs=1e-3)
        assert fs.attempts == 11
