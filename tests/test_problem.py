from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from onephase import (
    EvaluationError,
    LinearRow,
    NlpProblem,
    Relation,
    SourceConstraint,
    SolveStatus,
    SourceProblem,
    builtin_registry,
    check_derivatives,
    solve,
    to_inequality_form,
)
from onephase.iterate import make_iterate

from helpers import linear_problem, quadratic_problem


def one_d_problem():
    # f(x) = x, a(x) = x - 1
    return linear_problem([1.0], [[1.0]], [-1.0])


def lagrangian_grad(problem, x, y, mu):
    """grad f(x) + J(x)^T (y - mu*beta1*e) as the solver computes it: from
    the caches of a freshly evaluated iterate."""
    m = problem.m
    it = make_iterate(problem, mu, x, np.ones(m), y, np.zeros(m))
    return it.lagrangian_grad(mu)


class TestModifiedLagrangianGradient:
    def test_classical_lagrangian(self):
        p = one_d_problem()
        g = lagrangian_grad(p, np.array([0.0]), np.array([2.0]), 0.0)
        assert_allclose(g, [3.0])

    def test_modified_term(self):
        p = one_d_problem()
        g = lagrangian_grad(p, np.array([0.0]), np.array([2.0]), 1.0)
        assert_allclose(g, [2.9999])

    def test_zero_multipliers(self):
        p = quadratic_problem(np.eye(2), [0.5, -1.0], [[1.0, 1.0]], [0.0])
        x = np.array([0.3, 0.7])
        g = lagrangian_grad(p, x, np.zeros(1), 0.0)
        assert_allclose(g, p.grad_f(x))

    def test_linear_in_y(self):
        rng = np.random.default_rng(7)
        p = quadratic_problem(np.eye(3), [1.0, 2.0, 3.0],
                              rng.standard_normal((4, 3)), rng.standard_normal(4))
        x = rng.standard_normal(3)
        for _ in range(10):
            y1 = rng.standard_normal(4)
            y2 = rng.standard_normal(4)
            t = float(rng.standard_normal())
            lhs = lagrangian_grad(p, x, y1 + t * y2, 0.3)
            g1 = lagrangian_grad(p, x, y1, 0.3)
            g2 = lagrangian_grad(p, x, y2, 0.3)
            g0 = lagrangian_grad(p, x, np.zeros(4), 0.3)
            assert_allclose(lhs, g1 + t * (g2 - g0), atol=1e-12)

    def test_propagates_evaluation_error(self):
        p = one_d_problem()
        bad = NlpProblem(
            n=1, m=1,
            eval_f=p.eval_f, eval_grad_f=p.eval_grad_f,
            eval_a=p.eval_a,
            eval_jac=lambda x: np.array([[np.nan]]),
            eval_hess_lag=p.eval_hess_lag,
        )
        with pytest.raises(EvaluationError) as err:
            lagrangian_grad(bad, np.zeros(1), np.ones(1), 0.0)
        assert str(err.value) == "non-finite value from jac at entry 0"


def quadratic_source(n, lower=None, upper=None, constraints=(), linear_rows=()):
    return SourceProblem(
        n=n,
        eval_f=lambda x: 0.5 * float(x @ x),
        eval_grad_f=lambda x: np.asarray(x, float),
        eval_hess_f=lambda x: np.eye(n),
        constraints=list(constraints),
        linear_rows=list(linear_rows),
        lower=lower,
        upper=upper,
    )


def _bound_checks_loop(lower, upper):
    """The per-variable bound checks ``to_inequality_form`` replaced, kept as
    their reference."""
    for j in range(len(lower)):
        if np.isnan(lower[j]) or np.isnan(upper[j]):
            raise ValueError(f"NaN bound for variable {j}: "
                             f"lower {lower[j]}, upper {upper[j]}")
        if lower[j] == np.inf or upper[j] == -np.inf:
            raise ValueError(f"infinite bound on the wrong side for variable {j}: "
                             f"lower {lower[j]}, upper {upper[j]}")
        if lower[j] > upper[j]:
            raise ValueError(f"inconsistent bounds for variable {j}: "
                             f"lower {lower[j]} > upper {upper[j]}")


def _bound_rows_loop(lower, upper, n_block):
    """The per-variable loop that made ``to_inequality_form``'s bound rows, kept
    as its reference: the declared bounds and their (kind, variable, sign)."""
    fixed = np.isfinite(lower) & (lower == upper)
    bounds, rows = [], []
    for j in range(len(lower)):
        for kind, sign, c in (("lower", -1, lower[j]), ("upper", +1, upper[j])):
            if np.isfinite(c) and not fixed[j]:
                bounds.append((n_block + len(bounds), j, sign, float(c)))
                rows.append((kind, j, sign))
    return tuple(bounds), rows


VALID_BOXES = ("free", "lower", "upper", "box", "tight", "fixed")
FAULTY_BOXES = ("nan", "wrong-side", "crossed")


def _random_bound_arrays(rng):
    """``lower``/``upper`` arrays mixing free, one-sided, two-sided, tight and
    fixed variables with signed zeros and magnitudes of 1e300; a share of the
    variables (none, some or most) carries a NaN, wrong-side infinite or
    crossed bound, so some inputs have several faults."""
    n = int(rng.integers(1, 8))
    fault_share = rng.choice([0.0, 0.1, 0.5])
    special = [0.0, -0.0, 1.0, -1.0, 1e300, -1e300]
    lower, upper, kinds = np.full(n, -np.inf), np.full(n, np.inf), []
    for j in range(n):
        lo = (float(rng.choice(special)) if rng.random() < 0.3
              else float(rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)))
        hi = lo + abs(float(rng.standard_normal())) + 1e-3
        pool = FAULTY_BOXES if rng.random() < fault_share else VALID_BOXES
        kind = pool[int(rng.integers(0, len(pool)))]
        if kind in ("lower", "box", "tight", "fixed", "crossed"):
            lower[j] = lo
        if kind in ("upper", "box"):
            upper[j] = hi
        upper[j] = {"tight": lo + 1e-12 * max(1.0, abs(lo)), "fixed": lo,
                    "crossed": lo - 1.0}.get(kind, upper[j])
        if kind == "nan":
            (lower if rng.random() < 0.5 else upper)[j] = np.nan
        if kind == "wrong-side":
            if rng.random() < 0.5:
                lower[j] = np.inf
            else:
                upper[j] = -np.inf
        kinds.append(kind)
    return lower, upper, kinds


class TestBoundLoweringMatchesLoop:
    def test_random_cases_identical(self):
        rng = np.random.default_rng(41)
        seen = dict.fromkeys(VALID_BOXES + FAULTY_BOXES, 0) | {"accepted": 0,
                                                                "multi-fault": 0}
        for _ in range(3000):
            lower, upper, kinds = _random_bound_arrays(rng)
            n = lower.size
            rows = [LinearRow(np.ones(n), Relation.LE, 1.0)] * int(rng.integers(0, 2))
            source = quadratic_source(n, lower=lower.copy(), upper=upper.copy(),
                                      linear_rows=rows)
            try:
                _bound_checks_loop(lower, upper)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    to_inequality_form(source)
                assert str(err.value) == str(exc)
                seen["multi-fault"] += sum(k in FAULTY_BOXES for k in kinds) > 1
            else:
                problem, origins = to_inequality_form(source)
                n_block = len(rows) + 2 * int(np.sum(np.isfinite(lower) & (lower == upper)))
                want, want_rows = _bound_rows_loop(lower, upper, n_block)
                # repr tells 0.0 from -0.0 and a Python int from a numpy one
                assert repr(problem.bounds) == repr(want)
                assert repr(origins[n_block:]) == repr(want_rows)
                # the closures match the old float-array gather bit for bit
                b_row, b_var, b_sign, b_c = np.array(want, dtype=float).reshape(-1, 4).T
                b_var = b_var.astype(int)
                x = rng.standard_normal(n)
                assert (problem.a(x)[n_block:].tobytes()
                        == (b_sign * x[b_var] - b_sign * b_c).tobytes())
                J = np.zeros((problem.m, n))
                J[b_row.astype(int), b_var] = b_sign
                assert problem.jac(x)[n_block:].tobytes() == J[n_block:].tobytes()
                seen["accepted"] += 1
            for kind in kinds:
                seen[kind] += 1
        assert min(seen.values()) > 100, seen


class TestToInequalityForm:
    def test_equality_splits_into_two_rows(self):
        row = LinearRow(np.array([1.0]), Relation.EQ, 3.0)
        problem, origins = to_inequality_form(quadratic_source(1, linear_rows=[row]))
        assert problem.m == 2
        x = np.array([5.0])
        assert_allclose(problem.a(x), [2.0, -2.0])  # x-3 <= 0 and 3-x <= 0
        assert origins == [("linear", 0, 1), ("linear", 0, -1)]

    def test_box_bounds_become_flagged_rows(self):
        problem, _ = to_inequality_form(
            quadratic_source(1, lower=np.array([0.0]), upper=np.array([1.0])))
        assert problem.m == 2
        assert problem.bounds == ((0, 0, -1, 0.0), (1, 0, 1, 1.0))
        x = np.array([0.25])
        assert_allclose(problem.a(x), [-0.25, -0.75])  # -x <= 0, x-1 <= 0
        J = problem.jac(x)
        assert_allclose(J, [[-1.0], [1.0]])

    def test_ge_row_flips_sign(self):
        con = SourceConstraint(func=lambda x: float(x[0] ** 2), grad=lambda x: 2 * x,
                               hess=lambda x: np.array([[2.0]]),
                               relation=Relation.GE, rhs=2.0)
        problem, _ = to_inequality_form(quadratic_source(1, constraints=[con]))
        assert problem.m == 1
        assert_allclose(problem.a(np.array([1.0])), [1.0])  # 2 - x^2 <= 0

    @pytest.mark.parametrize("n", [2.5, 2.0, "2"], ids=["fraction", "float", "string"])
    def test_non_integer_n_rejected(self, n):
        # numpy's TypeError from np.full(2.5, ...) escaped before this check
        with pytest.raises(ValueError, match=f"^n={n!r} is not an integer$"):
            to_inequality_form(quadratic_source(n))

    def test_inconsistent_bounds_rejected_with_index(self):
        with pytest.raises(ValueError, match="variable 1"):
            to_inequality_form(quadratic_source(
                2, lower=np.array([0.0, 2.0]), upper=np.array([1.0, 1.0])))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_nan_bound_rejected_with_index(self, side):
        bounds = {"lower": np.zeros(2), "upper": np.ones(2)}
        bounds[side][1] = np.nan
        with pytest.raises(ValueError, match="NaN bound for variable 1"):
            to_inequality_form(quadratic_source(2, **bounds))

    @pytest.mark.parametrize("bound", [np.inf, -np.inf], ids=["plus-inf", "minus-inf"])
    def test_wrong_side_infinite_bound_rejected_with_index(self, bound):
        # "1 inf inf" (x1 >= inf) and "1 -inf -inf" (x1 <= -inf) have no
        # feasible point; neither may be read as a free variable.
        lower, upper = np.zeros(2), np.ones(2)
        lower[1] = upper[1] = bound
        with pytest.raises(ValueError, match="wrong side for variable 1"):
            to_inequality_form(quadratic_source(2, lower=lower, upper=upper))

    def test_fixed_variable_becomes_shifted_pair_before_bound_rows(self):
        # x0 + x1 <= 4, x0 fixed at 1, x1 >= 0.5: rows are the linear row,
        # then x0 - 1 <= 0 and 1 - x0 <= 0, then the declared 0.5 - x1 <= 0.
        row = LinearRow(np.ones(2), Relation.LE, 4.0)
        problem, origins = to_inequality_form(quadratic_source(
            2, lower=np.array([1.0, 0.5]), upper=np.array([1.0, np.inf]),
            linear_rows=[row]))
        assert problem.bounds == ((3, 1, -1, 0.5),)
        assert problem.linear_indices == {0, 1, 2, 3}
        assert origins == [
            ("linear", 0, 1), ("upper", 0, 1), ("lower", 0, -1), ("lower", 1, -1)]
        x = np.array([3.0, 2.0])
        assert_allclose(problem.a(x), [1.0, 2.0, -2.0, -1.5])
        assert_allclose(problem.jac(x), [[1, 1], [1, 0], [-1, 0], [0, -1]])
        result = solve(problem, np.array([0.0, 2.0]))
        assert result.status is SolveStatus.OPTIMAL
        assert_allclose(result.x, [1.0, 0.5], atol=1e-5)

    def test_nonlinear_rows_come_before_the_linear_block(self):
        # x0^2 >= 2 is row 0; x0 + x1 == 1 splits into rows 1 and 2.
        con = SourceConstraint(func=lambda x: float(x[0] ** 2),
                               grad=lambda x: np.array([2.0 * x[0], 0.0]),
                               hess=lambda x: np.diag([2.0, 0.0]), relation=Relation.GE, rhs=2.0)
        row = LinearRow(np.ones(2), Relation.EQ, 1.0)
        problem, origins = to_inequality_form(quadratic_source(
            2, lower=np.array([0.0, -np.inf]), constraints=[con], linear_rows=[row]))
        assert origins == [
            ("constraint", 0, -1), ("linear", 0, 1), ("linear", 0, -1), ("lower", 0, -1)]
        assert problem.linear_indices == {1, 2, 3}
        assert problem.bounds == ((3, 0, -1, 0.0),)
        x = np.array([3.0, 0.5])
        assert_allclose(problem.a(x), [-7.0, 2.5, -2.5, -3.0])
        assert_allclose(problem.jac(x), [[-6, 0], [1, 1], [-1, -1], [-1, 0]])

    @pytest.mark.parametrize("relation", list(Relation), ids=lambda r: r.name)
    def test_linear_block_matches_per_row_dots_bit_for_bit(self, relation):
        # The block evaluates a(x) as np.vecdot(A, x) - b.  Each row of
        # np.vecdot rounds as the per-row dot coeffs @ x does, so a(x)
        # is bit-identical to the per-row closures it replaced and the
        # solver's iterates do not move; A @ x (BLAS gemv) sums in
        # another order and would change them.
        rng = np.random.default_rng(12)
        n = 128
        rows = [LinearRow(rng.standard_normal(n), relation, float(rng.standard_normal()))
                for _ in range(6)]
        problem, origins = to_inequality_form(quadratic_source(n, linear_rows=rows))
        picked = [(sign, rows[k]) for _, k, sign in origins]
        for _ in range(50):
            x = rng.standard_normal(n)
            per_row = [sign * (float(r.coeffs @ x) - r.rhs) for sign, r in picked]
            assert np.array_equal(problem.a(x), per_row)
        # The Jacobian is a fresh copy of A: a caller may write into it.
        expected = np.array([sign * r.coeffs for sign, r in picked])
        J = problem.jac(x)
        J[:] = 0.0
        assert np.array_equal(problem.jac(x), expected)

    @pytest.mark.parametrize("coeffs, rhs", [
        (np.ones(3), 1.0),
        (np.array([1.0, np.nan]), 1.0),
        (np.array([np.inf, 1.0]), 1.0),
        (np.ones(2), np.nan),
        (np.ones(2), -np.inf),
    ], ids=["wrong-shape", "nan-coeff", "inf-coeff", "nan-rhs", "inf-rhs"])
    def test_malformed_linear_row_rejected_with_index(self, coeffs, rhs):
        rows = [LinearRow(np.ones(2), Relation.LE, 1.0), LinearRow(coeffs, Relation.GE, rhs)]
        with pytest.raises(ValueError, match="malformed linear row 1"):
            to_inequality_form(quadratic_source(2, linear_rows=rows))

    @pytest.mark.parametrize("rhs", [np.nan, np.inf, -np.inf])
    def test_nonfinite_constraint_rhs_rejected_with_index(self, rhs):
        circle = SourceConstraint(lambda x: float(x @ x), lambda x: 2.0 * x, Relation.LE, rhs)
        rows = [SourceConstraint(circle.func, circle.grad, Relation.GE, 0.5), circle]
        with pytest.raises(ValueError, match="malformed constraint 1: non-finite rhs"):
            to_inequality_form(quadratic_source(2, constraints=rows))

    @pytest.mark.parametrize("rows, message", [
        ([LinearRow(np.ones(2), "<=", 1.0)],
         "malformed linear row 1: relation '<=' is not a Relation"),
        ([LinearRow(np.ones(2), Relation.LE, "1")],
         "malformed linear row 1: rhs '1' is not a real number"),
        ([LinearRow(["a", "b"], Relation.LE, 1.0)],
         r"malformed linear row 1: non-numeric coefficients \(<U1\)"),
    ], ids=["relation-string", "rhs-string", "coefficient-string"])
    def test_linear_row_of_wrong_type_rejected_with_index(self, rows, message):
        rows = [LinearRow(np.ones(2), Relation.EQ, 0.0), *rows]
        with pytest.raises(ValueError, match=message):
            to_inequality_form(quadratic_source(2, linear_rows=rows))

    @pytest.mark.parametrize("relation, rhs, message", [
        (">=", 1.0, "malformed constraint 1: relation '>=' is not a Relation"),
        (Relation.LE, "1", "malformed constraint 1: rhs '1' is not a real number"),
        (Relation.LE, None, "malformed constraint 1: rhs None is not a real number"),
    ], ids=["relation-string", "rhs-string", "rhs-none"])
    def test_constraint_of_wrong_type_rejected_with_index(self, relation, rhs, message):
        circle = SourceConstraint(lambda x: float(x @ x), lambda x: 2.0 * x, Relation.LE, 4.0)
        rows = [circle, replace(circle, relation=relation, rhs=rhs)]
        with pytest.raises(ValueError, match=message):
            to_inequality_form(quadratic_source(2, constraints=rows))

    def test_overflowing_linear_row_reports_non_finite_a(self):
        # 1e200 * 1e200 overflows inside the A x - b block: the solve names
        # the entry instead of numpy warning (an error under this suite)
        row = LinearRow(np.array([1e200]), Relation.LE, 1.0)
        problem, _ = to_inequality_form(quadratic_source(1, linear_rows=[row]))
        result = solve(problem, np.array([1e200]))
        assert result.status is SolveStatus.EVALUATION_ERROR
        assert result.detail == "non-finite value from a at entry 0"

    def test_transform_is_bijection(self):
        for entry in builtin_registry().values():
            problem, origins = entry.build()
            assert len(origins) == problem.m

    def test_feasible_point_maps_nonpositive(self):
        rows = [LinearRow(np.ones(2), Relation.LE, 4.0),
                LinearRow(np.array([1.0, -1.0]), Relation.EQ, 0.0)]
        problem, _ = to_inequality_form(quadratic_source(
            2, lower=np.zeros(2), upper=np.full(2, 3.0), linear_rows=rows))
        feasible = np.array([1.5, 1.5])
        assert np.all(problem.a(feasible) <= 1e-12)

    def test_linear_rows_have_constant_jacobian(self):
        rng = np.random.default_rng(3)
        for entry in builtin_registry().values():
            problem, _ = entry.build()
            if problem.m == 0 or not problem.linear_indices:
                continue
            x1, x2 = rng.standard_normal(problem.n), rng.standard_normal(problem.n)
            J1, J2 = problem.jac(x1), problem.jac(x2)
            for i in problem.linear_indices:
                assert_allclose(J1[i], J2[i], atol=1e-14)

    def test_jacobian_is_a_fresh_array_each_call(self):
        # eval_jac copies its prebuilt constant rows: writing into one
        # result must not reach the next.
        rng = np.random.default_rng(5)
        for entry in builtin_registry().values():
            problem, _ = entry.build()
            x = rng.standard_normal(problem.n)
            want = problem.eval_jac(x).copy()
            problem.eval_jac(x)[:] = np.nan
            assert problem.eval_jac(x).tobytes() == want.tobytes(), entry.name

    def test_bound_rows_have_single_unit_coefficient(self):
        # Each declared bound must agree with the callbacks:
        # J[row] = sign*e_var and a(x)[row] = sign*x[var] - sign*c.
        rng = np.random.default_rng(4)
        checked = 0
        for entry in builtin_registry().values():
            problem, _ = entry.build()
            x = rng.standard_normal(problem.n)
            J, a = problem.jac(x), problem.a(x)
            for row, var, sign, c in problem.bounds:
                unit = np.zeros(problem.n)
                unit[var] = sign
                assert np.array_equal(J[row], unit), (entry.name, row)
                assert a[row] == sign * x[var] - sign * c, (entry.name, row)
                checked += 1
        assert checked > 0


class TestDeclaredBounds:
    # 0 <= x_0 <= 1 as rows 0 and 1 of a 2-variable problem.
    BOX = ((0, 0, -1, 0.0), (1, 0, 1, 1.0))

    def box(self):
        return linear_problem([0.0, 0.0], [[-1.0, 0.0], [1.0, 0.0]], [0.0, -1.0])

    def test_valid_bounds_accepted(self):
        assert replace(self.box(), bounds=self.BOX).bounds == self.BOX
        numpy_typed = ((np.int64(0), np.int32(0), -1.0, np.float32(0)), (1, 0, 1, 1))
        assert replace(self.box(), bounds=numpy_typed).bounds == numpy_typed

    @pytest.mark.parametrize("bounds, match", [
        (((2, 0, 1, 1.0),), "out of range"),
        (((-1, 0, 1, 1.0),), "out of range"),
        (((0, 2, -1, 0.0),), "out of range"),
        (((1.5, 0.7, 1, 0.0),), "bound row 1.5 or variable 0.7 not an integer"),
        (((1, 0.5, 1, 1.0),), "not an integer"),
        (((0, 0, 0, 0.0),), "sign"),
        (((0, 0, -2, 0.0),), "sign"),
        (((0, 0, -1, np.nan),), "non-finite"),
        (((1, 0, 1, np.inf),), "non-finite"),
        (((0, 0, -1, 0.0), (0, 0, 1, 1.0)), "declared twice"),
        ((("1", 0, 1, 0.0),), "bound row 1 or variable 0 not an integer"),
        (((1.0, 0, 1, 0.0),), "bound row 1.0 or variable 0 not an integer"),
        (((0, 0, "1", 0.0),), "bound row 0 has a sign or constant given as a string"),
        (((0, 0, 1, "nan"),), "bound row 0 has a sign or constant given as a string"),
    ], ids=["row-past-m", "row-negative", "var-past-n", "row-fractional",
            "var-fractional", "sign-zero", "sign-two", "const-nan", "const-inf",
            "row-repeated", "row-string", "row-float", "sign-string", "const-string"])
    def test_invalid_bounds_rejected(self, bounds, match):
        with pytest.raises(ValueError, match=match):
            replace(self.box(), bounds=bounds)

    @pytest.mark.parametrize("indices", [{1.0}, {2}, {-1}, {"0"}],
                             ids=["float", "past-m", "negative", "string"])
    def test_invalid_linear_indices_rejected(self, indices):
        (index,) = indices
        with pytest.raises(ValueError, match=f"linear index {index!r} is not an integer"):
            replace(self.box(), linear_indices=frozenset(indices))


    @pytest.mark.parametrize("sizes, match", [
        ({"n": 2.5}, "n=2.5 is not an integer"),
        ({"m": 1.0}, "m=1.0 is not an integer"),
        ({"n": 0}, "at least one variable"),
        ({"m": -1}, "negative constraint count"),
    ], ids=["n-fractional", "m-float", "n-zero", "m-negative"])
    def test_invalid_sizes_rejected(self, sizes, match):
        with pytest.raises(ValueError, match=match):
            replace(self.box(), **sizes)


def _declared_bounds_loop(bounds, m, n):
    """The per-entry checks ``NlpProblem.__post_init__`` replaced, kept as
    their reference."""
    rows = set()
    for row, var, sign, c in bounds:
        # a string row or variable is not compared: it is not an integer
        if not all(isinstance(x, str) or 0 <= x < size for x, size in ((row, m), (var, n))):
            raise ValueError(f"bound row {row} or variable {var} out of range")
        if not (isinstance(row, (int, np.integer)) and isinstance(var, (int, np.integer))):
            raise ValueError(f"bound row {row} or variable {var} not an integer")
        if isinstance(sign, str) or isinstance(c, str):
            raise ValueError(f"bound row {row} has a sign or constant given as a string")
        if sign not in (-1, 1):
            raise ValueError(f"bound row {row} has sign {sign}, not +-1")
        if not np.isfinite(c):
            raise ValueError(f"bound row {row} has non-finite constant {c}")
        if row in rows:
            raise ValueError(f"bound row {row} declared twice")
        rows.add(row)


class TestDeclaredBoundsMatchLoop:
    def test_random_tables_identical(self):
        # Small m makes repeated rows common; rows, variables, signs and
        # constants are each out of their range, rows or variables fractional
        # or of another type (a float, a string, or a valid numpy integer),
        # and signs or constants strings, in a share of the entries.
        rng = np.random.default_rng(43)
        seen = {"accepted": 0, "out of range": 0, "not an integer": 0, "string": 0,
                "sign": 0, "non-finite": 0, "declared twice": 0}
        for _ in range(3000):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            bounds = []
            for _ in range(int(rng.integers(0, 6))):
                bad = rng.random(7) < 0.06
                row = int(rng.integers(-2, 0) if bad[0] else rng.integers(0, m + bad[1]))
                var = int(rng.integers(n, n + 2) if bad[2] else rng.integers(0, n))
                if bad[4]:
                    row, var = (row + 0.5, var) if rng.random() < 0.5 else (row, var + 0.25)
                if bad[5]:
                    kind = (float, str, np.int64)[int(rng.integers(0, 3))]
                    row, var = (kind(row), var) if rng.random() < 0.5 else (row, kind(var))
                signs = [0, 2, -2, 0.5] if bad[3] else [-1, 1, -1.0, 1.0]
                sign = signs[int(rng.integers(0, 4))]
                c = float(rng.choice([np.nan, np.inf, -np.inf, 1e300, -0.0, 1.5],
                                     p=[0.04, 0.03, 0.03, 0.2, 0.2, 0.5]))
                if bad[6]:
                    sign, c = (str(sign), c) if rng.random() < 0.5 else (sign, str(c))
                bounds.append((row, var, sign, c))
            bounds = tuple(bounds)
            try:
                _declared_bounds_loop(bounds, m, n)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    NlpProblem(n=n, m=m, eval_f=None, eval_grad_f=None, eval_a=None,
                               eval_jac=None, eval_hess_lag=None, bounds=bounds)
                assert str(err.value) == str(exc)
                seen[next(key for key in seen if key in str(exc))] += 1
            else:
                NlpProblem(n=n, m=m, eval_f=None, eval_grad_f=None, eval_a=None,
                           eval_jac=None, eval_hess_lag=None, bounds=bounds)
                seen["accepted"] += 1
        assert min(seen.values()) > 100, seen


class TestCheckDerivatives:
    def test_exact_gradient_small_error(self):
        p = quadratic_problem(np.eye(3), np.zeros(3))
        report = check_derivatives(p, np.ones(3))
        assert set(report) == {"grad_f_error", "jac_error", "hess_error"}
        assert report["grad_f_error"] <= 1e-8

    def test_wrong_gradient_reports_order_one(self):
        p = quadratic_problem(np.eye(2), np.zeros(2))
        wrong = NlpProblem(
            n=2, m=0,
            eval_f=p.eval_f,
            eval_grad_f=lambda x: 2.0 * np.asarray(x, float),
            eval_a=p.eval_a, eval_jac=p.eval_jac, eval_hess_lag=p.eval_hess_lag,
        )
        report = check_derivatives(wrong, np.ones(2))
        assert_allclose(report["grad_f_error"], 1.0, rtol=1e-4)

    def test_linear_constraints_nearly_exact(self):
        # Dyadic data and a dyadic step keep the affine differences exact
        # in floating point, so the check sees pure affine exactness.
        p = linear_problem([1.0, -1.0], [[2.0, 3.0], [0.5, -1.0]], [1.0, -0.625])
        report = check_derivatives(p, np.array([0.25, -0.5]), h=2.0 ** -20)
        assert report["jac_error"] <= 1e-12

    def test_registry_problems_consistent(self):
        rng = np.random.default_rng(11)
        for entry in builtin_registry().values():
            problem, _ = entry.build()
            for _ in range(3):
                x = entry.x_start + 0.1 * rng.standard_normal(problem.n)
                report = check_derivatives(problem, x)
                worst = max(report.values())
                assert worst <= 1e-5, (entry.name, report)


class TestEvaluationWrappers:
    def test_hessian_symmetry_checked(self):
        p = NlpProblem(
            n=2, m=0,
            eval_f=lambda x: 0.0,
            eval_grad_f=lambda x: np.zeros(2),
            eval_a=lambda x: np.zeros(0),
            eval_jac=lambda x: np.zeros((0, 2)),
            eval_hess_lag=lambda x, v: np.array([[1.0, 0.5], [0.0, 1.0]]),
        )
        with pytest.raises(EvaluationError) as info:
            p.hess_lag(np.zeros(2), np.zeros(0))
        assert str(info.value) == "asymmetric matrix from hess_lag at entry 1"

    def test_nonfinite_objective(self):
        p = NlpProblem(
            n=1, m=0,
            eval_f=lambda x: float("inf"),
            eval_grad_f=lambda x: np.zeros(1),
            eval_a=lambda x: np.zeros(0),
            eval_jac=lambda x: np.zeros((0, 1)),
            eval_hess_lag=lambda x, v: np.zeros((1, 1)),
        )
        with pytest.raises(EvaluationError):
            p.f(np.zeros(1))
