import numpy as np
import pytest
from numpy.testing import assert_allclose

from onephase import (
    ProblemFileError,
    Relation,
    SolveStatus,
    build_source,
    builtin_registry,
    parse_problem_file,
    serialize_problem_file,
    solve,
    to_inequality_form,
)
from onephase import problem_file
from onephase.problem_file import _error, default_start

MINIMAL_LP = """\
problem tiny
vars 1

objective
linear 1.0

constraints
1.0 >= 1.0
"""


class TestParse:
    def test_minimal_lp(self):
        pf = parse_problem_file(MINIMAL_LP)
        assert pf.name == "tiny"
        assert pf.n == 1
        assert len(pf.rows) == 1
        assert pf.rows[0].relation is Relation.GE
        problem, _ = to_inequality_form(build_source(pf))
        assert problem.m == 1
        # x >= 1 becomes 1 - x <= 0
        assert_allclose(problem.a(np.array([3.0])), [-2.0])

    def test_equality_row_splits(self):
        text = MINIMAL_LP.replace(">=", "==")
        pf = parse_problem_file(text)
        problem, _ = to_inequality_form(build_source(pf))
        assert problem.m == 2

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + MINIMAL_LP + "\n# trailing\n"
        pf = parse_problem_file(text)
        assert pf.n == 1

    def test_full_document(self):
        text = """\
problem full
vars 2

objective
constant 2.5
linear -1.0 -2.0
quad 0 0 1.0
quad 0 1 -0.5

constraints
1.0 1.0 <= 1.0
2.0 -1.0 >= -3.0

bounds
0 0.0 inf
1 -inf 4.0

start
0.25 0.5
"""
        pf = parse_problem_file(text)
        source = build_source(pf)
        x = np.array([0.25, 0.5])
        # f = 2.5 - x0 - 2 x1 + 0.5 x0^2 - 0.5 x0 x1
        expect = 2.5 - 0.25 - 1.0 + 0.5 * 0.0625 - 0.5 * 0.125
        assert source.eval_f(x) == pytest.approx(expect)
        assert_allclose(default_start(pf), x)
        problem, _ = to_inequality_form(source)
        assert problem.m == 4
        assert len(problem.bounds) == 2


def _tokenize_loop(line):
    """The character loop ``_tokenize`` replaced, kept as its reference."""
    tokens = []
    i = 0
    while i < len(line):
        if line[i] == "#":
            break
        if line[i].isspace():
            i += 1
            continue
        start = i
        while i < len(line) and not line[i].isspace() and line[i] != "#":
            i += 1
        tokens.append((line[start:i], start + 1))
    return tokens


class TestTokenizeMatchesLoop:
    # ASCII and Unicode whitespace (\x1c is a file separator, \u00a0 a
    # no-break space, \u200b a zero-width space that is not whitespace),
    # '#' inside and between tokens, and non-ASCII token characters.
    ALPHABET = ["a", "1", ".", "-", "e", "\u00e9", "#", " ", "  ", "\t", "\x0b", "\x0c",
                "\r", "\x1c", "\x1f", "\u00a0", "\u2003", "\u3000", "\u200b", "\x85"]

    def test_random_lines_identical(self):
        rng = np.random.default_rng(53)
        seen = dict.fromkeys(self.ALPHABET, 0)
        for _ in range(3000):
            picks = rng.integers(0, len(self.ALPHABET), int(rng.integers(0, 30)))
            line = "".join(self.ALPHABET[k] for k in picks)
            tokens = _tokenize_loop(line)
            # the parser's split gives the same tokens, and an error at each
            # token is located at its column
            assert line.partition("#")[0].split() == [t for t, _ in tokens], repr(line)
            columns = [_error("m", line, 1, k).column for k in range(len(tokens))]
            assert columns == [column for _, column in tokens], repr(line)
            for k in set(picks.tolist()):
                seen[self.ALPHABET[k]] += 1
        assert min(seen.values()) > 1000, seen

    def test_columns_count_code_points(self):
        assert _error("m", "\u00a0x#y z\tw", 1).column == 2
        assert [_error("m", "\x1cab\u2003c#", 1, k).column for k in (0, 1)] == [2, 5]


HEAD3 = "problem p\nvars 3\n\n"

# (document, message, line, column) of every error kind, as the parser
# reported them when it located every token with ``_tokenize``.
PINNED_ERRORS = {
    "coeff-after-unicode-space": (
        HEAD3 + "constraints\n1.0\u00a0 2.x 3.0 <= 1.0\n", "malformed number '2.x'", 5, 6),
    "coeff-after-tab-and-ideographic-space": (
        HEAD3 + "constraints\n\t1.0\u3000-2.0 0x3 >= 0.0\n", "malformed number '0x3'", 5, 11),
    "malformed-rhs": (
        HEAD3 + "constraints\n1.0 2.0 3.0 <= 1.y\n", "malformed number '1.y'", 5, 16),
    "non-finite-coefficient": (
        HEAD3 + "constraints\n1.0 -inf nan <= 1.0\n", "non-finite coefficient value '-inf'", 5, 5),
    "non-finite-rhs": (
        HEAD3 + "constraints\n1.0 2.0 3.0 >= nan\n", "non-finite rhs value 'nan'", 5, 16),
    "unknown-relation": (
        HEAD3 + "constraints\n1.0 2.0 3.0 =< 1.0\n", "unknown relation '=<' in row 0", 5, 13),
    "coeff-before-relation": (
        HEAD3 + "constraints\n1.0 z 3.0 =< 1.0\n", "malformed number 'z'", 5, 5),
    "row-token-count": (
        HEAD3 + "constraints\n1.0 2.0 <= 1.0\n",
        "constraint row 0 needs 3 coefficients, a relation and a constant; got 4 tokens", 5, 1),
    "non-finite-constant": (
        HEAD3 + "objective\n  constant  -inf\n", "non-finite constant value '-inf'", 5, 13),
    "malformed-constant": (
        HEAD3 + "objective\nconstant 1..0\n", "malformed number '1..0'", 5, 10),
    "constant-token-count": (
        HEAD3 + "objective\nconstant 1 2\n", "expected: constant VALUE", 5, 1),
    "non-finite-linear": (
        HEAD3 + "objective\nlinear 1.0 nan 2.0\n", "non-finite linear value 'nan'", 5, 12),
    "malformed-linear-after-non-finite": (
        HEAD3 + "objective\nlinear inf 1.0 x\n", "malformed number 'x'", 5, 16),
    "linear-token-count": (
        HEAD3 + "objective\nlinear 1.0 2.0\n", "linear needs 3 coefficients, got 2", 5, 1),
    "non-finite-quad": (
        HEAD3 + "objective\nquad 0 1 1e400\n", "non-finite quad value '1e400'", 5, 10),
    "malformed-quad-value": (
        HEAD3 + "objective\nquad 0 1 one\n", "malformed number 'one'", 5, 10),
    "malformed-quad-index": (
        HEAD3 + "objective\nquad 0 1.0 2.0\n", "malformed integer '1.0'", 5, 8),
    "quad-index-out-of-range": (
        HEAD3 + "objective\nquad 0 3 1.0\n", "quad index (0, 3) outside 0..2", 5, 1),
    "negative-quad-index": (
        HEAD3 + "objective\n quad -1 0 1.0\n", "quad index (-1, 0) outside 0..2", 5, 2),
    "duplicate-quad": (
        HEAD3 + "objective\nquad 0 1 1.0\nquad 1 0 2.0\n",
        "duplicate quad entry for pair (0, 1)", 6, 1),
    "quad-token-count": (
        HEAD3 + "objective\nquad 0 1\n", "expected: quad I J VALUE", 5, 1),
    "non-finite-start": (
        HEAD3 + "start\n1.0 2.0 1e999\n", "non-finite start value '1e999'", 5, 9),
    "malformed-start-after-non-finite": (
        HEAD3 + "start\nnan 2.0 .\n", "malformed number '.'", 5, 9),
    "start-token-count": (
        HEAD3 + "start\n1.0 2.0\n", "start needs 3 values, got 2", 5, 1),
    "duplicate-start": (
        HEAD3 + "start\n1 2 3\n1 2 3\n", "duplicate start line", 6, 1),
    "malformed-vars": ("problem p\nvars 2.0\n", "malformed integer '2.0'", 2, 6),
    "non-positive-vars": ("problem p\nvars  0\n", "vars must be positive", 2, 7),
    "vars-token-count": ("problem p\nvars 2 3\n", "expected: vars N", 2, 1),
    "duplicate-vars": ("problem p\nvars 1\nvars 1\n", "duplicate vars line", 3, 1),
    "malformed-bounds-index": (
        HEAD3 + "bounds\n1.5 0 1\n", "malformed integer '1.5'", 5, 1),
    "bounds-index-out-of-range": (
        HEAD3 + "bounds\n3 0 1\n", "bound variable 3 outside 0..2", 5, 1),
    "negative-bounds-index": (
        HEAD3 + "bounds\n -1 0 1\n", "bound variable -1 outside 0..2", 5, 2),
    "malformed-lower-bound": (
        HEAD3 + "bounds\n0 low 1\n", "malformed number 'low'", 5, 3),
    "malformed-upper-bound": (
        HEAD3 + "bounds\n0 0 high\n", "malformed number 'high'", 5, 5),
    "duplicate-bounds": (
        HEAD3 + "bounds\n0 0 1\n0 0 2\n", "duplicate bounds for variable 0", 6, 1),
    "bounds-token-count": (
        HEAD3 + "bounds\n0 0\n", "expected: bounds line 'J LO HI'", 5, 1),
    "duplicate-problem": ("problem a\nvars 1\nproblem b\n", "duplicate problem line", 3, 1),
    "problem-token-count": ("problem a b\nvars 1\n", "expected: problem NAME", 1, 1),
    "duplicate-constant": (
        HEAD3 + "objective\nconstant 1\nconstant 2\n", "duplicate constant line", 6, 1),
    "duplicate-linear": (
        HEAD3 + "objective\nlinear 1 2 3\nlinear 1 2 3\n", "duplicate linear line", 6, 1),
    "unknown-directive": ("problem p\nvars 1\n  wat 3\n", "unknown directive 'wat'", 3, 3),
    "unknown-objective-directive": (
        HEAD3 + "objective\nlinea 1 2 3\n", "unknown objective directive 'linea'", 5, 1),
    "tokens-after-section": (
        HEAD3 + "objective # c\nconstraints x\n", "unexpected tokens after 'constraints'", 5, 13),
    "section-before-vars": (
        "problem p\n objective\n", "vars must be declared before sections", 2, 2),
    "missing-vars": ("# nothing\nproblem p\n", "missing 'vars N' declaration", 1, 1),
}


@pytest.mark.parametrize("case", PINNED_ERRORS)
def test_pinned_error_message_line_and_column(case):
    text, message, line, column = PINNED_ERRORS[case]
    with pytest.raises(ProblemFileError) as err:
        parse_problem_file(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_valid_document_never_locates_a_column(monkeypatch):
    # columns are found only for an error
    def locate(message, raw, *args):
        raise AssertionError(f"_error called on {raw!r}")

    monkeypatch.setattr(problem_file, "_error", locate)
    text = ("# header\n\u3000problem\u00a0spaced # name\nvars\t2\n\nobjective\n"
            "constant 1.5\x0b\nlinear -1.0\u2003 2.0  # c\nquad 0 1 0.5\n"
            "constraints\n1.0\x1f1.0 <= 4.0\n\nbounds\n 1 0.0 inf\nstart\n0.5 0.5#end\n")
    pf = parse_problem_file(text)
    assert (pf.name, pf.n, pf.constant) == ("spaced", 2, 1.5)
    assert pf.linear.tolist() == [-1.0, 2.0]
    assert pf.rows[0].coeffs.tolist() == [1.0, 1.0]
    assert (pf.lower[1], pf.upper[1], pf.start.tolist()) == (0.0, np.inf, [0.5, 0.5])


class TestParseErrors:
    def test_malformed_number_carries_location(self):
        text = MINIMAL_LP.replace("1.0 >= 1.0", "1.x >= 1.0")
        with pytest.raises(ProblemFileError) as err:
            parse_problem_file(text)
        assert err.value.line == 8
        assert err.value.column == 1

    def test_dimension_mismatch_names_row(self):
        text = MINIMAL_LP.replace("1.0 >= 1.0", "1.0 2.0 >= 1.0")
        with pytest.raises(ProblemFileError, match="row 0"):
            parse_problem_file(text)

    def test_unknown_relation(self):
        text = MINIMAL_LP.replace(">=", "=<")
        with pytest.raises(ProblemFileError, match="relation"):
            parse_problem_file(text)

    def test_unknown_directive(self):
        with pytest.raises(ProblemFileError, match="unknown"):
            parse_problem_file("problem p\nvars 1\nwat 3\n")

    def test_missing_vars(self):
        with pytest.raises(ProblemFileError, match="vars"):
            parse_problem_file("problem p\nobjective\nconstant 1\n")

    def test_quad_index_out_of_range(self):
        text = "problem p\nvars 1\n\nobjective\nquad 0 1 1.0\n"
        with pytest.raises(ProblemFileError, match="quad index"):
            parse_problem_file(text)

    def test_duplicate_quad_pair(self):
        text = "problem p\nvars 2\n\nobjective\nquad 0 1 1.0\nquad 1 0 2.0\n"
        with pytest.raises(ProblemFileError, match="duplicate quad"):
            parse_problem_file(text)

    def test_duplicate_bounds(self):
        text = "problem p\nvars 1\n\nbounds\n0 0 1\n0 0 2\n"
        with pytest.raises(ProblemFileError, match="duplicate bounds"):
            parse_problem_file(text)

    def test_second_vars_line(self):
        # rows parsed before it would keep the first width
        text = "problem p\nvars 1\nobjective\nlinear 1.0\nconstraints\n1.0 >= 0.0\nvars 2\n"
        with pytest.raises(ProblemFileError, match="duplicate vars") as err:
            parse_problem_file(text)
        assert (err.value.line, err.value.column) == (7, 1)

    def test_second_problem_line(self):
        text = "problem a\nvars 1\nproblem b\n"
        with pytest.raises(ProblemFileError, match="duplicate problem") as err:
            parse_problem_file(text)
        assert (err.value.line, err.value.column) == (3, 1)

    def test_non_finite_start_entry(self):
        # the start point is data like the bounds: reject it at its column
        text = "problem p\nvars 3\n\nstart\n1.0  nan 2.0\n"
        with pytest.raises(ProblemFileError, match="non-finite start value 'nan'") as err:
            parse_problem_file(text)
        assert (err.value.line, err.value.column) == (5, 6)

    @pytest.mark.parametrize("line, column", [
        ("constant 1e309", 10), ("linear 1.0 nan", 12), ("quad 0 1 -inf", 10),
    ], ids=["constant", "linear", "quad"])
    def test_non_finite_objective_value(self, line, column):
        text = f"problem p\nvars 2\n\nobjective\n{line}\n"
        head, token = line.split()[0], line.split()[-1]
        with pytest.raises(ProblemFileError,
                           match=f"non-finite {head} value '{token}'") as err:
            parse_problem_file(text)
        assert (err.value.line, err.value.column) == (5, column)

    def test_wrong_start_length(self):
        text = "problem p\nvars 2\n\nstart\n1.0\n"
        with pytest.raises(ProblemFileError, match="start needs 2"):
            parse_problem_file(text)


class TestRoundTrip:
    def file_entries(self):
        return [e for e in builtin_registry().values() if e.file_data is not None]

    def test_serialize_parse_identity(self):
        for entry in self.file_entries():
            text = serialize_problem_file(entry.file_data)
            reparsed = parse_problem_file(text)
            assert reparsed == entry.file_data, entry.name
            assert serialize_problem_file(reparsed) == text, entry.name

    def test_entry_name_and_start_come_from_its_file(self):
        for entry in self.file_entries():
            assert entry.name == entry.file_data.name
            assert np.array_equal(entry.x_start, default_start(entry.file_data)), entry.name
            assert entry.x_start is not entry.file_data.start, entry.name
        # registry-hostile draws its perturbed starts in this order
        assert list(builtin_registry()) == [
            "wachter", "qp-simplex", "qp-2d", "qp-separable10", "infeasible-box",
            "unbounded-lp", "degenerate-lp", "nonconvex-quartic"]

    @pytest.mark.parametrize("name", ["", "two words", "a#b", "tab\tname", "nb\u00a0sp"])
    def test_name_that_is_not_one_token_rejected(self, name):
        # "a#b" would read back as "a" and "two words" would not parse.
        pf = parse_problem_file(MINIMAL_LP)
        pf.name = name
        with pytest.raises(ValueError, match="is not one token"):
            serialize_problem_file(pf)

    def test_one_token_name_round_trips(self):
        pf = parse_problem_file(MINIMAL_LP)
        pf.name = "caf\u00e9-2.0_x"
        assert parse_problem_file(serialize_problem_file(pf)).name == pf.name

    def test_canonical_text_is_fixed_point(self):
        pf = parse_problem_file(MINIMAL_LP)
        canonical = serialize_problem_file(pf)
        assert serialize_problem_file(parse_problem_file(canonical)) == canonical

    def test_reparsed_problems_solve_identically(self):
        for entry in self.file_entries():
            problem, _ = entry.build()
            direct = solve(problem, entry.x_start)
            reparsed = parse_problem_file(serialize_problem_file(entry.file_data))
            problem2, _ = to_inequality_form(build_source(reparsed))
            again = solve(problem2, entry.x_start)
            assert direct.status is again.status, entry.name
            if direct.status is SolveStatus.OPTIMAL:
                assert direct.f == again.f, entry.name
