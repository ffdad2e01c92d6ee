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
from onephase.problem_file import _tokenize, default_start

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
            assert _tokenize(line) == _tokenize_loop(line), repr(line)
            for k in set(picks.tolist()):
                seen[self.ALPHABET[k]] += 1
        assert min(seen.values()) > 1000, seen

    def test_columns_count_code_points(self):
        assert _tokenize("\u00a0x#y z\tw") == [("x", 2)]
        assert _tokenize("\x1cab\u2003c#") == [("ab", 2), ("c", 5)]


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
