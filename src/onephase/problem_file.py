"""Structured text format for linear/quadratic problems.

A problem document has a name, a variable count, a quadratic objective
(constant, linear vector, symmetric matrix triplets), linear constraint
rows, per-variable bounds and an optional start point::

    # minimize 0.5 x'Qx + c'x + k
    problem little-qp
    vars 2

    objective
    constant 0.0
    linear -1.0 -2.0
    quad 0 0 1.0
    quad 1 1 1.0

    constraints
    1.0 1.0 <= 1.0

    bounds
    0 0.0 inf

    start
    0.5 0.5

Indices are 0-based.  ``quad i j v`` sets the symmetric pair (i, j) and
(j, i).  Bounds use ``-inf``/``inf`` for absent sides.  Every parse error
carries a 1-based line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .problem import LinearRow, Relation, SourceProblem


class ProblemFileError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass
class QuadTerm:
    i: int
    j: int
    value: float


@dataclass
class ProblemFile:
    name: str
    n: int
    constant: float = 0.0
    linear: np.ndarray = None
    quad_terms: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    lower: np.ndarray = None
    upper: np.ndarray = None
    start: np.ndarray = None

    def __post_init__(self):
        if self.linear is None:
            self.linear = np.zeros(self.n)
        if self.lower is None:
            self.lower = np.full(self.n, -np.inf)
        if self.upper is None:
            self.upper = np.full(self.n, np.inf)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProblemFile):
            return NotImplemented
        return serialize_problem_file(self) == serialize_problem_file(other)


_TOKEN = re.compile(r"[^\s#]+")  # \s is exactly str.isspace() on every code point


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Split a line into (token, 1-based column) pairs; '#' starts a comment."""
    return [(m.group(), m.start() + 1)
            for m in _TOKEN.finditer(line.partition("#")[0])]


def _parse_float(token: str, lineno: int, col: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ProblemFileError(f"malformed number {token!r}", lineno, col) from None


def _parse_finite(tokens: list[tuple[str, int]], lineno: int, what: str) -> np.ndarray:
    """Every token as a number; the first non-finite one is an error at its column."""
    values = np.array([_parse_float(t, lineno, c) for t, c in tokens])
    for k in np.flatnonzero(~np.isfinite(values))[:1]:
        raise ProblemFileError(f"non-finite {what} value {tokens[k][0]!r}", lineno, tokens[k][1])
    return values


def _parse_int(token: str, lineno: int, col: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ProblemFileError(f"malformed integer {token!r}", lineno, col) from None


_SECTIONS = ("objective", "constraints", "bounds", "start")
_RELATIONS = {r.value: r for r in Relation}


def parse_problem_file(text: str) -> ProblemFile:
    """Parse a problem document; raises :class:`ProblemFileError` with a
    location on any malformed content."""
    name = None
    n = None
    constant = None
    linear = None
    quad: dict[tuple[int, int], QuadTerm] = {}
    rows: list[LinearRow] = []
    lower = upper = None
    bounds_seen: set[int] = set()
    start = None
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        head, head_col = tokens[0]

        if head == "problem":
            if len(tokens) != 2:
                raise ProblemFileError("expected: problem NAME", lineno, head_col)
            if name is not None:
                raise ProblemFileError("duplicate problem line", lineno, head_col)
            name = tokens[1][0]
            continue
        if head == "vars":
            if len(tokens) != 2:
                raise ProblemFileError("expected: vars N", lineno, head_col)
            if n is not None:
                raise ProblemFileError("duplicate vars line", lineno, head_col)
            n = _parse_int(tokens[1][0], lineno, tokens[1][1])
            if n < 1:
                raise ProblemFileError("vars must be positive", lineno, tokens[1][1])
            lower = np.full(n, -np.inf)
            upper = np.full(n, np.inf)
            continue
        if head in _SECTIONS:
            if len(tokens) != 1:
                raise ProblemFileError(f"unexpected tokens after {head!r}",
                                       lineno, tokens[1][1])
            if n is None:
                raise ProblemFileError("vars must be declared before sections",
                                       lineno, head_col)
            section = head
            continue

        if section is None:
            raise ProblemFileError(f"unknown directive {head!r}", lineno, head_col)

        if section == "objective":
            if head == "constant":
                if constant is not None:
                    raise ProblemFileError("duplicate constant line", lineno, head_col)
                if len(tokens) != 2:
                    raise ProblemFileError("expected: constant VALUE", lineno, head_col)
                constant = float(_parse_finite(tokens[1:], lineno, "constant")[0])
            elif head == "linear":
                if linear is not None:
                    raise ProblemFileError("duplicate linear line", lineno, head_col)
                if len(tokens) != n + 1:
                    raise ProblemFileError(
                        f"linear needs {n} coefficients, got {len(tokens) - 1}",
                        lineno, head_col)
                linear = _parse_finite(tokens[1:], lineno, "linear")
            elif head == "quad":
                if len(tokens) != 4:
                    raise ProblemFileError("expected: quad I J VALUE", lineno, head_col)
                i = _parse_int(tokens[1][0], lineno, tokens[1][1])
                j = _parse_int(tokens[2][0], lineno, tokens[2][1])
                v = float(_parse_finite(tokens[3:], lineno, "quad")[0])
                if not (0 <= i < n and 0 <= j < n):
                    raise ProblemFileError(
                        f"quad index ({i}, {j}) outside 0..{n - 1}", lineno, head_col)
                key = (min(i, j), max(i, j))
                if key in quad:
                    raise ProblemFileError(
                        f"duplicate quad entry for pair {key}", lineno, head_col)
                quad[key] = QuadTerm(key[0], key[1], v)
            else:
                raise ProblemFileError(
                    f"unknown objective directive {head!r}", lineno, head_col)

        elif section == "constraints":
            if len(tokens) != n + 2:
                raise ProblemFileError(
                    f"constraint row {len(rows)} needs {n} coefficients, a relation "
                    f"and a constant; got {len(tokens)} tokens", lineno, head_col)
            coeffs = np.array([_parse_float(t, lineno, c) for t, c in tokens[:n]])
            rel_tok, rel_col = tokens[n]
            if rel_tok not in _RELATIONS:
                raise ProblemFileError(
                    f"unknown relation {rel_tok!r} in row {len(rows)}", lineno, rel_col)
            rhs = _parse_float(tokens[n + 1][0], lineno, tokens[n + 1][1])
            rows.append(LinearRow(coeffs, _RELATIONS[rel_tok], rhs))

        elif section == "bounds":
            if len(tokens) != 3:
                raise ProblemFileError("expected: bounds line 'J LO HI'",
                                       lineno, head_col)
            j = _parse_int(tokens[0][0], lineno, tokens[0][1])
            if not (0 <= j < n):
                raise ProblemFileError(f"bound variable {j} outside 0..{n - 1}",
                                       lineno, tokens[0][1])
            if j in bounds_seen:
                raise ProblemFileError(f"duplicate bounds for variable {j}",
                                       lineno, tokens[0][1])
            bounds_seen.add(j)
            lower[j] = _parse_float(tokens[1][0], lineno, tokens[1][1])
            upper[j] = _parse_float(tokens[2][0], lineno, tokens[2][1])

        elif section == "start":
            if start is not None:
                raise ProblemFileError("duplicate start line", lineno, head_col)
            if len(tokens) != n:
                raise ProblemFileError(
                    f"start needs {n} values, got {len(tokens)}", lineno, head_col)
            start = _parse_finite(tokens, lineno, "start")

    if n is None:
        raise ProblemFileError("missing 'vars N' declaration", 1)
    return ProblemFile(
        name=name if name is not None else "unnamed",
        n=n,
        constant=0.0 if constant is None else constant,
        linear=np.zeros(n) if linear is None else linear,
        quad_terms=sorted(quad.values(), key=lambda t: (t.i, t.j)),
        rows=rows,
        lower=lower,
        upper=upper,
        start=start,
    )


def serialize_problem_file(pf: ProblemFile) -> str:
    """Canonical text form; parsing it reproduces ``pf`` bit-identically.
    A name that is not one token (empty, whitespace, ``#``) is a ``ValueError``."""
    if _tokenize(pf.name) != [(pf.name, 1)]:
        raise ValueError(f"problem name {pf.name!r} is not one token")
    out = [f"problem {pf.name}", f"vars {pf.n}", "", "objective",
           f"constant {float(pf.constant)!r}",
           "linear " + " ".join(repr(float(v)) for v in pf.linear)]
    for term in sorted(pf.quad_terms, key=lambda t: (t.i, t.j)):
        out.append(f"quad {term.i} {term.j} {float(term.value)!r}")
    if pf.rows:
        out.append("")
        out.append("constraints")
        for row in pf.rows:
            coeffs = " ".join(repr(float(v)) for v in row.coeffs)
            out.append(f"{coeffs} {row.relation.value} {float(row.rhs)!r}")
    bounded = np.flatnonzero(np.isfinite(pf.lower) | np.isfinite(pf.upper))
    if bounded.size:
        out.append("")
        out.append("bounds")
        for j in bounded:
            out.append(f"{j} {float(pf.lower[j])!r} {float(pf.upper[j])!r}")
    if pf.start is not None:
        out.append("")
        out.append("start")
        out.append(" ".join(repr(float(v)) for v in pf.start))
    return "\n".join(out) + "\n"


def build_source(pf: ProblemFile) -> SourceProblem:
    """Instantiate callbacks for the quadratic objective; rows stay data."""
    n = pf.n
    Q = np.zeros((n, n))
    for term in pf.quad_terms:
        Q[term.i, term.j] = term.value
        Q[term.j, term.i] = term.value
    c = np.asarray(pf.linear, float)
    k = float(pf.constant)

    return SourceProblem(
        n=n,
        eval_f=lambda x: k + float(c @ x) + 0.5 * float(x @ (Q @ x)),
        eval_grad_f=lambda x: c + Q @ x,
        eval_hess_f=lambda x: Q,
        linear_rows=pf.rows,
        lower=pf.lower.copy(),
        upper=pf.upper.copy(),
        name=pf.name,
    )


def default_start(pf: ProblemFile) -> np.ndarray:
    return np.zeros(pf.n) if pf.start is None else np.asarray(pf.start, float)
