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
(j, i).  Bounds use ``-inf``/``inf`` for absent sides; a NaN bound, a lower
``inf``, an upper ``-inf`` and a lower above its upper are parse errors.
Every parse error carries a 1-based line and column.

The parser splits each line once and converts each numeric run (the
``linear`` vector, a constraint row's coefficients, ``start``) in one call;
columns are found only for an error, by walking that line's tokens.
"""

from __future__ import annotations

import math
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


def _error(message: str, raw: str, lineno: int, k: int = 0) -> ProblemFileError:
    """The error ``message`` at the column of the parser's token ``k`` of ``raw``."""
    code, end = raw.partition("#")[0], 0
    for token in code.split()[:k + 1]:
        start = code.index(token, end)
        end = start + len(token)
    return ProblemFileError(message, lineno, start + 1)


def _float(tokens: list[str], k: int, raw: str, lineno: int, what: str | None = None) -> float:
    """Token ``k`` as a float, or an error at its column if it is malformed
    or, when ``what`` names the value, not finite."""
    try:
        value = float(tokens[k])
    except ValueError:
        raise _error(f"malformed number {tokens[k]!r}", raw, lineno, k) from None
    if what is not None and not math.isfinite(value):
        raise _error(f"non-finite {what} value {tokens[k]!r}", raw, lineno, k)
    return value


def _int(tokens: list[str], k: int, raw: str, lineno: int) -> int:
    try:
        return int(tokens[k])
    except ValueError:
        raise _error(f"malformed integer {tokens[k]!r}", raw, lineno, k) from None


def _floats(tokens: list[str], first: int, stop: int, raw: str, lineno: int,
            what: str | None = None) -> np.ndarray:
    """Tokens ``first:stop`` as an array, converted in one call.  The first
    malformed token is an error at its column; then, when ``what`` names
    the run, so is the first non-finite value."""
    try:
        values = np.array(list(map(float, tokens[first:stop])))
    except ValueError:
        for k in range(first, stop):
            _float(tokens, k, raw, lineno)
        raise
    if what is not None and not np.isfinite(values).all():
        for k in range(first, stop):  # the first non-finite token raises
            _float(tokens, k, raw, lineno, what)
    return values


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
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        head = tokens[0]

        if head == "problem":
            if len(tokens) != 2:
                raise _error("expected: problem NAME", raw, lineno)
            if name is not None:
                raise _error("duplicate problem line", raw, lineno)
            name = tokens[1]
            continue
        if head == "vars":
            if len(tokens) != 2:
                raise _error("expected: vars N", raw, lineno)
            if n is not None:
                raise _error("duplicate vars line", raw, lineno)
            n = _int(tokens, 1, raw, lineno)
            if n < 1:
                raise _error("vars must be positive", raw, lineno, 1)
            try:  # numpy refuses a count no address space holds before touching memory
                lower = np.full(n, -np.inf)
                upper = np.full(n, np.inf)
            except (MemoryError, ValueError):
                raise _error(f"vars {n} is too many to allocate", raw, lineno, 1) from None
            continue
        if head in _SECTIONS:
            if len(tokens) != 1:
                raise _error(f"unexpected tokens after {head!r}", raw, lineno, 1)
            if n is None:
                raise _error("vars must be declared before sections", raw, lineno)
            section = head
            continue

        if section is None:
            raise _error(f"unknown directive {head!r}", raw, lineno)

        if section == "objective":
            if head == "constant":
                if constant is not None:
                    raise _error("duplicate constant line", raw, lineno)
                if len(tokens) != 2:
                    raise _error("expected: constant VALUE", raw, lineno)
                constant = _float(tokens, 1, raw, lineno, "constant")
            elif head == "linear":
                if linear is not None:
                    raise _error("duplicate linear line", raw, lineno)
                if len(tokens) != n + 1:
                    raise _error(f"linear needs {n} coefficients, got {len(tokens) - 1}",
                                 raw, lineno)
                linear = _floats(tokens, 1, n + 1, raw, lineno, "linear")
            elif head == "quad":
                if len(tokens) != 4:
                    raise _error("expected: quad I J VALUE", raw, lineno)
                i = _int(tokens, 1, raw, lineno)
                j = _int(tokens, 2, raw, lineno)
                v = _float(tokens, 3, raw, lineno, "quad")
                if not (0 <= i < n and 0 <= j < n):
                    raise _error(f"quad index ({i}, {j}) outside 0..{n - 1}", raw, lineno)
                key = (min(i, j), max(i, j))
                if key in quad:
                    raise _error(f"duplicate quad entry for pair {key}", raw, lineno)
                quad[key] = QuadTerm(key[0], key[1], v)
            else:
                raise _error(f"unknown objective directive {head!r}", raw, lineno)

        elif section == "constraints":
            if len(tokens) != n + 2:
                raise _error(
                    f"constraint row {len(rows)} needs {n} coefficients, a relation "
                    f"and a constant; got {len(tokens)} tokens", raw, lineno)
            coeffs = _floats(tokens, 0, n, raw, lineno, "coefficient")
            if tokens[n] not in _RELATIONS:
                raise _error(f"unknown relation {tokens[n]!r} in row {len(rows)}",
                             raw, lineno, n)
            rhs = _float(tokens, n + 1, raw, lineno, "rhs")
            rows.append(LinearRow(coeffs, _RELATIONS[tokens[n]], rhs))

        elif section == "bounds":
            if len(tokens) != 3:
                raise _error("expected: bounds line 'J LO HI'", raw, lineno)
            j = _int(tokens, 0, raw, lineno)
            if not (0 <= j < n):
                raise _error(f"bound variable {j} outside 0..{n - 1}", raw, lineno)
            if j in bounds_seen:
                raise _error(f"duplicate bounds for variable {j}", raw, lineno)
            bounds_seen.add(j)
            lo, hi = _float(tokens, 1, raw, lineno), _float(tokens, 2, raw, lineno)
            for k, side, value, wrong in ((1, "lower", lo, math.inf), (2, "upper", hi, -math.inf)):
                if math.isnan(value):
                    raise _error(f"NaN bound for variable {j}: {side} {tokens[k]!r}",
                                 raw, lineno, k)
                if value == wrong:
                    raise _error(f"infinite bound on the wrong side for variable {j}: "
                                 f"{side} {tokens[k]!r}", raw, lineno, k)
            if lo > hi:
                raise _error(f"inconsistent bounds for variable {j}: lower {lo!r} > upper {hi!r}",
                             raw, lineno, 1)
            lower[j], upper[j] = lo, hi

        elif section == "start":
            if start is not None:
                raise _error("duplicate start line", raw, lineno)
            if len(tokens) != n:
                raise _error(f"start needs {n} values, got {len(tokens)}", raw, lineno)
            start = _floats(tokens, 0, n, raw, lineno, "start")

    if n is None:
        raise ProblemFileError("missing 'vars N' declaration", 1)
    return ProblemFile(
        name=name if name is not None else "unnamed",
        n=n,
        constant=0.0 if constant is None else constant,
        linear=linear,
        quad_terms=sorted(quad.values(), key=lambda t: (t.i, t.j)),
        rows=rows,
        lower=lower,
        upper=upper,
        start=start,
    )


def _numbers(values) -> str:
    """A numeric run as text: the shortest repr that reads back to each float."""
    return " ".join(map(repr, np.asarray(values, float).tolist()))


def serialize_problem_file(pf: ProblemFile) -> str:
    """Canonical text form; parsing it reproduces ``pf`` bit-identically.
    A name that is not one token (empty, whitespace, ``#``) is a ``ValueError``."""
    if pf.name.partition("#")[0].split() != [pf.name]:
        raise ValueError(f"problem name {pf.name!r} is not one token")
    out = [f"problem {pf.name}", f"vars {pf.n}", "", "objective",
           f"constant {float(pf.constant)!r}",
           "linear " + _numbers(pf.linear)]
    for term in sorted(pf.quad_terms, key=lambda t: (t.i, t.j)):
        out.append(f"quad {term.i} {term.j} {float(term.value)!r}")
    if pf.rows:
        out.append("")
        out.append("constraints")
        for row in pf.rows:
            out.append(f"{_numbers(row.coeffs)} {row.relation.value} {float(row.rhs)!r}")
    bounded = np.flatnonzero(np.isfinite(pf.lower) | np.isfinite(pf.upper))
    if bounded.size:
        out.append("")
        out.append("bounds")
        for j, lo, hi in zip(bounded.tolist(), pf.lower[bounded].tolist(),
                             pf.upper[bounded].tolist()):
            out.append(f"{j} {lo!r} {hi!r}")
    if pf.start is not None:
        out.append("")
        out.append("start")
        out.append(_numbers(pf.start))
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

    quiet = np.errstate(over="ignore", invalid="ignore")  # the solver reports an overflow
    return SourceProblem(
        n=n,
        eval_f=quiet(lambda x: k + float(c @ x) + 0.5 * float(x @ (Q @ x))),
        eval_grad_f=quiet(lambda x: c + Q @ x),
        eval_hess_f=lambda x: Q,
        linear_rows=pf.rows,
        lower=pf.lower.copy(),
        upper=pf.upper.copy(),
        name=pf.name,
    )


def default_start(pf: ProblemFile) -> np.ndarray:
    return np.zeros(pf.n) if pf.start is None else np.asarray(pf.start, float)
