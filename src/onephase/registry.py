"""Built-in test problems with known terminal behavior.

Linear/quadratic entries are problem-file data, name and start included,
so they can be serialized, re-parsed and solved identically; nonlinear
entries define their callbacks directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import (
    LinearRow,
    NlpProblem,
    ProblemTransform,
    Relation,
    SourceConstraint,
    SourceProblem,
    to_inequality_form,
)
from .problem_file import ProblemFile, QuadTerm, build_source, default_start


@dataclass
class BuiltinProblem:
    name: str
    description: str
    x_start: np.ndarray
    source: Optional[SourceProblem] = None
    file_data: Optional[ProblemFile] = None

    def build(self) -> tuple[NlpProblem, ProblemTransform]:
        source = self.source if self.source is not None else build_source(self.file_data)
        return to_inequality_form(source)


def _from_file(pf: ProblemFile, description: str) -> BuiltinProblem:
    """The entry for ``pf``, starting from a copy of the file's start."""
    return BuiltinProblem(pf.name, description, default_start(pf).copy(), file_data=pf)


def _wachter() -> BuiltinProblem:
    # min x0 s.t. x0^2 - x1 = -1, x0 - x2 = 1, x1 >= 0, x2 >= 0.
    # Feasible set forces x0 >= 1, so the optimum is x0* = 1.  Classical
    # infeasible-start methods stall on this problem from x0 < 0.
    source = SourceProblem(
        n=3,
        eval_f=lambda x: float(x[0]),
        eval_grad_f=lambda x: np.array([1.0, 0.0, 0.0]),
        eval_hess_f=lambda x: np.zeros((3, 3)),
        constraints=[
            SourceConstraint(
                func=lambda x: float(x[0] ** 2 - x[1]),
                grad=lambda x: np.array([2.0 * x[0], -1.0, 0.0]),
                hess=lambda x: np.diag([2.0, 0.0, 0.0]),
                relation=Relation.EQ,
                rhs=-1.0,
            ),
        ],
        linear_rows=[LinearRow(np.array([1.0, 0.0, -1.0]), Relation.EQ, 1.0)],
        lower=np.array([-np.inf, 0.0, 0.0]),
        upper=np.array([np.inf, np.inf, np.inf]),
        name="wachter",
    )
    return BuiltinProblem(
        name=source.name,
        description="equality-split benchmark where classical infeasible starts fail",
        x_start=np.array([-2.0, 1.0, 1.0]),
        source=source,
    )


def _nonconvex_quartic() -> BuiltinProblem:
    # min -9x - 3x^2 + x^4/4, unconstrained; stationarity x^3 - 6x - 9 = 0
    # has the single real root x* = 3 with f* = -33.75.
    source = SourceProblem(
        n=1,
        eval_f=lambda x: float(-9.0 * x[0] - 3.0 * x[0] ** 2 + 0.25 * x[0] ** 4),
        eval_grad_f=lambda x: np.array([-9.0 - 6.0 * x[0] + x[0] ** 3]),
        eval_hess_f=lambda x: np.array([[-6.0 + 3.0 * x[0] ** 2]]),
        name="nonconvex-quartic",
    )
    return BuiltinProblem(
        name=source.name,
        description="1-D nonconvex quartic whose gradient norm rises before it falls",
        x_start=np.array([0.0]),
        source=source,
    )


def _qp_simplex() -> BuiltinProblem:
    n = 10
    pf = ProblemFile(
        name="qp-simplex",
        n=n,
        quad_terms=[QuadTerm(i, i, 1.0) for i in range(n)],
        rows=[LinearRow(np.ones(n), Relation.GE, 1.0)],
    )
    return _from_file(pf, "min 0.5||x||^2 s.t. sum(x) >= 1; optimum x = e/10, f = 0.05")


def _qp_2d() -> BuiltinProblem:
    pf = ProblemFile(
        name="qp-2d",
        n=2,
        constant=2.5,
        linear=np.array([-1.0, -2.0]),
        quad_terms=[QuadTerm(0, 0, 1.0), QuadTerm(1, 1, 1.0)],
        rows=[LinearRow(np.array([1.0, 1.0]), Relation.LE, 1.0)],
    )
    return _from_file(pf, "projection of (1, 2) onto x+y <= 1; optimum (0, 1), f = 1")


def _qp_separable10() -> BuiltinProblem:
    n = 10
    targets = np.array([-1.2, -0.8, -0.4, 0.1, 0.2, 0.4, 0.6, 0.8, 1.2, 1.6])
    pf = ProblemFile(
        name="qp-separable10",
        n=n,
        constant=0.5 * float(targets @ targets),
        linear=-targets,
        quad_terms=[QuadTerm(i, i, 1.0) for i in range(n)],
        lower=np.zeros(n),
        upper=np.ones(n),
        start=np.full(n, 0.5),
    )
    return _from_file(pf, "separable box QP; optimum clips the targets into [0, 1]")


def _infeasible_box() -> BuiltinProblem:
    # x <= -1 and x >= 1 as general rows: y = (t, t) gives J^T y = 0 with
    # a(x)^T y = 2t > 0, a textbook infeasibility certificate.
    pf = ProblemFile(
        name="infeasible-box",
        n=1,
        linear=np.array([1.0]),
        rows=[
            LinearRow(np.array([1.0]), Relation.LE, -1.0),
            LinearRow(np.array([1.0]), Relation.GE, 1.0),
        ],
    )
    return _from_file(pf, "empty box {x <= -1, x >= 1}; terminates primal-infeasible")


def _unbounded_lp() -> BuiltinProblem:
    pf = ProblemFile(
        name="unbounded-lp",
        n=1,
        linear=np.array([1.0]),
        upper=np.array([0.0]),
    )
    return _from_file(pf, "min x s.t. x <= 0; objective diverges, terminates unbounded")


def _degenerate_lp() -> BuiltinProblem:
    pf = ProblemFile(
        name="degenerate-lp",
        n=2,
        linear=np.array([1.0, 1.0]),
        rows=[
            LinearRow(np.array([1.0, 1.0]), Relation.GE, 1.0),
            LinearRow(np.array([1.0, 1.0]), Relation.GE, 1.0),
        ],
        lower=np.zeros(2),
    )
    return _from_file(pf, "duplicated constraint LP with non-unique duals; f* = 1")


def builtin_registry() -> dict[str, BuiltinProblem]:
    entries = [
        _wachter(),
        _qp_simplex(),
        _qp_2d(),
        _qp_separable10(),
        _infeasible_box(),
        _unbounded_lp(),
        _degenerate_lp(),
        _nonconvex_quartic(),
    ]
    return {e.name: e for e in entries}
