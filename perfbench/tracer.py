"""Per-layer spans recorded from outside the solver.

``solver.py``, ``steps.py`` and ``cli.py`` bind their imports with
``from .x import y``, so a traced run rebinds each name in the module that
calls it and restores it afterwards.  Every wrapped call appends one span
``[name, start, end, parent, ok]`` to an in-memory list; ``parent`` is the
index of the span that was open when the call started, so each solve (or
``run_cli`` call) is the root of its own tree.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace
from time import perf_counter

import onephase.cli
import onephase.solver
import onephase.steps

CALLBACKS = ("eval_f", "eval_grad_f", "eval_a", "eval_jac", "eval_hess_lag")

# Names rebound in each calling module; span names are "<defining module>.<function>".
REBOUND = {
    onephase.solver: ("assemble_schur", "factorize_with_shift", "_refactorize",
                      "initialize", "aggressive_step", "stabilization_step",
                      "merit_phi", "merit_kkt", "make_iterate", "terminate_optimal",
                      "terminate_infeasible", "terminate_unbounded"),
    onephase.steps: ("solve_shifted", "primal_trial", "dual_interval",
                     "make_iterate", "merit_phi", "merit_kkt"),
    onephase.cli: ("parse_problem_file", "build_source", "to_inequality_form"),
}
STEP_NAMES = ("steps.aggressive_step", "steps.stabilization_step")
FACTOR_NAMES = ("linalg.factorize_with_shift", "solver._refactorize")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, ok=None):
        """``fn`` recording one span per call.  ``ok(result)`` marks the
        span as succeeded; without it, returning normally does."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                span[4] = True if ok is None else bool(ok(out))
                return out
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def solve(self, real_solve):
        """A ``solve`` that traces itself and the five callbacks of the
        problem it is handed."""
        traced_solve = self.wrap("solver.solve", real_solve)

        def solve(problem, x_start, *args, **kwargs):
            wrapped = replace(problem, **{
                k: self.wrap(f"problem.{k}", getattr(problem, k)) for k in CALLBACKS})
            return traced_solve(wrapped, x_start, *args, **kwargs)

        return solve

    @contextlib.contextmanager
    def installed(self):
        """Rebind the layer entry points of the solver, steps and cli modules."""
        saved = []
        try:
            for module, names in REBOUND.items():
                for name in names:
                    fn = getattr(module, name)
                    saved.append((module, name, fn))
                    ok = (lambda out: out.success) if _span_name(fn) in STEP_NAMES else None
                    setattr(module, name, self.wrap(_span_name(fn), fn, ok))
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

    def totals(self) -> dict:
        """Per span name: calls, succeeded calls, total and self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ok in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _parent, ok) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "ok": 0, "total": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["ok"] += ok
            agg["total"] += t1 - t0
            agg["self"] += t1 - t0 - child[i]
        return out


def layer_metrics(totals: dict, records: list, parse_ms: list, lower_ms: list,
                  overhead: float) -> dict:
    """Per-layer metrics, per solve, from span totals and the solve records
    (status, iterations, counters) of the traced solves."""
    solves = len(records)

    def agg(name, key):
        return totals.get(name, {}).get(key, 0)

    def per_solve(value):
        return value / solves

    def self_ms(*names):
        return per_solve(1e3 * sum(agg(n, "self") for n in names))

    def ratio(num, den):
        return num / den if den else 0.0

    def mean(values):
        return ratio(sum(values), len(values))

    counters = {k: sum(r["counters"][k] for r in records) for k in records[0]["counters"]}
    factor_ok = sum(agg(n, "ok") for n in FACTOR_NAMES)
    backsolve_calls = agg("linalg.solve_shifted", "calls")
    steps = sum(agg(n, "calls") for n in STEP_NAMES)
    callback_s = sum(agg(f"problem.{k}", "total") for k in CALLBACKS)
    return {
        "problem.f_calls": per_solve(agg("problem.eval_f", "calls")),
        "problem.grad_calls": per_solve(agg("problem.eval_grad_f", "calls")),
        "problem.cons_calls": per_solve(agg("problem.eval_a", "calls")),
        "problem.jac_calls": per_solve(agg("problem.eval_jac", "calls")),
        "problem.hess_calls": per_solve(agg("problem.eval_hess_lag", "calls")),
        "problem.callback_ms": per_solve(1e3 * callback_s),
        "problem_file.parse_ms": mean(parse_ms),
        "problem_file.lower_ms": mean(lower_ms),
        "linalg.assemble_calls": per_solve(agg("linalg.assemble_schur", "calls")),
        "linalg.assemble_ms": self_ms("linalg.assemble_schur"),
        "linalg.factor_trials": per_solve(counters["factorizations"]),
        "linalg.factor_ms": self_ms(*FACTOR_NAMES),
        "linalg.factor_fail_ratio": ratio(counters["factorizations"] - factor_ok,
                                          counters["factorizations"]),
        "linalg.backsolves": per_solve(counters["backsolves"]),
        "linalg.backsolve_ms": self_ms("linalg.solve_shifted"),
        "linalg.refine_ratio": ratio(counters["backsolves"] - backsolve_calls,
                                     backsolve_calls),
        "linalg.reuse_ratio": ratio(counters["backsolves"], factor_ok),
        "steps.aggressive_calls": per_solve(agg("steps.aggressive_step", "calls")),
        "steps.stabilization_calls": per_solve(agg("steps.stabilization_step", "calls")),
        "steps.aggressive_ms": self_ms("steps.aggressive_step"),
        "steps.stabilization_ms": self_ms("steps.stabilization_step"),
        "steps.accept_ratio": ratio(sum(agg(n, "ok") for n in STEP_NAMES), steps),
        "steps.trials_per_step": ratio(agg("iterate.primal_trial", "calls"), steps),
        "steps.dual_interval_ms": self_ms("steps.dual_interval"),
        "iterate.merit_ms": self_ms("iterate.merit_phi", "iterate.merit_kkt"),
        "iterate.termination_ms": self_ms("iterate.terminate_optimal",
                                          "iterate.terminate_infeasible",
                                          "iterate.terminate_unbounded"),
        "iterate.make_iterate_calls": per_solve(agg("iterate.make_iterate", "calls")),
        "solver.inner_iters": per_solve(sum(r["inner"] for r in records)),
        "solver.outer_iters": per_solve(sum(r["outer"] for r in records)),
        "solver.initialize_ms": self_ms("solver.initialize"),
        "solver.self_ms": self_ms("solver.solve"),
        "cli.self_ms": self_ms("cli.run_cli"),
        "trace.overhead_ratio": overhead,
    }
