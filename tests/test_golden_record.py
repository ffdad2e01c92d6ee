"""Golden record of what a user can see of a solve.

For a fixed set of solves this records the status, the inner and outer
iteration counts, the full ``counters`` dict, the sequence of
(step kind, accepted) pairs of the trace, and the final ``x`` and ``f``
as ``float.hex`` strings (``null`` when the solve ends without an
iterate), so the values a user reads are pinned to the last bit.  Refactors of the solver must
leave every entry unchanged.  The set covers:

* the 8 registry problems from their own start and 5 seeded perturbed
  starts each;
* ``wachter`` from 12 starts with ``x0[0]`` spread over [-100, -0.5];
* ``min x s.t. x >= -1`` with one callback non-finite for ``x <= -0.5``
  (``eval_a``, ``eval_grad_f`` or ``eval_f``).  These reach the rejections
  of the line searches on a failed constraint evaluation, a failed
  gradient/Jacobian evaluation and a failed objective evaluation, which
  the registry solves never do.

The step sequence is stored as a string with one character per trace
record: ``a``/``A`` for a rejected/accepted aggressive step and
``s``/``S`` for a rejected/accepted stabilization step.

Regenerate the file (only when a change is meant to alter what users
see) from the repository root with::

    PYTHONPATH=src:tests python tests/test_golden_record.py > tests/golden_record.json
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from onephase import NlpProblem, SolverOptions, builtin_registry, solve

GOLDEN = Path(__file__).with_name("golden_record.json")
PERTURBED = 5
WACHTER_STARTS = np.linspace(-100.0, -0.5, 12)
NAN_BELOW = -0.5


def _nan_region_problem(callback: str) -> NlpProblem:
    """min x s.t. -1 - x <= 0, with ``callback`` returning NaN for
    x <= -0.5 (the rest of the problem stays defined there)."""
    def guarded(fn):
        return lambda x: fn(x) * np.nan if x[0] <= NAN_BELOW else fn(x)

    evals = {
        "eval_f": lambda x: float(x[0]),
        "eval_grad_f": lambda x: np.array([1.0]),
        "eval_a": lambda x: np.array([-1.0 - x[0]]),
    }
    evals[callback] = guarded(evals[callback])
    return NlpProblem(
        n=1, m=1,
        eval_jac=lambda x: np.array([[-1.0]]),
        eval_hess_lag=lambda x, v: np.zeros((1, 1)),
        linear_indices=frozenset({0}),
        name=f"nan-{callback}",
        **evals,
    )


def _solves():
    """(label, problem, x_start, options) for every recorded solve."""
    for seed, (name, entry) in enumerate(builtin_registry().items()):
        problem, _ = entry.build()
        rng = np.random.default_rng(seed)
        yield f"{name}#own", problem, entry.x_start.copy(), None
        for k in range(PERTURBED):
            x0 = entry.x_start + rng.standard_normal(entry.x_start.shape)
            yield f"{name}#perturbed{k}", problem, x0, None
        if name == "wachter":
            for k, first in enumerate(WACHTER_STARTS):
                x0 = entry.x_start.copy()
                x0[0] = first
                yield f"wachter#hostile{k:02d}", problem, x0, None
    for callback in ("eval_a", "eval_grad_f", "eval_f"):
        yield (f"nan-{callback}", _nan_region_problem(callback), np.array([0.0]),
               SolverOptions(max_iter=200))


def _steps(trace) -> str:
    return "".join((r.kind[0].upper() if r.accepted else r.kind[0])
                   for r in trace)


def record() -> dict:
    out = {}
    for label, problem, x0, opts in _solves():
        result = solve(problem, x0, opts)
        out[label] = {
            "status": result.status.value,
            "inner_iterations": result.inner_iterations,
            "outer_iterations": result.outer_iterations,
            "counters": result.counters,
            "steps": _steps(result.trace),
            "x": None if result.x is None else [float(v).hex() for v in result.x],
            "f": None if result.f is None else float(result.f).hex(),
        }
    return out


def dumps(rec: dict) -> str:
    return json.dumps(rec, indent=1, sort_keys=True) + "\n"


def _flat(entry: dict, prefix: str = "") -> dict:
    """``entry`` with nested dicts flattened to dotted keys."""
    out = {}
    for key, value in entry.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _differences(old: dict, new: dict) -> str:
    """``key: old → new`` for every key whose value differs."""
    old, new = _flat(old), _flat(new)
    return ", ".join(f"{key}: {old.get(key)!r} → {new.get(key)!r}"
                     for key in sorted(old.keys() | new.keys())
                     if old.get(key) != new.get(key))


def test_golden_record_unchanged():
    golden = json.loads(GOLDEN.read_text())
    current = record()
    assert sorted(current) == sorted(golden)
    changed = [label for label in golden if current[label] != golden[label]]
    assert not changed, "solves differing from the golden record:\n" + "\n".join(
        f"  {label}: {_differences(golden[label], current[label])}" for label in changed)


@pytest.mark.parametrize("direction", [np.inf, -np.inf], ids=["up", "down"])
def test_one_ulp_start_move_keeps_every_status(direction):
    """Every start moved by one ulp ends in its golden status.  Counts may
    change: the line search's rounding decides some trials."""
    golden = json.loads(GOLDEN.read_text())
    changed = {}
    for label, problem, x0, opts in _solves():
        status = solve(problem, np.nextafter(x0, direction), opts).status.value
        if status != golden[label]["status"]:
            changed[label] = f"{golden[label]['status']} → {status}"
    assert not changed, changed


if __name__ == "__main__":
    sys.stdout.write(dumps(record()))
