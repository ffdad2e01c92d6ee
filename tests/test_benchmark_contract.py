"""The benchmark's tracer (``perfbench/tracer.py``) times each layer by
rebinding the names in ``REBOUND`` in the module that calls them.  A name
that its module stops calling would read zero in a per-layer metric and
fail nothing else, so this test solves every registry entry and one
problem file with each name wrapped in a counter."""

import inspect

from onephase import builtin_registry, serialize_problem_file, solve
from onephase.cli import run_cli

from helpers import perfbench_module


def test_every_rebound_name_is_called_by_its_module(tmp_path, monkeypatch, capsys):
    calls = {}
    for module, names in perfbench_module("tracer").REBOUND.items():
        for name in names:
            key = f"{module.__name__}.{name}"
            fn = getattr(module, name)
            assert inspect.isfunction(fn) and fn.__module__.startswith("onephase."), key
            assert fn.__qualname__ == name, f"{key} is not defined at module level"
            calls[key] = 0

            def counting(*args, _fn=fn, _key=key, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

    registry = builtin_registry()
    for entry in registry.values():
        solve(entry.build()[0], entry.x_start.copy())
    path = tmp_path / "qp-2d.nlp"
    path.write_text(serialize_problem_file(registry["qp-2d"].file_data))
    assert run_cli(["solve", str(path)]) == 0
    assert [key for key, count in calls.items() if count == 0] == []
