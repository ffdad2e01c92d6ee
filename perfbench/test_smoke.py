"""Smoke test of the benchmark: one tiny instance set per workload, run
untraced and traced, must print every metric named in BENCHMARK.json,
give no wrong answer and repeat every record.  An answer that is not
certified (no certificate, or one of another kind than planted) is a
solver result rather than a harness fault: it is reported as a warning
here and counted in certified_frac by a full run.  Run with
``python -m pytest perfbench``."""

import io
import json
import warnings

import run


def test_smoke_prints_every_metric_and_gives_no_wrong_answer():
    out = io.StringIO()
    assert run.smoke(out=out) == []
    for line in out.getvalue().splitlines():
        if line.startswith("uncertified"):
            warnings.warn(line)


def test_layer_map_covers_exactly_the_per_layer_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((run.HERE / "layers.json").read_text())["layers"]
    mapped = [m for layer in layers.values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    for name, layer in layers.items():
        assert all(m.split(".", 1)[0] == name for m in layer["metrics"])
        workloads = {w["name"] for w in spec["workloads"]}
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        for claim in layer["moves"] + layer["flat"]:
            assert claim["workload"] in workloads and claim["metric"] in end_to_end
