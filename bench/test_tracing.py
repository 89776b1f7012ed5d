"""Checks of the benchmark's tracing wrappers (not part of the repo's test
suite; run with ``PYTHONPATH=src python -m pytest bench/test_tracing.py``).

Tracing must not change what the program writes, and must put back every
name it patched; the metrics the benchmark prints must be the ones
BENCHMARK.json declares.
"""
import importlib
import json
from pathlib import Path

import pytest

from run import END_TO_END_UNITS
from tracing import HOOKS, LAYERS, TARGETS, Tracer, metric_units, summarize
from workloads import Workload

SMALL = [
    Workload("zpi-small", "zpi", sites=4, steps=2, twirls=2, shots=256,
             shots_per_trajectory=128, default_seed=5),
    Workload("cy-small", "cy", sites=4, steps=1, twirls=1, shots=256,
             shots_per_trajectory=128, default_seed=5),
]


def _originals():
    out = {}
    for module, name, _ in TARGETS + HOOKS:
        owner = importlib.import_module(module)
        cls, _, attr = name.rpartition(".")
        if cls:
            owner = getattr(owner, cls)
        out[(module, name)] = vars(owner)[attr]
    return out


def _run(workload, directory, monkeypatch):
    import scarsim.cli

    directory.mkdir()
    (directory / "config.ini").write_text(workload.ini(workload.default_seed))
    monkeypatch.chdir(directory)
    scarsim.cli.main([workload.command, "--config", "config.ini"])
    out = directory / "out"
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_output_is_byte_identical(workload, tmp_path, monkeypatch):
    plain = _run(workload, tmp_path / "plain", monkeypatch)
    before = _originals()
    tracer = Tracer()
    with tracer.installed():
        traced = _run(workload, tmp_path / "traced", monkeypatch)
    after = _originals()
    assert traced == plain
    assert all(after[k] is before[k] for k in before)
    assert tracer.missing == []
    metrics = summarize({"layers": LAYERS, "spans": tracer.spans, "counters": tracer.counters})
    assert metrics["variant.count"] == workload.variants()
    assert metrics["noise.execute.calls"] == workload.variants()
    # One or ceil(shots / shots_per_trajectory) = 2 trajectories per variant;
    # calibration's executions are not counted.
    assert workload.variants() <= metrics["noise.execute.trajectories"] <= 2 * workload.variants()
    assert metrics["noise.execute.amp_updates"] > 0
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_declared_metrics_match_reported_ones():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
