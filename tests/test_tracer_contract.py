"""The benchmark's outside-in tracer still finds and counts what it wraps.

benchmark/tracer.py wraps names in the loop's module and reads the
arguments of some of them; a refactor of the library that renames a
name, or passes an argument another way, silently zeroes a layer metric.
This runs the tracer over one dismantle + reinsert to catch that here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from netdismantle import CostVector, DismantlingTarget, dismantle, reinsert

from conftest import load_bundled

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["unit", "degree"])
def test_tracer_wraps_and_counts_every_loop_layer(mode, monkeypatch):
    module = load_tracer_module(monkeypatch)
    tracer = module.Tracer()
    graph = load_bundled("lesmis.txt")
    costs = CostVector.for_mode(graph, mode)
    target = DismantlingTarget.from_fraction(graph.n, 0.05)
    tracer.op = "op"
    tracer.install()
    try:
        solution = reinsert(graph, costs, target, dismantle(graph, costs, target, seed=3))
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    assert set(tracer.calls("op")) == set(module.LOOP_NAMES)
    counters = tracer.counters["op"]
    assert counters["matvecs"] == solution.metadata.power_iterations > 0
    for name in ("nnz_processed", "bytes_moved_computed", "cut_edge_count", "nodes_before_prune", "nodes_after_prune"):
        assert counters[name] > 0, name
