"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest benchmark -q

Runs the measured process's code in-process on two small generated
workloads (one single run, one 2-worker ensemble), traced and untraced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
from workloads import WORKLOADS, write_input  # noqa: E402

TINY = {
    "single": replace(WORKLOADS["rrg12k_unit"], name="tiny_rrg_unit", n=500, m=6),
    "ensemble": replace(WORKLOADS["ensemble2k_degree"], name="tiny_ensemble_degree", n=300, m=1200, ensemble_k=4),
}
SEED = 7


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{(kind, trace): result} for both tiny workloads, both modes."""
    out = {}
    for kind, workload in TINY.items():
        path = tmp_path_factory.mktemp(kind) / "edges.txt"
        write_input(workload, SEED, path)
        for trace in (False, True):
            out[kind, trace] = measure.run(workload, path, SEED, seconds=0.3, trace=trace)
    return out


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_named_metric_is_emitted_with_its_unit(runs, kind):
    spec = _spec()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        metrics = runs[kind, trace]["metrics"]
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            name: value["unit"] for name, value in metrics.items()
        }
        assert all(isinstance(value["value"], float) for value in metrics.values())


@pytest.mark.parametrize("kind", sorted(TINY))
def test_runs_are_correct(runs, kind):
    for trace in (False, True):
        result = runs[kind, trace]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result["record"]["ops"]


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_self_times_add_up_to_the_traced_solve(runs, kind):
    result = runs[kind, True]
    overhead = abs(result["metrics"]["trace.overhead_s"]["value"])
    for op in result["record"]["traced_ops"]:
        gap = op["seconds"] - op["self_seconds_sum"]
        assert 0.0 <= gap <= max(overhead, 0.01 * op["seconds"], 1e-3), op


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tracing_does_not_change_outputs(runs, kind):
    plain, traced = runs[kind, False]["record"], runs[kind, True]["record"]
    assert len(plain["outputs"]) == 1
    assert plain["outputs"] == traced["outputs"]


def test_ensemble_layers_appear_only_on_the_ensemble(runs):
    single = runs["single", True]["metrics"]
    ensemble = runs["ensemble", True]["metrics"]
    assert all(v["value"] == 0.0 for name, v in single.items() if name.startswith("ensemble."))
    assert ensemble["ensemble.member_s_median"]["value"] > 0.0
    assert ensemble["ensemble.result_pickle_bytes"]["value"] > 0.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = _spec()
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
