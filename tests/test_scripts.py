"""Smoke runs of the experiment scripts under scripts/, each in its own
interpreter, as a user would start them, and unit checks of the
verdicts scripts/bench_pairs.py prints and the file it writes."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netdismantle

from conftest import ROOT


def test_cost_table_runs_on_one_dataset(tmp_path):
    src = str(Path(netdismantle.__file__).resolve().parents[1])
    out = tmp_path / "cost_table"
    proc = subprocess.run(
        [sys.executable, "scripts/run_cost_table.py", "--datasets", "karate", "--ensemble-size", "2", "--out", out],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (out / "cost_table.csv").read_text().splitlines()
    assert rows[0] == "dataset,cost_mode,method,cost,removed,final_gcc,seconds"
    assert len(rows) == 1 + 2 * 4  # both cost modes, four methods
    assert (out / "manifest.json").is_file()



def test_layer_peaks_prints_every_phase(tmp_path):
    src = str(Path(netdismantle.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "scripts/layer_peaks.py", "data/ba_300.txt", "--cost", "degree", "--seed", "3"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == ["parse", "dismantle", "reinsert+replay", "solution_json", "trajectory_csv"]
    assert all(row[2] == "MiB" and float(row[1]) > 0.0 for row in rows)

@pytest.fixture(scope="module")
def bench_pairs():
    """scripts/bench_pairs.py as a module; loading it starts no run."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairsVerdicts:
    # lower is better for a time or a peak: sign -1
    LOWER = -1.0

    def test_nine_of_ten_wins_and_a_gap_above_the_iqr_is_met(self, bench_pairs):
        verdict = bench_pairs.gain_verdict(wins=9, pairs=10, gap=5.0, parent_iqr=0.4)
        assert verdict["met"]
        assert (verdict["wins"], verdict["pairs"]) == (9, 10)

    def test_eight_of_ten_wins_is_not_met(self, bench_pairs):
        assert not bench_pairs.gain_verdict(wins=8, pairs=10, gap=5.0, parent_iqr=0.4)["met"]

    def test_a_gap_equal_to_the_iqr_is_not_met(self, bench_pairs):
        assert not bench_pairs.gain_verdict(wins=10, pairs=10, gap=0.4, parent_iqr=0.4)["met"]
        assert bench_pairs.gain_verdict(wins=10, pairs=10, gap=0.41, parent_iqr=0.4)["met"]

    def test_worse_by_more_than_the_bound_regressed(self, bench_pairs):
        parent = [100.0, 100.5, 101.0, 99.5, 100.0]
        change = [v * 1.2 for v in parent]
        verdict = bench_pairs.regression_verdict(parent, change, self.LOWER, 0.1)
        assert verdict["verdict"] == "regressed"
        assert verdict["worse_by"] == pytest.approx(0.2)
        slower = [v * 1.05 for v in parent]
        assert bench_pairs.regression_verdict(parent, slower, self.LOWER, 0.1)["verdict"] == "within bound"

    def test_an_iqr_wider_than_the_bound_is_unresolved(self, bench_pairs):
        parent = [80.0, 90.0, 100.0, 110.0, 120.0]
        overlapping = [85.0, 95.0, 105.0, 115.0, 125.0]
        verdict = bench_pairs.regression_verdict(parent, overlapping, self.LOWER, 0.1)
        assert verdict["verdict"] == "unresolved"
        assert verdict["parent_iqr"] == 20.0
        # every change run beats every parent run: resolved
        beating = [70.0, 72.0, 74.0, 76.0, 78.0]
        assert bench_pairs.regression_verdict(parent, beating, self.LOWER, 0.1)["verdict"] == "within bound"

    def test_a_parent_median_of_zero(self, bench_pairs):
        zeros = [0.0, 0.0, 0.0]
        same = bench_pairs.regression_verdict(zeros, zeros, self.LOWER, 0.1)
        assert (same["verdict"], same["worse_by"]) == ("within bound", 0.0)
        rose = bench_pairs.regression_verdict(zeros, [1.0, 1.0, 1.0], self.LOWER, 0.1)
        assert (rose["verdict"], rose["worse_by"]) == ("regressed", math.inf)
        # higher is better: a rise from zero is no regression
        gained = bench_pairs.regression_verdict(zeros, [1.0, 1.0, 1.0], 1.0, 0.1)
        assert (gained["verdict"], gained["worse_by"]) == ("within bound", -math.inf)


def test_bench_pairs_records_the_src_lines_of_both_checkouts(bench_pairs, tmp_path, monkeypatch, capsys):
    for side, lines in (("parent", 3), ("change", 5)):
        checkout = tmp_path / side
        (checkout / "src" / "pkg").mkdir(parents=True)
        (checkout / "src" / "pkg" / "mod.py").write_text("x = 1\n" * lines)
        (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        (checkout / "record.json").write_text(json.dumps({"environment": {}}))

    def run_side(checkout, workload, seed, seconds, trace):
        outputs = [{"solution_json_sha256": "0" * 64, "trajectory_csv_sha256": "1" * 64}]
        return {"outputs": outputs, "record": "record.json"}, {"failed": 0, "metrics": {"setup_s": {"value": 1.0}}}

    # the runs are stubbed: nothing is started
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    argv = ["--parent", tmp_path / "parent", "--change", tmp_path / "change", "--workload", "w", "--seeds", "1-2"]
    assert bench_pairs.main([str(a) for a in argv]) == 0
    bench = json.loads((tmp_path / "change" / "BENCH_w.json").read_text())
    assert bench["src_lines"] == {"parent": 3, "change": 5}
    assert "src/ lines: parent 3, change 5" in capsys.readouterr().out
