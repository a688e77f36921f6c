"""Smoke runs of the experiment scripts under scripts/, each in its own
interpreter, as a user would start them."""

import os
import subprocess
import sys
from pathlib import Path

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
