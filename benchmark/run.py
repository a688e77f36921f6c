#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one measured run.

    python3 benchmark/run.py --workload rrg12k_unit --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  Three processes take part:

1. the generator (workloads.py) writes the workload's edge list for this
   seed under .bench_work/, so its memory and time stay out of the
   measurement;
2. the measured process (measure.py) gets only that file, with BLAS
   thread pools pinned to one thread and the checkout's src/ on its path;
3. this process records the input's sha256 and the full run record under
   .bench_results/, and prints the result as the last line of stdout:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Exits non-zero without a result when the checkout has no netdismantle
sources, when a child fails, or when the run would overrun its deadline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, reference_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole run, children included
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    pass


def _run_child(cmd: list[str], env: dict, deadline: float) -> None:
    """Run a child in its own process group; on timeout or exit, make sure
    nothing it started outlives it."""
    child = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{Path(cmd[1]).name} overran the run deadline") from None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code != 0:
        raise RunError(f"{Path(cmd[1]).name} exited with code {code}")


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "netdismantle" / "__init__.py").is_file():
        print(f"error: no netdismantle sources under {src}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work"
    results = ROOT / ".bench_results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    input_path = work / f"{args.workload}-seed{args.seed}.txt"
    result_path = work / f"{tag}.result.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    env.update({name: "1" for name in PINNED_THREADS})
    try:
        _run_child(
            [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(input_path)],
            env,
            deadline,
        )
        _run_child(
            [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
             "--input", str(input_path), "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(result_path)],
            env,
            deadline,
        )
        result = json.loads(result_path.read_text())
        record = result.pop("record")
        record["input_sha256"] = _sha256_file(input_path)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in (input_path, reference_path(input_path), result_path):
            path.unlink(missing_ok=True)

    record["result"] = result
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "input_sha256": record["input_sha256"],
        "outputs": record["outputs"],
        "ops": len(record["ops"]),
        "record": str((results / f"{tag}.json").relative_to(ROOT)),
    }
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
