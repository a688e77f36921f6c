#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs on one workload.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload rrg12k_unit --seeds 601-610 [--seconds 35] [--trace 0]

For each seed this runs `benchmark/run.py` once in each checkout, the
parent first on even pairs and the change first on odd ones, so a drift
in host speed hits both sides alike.  It prints every run's metrics as
it goes, then for each metric the median [q1, q3] per side and how many
pairs the change won (ties count for neither side; the direction comes
from the change's BENCHMARK.json), and per seed whether the two sides'
outputs agree: the sha256 of solution.json and trajectory.csv and the
reported cost.  Each end-to-end metric also gets two verdicts: a gain
when the change wins at least 9 of 10 pairs and its median beats the
parent's by more than the parent's q3 - q1, and a regression when its
median is worse than the parent's by more than the metric's bound in
BENCHMARK.json ("unresolved" when the parent's IQR alone exceeds the
bound and some run of the parent beats some run of the change).  The
same numbers go to BENCH_<workload>.json in the change checkout
(BENCH_<workload>_trace.json with --trace 1), next to the environment
(CPU, library versions, src/ lines) of the change's last run and the
src/ line count of both checkouts.

Exit codes: 0 when every seed's outputs agree and no op failed, 1 when
outputs differ or an op failed, 2 when a run did not finish.  Each
checkout keeps its own .bench_work/ and .bench_results/; nothing is
written under benchmark/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


class RunFailed(Exception):
    pass


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its (summary, result) lines."""
    cmd = [
        sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    *_, summary, result = proc.stdout.strip().splitlines()
    return json.loads(summary), json.loads(result)


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under the checkout's src/, counted as
    benchmark/measure.py counts them."""
    return sum(len(path.read_text().splitlines()) for path in (checkout / "src").rglob("*.py"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def load_spec(checkout: Path) -> tuple[dict[str, str], dict[str, float]]:
    """Each metric's better direction, and each end-to-end metric's bound."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return better, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def gain_verdict(wins: int, pairs: int, gap: float, parent_iqr: float) -> dict:
    """Whether the change claims a gain: it wins at least 9 of every 10
    pairs and its median is better by more than the parent's IQR."""
    return {
        "met": wins >= 0.9 * pairs and gap > parent_iqr,
        "wins": wins,
        "pairs": pairs,
        "median_gap": gap,
        "parent_iqr": parent_iqr,
    }


def regression_verdict(parent: list[float], change: list[float], sign: float, bound: float) -> dict:
    """Whether the change's median is worse than the parent's by more than
    the bound, as a fraction of the parent's median; unresolved when the
    parent's own IQR is wider than the bound, unless every run of the
    change reads better than every run of the parent."""
    (pq1, pm, pq3), (_, cm, _) = quartiles(parent), quartiles(change)
    gap, scale = sign * (cm - pm), abs(pm)
    if scale:
        worse = -gap / scale
        unresolved = (pq3 - pq1) / scale > bound
    else:
        worse = 0.0 if gap == 0 else -math.copysign(math.inf, gap)
        unresolved = pq3 > pq1
    if unresolved and min(sign * c for c in change) > max(sign * p for p in parent):
        unresolved = False
    if unresolved:
        verdict = "unresolved"
    else:
        verdict = "regressed" if worse > bound else "within bound"
    return {"verdict": verdict, "worse_by": worse, "bound": bound, "parent_iqr": pq3 - pq1}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="inclusive range A-B")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better, bounds = load_spec(checkouts["change"])
    lines = {side: src_lines(checkout) for side, checkout in checkouts.items()}

    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    mismatched: list[int] = []
    agreement: list[dict] = []
    failed_ops = 0
    environment = None
    for pair, seed in enumerate(args.seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        outputs = {}
        for side in order:
            try:
                summary, result = run_side(checkouts[side], args.workload, seed, args.seconds, args.trace)
            except RunFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            outputs[side] = summary["outputs"]
            if side == "change":
                environment = json.loads((checkouts[side] / summary["record"]).read_text()).get("environment")
            failed_ops += result["failed"]
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
            print(json.dumps({"seed": seed, "side": side, "failed": result["failed"], "metrics": metrics}))
        same = outputs["parent"] == outputs["change"]
        if not same:
            mismatched.append(seed)
        agreement.append({"seed": seed, "first": order[0], "identical": same, "outputs": outputs})
        digests = " ".join(
            f"{o['solution_json_sha256'][:12]}/{o['trajectory_csv_sha256'][:12]}" for o in outputs["change"]
        )
        print(f"seed {seed}: {order[0]} first, outputs {'identical' if same else 'DIFFER'} ({digests})")

    print(f"\n{args.workload}, {len(args.seeds)} pairs: metric  parent median [q1, q3]  ->  change median [q1, q3]  wins")
    metrics = {}
    verdicts = []
    for name, parent in values["parent"].items():
        change = values["change"][name]
        sign = -1.0 if better.get(name) == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(parent), quartiles(change)
        print(f"  {name}: {pm:.6g} [{pq1:.6g}, {pq3:.6g}] -> {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  {wins}/{len(parent)}")
        metrics[name] = {
            "better": better.get(name),
            "parent": {"median": pm, "q1": pq1, "q3": pq3},
            "change": {"median": cm, "q1": cq1, "q3": cq3},
            "wins": {"change": wins, "parent": losses},
        }
        if name in bounds:
            gap = sign * (cm - pm)
            gain = gain_verdict(wins, len(parent), gap, pq3 - pq1)
            regression = regression_verdict(parent, change, sign, bounds[name])
            metrics[name].update(gain=gain, regression=regression)
            verdicts.append(
                f"  {name}: gain {'met' if gain['met'] else 'not met'} ({wins}/{len(parent)} wins, "
                f"median gap {gap:.6g} vs parent IQR {pq3 - pq1:.6g}); regression {regression['verdict']} "
                f"(worse by {100 * regression['worse_by']:+.1f}%, bound {100 * bounds[name]:.0f}%)"
            )
    if verdicts:
        print("verdicts: gain = at least 9 of 10 pairs won and median gap > parent IQR; "
              "regression = median worse than the parent's by more than the bound")
        print("\n".join(verdicts))
    print(f"outputs identical on {len(args.seeds) - len(mismatched)}/{len(args.seeds)} seeds, failed ops {failed_ops}")
    print(f"src/ lines: parent {lines['parent']}, change {lines['change']}")
    bench = {
        "workload": args.workload,
        "seeds": [args.seeds[0], args.seeds[-1]],
        "pairs": len(args.seeds),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "src_lines": lines,
        "metrics": metrics,
        "outputs_identical": len(args.seeds) - len(mismatched),
        "failed_ops": failed_ops,
        "per_seed": agreement,
    }
    suffix = "_trace" if args.trace else ""
    path = checkouts["change"] / f"BENCH_{args.workload}{suffix}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if mismatched or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
