#!/usr/bin/env python3
"""Initialization variability versus power-iteration budget.

Runs K differently seeded members at each budget multiplier D, with the
same K seeds reused across multipliers so members are comparable pairwise.
Three outputs:

  member_costs.csv   one row per (D, member): cost, final gcc, seconds
  sign_balance.csv   per D pair, the fraction of shared-grid points where
                     the higher-budget run kept the largest component
                     strictly smaller (positive), equal (zero), or larger
                     (negative)
  summary.json       the above plus the observed settling threshold: the
                     smallest D at which all K members collapse onto one
                     removal trajectory (and stay collapsed at larger Ds),
                     or null when no listed D settles

The settling threshold is an observation, not an assertion; it depends
on the seed stream and may differ from run to run of this experiment
with other seeds.

Usage:
  python3 scripts/run_variability.py
  python3 scripts/run_variability.py --dataset data/lesmis.txt --multipliers 1,50,200,500
  python3 scripts/run_variability.py --members 10 --workers 4 --out results/variability
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from netdismantle import (
    CostVector,
    DismantlingTarget,
    EnsembleConfig,
    gcc_difference_histogram,
    parse_edge_list,
    run_ensemble,
)


def sign_balance(low, high) -> dict[str, float]:
    low_curve, high_curve = low.trajectory, high.trajectory
    grid = np.unique(np.concatenate([[c for c, _ in low_curve], [c for c, _ in high_curve]]))
    hist = gcc_difference_histogram(low_curve, high_curve, grid)
    return {
        "positive": hist.positive_fraction,
        "zero": hist.zero_fraction,
        "negative": hist.negative_fraction,
        "points": len(grid),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="data/karate.txt")
    parser.add_argument("--multipliers", default="1,200,500")
    parser.add_argument("--members", type=int, default=10)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--cost", default="unit", choices=["unit", "degree"])
    parser.add_argument("--target-fraction", type=float, default=0.01)
    parser.add_argument("--reinsert", action="store_true", help="apply reinsertion per member")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="results/variability")
    args = parser.parse_args(argv)

    multipliers = sorted({int(tok) for tok in args.multipliers.split(",") if tok.strip()})
    if not multipliers or multipliers[0] < 1:
        raise SystemExit("--multipliers must list integers >= 1")

    graph = parse_edge_list(Path(args.dataset).read_text())
    costs = CostVector.for_mode(graph, args.cost)
    target = DismantlingTarget.from_fraction(graph.n, args.target_fraction)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = {}
    cost_rows = ["multiplier,member,seed,cost,final_gcc,seconds"]
    for multiplier in multipliers:
        config = EnsembleConfig(
            k=args.members,
            base_seed=args.base_seed,
            iter_multiplier=multiplier,
            reinsertion=args.reinsert,
            workers=args.workers,
        )
        report = run_ensemble(graph, costs, target, config)
        runs[multiplier] = report.members
        spread = report.cost_summary()
        print(
            f"D={multiplier:<5} cost min {spread['min']:.4f}  "
            f"median {spread['median']:.4f}  max {spread['max']:.4f}"
        )
        for member in report.members:
            cost_rows.append(
                f"{multiplier},{member.index},{member.seed},"
                f"{member.reported_cost!r},{member.final_gcc},{member.seconds:.4f}"
            )
    (out_dir / "member_costs.csv").write_text("\n".join(cost_rows) + "\n")

    # same-seed comparison of every multiplier against the smallest one
    base = multipliers[0]
    balance_rows = ["base_multiplier,multiplier,member,positive,zero,negative,points"]
    comparisons = []
    for multiplier in multipliers[1:]:
        fractions = {"positive": 0.0, "zero": 0.0, "negative": 0.0}
        for low, high in zip(runs[base], runs[multiplier]):
            b = sign_balance(low.solution, high.solution)
            balance_rows.append(
                f"{base},{multiplier},{low.index},"
                f"{b['positive']:.6f},{b['zero']:.6f},{b['negative']:.6f},{b['points']}"
            )
            for key in fractions:
                fractions[key] += b[key] / len(runs[base])
        comparisons.append({"base": base, "multiplier": multiplier, **fractions})
        print(
            f"D={base} vs D={multiplier}: positive {fractions['positive']:.3f}  "
            f"zero {fractions['zero']:.3f}  negative {fractions['negative']:.3f}"
        )
    (out_dir / "sign_balance.csv").write_text("\n".join(balance_rows) + "\n")

    # settled = every member produced the same removal trajectory
    settled = {}
    for m in multipliers:
        first = runs[m][0].solution.trajectory
        settled[m] = all(r.solution.trajectory == first for r in runs[m][1:])
    threshold = None
    for i, multiplier in enumerate(multipliers):
        if all(settled[m] for m in multipliers[i:]):
            threshold = multiplier
            break
    if threshold is None:
        print(f"no settling observed up to D={multipliers[-1]}")
    else:
        print(f"members collapse onto one trajectory from D={threshold} on")

    summary = {
        "dataset": args.dataset,
        "cost_mode": args.cost,
        "members": args.members,
        "base_seed": args.base_seed,
        "multipliers": multipliers,
        "reinsert": args.reinsert,
        "settled_by_multiplier": {str(m): settled[m] for m in multipliers},
        "settling_threshold": threshold,
        "comparisons": comparisons,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out_dir / 'summary.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
