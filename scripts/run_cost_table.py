#!/usr/bin/env python3
"""Dismantling cost table across datasets, cost modes, and methods.

For every dataset and cost mode this runs four methods:

  single            one spectral-bisection run (fixed seed)
  single+reinsert   the same run followed by greedy reinsertion
  ensemble          best of K differently seeded runs
  ensemble+reinsert best of K with reinsertion applied per member

and writes one row per combination to cost_table.csv plus a manifest
with the exact settings, printing an aligned summary table as it goes.

By default all bundled datasets are used, plus any reference datasets
present under data/reference/ (see data/README.md for how to add them).

Usage:
  python3 scripts/run_cost_table.py
  python3 scripts/run_cost_table.py --datasets karate,sbm_600 --ensemble-size 200
  python3 scripts/run_cost_table.py --workers 4 --out results/cost_table
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from netdismantle import (
    CostMode,
    CostVector,
    DismantlingTarget,
    EnsembleConfig,
    cost_of,
    dismantle,
    parse_edge_list,
    reinsert,
    run_ensemble,
)

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"
BUNDLED = ["karate", "lesmis", "florentine", "er_300", "ba_300", "sbm_600"]
REFERENCE = ["crime", "petster-hamster", "dblp"]


def resolve_dataset(name: str) -> Path:
    candidates = [
        Path(name),
        DATA_DIR / f"{name}.txt",
        DATA_DIR / "reference" / f"{name}.txt",
    ]
    for path in candidates:
        if path.is_file():
            return path
    raise SystemExit(f"dataset not found: {name} (tried {[str(c) for c in candidates]})")


def default_datasets() -> list[str]:
    names = list(BUNDLED)
    names += [n for n in REFERENCE if (DATA_DIR / "reference" / f"{n}.txt").is_file()]
    return names


def run_methods(graph, costs, target, args):
    rows = []

    started = time.perf_counter()
    single = dismantle(graph, costs, target, seed=args.base_seed)
    single_seconds = time.perf_counter() - started
    rows.append(("single", single, single_seconds))

    started = time.perf_counter()
    repaired = reinsert(graph, costs, target, single)
    rows.append(("single+reinsert", repaired, single_seconds + time.perf_counter() - started))

    for label, reinsertion in (("ensemble", False), ("ensemble+reinsert", True)):
        config = EnsembleConfig(
            k=args.ensemble_size,
            base_seed=args.base_seed,
            reinsertion=reinsertion,
            workers=args.workers,
        )
        started = time.perf_counter()
        report = run_ensemble(graph, costs, target, config)
        rows.append((label, report.best.solution, time.perf_counter() - started))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets",
        default=",".join(default_datasets()),
        help="comma-separated dataset names or edge-list paths",
    )
    parser.add_argument("--ensemble-size", type=int, default=50)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--target-fraction", type=float, default=0.01)
    parser.add_argument("--out", default="results/cost_table")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = f"{'dataset':<16} {'mode':<7} {'method':<18} {'cost':>10} {'removed':>8} {'gcc':>6} {'sec':>8}"
    print(header)
    print("-" * len(header))

    csv_rows = ["dataset,cost_mode,method,cost,removed,final_gcc,seconds"]
    for name in [tok.strip() for tok in args.datasets.split(",") if tok.strip()]:
        path = resolve_dataset(name)
        graph = parse_edge_list(path.read_text())
        target = DismantlingTarget.from_fraction(graph.n, args.target_fraction)
        for mode in (CostMode.UNIT, CostMode.DEGREE):
            costs = CostVector.for_mode(graph, mode)
            for method, solution, seconds in run_methods(graph, costs, target, args):
                cost = cost_of(solution, costs, graph)
                print(
                    f"{path.stem:<16} {mode.value:<7} {method:<18} "
                    f"{cost:>10.4f} {solution.removed_count:>8} {solution.final_gcc:>6} {seconds:>8.2f}"
                )
                csv_rows.append(
                    f"{path.stem},{mode.value},{method},{cost!r},"
                    f"{solution.removed_count},{solution.final_gcc},{seconds:.4f}"
                )

    (out_dir / "cost_table.csv").write_text("\n".join(csv_rows) + "\n")
    manifest = {
        "datasets": args.datasets.split(","),
        "ensemble_size": args.ensemble_size,
        "base_seed": args.base_seed,
        "target_fraction": args.target_fraction,
        "workers": args.workers,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"\nwrote {out_dir / 'cost_table.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
