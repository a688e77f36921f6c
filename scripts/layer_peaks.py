#!/usr/bin/env python3
"""tracemalloc peaks of one solve, phase by phase.

    python3 scripts/layer_peaks.py EDGE_LIST [--cost unit|degree] [--seed S]

Parses the edge list, runs `dismantle` with the given solver seed and the
CLI's default target (1% of n), then `reinsert`, whose check of the final
state replays the new removal order, then writes the solution JSON and
the trajectory CSV.  For each phase it prints the tracemalloc peak in MiB
above what was traced when the phase began: for the parse that is
nothing, and from `dismantle` on it is the live graph and costs plus the
earlier phases' results.  The text is read before tracing starts, and a
garbage collection runs before each phase, so no phase reuses objects that
CPython's free lists kept from an earlier one.  Peaks are numpy's and
Python's own allocations; RSS, which also counts library pages and
allocator slack, is measured by benchmark/run.py.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

from netdismantle import CostVector, DismantlingTarget, cost_of, dismantle, parse_edge_list, reinsert
from netdismantle.serialize import solution_json, trajectory_csv


def _peak(fn, *args):
    """fn(*args) and its traced peak in MiB above the memory traced when
    it was called."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn(*args)
    return out, (tracemalloc.get_traced_memory()[1] - before) / 2**20


def layer_peaks(text: str, cost: str, seed: int) -> dict[str, float]:
    """Each phase's traced peak in MiB, in the order the phases run."""
    peaks = {}
    tracemalloc.start()
    try:
        graph, peaks["parse"] = _peak(parse_edge_list, text)
        costs = CostVector.for_mode(graph, cost)
        target = DismantlingTarget.from_fraction(graph.n)
        first, peaks["dismantle"] = _peak(dismantle, graph, costs, target, seed)
        solution, peaks["reinsert+replay"] = _peak(reinsert, graph, costs, target, first)
        _, peaks["solution_json"] = _peak(solution_json, solution, cost_of(solution, costs, graph))
        _, peaks["trajectory_csv"] = _peak(lambda: trajectory_csv(solution.trajectory))
    finally:
        tracemalloc.stop()
    return peaks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("edges", type=Path, help="edge-list file")
    parser.add_argument("--cost", choices=["unit", "degree"], default="unit")
    parser.add_argument("--seed", type=int, default=0, help="solver seed")
    args = parser.parse_args(argv)
    for phase, mib in layer_peaks(args.edges.read_text(), args.cost, args.seed).items():
        print(f"{phase:<16} {mib:8.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
