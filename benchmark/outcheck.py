"""Independent check of one op's serialized outputs.

The reference graph is built with numpy and scipy alone from the edge
array the generator saved next to the edge-list file, so a bug in the
library's parser, CSR or component code cannot hide itself.  The only
library fact used is the node-label table, which is how solution ids map
back to the input file.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class ReferenceGraph:
    """Integer-labelled edge list, deduplicated, without self-loops."""

    def __init__(self, pairs: np.ndarray):
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keep = lo != hi
        self.edges = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
        self.size = int(pairs.max()) + 1
        self.present = np.zeros(self.size, dtype=bool)
        self.present[pairs.ravel()] = True
        self.degree = np.bincount(self.edges.ravel(), minlength=self.size)
        self.initial_gcc = self.gcc(np.zeros(0, dtype=np.int64))

    def gcc(self, removed_labels: np.ndarray) -> int:
        active = self.present.copy()
        active[removed_labels] = False
        if not active.any():
            return 0
        e = self.edges[active[self.edges[:, 0]] & active[self.edges[:, 1]]]
        adj = sp.coo_matrix(
            (np.ones(len(e), dtype=np.int8), (e[:, 0], e[:, 1])), shape=(self.size, self.size)
        )
        _, comp = connected_components(adj, directed=False)
        return int(np.bincount(comp[active]).max())


def check_solution(
    ref: ReferenceGraph,
    labels: tuple[str, ...],
    removed: frozenset[int],
    solution_json: str,
    trajectory_csv: str,
    target_c: int,
    cost_mode: str,
) -> list[str]:
    """Problems found in one solution; an empty list means it passed."""
    problems = []
    sol = json.loads(solution_json)
    rows = sol["removal_order"]
    order = [row["node"] for row in rows]
    order_labels = np.array([int(labels[v]) for v in order], dtype=np.int64)

    final_gcc = ref.gcc(order_labels)
    if final_gcc > target_c:
        problems.append(f"final gcc {final_gcc} exceeds target {target_c}")
    if sol["final_gcc"] != final_gcc:
        problems.append(f"reported final gcc {sol['final_gcc']} != recomputed {final_gcc}")
    if set(order) != removed or len(order) != len(removed) or sol["removed_count"] != len(order):
        problems.append("removed set and removal_order disagree")

    if cost_mode == "unit":
        w = np.ones(len(order_labels))
        expected_reported = len(order)
    else:
        w = ref.degree[order_labels].astype(np.float64)
        expected_reported = float(w.sum() / ref.degree.sum())
    if any(row["cost"] != wv for row, wv in zip(rows, w)):
        problems.append("a removal cost differs from the node's cost")
    if not np.isclose(sol["total_cost"], w.sum(), rtol=1e-12, atol=0.0):
        problems.append(f"total_cost {sol['total_cost']} != sum of costs {w.sum()}")
    if not np.isclose(sol["reported_cost"], expected_reported, rtol=1e-12, atol=0.0):
        problems.append(f"reported_cost {sol['reported_cost']} != recomputed {expected_reported}")

    lines = trajectory_csv.splitlines()
    points = [line.split(",") for line in lines[1:]]
    cum = np.array([float(c) for c, _ in points])
    gccs = np.array([int(g) for _, g in points])
    if lines[0] != "cumulative_cost,gcc_size" or len(points) != len(order) + 1:
        problems.append("trajectory has the wrong header or length")
    elif cum[0] != 0.0 or gccs[0] != ref.initial_gcc:
        problems.append(f"trajectory starts at ({cum[0]}, {gccs[0]}), not (0, {ref.initial_gcc})")
    elif (np.diff(cum) < 0).any() or (np.diff(gccs) > 0).any():
        problems.append("trajectory is not monotone")
    elif gccs[-1] != final_gcc or list(gccs[1:]) != [row["gcc_after"] for row in rows]:
        problems.append("trajectory disagrees with removal_order")
    return problems
