"""Weighted vertex cover of a bisection cut.

Deleting a vertex cover of the cut edges disconnects group M from the
rest.  The cover comes from the classic local-ratio sweep (Bar-Yehuda and
Even): walk the edges once, pay both endpoints down by the smaller
residual, keep whoever hits zero.  The sweep is a 2-approximation for
any nonnegative costs but can keep nodes made redundant by later edges,
so a separate pruning pass drops covered-elsewhere nodes, most expensive
first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostVector
from .errors import InvalidCostError
from .graph import Graph, NodeMask
from .spectral import Partition


@dataclass(frozen=True)
class CoverResult:
    cover: np.ndarray  # sorted node ids
    total_cost: float


def cut_edges(graph: Graph, mask: NodeMask, partition: Partition) -> np.ndarray:
    """Active edges with one endpoint in M and one in Mbar, sorted as in
    the parent edge list."""
    active = np.asarray(mask, dtype=bool)
    labels = np.full(graph.n, -1, dtype=np.int8)
    labels[partition.nodes] = partition.in_m.astype(np.int8)
    e = graph.edges
    if not len(e):
        return e.reshape(0, 2)
    lu = labels[e[:, 0]]
    lv = labels[e[:, 1]]
    keep = (
        active[e[:, 0]]
        & active[e[:, 1]]
        & (lu >= 0)
        & (lv >= 0)
        & (lu != lv)
    )
    return e[keep]


def weighted_vertex_cover(cut: np.ndarray, costs: CostVector) -> CoverResult:
    """Local-ratio sweep over the cut edges in their given order.

    Every endpoint starts with its full cost as residual; each edge
    transfers eps = min of the two residuals from both.  Nodes whose
    residual reaches zero (including zero-cost nodes) form the cover.
    Total cost is at most twice the optimum.
    """
    cut = np.asarray(cut, dtype=np.int64).reshape(-1, 2)
    w = costs.w
    if (w < 0).any():
        raise InvalidCostError("cost vector has negative entries")
    weight = w.tolist()
    residual: dict[int, float] = {}
    for u, v in cut.tolist():
        ru = residual.setdefault(u, weight[u])
        rv = residual.setdefault(v, weight[v])
        if ru > 0.0 and rv > 0.0:
            eps = min(ru, rv)
            residual[u] = ru - eps
            residual[v] = rv - eps
    chosen = sorted(v for v, r in residual.items() if r == 0.0)
    cover = np.array(chosen, dtype=np.int64)
    return CoverResult(cover=cover, total_cost=float(w[cover].sum()) if len(cover) else 0.0)


def prune_redundant(result: CoverResult, cut: np.ndarray, costs: CostVector) -> CoverResult:
    """Drop cover nodes all of whose cut edges are covered by the other
    endpoint, trying the most expensive first (ties: larger id first, so
    equal-cost pairs resolve toward keeping the earlier node)."""
    cut = np.asarray(cut, dtype=np.int64).reshape(-1, 2)
    cover = set(result.cover.tolist())
    # partner[v] lists the opposite endpoint of each cut edge at v; with no
    # self-loops the opposite endpoint is never v itself
    partner: dict[int, list[int]] = {v: [] for v in cover}
    for u, v in cut.tolist():
        if u in partner:
            partner[u].append(v)
        if v in partner:
            partner[v].append(u)
    # the cover only shrinks, so a node with a partner outside it now can
    # never be dropped; only the others need a visit
    candidates = [v for v in cover if all(other in cover for other in partner[v])]
    w = costs.w
    weight = w.tolist()
    for v in sorted(candidates, key=lambda x: (-weight[x], -x)):
        if all(other in cover for other in partner[v]):
            cover.discard(v)
    kept = np.array(sorted(cover), dtype=np.int64)
    return CoverResult(cover=kept, total_cost=float(w[kept].sum()) if len(kept) else 0.0)
