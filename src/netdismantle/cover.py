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

from .errors import InvalidCostError
from .graph import Subgraph
from .spectral import Partition


@dataclass(frozen=True)
class CoverResult:
    """A vertex cover of cut edges: its node ids, ascending."""

    cover: np.ndarray


def cut_edges(view: Subgraph, partition: Partition) -> np.ndarray:
    """Edges of the component with one endpoint in M and one in Mbar, as
    (lo, hi) local id pairs in ascending order, which is the order of the
    parent edge list."""
    rows, cols, side = view.rows, view.indices, partition.in_m
    keep = (rows < cols) & (side[rows] != side[cols])
    return np.stack([rows[keep], cols[keep]], axis=1)


def weighted_vertex_cover(cut: np.ndarray, weight: np.ndarray) -> CoverResult:
    """Local-ratio sweep over the cut edges in their given order.

    The edges are pairs of ids indexing weight, the node costs.  Every
    endpoint starts with its full cost as residual; each edge transfers
    eps = min of the two residuals from both.  Nodes whose residual
    reaches zero (including zero-cost nodes) form the cover.  Its cost
    is at most twice the optimum.
    """
    cut = np.asarray(cut, dtype=np.int64).reshape(-1, 2)
    weight = np.asarray(weight, dtype=np.float64)
    if (weight < 0).any():
        raise InvalidCostError("cost vector has negative entries")
    # the sweep runs on the endpoints' ranks, lists of the cut's nodes only
    ends, pairs = np.unique(cut, return_inverse=True)
    pairs = pairs.reshape(-1, 2)
    residual = weight[ends].tolist()
    for u, v in zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()):
        ru, rv = residual[u], residual[v]
        if ru > 0.0 and rv > 0.0:
            eps = min(ru, rv)
            residual[u] = ru - eps
            residual[v] = rv - eps
    return CoverResult(cover=ends[np.array(residual) == 0.0])


def prune_redundant(result: CoverResult, cut: np.ndarray, weight: np.ndarray) -> CoverResult:
    """Drop cover nodes all of whose cut edges are covered by the other
    endpoint, trying the most expensive first (ties: larger id first, so
    equal-cost pairs resolve toward keeping the earlier node)."""
    cut = np.asarray(cut, dtype=np.int64).reshape(-1, 2)
    weight = np.asarray(weight, dtype=np.float64)
    in_cover = np.zeros(len(weight), dtype=bool)
    in_cover[result.cover] = True
    # every cut edge from either end, (node, partner); never equal
    node, other = cut.ravel(), cut[:, ::-1].ravel()
    # the cover only shrinks, so a node with a partner outside it now can
    # never be dropped; any other is dropped unless one of its partners
    # was dropped before it, and only such candidates can have been
    candidate = in_cover.copy()
    candidate[node[~in_cover[other]]] = False
    order = np.flatnonzero(candidate)
    order = order[np.lexsort((-order, -weight[order]))]
    rank = np.zeros(len(weight), dtype=np.int64)
    rank[order] = np.arange(len(order))
    link = candidate[node] & candidate[other]
    partners: list[list[int]] = [[] for _ in range(len(order))]
    for a, b in zip(rank[node[link]].tolist(), rank[other[link]].tolist()):
        partners[a].append(b)
    dropped = [False] * len(order)
    for i, mine in enumerate(partners):
        dropped[i] = not any(dropped[j] for j in mine)
    in_cover[order[dropped]] = False
    return CoverResult(cover=np.flatnonzero(in_cover))
