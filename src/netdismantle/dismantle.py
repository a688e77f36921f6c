"""Dismantling outer loop and greedy reinsertion.

One run repeatedly takes the current largest component, bisects it with
the node-weighted spectral partition, deletes a pruned 2-approximate
vertex cover of the cut, and stops once every component has at most C
nodes.  Only the bisected component changes, so a bisection reads that
component's subgraph alone and splits it into the pieces the cover
leaves.  Reinsertion then walks the removed set and puts back any node
whose return keeps all components within C, cheapest damage first, which
repairs most of the overshoot the cover step pays for disconnecting
groups completely.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .costs import CostMode, CostVector
from .errors import InternalInvariantError
from .graph import Graph, Subgraph, _adjacency_flat, _run_starts, components, full_mask
from .cover import cut_edges, prune_redundant, weighted_vertex_cover
from .rng import PRNG_NAME, mix_seed
from .spectral import (
    Partition,
    approx_fiedler,
    build_operator,
    fine_tune_partition,
    iteration_budget,
    sign_partition,
)


@dataclass(frozen=True)
class DismantlingTarget:
    """Stop once the largest component has at most c nodes; from_fraction
    sets c to the given share of n, rounded up, and at least 1."""

    c: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("target component size must be at least 1")

    @classmethod
    def from_fraction(cls, n: int, fraction: float = 0.01) -> "DismantlingTarget":
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        # the decimal the float prints as, so 0.07 * 100 is 7, not 7.000000000000001
        return cls(c=max(1, math.ceil(Fraction(str(float(fraction))) * n)))

    @classmethod
    def absolute(cls, c: int) -> "DismantlingTarget":
        return cls(c=c)


@dataclass
class SolutionMetadata:
    seed: int
    iter_multiplier: int
    fine_tuning: bool
    reinserted: bool
    cost_mode: str
    target_c: int
    prng: str = PRNG_NAME
    initial_gcc: int = 0
    bisections: int = 0
    power_iterations: int = 0
    phase_seconds: dict = field(default_factory=dict)


class DismantlingSolution:
    """Outcome of one run.

    The solution keeps three arrays in deletion order: the removed node
    ids, their costs, and gcc_after, the largest-component size once that
    node and all earlier ones are gone.  removal_order, trajectory and
    removed are views built from them on each read and kept nowhere:
    removal_order lists (node, cost, gcc_after), trajectory pairs
    cumulative cost with gcc size, starting from (0, initial gcc) before
    any removal, and removed is the node set.

    gcc_after comes from replaying the deletion order over the graph,
    which happens once, on the first read of removal_order, trajectory or
    final_gcc.  A solution may hold the forest of its final state (every
    removed node out) for the replay to start from.  The replay then lets
    go of the graph and the forest, and a pickled solution is always a
    replayed one.
    """

    def __init__(
        self,
        graph: Graph,
        order: np.ndarray,
        node_costs: np.ndarray,
        metadata: SolutionMetadata,
        forest: tuple[list[int], list[int], int] | None = None,
    ):
        self.total_cost = float(node_costs.sum())
        self.metadata = metadata
        self._order = order
        self._costs = node_costs
        self._gcc_after: np.ndarray | None = None
        self._graph: Graph | None = graph
        self._forest = forest

    def _replayed_gcc_after(self) -> np.ndarray:
        if self._gcc_after is None:
            started = time.perf_counter()
            forest, self._forest = self._forest, None
            after, initial = replay_gcc_sizes(self._graph, self._order, forest)
            if initial != self.metadata.initial_gcc:
                raise InternalInvariantError("replayed initial gcc disagrees with direct computation")
            self._gcc_after, self._graph = after, None
            self.metadata.phase_seconds["replay"] = time.perf_counter() - started
        return self._gcc_after

    @property
    def removed(self) -> frozenset[int]:
        # inserted in deletion order, so cost_of sums in one fixed order
        return frozenset(self._order.tolist())

    @property
    def removed_count(self) -> int:
        return len(self._order)

    @property
    def removal_order(self) -> list[tuple[int, float, int]]:
        after = self._replayed_gcc_after()
        return list(zip(self._order.tolist(), self._costs.tolist(), after.tolist()))

    @property
    def trajectory(self) -> list[tuple[float, int]]:
        after = self._replayed_gcc_after().tolist()
        cumulative = accumulate(self._costs.tolist(), initial=0.0)
        return list(zip(cumulative, [self.metadata.initial_gcc, *after]))

    @property
    def final_gcc(self) -> int:
        after = self._replayed_gcc_after()
        return int(after[-1]) if len(after) else self.metadata.initial_gcc

    def __getstate__(self) -> dict:
        # the replay drops the graph, so none travels back from a pool worker
        self._replayed_gcc_after()
        return vars(self)


def _find(parent: list[int], v: int) -> int:
    """v's root in a union-find forest, halving the path to it."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _forest(graph: Graph, mask) -> tuple[list[int], list[int], int]:
    """A union-find forest seeded with the masked graph's components as
    flat stars, with no per-edge union loop: (parent, size, gcc size).
    A component's id is its root, every inactive node is a root of its
    own, and size holds each root's node count."""
    decomposition = components(graph, mask)
    parent = np.where(np.asarray(mask, dtype=bool), decomposition.component_id, np.arange(graph.n))
    size = np.bincount(parent, minlength=graph.n)
    return parent.tolist(), size.tolist(), decomposition.gcc_size


def _roots_around(
    graph: Graph, removed: np.ndarray, base: np.ndarray, parent: list[int], size: list[int], c: int
) -> tuple[np.ndarray, list[int], dict[int, list[int]]]:
    """The removed nodes whose return would form a component of at most c
    nodes, found in one pass over the removed nodes' rows: their ids, the
    size of that component, and the distinct component ids around each.
    parent and size must be a _forest of the active nodes, so a
    component id is its root."""
    rows, nbrs = _adjacency_flat(graph.indptr, graph.indices, removed)
    active = base[nbrs]
    rows, nbrs = rows[active], nbrs[active]
    del active
    # keys in int64: an int32 row times n could wrap
    key = rows.astype(np.int64, copy=False) * graph.n
    del rows
    key += np.asarray(parent)[nbrs]
    del nbrs
    key.sort()
    owner, root = np.divmod(key[_run_starts(key)], graph.n)
    del key
    merged = 1 + np.bincount(owner, minlength=len(removed), weights=np.asarray(size)[root])
    ok = merged <= c
    keep = ok[owner]
    owner, root = owner[keep], root[keep]
    feasible = np.flatnonzero(ok)
    bounds = np.searchsorted(owner, feasible).tolist()
    bounds.append(len(owner))
    del owner
    flat = root.tolist()
    del root
    nodes = removed[feasible]
    roots = {v: flat[a:b] for v, a, b in zip(nodes.tolist(), bounds, bounds[1:])}
    return nodes, merged[feasible].astype(np.int64).tolist(), roots


def replay_gcc_sizes(
    graph: Graph, order: np.ndarray, forest: tuple[list[int], list[int], int] | None = None
) -> tuple[np.ndarray, int]:
    """Largest-component size after each removal prefix of order.

    Removing nodes one by one and recomputing components is quadratic, so
    the replay runs backward instead: start from everything removed,
    re-activate in reverse order, and union edges as they come back.
    forest is that start, a _forest (parent, size, gcc size), when the
    caller holds it; the replay then takes it over.  Returns (gcc size
    after each prefix, gcc size before any removal).
    """
    order = np.asarray(order, dtype=np.int64)
    if forest is None:
        base = full_mask(graph.n)
        base[order] = False
        forest = _forest(graph, base)
        del base
    parent, size, current = forest
    # the removed nodes' rows in one pass, keeping only the neighbours
    # already back when a node returns: those removed after it, or never
    position = np.full(graph.n, len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    rows, nbrs = _adjacency_flat(graph.indptr, graph.indices, order)
    back = position[nbrs] > rows
    del position
    bounds = np.searchsorted(rows[back], np.arange(len(order) + 1)).tolist()
    del rows
    flat = nbrs[back].tolist()
    del nbrs, back
    nodes = order.tolist()
    after = [0] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        after[i] = current
        root = _find(parent, nodes[i])
        for u in flat[bounds[i] : bounds[i + 1]]:
            # union by size: the smaller tree hangs under the larger root
            other = _find(parent, u)
            if other != root:
                if size[root] < size[other]:
                    root, other = other, root
                parent[other] = root
                size[root] += size[other]
        # unions only grow the returning node's component, so its final
        # size is the largest any of them gave
        current = max(current, size[root])
    return np.array(after, dtype=np.int64), current


def dismantle(
    graph: Graph,
    costs: CostVector,
    target: DismantlingTarget,
    seed: int = 0,
    iter_multiplier: int = 1,
    fine_tuning: bool = True,
) -> DismantlingSolution:
    """One full dismantling run, deterministic in all arguments.

    Bisection b of the run draws its start vector from a seed derived as
    mix_seed(seed, b), so runs differ only through the base seed.  A
    two-node component defeats the shifted power iteration (its zero-mean
    subspace is annihilated exactly), so it is split trivially instead.
    """
    costs.validate(graph)
    metadata = SolutionMetadata(seed=seed, iter_multiplier=iter_multiplier, fine_tuning=fine_tuning,
                                reinserted=False, cost_mode=costs.mode.value, target_c=target.c)
    # spectral encloses operator, power_iteration (with the sign split) and fine_tune
    phase = dict.fromkeys(["components", "spectral", "operator", "power_iteration"], 0.0)
    phase.update(fine_tune=0.0, cover=0.0, replay=0.0)
    t0 = time.perf_counter()
    decomposition = components(graph, full_mask(graph.n))
    metadata.initial_gcc = decomposition.gcc_size
    pieces = Subgraph(np.arange(graph.n), graph.indptr, graph.indices).split(decomposition.component_id, target.c)
    # components above the target, largest first, ties to the smaller id
    heap: list[tuple[int, int, Subgraph]] = []
    batches: list[np.ndarray] = []
    while True:
        for piece in pieces:
            heapq.heappush(heap, (-piece.size, int(piece.nodes[0]), piece))
        phase["components"] += time.perf_counter() - t0
        if not heap:
            break
        view = heapq.heappop(heap)[2]
        t0 = time.perf_counter()
        if view.size == 2:
            partition = Partition(nodes=view.nodes, in_m=np.array([True, False]))
        else:
            operator = build_operator(view, costs)
            t1 = time.perf_counter()
            phase["operator"] += t1 - t0
            iterations = iteration_budget(view.size, iter_multiplier)
            vector = approx_fiedler(operator, mix_seed(seed, metadata.bisections), iterations)
            metadata.power_iterations += iterations
            partition = sign_partition(vector, view.nodes)
            del operator, vector  # the largest arrays of a bisection, not needed by the cover
            t2 = time.perf_counter()
            phase["power_iteration"] += t2 - t1
            if fine_tuning:
                partition = fine_tune_partition(view, partition=partition)
                phase["fine_tune"] += time.perf_counter() - t2
        phase["spectral"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        cut = cut_edges(view, partition)
        weight = costs.w[view.nodes]
        result = prune_redundant(weighted_vertex_cover(cut, weight), cut, weight)
        phase["cover"] += time.perf_counter() - t0
        if len(result.cover) == 0:
            raise InternalInvariantError("empty cover while the largest component still exceeds the target")
        batches.append(view.nodes[result.cover])
        metadata.bisections += 1
        t0 = time.perf_counter()
        kept = np.ones(view.size, dtype=bool)
        kept[result.cover] = False
        pieces = view.pieces(kept, target.c)
    metadata.phase_seconds = phase
    order = np.concatenate(batches) if batches else np.empty(0, dtype=np.int64)
    return DismantlingSolution(graph, order, costs.w[order], metadata)


def reinsert(
    graph: Graph,
    costs: CostVector,
    target: DismantlingTarget,
    solution: DismantlingSolution,
) -> DismantlingSolution:
    """Put back removed nodes that the final state does not need.

    A node is feasible when the component formed by its return (itself
    plus all distinct components around it) stays within the target.  The
    cheapest damage goes first: smallest merged size, ties broken toward
    the larger removal cost, then the smaller id.  Merging only ever
    grows the components around a waiting node, so each node's merged
    size can only grow; a lazy heap over stale sizes therefore finds the
    true minimum by re-evaluating only the popped candidate, and a node
    seen infeasible once is infeasible forever.  Each waiting node keeps
    a list of nodes in the components around it, seeded with one
    component id each in one pass over the removed nodes' rows and
    extended whenever a neighbour returns, so a re-evaluation never
    rescans a row; a node found infeasible, or put back, drops its list.
    The final forest is the state the replay of the result starts from,
    so it is handed over rather than rebuilt.
    """
    t0 = time.perf_counter()
    order = solution._order
    removed = np.sort(order)
    base = full_mask(graph.n)
    base[removed] = False
    parent, size, gcc = _forest(graph, base)
    nodes, merged, roots = _roots_around(graph, removed, base, parent, size, target.c)
    del base, removed
    heap = list(zip(merged, (-costs.w[nodes]).tolist(), nodes.tolist()))
    del nodes, merged
    heapq.heapify(heap)
    returned = []
    while heap:
        s, neg_w, v = heapq.heappop(heap)
        current = {_find(parent, r) for r in roots[v]}
        s_now = 1 + sum(map(size.__getitem__, current))
        if s_now > target.c:
            del roots[v]
            continue
        if s_now > s:
            heapq.heappush(heap, (s_now, neg_w, v))
            continue
        del roots[v]
        returned.append(v)
        # v and the distinct roots around it join under the largest root
        top = max(current, key=size.__getitem__, default=v)
        parent[v] = top
        for r in current:
            parent[r] = top
        size[top] = s_now
        gcc = max(gcc, s_now)
        for u in graph.neighbors(v).tolist():
            waiting = roots.get(u)
            if waiting is not None:
                waiting.append(v)
    del heap, roots
    reinsert_seconds = time.perf_counter() - t0

    back = np.zeros(graph.n, dtype=bool)
    back[returned] = True
    order = order[~back[order]]
    metadata = replace(
        solution.metadata,
        reinserted=True,
        phase_seconds={**solution.metadata.phase_seconds, "reinsert": reinsert_seconds},
    )
    result = DismantlingSolution(graph, order, costs.w[order], metadata, (parent, size, gcc))
    del parent, size
    if result.total_cost > solution.total_cost + 1e-9:
        raise InternalInvariantError("reinsertion increased total cost")
    if result.final_gcc > target.c:
        raise InternalInvariantError("reinsertion broke the target constraint")
    return result


def cost_of(solution: DismantlingSolution, costs: CostVector, graph: Graph) -> int | float:
    """Reported cost of a solution: node count under unit costs, removed
    degree mass as a fraction of total degree mass under degree costs."""
    if costs.mode is CostMode.UNIT:
        return solution.removed_count
    total = costs.total()
    if total == 0.0:
        return 0.0
    removed = np.fromiter(solution.removed, dtype=np.int64, count=solution.removed_count)
    return float(costs.w[removed].sum() / total) if len(removed) else 0.0
