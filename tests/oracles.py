"""Slow, independent reference implementations used only by tests.

Nothing here shares logic with the fast paths: components are found by a
hand-rolled BFS instead of scipy, optima come from subset enumeration,
and the reference bisection vector comes from a dense cyclic Jacobi
eigensolver written out below rather than any library call.  Each oracle
refuses inputs beyond a hard size budget instead of silently taking
minutes.  The last section holds thin conveniences over the library
that only tests call.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from netdismantle import ComponentDecomposition, CostVector, Graph, Subgraph, WeightedLaplacianOperator, components
from netdismantle.graph import NodeMask


class OracleBudgetError(ValueError):
    """An exhaustive oracle was asked to run beyond its hard size budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_nodes_for_subsets: int = 14
    max_endpoints_for_cover: int = 20
    max_nodes_for_dense_eigen: int = 200


DEFAULT_BUDGET = OracleBudget()


def bfs_components(graph: Graph, mask: NodeMask) -> list[set[int]]:
    """Connected components of the masked graph by plain BFS."""
    active = np.asarray(mask, dtype=bool)
    seen = np.zeros(graph.n, dtype=bool)
    out: list[set[int]] = []
    for start in range(graph.n):
        if not active[start] or seen[start]:
            continue
        comp = {start}
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                v = int(v)
                if active[v] and not seen[v]:
                    seen[v] = True
                    comp.add(v)
                    queue.append(v)
        out.append(comp)
    return out


def bfs_gcc_size(graph: Graph, mask: NodeMask) -> int:
    comps = bfs_components(graph, mask)
    return max((len(c) for c in comps), default=0)


def brute_force_min_dismantling(
    graph: Graph,
    costs: CostVector,
    c_target: int,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[float, frozenset[int]]:
    """Cheapest node set whose removal caps every component at c_target.

    Enumerates all subsets in order of (cost, size, lexicographic members)
    so the returned optimum is unique and deterministic.
    """
    if graph.n > budget.max_nodes_for_subsets:
        raise OracleBudgetError(
            f"budget exceeded: {graph.n} nodes > {budget.max_nodes_for_subsets}"
        )
    if c_target < 1:
        raise ValueError("c_target must be at least 1")
    nodes = list(range(graph.n))
    candidates: list[tuple[float, int, tuple[int, ...]]] = []
    for size in range(graph.n + 1):
        for subset in itertools.combinations(nodes, size):
            cost = float(costs.w[list(subset)].sum()) if subset else 0.0
            candidates.append((cost, size, subset))
    candidates.sort()
    for cost, _, subset in candidates:
        mask = np.ones(graph.n, dtype=bool)
        if subset:
            mask[list(subset)] = False
        if bfs_gcc_size(graph, mask) <= c_target:
            return cost, frozenset(subset)
    raise AssertionError("unreachable: removing every node always succeeds")


def brute_force_min_vertex_cover(
    cut: np.ndarray,
    costs: CostVector,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> float:
    """Optimal cost of a vertex cover of the given edges, by enumeration."""
    cut = np.asarray(cut, dtype=np.int64).reshape(-1, 2)
    if len(cut) == 0:
        return 0.0
    endpoints = sorted({int(x) for x in cut.ravel()})
    if len(endpoints) > budget.max_endpoints_for_cover:
        raise OracleBudgetError(
            f"budget exceeded: {len(endpoints)} endpoints > {budget.max_endpoints_for_cover}"
        )
    best = float("inf")
    for size in range(len(endpoints) + 1):
        for subset in itertools.combinations(endpoints, size):
            chosen = set(subset)
            if all(int(u) in chosen or int(v) in chosen for u, v in cut):
                cost = float(costs.w[list(subset)].sum()) if subset else 0.0
                best = min(best, cost)
    return best


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi.

    Returns (eigenvalues ascending, eigenvectors as columns).  Quadratic
    per sweep and only meant for the small dense matrices the oracle
    budget allows.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    k = a.shape[0]
    v = np.eye(k)
    if k == 1:
        return a.diagonal().copy(), v
    limit = tol * max(1.0, float(np.linalg.norm(a)))
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= limit:
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    eigenvalues = a.diagonal().copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def dense_fiedler(
    graph: Graph,
    mask: NodeMask,
    costs: CostVector,
    component: np.ndarray,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[float, np.ndarray]:
    """Exact second eigenpair of the cost-weighted Laplacian of a component.

    Builds the dense matrix directly from the edge list (edge uv weighs
    w_u + w_v) and diagonalizes it with jacobi_eigh.  The component must
    be connected under the mask.
    """
    component = np.asarray(sorted(int(x) for x in component), dtype=np.int64)
    k = len(component)
    if k > budget.max_nodes_for_dense_eigen:
        raise OracleBudgetError(
            f"budget exceeded: {k} nodes > {budget.max_nodes_for_dense_eigen}"
        )
    if k < 2:
        raise ValueError("component must have at least two nodes")
    sub_mask = np.zeros(graph.n, dtype=bool)
    sub_mask[component] = True
    if not np.asarray(mask, dtype=bool)[component].all():
        raise ValueError("component contains masked-out nodes")
    comps = bfs_components(graph, sub_mask)
    if len(comps) != 1:
        raise ValueError("component is not connected under the mask")
    local = {int(g): i for i, g in enumerate(component)}
    lap = np.zeros((k, k))
    for u, v in edges(graph):
        u, v = int(u), int(v)
        if u in local and v in local:
            b = float(costs.w[u] + costs.w[v])
            i, j = local[u], local[v]
            lap[i, j] -= b
            lap[j, i] -= b
            lap[i, i] += b
            lap[j, j] += b
    eigenvalues, vectors = jacobi_eigh(lap)
    return float(eigenvalues[1]), vectors[:, 1].copy()


# Conveniences over the library, for tests only


def subgraph(graph: Graph, nodes: np.ndarray) -> Subgraph:
    """The subgraph a graph induces on a nonempty node set."""
    labels = np.full(graph.n, -1, dtype=np.int64)
    labels[nodes] = 0
    return Subgraph(np.arange(graph.n), graph.indptr, graph.indices).split(labels, 0)[0]


def members(decomposition: ComponentDecomposition, comp_id: int) -> np.ndarray:
    """The node ids of one component, ascending."""
    return np.flatnonzero(decomposition.component_id == comp_id)


def component_sizes(decomposition: ComponentDecomposition) -> dict[int, int]:
    """The node count of every component, keyed by component id."""
    ids = decomposition.component_id
    comp_ids, counts = np.unique(ids[ids >= 0], return_counts=True)
    return dict(zip(comp_ids.tolist(), counts.tolist()))


def largest_component(decomposition: ComponentDecomposition) -> int:
    """The smallest id among the largest components, or -1 when no node
    is active."""
    sizes = component_sizes(decomposition)
    return min(sizes, key=lambda c: (-sizes[c], c), default=-1)


def gcc_size(graph: Graph, mask: NodeMask) -> int:
    """Size of the largest connected component of the masked graph."""
    return components(graph, mask).gcc_size


def edges(graph: Graph) -> np.ndarray:
    """Each undirected edge once as int64 (u, v) with u < v, sorted
    lexicographically; derived from the CSR."""
    rows = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr))
    upper = rows < graph.indices
    return np.stack([rows[upper], graph.indices[upper].astype(np.int64)], axis=1)


def id_map(graph: Graph) -> dict[str, int]:
    """The node id of every label."""
    return dict(zip(graph.labels, range(graph.n)))


def laplacian_parts(op: WeightedLaplacianOperator) -> tuple[np.ndarray, float, np.ndarray]:
    """The weighted degree, the shift c and the diagonal scale c - degree
    of an operator, derived from its B as scipy sums B's rows."""
    weighted_degree = np.asarray(op.b.sum(axis=1)).ravel()
    shift = 2.0 * float(weighted_degree.max())
    return weighted_degree, shift, shift - weighted_degree


def trajectory_rows(trajectory: tuple[np.ndarray, np.ndarray]) -> list[tuple[float, int]]:
    """A trajectory's two arrays as (cumulative cost, gcc size) rows."""
    costs, gccs = trajectory
    return list(zip(costs.tolist(), gccs.tolist()))


def trajectory_arrays(rows: list[tuple[float, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(cumulative cost, gcc size) rows as a trajectory's two arrays."""
    return np.array([c for c, _ in rows], dtype=np.float64), np.array([g for _, g in rows], dtype=np.int64)
