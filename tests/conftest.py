"""Shared fixtures: bundled-dataset loaders, deterministic graph
generators, and the end-of-run acceptance summary."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from netdismantle import Graph, parse_edge_list

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"
REFERENCE_DIR = DATA_DIR / "reference"

BUNDLED = [
    "karate.txt",
    "lesmis.txt",
    "florentine.txt",
    "er_300.txt",
    "ba_300.txt",
    "sbm_600.txt",
]

# name -> (expected nodes, expected edges) for optional reference files
REFERENCE_SPECS = {
    "crime": (754, 2127),
    "petster-hamster": (2000, 16714),
    "dblp": (12495, 49563),
}

_GRAPH_CACHE: dict[str, Graph] = {}


def load_bundled(name: str) -> Graph:
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = parse_edge_list((DATA_DIR / name).read_text())
    return _GRAPH_CACHE[name]


def reference_graph(name: str) -> Graph | None:
    """Reference dataset if present and matching its expected size."""
    expected_n, expected_m = REFERENCE_SPECS[name]
    path = REFERENCE_DIR / f"{name}.txt"
    if not path.exists():
        return None
    key = f"reference/{name}"
    if key not in _GRAPH_CACHE:
        graph = parse_edge_list(path.read_text())
        if graph.n != expected_n or graph.m != expected_m:
            return None
        _GRAPH_CACHE[key] = graph
    return _GRAPH_CACHE[key]


def reference_skip_reason(name: str) -> str:
    expected_n, expected_m = REFERENCE_SPECS[name]
    return (
        f"reference dataset {name!r} not available: place a matching edge list "
        f"({expected_n} nodes / {expected_m} edges) at data/reference/{name}.txt "
        f"to enable this check (this environment has no network access)"
    )


def random_graph(seed: int, n: int, p: float) -> Graph:
    """Plain G(n, p), possibly disconnected; always n nodes."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    return Graph.from_edges(np.stack([iu[keep], ju[keep]], axis=1), n=n)


def random_connected_graph(seed: int, n: int, extra: float = 0.08) -> Graph:
    """Random connected graph: a random spanning path plus G(n, extra)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    path = np.stack([perm[:-1], perm[1:]], axis=1)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < extra
    edges = np.concatenate([path, np.stack([iu[keep], ju[keep]], axis=1)])
    return Graph.from_edges(edges, n=n)


def heavy_tailed_edges(seed: int, n: int) -> np.ndarray:
    """Edges of a connected graph with a heavy degree tail: a random
    spanning path plus 2n edges whose ends are drawn with Pareto weights."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    path = np.stack([perm[:-1], perm[1:]], axis=1)
    weight = rng.pareto(1.5, n) + 1.0
    ends = rng.choice(n, size=(2 * n, 2), p=weight / weight.sum())
    return np.concatenate([path, ends])


def heavy_tailed_graph(seed: int, n: int) -> Graph:
    return Graph.from_edges(heavy_tailed_edges(seed, n), n=n)


def fiedler_test_instances(count: int, start_seed: int = 0, max_n: int = 100):
    """Random connected graphs on which the budget formula has room to
    converge.

    Power iteration separates the second eigenvector at the rate
    r = (c - l2)/(c - l3) per step, so after P steps the start vector's
    unwanted components shrink by r^P against a random O(1)-to-O(10)
    initial mixture.  An instance is eligible when r^P >= 100 by the
    dense oracle's spectrum; below that the budget cannot resolve the
    eigenvector regardless of implementation and the accuracy question
    is ill-posed.  Eligibility uses only oracle output, never the module
    under test.
    """
    import math

    from netdismantle import CostVector, build_operator, full_mask, iteration_budget
    from oracles import edges, jacobi_eigh, laplacian_parts, subgraph

    found = []
    seed = start_seed
    while len(found) < count:
        n = 10 + (seed * 13) % (max_n - 9)
        graph = random_connected_graph(seed, n)
        costs = CostVector.degree(graph)
        lap = np.zeros((n, n))
        for u, v in edges(graph):
            b = float(costs.w[u] + costs.w[v])
            lap[u, v] -= b
            lap[v, u] -= b
            lap[u, u] += b
            lap[v, v] += b
        lam, _ = jacobi_eigh(lap)
        op = build_operator(subgraph(graph, np.arange(n)), costs)
        budget = iteration_budget(n, 1)
        shift = laplacian_parts(op)[1]
        num = float(shift - lam[1])
        den = float(shift - lam[2])
        # den == 0 means the third eigendirection is annihilated outright
        if den <= 0.0:
            eligible = num > 0.0
        else:
            eligible = num > den and budget * math.log(num / den) >= math.log(100.0)
        if eligible:
            found.append((graph, costs, budget, seed))
        seed += 1
    return found


def random_bipartite_cut(seed: int, max_endpoints: int = 12):
    """A random cut instance: lexicographically sorted cross edges and a
    node count large enough to index any endpoint."""
    rng = np.random.default_rng(seed)
    left = rng.integers(1, max_endpoints // 2 + 1)
    right = rng.integers(1, max_endpoints - left + 1)
    left_ids = np.arange(left)
    right_ids = np.arange(left, left + right)
    pairs = [(int(u), int(v)) for u in left_ids for v in right_ids]
    chosen = [pairs[i] for i in sorted(rng.choice(len(pairs), size=max(1, int(0.5 * len(pairs))), replace=False))]
    cut = np.array(sorted(chosen), dtype=np.int64)
    n = left + right
    return cut, int(n)


# acceptance tests record one line per criterion; the summary hook prints
# them at the end of the run so they are visible without -s
ACCEPTANCE_LOG: list[str] = []


def record_criterion(number: int, status: str, detail: str) -> None:
    line = f"criterion {number:2d} {status}: {detail}"
    ACCEPTANCE_LOG.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LOG:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LOG):
            terminalreporter.write_line(line)
