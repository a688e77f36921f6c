"""Weighted operator, power iteration, partitioning, fine-tuning."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import netdismantle
from netdismantle import (
    CostMode,
    CostVector,
    Graph,
    Partition,
    approx_fiedler,
    build_operator,
    components,
    fine_tune_partition,
    full_mask,
    iteration_budget,
    sign_partition,
)
from netdismantle.errors import ComponentTooSmallError, DegenerateSpectrumError
from netdismantle.rng import initial_vector
from netdismantle.spectral import (
    _DOT_CHUNK,
    _SORT_ROWS_MIN_CHANGES,
    _UNDERFLOW,
    _power_iterate,
    _sumsq,
    _UnderflowCollapse,
)

from conftest import BUNDLED, fiedler_test_instances, heavy_tailed_graph, load_bundled, random_connected_graph
from oracles import dense_fiedler, edges, laplacian_parts, largest_component, members, subgraph


def unit(g):
    return CostVector.unit(g)


class TestOperator:
    def test_single_edge_unit(self):
        g = Graph.from_edges([(0, 1)])
        op = build_operator(subgraph(g, np.array([0, 1])), unit(g))
        weighted_degree, shift, _ = laplacian_parts(op)
        assert op.b[0, 1] == 2.0
        assert weighted_degree.tolist() == [2.0, 2.0]
        assert shift == 4.0

    def test_path_costs_121(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        costs = CostVector(w=np.array([1.0, 2.0, 1.0]), mode=CostMode.UNIT)
        op = build_operator(subgraph(g, np.arange(3)), costs)
        assert op.b[0, 1] == 3.0
        assert op.b[1, 2] == 3.0
        weighted_degree, shift, _ = laplacian_parts(op)
        assert weighted_degree.tolist() == [3.0, 6.0, 3.0]
        assert shift == 12.0

    def test_rejects_tiny_component(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(ComponentTooSmallError):
            build_operator(subgraph(g, np.array([0])), unit(g))

    def test_laplacian_annihilates_ones_and_is_psd(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            g = random_connected_graph(seed, int(rng.integers(3, 50)))
            costs = CostVector.degree(g)
            op = build_operator(subgraph(g, np.arange(g.n)), costs)
            b, weighted_degree = op.b, laplacian_parts(op)[0]

            def laplacian_matvec(x):
                return weighted_degree * x - b.dot(x)

            ones = np.ones(op.size)
            assert np.abs(laplacian_matvec(ones)).max() < 1e-9
            for _ in range(5):
                x = rng.normal(size=op.size)
                assert x @ laplacian_matvec(x) >= -1e-9

    def test_local_ids_follow_sorted_globals(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        op = build_operator(subgraph(g, np.array([4, 2, 1, 3])), unit(g))
        assert op.nodes.tolist() == [1, 2, 3, 4]


class TestIterationBudget:
    def test_reference_points(self):
        assert iteration_budget(2000, 1) == 629
        assert iteration_budget(2, 1) == 18
        assert iteration_budget(2000, 1000) == 629000

    def test_multiplier_scales_linearly(self):
        assert iteration_budget(50, 7) == 7 * iteration_budget(50, 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            iteration_budget(1, 1)
        with pytest.raises(ValueError):
            iteration_budget(10, 0)


class TestApproxFiedler:
    def test_unit_norm_and_zero_mean(self):
        for seed in range(5):
            g = random_connected_graph(seed, 40)
            op = build_operator(subgraph(g, np.arange(g.n)), unit(g))
            v = approx_fiedler(op, seed, iteration_budget(g.n, 1))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert abs(v.mean()) < 1e-9 * np.sqrt(g.n)

    def test_deterministic_bitwise(self):
        g = random_connected_graph(3, 30)
        op = build_operator(subgraph(g, np.arange(g.n)), unit(g))
        a = approx_fiedler(op, 42, 100)
        b = approx_fiedler(op, 42, 100)
        assert (a == b).all()

    def test_two_triangles_bridge_split(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        op = build_operator(subgraph(g, np.arange(6)), unit(g))
        for seed in range(5):
            v = approx_fiedler(op, seed, iteration_budget(6, 1))
            signs = v < 0
            assert signs[:3].all() != signs[3:].all()
            assert signs[:3].all() or (~signs[:3]).all()
            assert signs[3:].all() or (~signs[3:]).all()

    def test_cosine_vs_dense_oracle(self):
        # instances are pre-filtered on the oracle's spectrum: the power
        # method separates eigendirections at (c-l2)/(c-l3) per step, so
        # accuracy is only answerable when that rate compounds to >= 100
        # within the budget; below it no start vector can converge
        for g, costs, budget, seed in fiedler_test_instances(10, max_n=60):
            n = g.n
            op = build_operator(subgraph(g, np.arange(n)), costs)
            v = approx_fiedler(op, seed, budget)
            _, exact = dense_fiedler(g, full_mask(n), costs, np.arange(n))
            cosine = abs(float(v @ exact))
            assert cosine >= 0.99, (seed, n, cosine)

    def test_two_node_component_degenerates(self):
        # cI - L maps every zero-mean vector on 2 nodes to zero, so both
        # starts collapse and the contract error surfaces
        g = Graph.from_edges([(0, 1)])
        op = build_operator(subgraph(g, np.array([0, 1])), unit(g))
        with pytest.raises(DegenerateSpectrumError, match="degenerate spectrum"):
            approx_fiedler(op, 0, 18)

    def test_rejects_zero_iterations(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        op = build_operator(subgraph(g, np.arange(3)), unit(g))
        with pytest.raises(ValueError):
            approx_fiedler(op, 0, 0)

    def test_unit_costs_match_unweighted_laplacian_partition(self):
        # with unit costs every edge weighs 2, so signs match the plain
        # Laplacian bisection computed densely
        for seed in range(5):
            g = random_connected_graph(100 + seed, 25)
            op = build_operator(subgraph(g, np.arange(g.n)), unit(g))
            v = approx_fiedler(op, seed, iteration_budget(g.n, 2))
            _, exact = dense_fiedler(g, full_mask(g.n), unit(g), np.arange(g.n))
            agreement = np.sign(v) == np.sign(exact)
            assert agreement.all() or (~agreement).all()


def reference_b(graph, costs, nodes):
    """The weighted adjacency as the operator built it from the global
    edge list through COO, kept as the reference for the CSR-row build."""
    k = len(nodes)
    w = costs.w
    local = np.full(graph.n, -1, dtype=np.int64)
    local[nodes] = np.arange(k)
    e = edges(graph)
    keep = (local[e[:, 0]] >= 0) & (local[e[:, 1]] >= 0)
    eu = local[e[keep, 0]]
    ev = local[e[keep, 1]]
    bvals = w[e[keep, 0]] + w[e[keep, 1]]
    return sp.csr_matrix(
        (
            np.concatenate([bvals, bvals]),
            (np.concatenate([eu, ev]), np.concatenate([ev, eu])),
        ),
        shape=(k, k),
    )


def reference_power_iterate(op, x, iterations):
    """The power iteration on fresh temporaries and scipy's dot, kept as
    the reference for the buffered loop."""
    b, scale = op.b, laplacian_parts(op)[2]
    for _ in range(iterations):
        x = x - x.mean()
        norm = float(np.linalg.norm(x))
        if norm < _UNDERFLOW:
            raise _UnderflowCollapse
        x = scale * x + b.dot(x)
        norm = float(np.linalg.norm(x))
        if norm < _UNDERFLOW:
            raise _UnderflowCollapse
        x = x / norm
    x = x - x.mean()
    norm = float(np.linalg.norm(x))
    if norm < _UNDERFLOW:
        raise _UnderflowCollapse
    return x / norm


def reference_norm(x):
    """The 2-norm as _sumsq defines it: one dot up to 10,000 entries, the
    exactly rounded sum of the dots of 10,000-entry chunks above that."""
    if len(x) <= 10_000:
        return math.sqrt(float(x.dot(x)))
    return math.sqrt(math.fsum(float(x[i : i + 10_000].dot(x[i : i + 10_000])) for i in range(0, len(x), 10_000)))


def reference_chunked_power_iterate(op, x, iterations):
    """reference_power_iterate with reference_norm for components of more
    than one dot chunk, where a single dot differs in the last bits."""
    assert op.size > 10_000
    b, scale = op.b, laplacian_parts(op)[2]
    for _ in range(iterations):
        x = x - x.mean()
        norm = reference_norm(x)
        if norm < _UNDERFLOW:
            raise _UnderflowCollapse
        x = scale * x + b.dot(x)
        norm = reference_norm(x)
        if norm < _UNDERFLOW:
            raise _UnderflowCollapse
        x = x / norm
    x = x - x.mean()
    norm = reference_norm(x)
    if norm < _UNDERFLOW:
        raise _UnderflowCollapse
    return x / norm


def outcome(fn, *args):
    try:
        return fn(*args)
    except _UnderflowCollapse:
        return "collapse"


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_hot_path_matches_reference(graph, costs, comp, seed):
    op = build_operator(subgraph(graph, comp), costs)
    want = reference_b(graph, costs, op.nodes)
    for name in ("indptr", "indices", "data"):
        assert_same_bytes(getattr(op.b, name), getattr(want, name))
    # each step row ends in its diagonal, c - weighted degree as scipy sums B
    indptr, _, data = op.step
    rows = np.arange(op.size) if op.order is None else op.order
    assert_same_bytes(data[indptr[rows + 1] - 1], laplacian_parts(op)[2])
    for budget in (1, 7, iteration_budget(op.size)):
        x0 = initial_vector(seed, op.size)
        start = x0.copy()
        got = outcome(_power_iterate, op, x0, budget)
        assert_same_bytes(x0, start)
        expected = outcome(reference_power_iterate, op, start, budget)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert_same_bytes(got, expected)
    return op


class TestHotPathReference:
    """The CSR-row operator build and the buffered power iteration give
    the same bytes as the reference implementations above."""

    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("mode", ["unit", "degree"])
    def test_bundled_largest_component(self, name, mode):
        graph = load_bundled(name)
        mask = full_mask(graph.n)
        decomposition = components(graph, mask)
        comp = members(decomposition, largest_component(decomposition))
        costs = CostVector.for_mode(graph, mode)
        assert_hot_path_matches_reference(graph, costs, comp, seed=graph.n)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 5_000),
        n=st.integers(3, 40),
        removed=st.floats(0.0, 0.4),
        mode=st.sampled_from(["unit", "degree"]),
    )
    def test_masked_random_components(self, seed, n, removed, mode):
        # removing nodes leaves neighbors outside the component, which the
        # build has to filter out
        graph = random_connected_graph(seed, n)
        rng = np.random.default_rng(seed)
        mask = rng.random(n) >= removed
        decomposition = components(graph, mask)
        if decomposition.gcc_size < 2:
            mask = full_mask(n)
            decomposition = components(graph, mask)
        comp = members(decomposition, largest_component(decomposition))
        costs = CostVector.for_mode(graph, mode)
        assert_hot_path_matches_reference(graph, costs, comp, seed=seed)

    @pytest.mark.parametrize("mode", ["unit", "degree"])
    def test_heavy_tailed_component_sorts_step_rows(self, mode):
        # no more nodes than one dot chunk, so the reference's norms are
        # the same single dots
        graph = heavy_tailed_graph(5, _DOT_CHUNK)
        lengths = np.diff(graph.indptr)
        assert np.count_nonzero(lengths[1:] != lengths[:-1]) >= _SORT_ROWS_MIN_CHANGES
        costs = CostVector.for_mode(graph, mode)
        op = assert_hot_path_matches_reference(graph, costs, np.arange(graph.n), seed=17)
        assert op.order is not None
        assert (np.diff(np.diff(op.step[0])) >= 0).all()

    @pytest.mark.parametrize("mode", ["unit", "degree"])
    def test_heavy_tailed_component_above_one_dot_chunk(self, mode):
        graph = heavy_tailed_graph(11, 3 * _DOT_CHUNK)
        costs = CostVector.for_mode(graph, mode)
        op = build_operator(subgraph(graph, np.arange(graph.n)), costs)
        assert op.order is not None
        assert (np.diff(np.diff(op.step[0])) >= 0).all()
        for budget in (1, 7, iteration_budget(op.size)):
            x0 = initial_vector(23, op.size)
            got = _power_iterate(op, x0, budget)
            assert_same_bytes(got, reference_chunked_power_iterate(op, x0, budget))

    def test_regular_component_keeps_local_row_order(self):
        n = 12_000
        ring = np.arange(n)
        graph = Graph.from_edges(np.concatenate([np.column_stack([ring, (ring + d) % n]) for d in range(1, 5)]))
        op = build_operator(subgraph(graph, ring), unit(graph))
        assert op.order is None
        assert_same_bytes(op.step[0], op.b.indptr + np.arange(n + 1, dtype=op.b.indptr.dtype))


# Runs one power iteration on a 30k-node ring with random chords, far above
# the length at which OpenBLAS threads a dot product, and prints the
# iterate's sha256.  Its step rows are sorted by length, so the gather back
# into local order runs too.
THREADED_ITERATE_SCRIPT = """
import hashlib, sys
import numpy as np
from netdismantle import CostVector, Graph, Subgraph
from netdismantle.rng import initial_vector
from netdismantle.spectral import _power_iterate, build_operator
n = 30_000
ring = np.arange(n)
chords = np.random.default_rng(7).integers(0, n, size=(2 * n, 2))
graph = Graph.from_edges(np.concatenate([np.column_stack([ring, (ring + 1) % n]), chords]), n=n)
op = build_operator(Subgraph(ring, graph.indptr, graph.indices), CostVector.degree(graph))
assert op.order is not None
x = _power_iterate(op, initial_vector(1, n), 40)
sys.stdout.write(hashlib.sha256(x.tobytes()).hexdigest())
"""


def test_sumsq_is_the_plain_dot_up_to_one_chunk():
    x = np.random.default_rng(3).standard_normal(25_001)
    for k in (0, 1, 9_999, 10_000):
        assert _sumsq(x[:k]).hex() == float(x[:k].dot(x[:k])).hex()
    chunks = [x[:10_000], x[10_000:20_000], x[20_000:]]
    assert _sumsq(x) == math.fsum(float(c.dot(c)) for c in chunks)


def test_power_iteration_independent_of_blas_threads():
    src = str(Path(netdismantle.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", THREADED_ITERATE_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.append(proc.stdout)
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def split(values):
    values = np.asarray(values, dtype=np.float64)
    return sign_partition(values, np.arange(len(values)))


def group_m(p):
    return p.nodes[p.in_m]


class TestSignPartition:
    def test_negative_goes_to_m(self):
        p = split([-1.0, 0.5])
        assert group_m(p).tolist() == [0]
        assert p.nodes[~p.in_m].tolist() == [1]

    def test_zero_boundary_and_median_fallback(self):
        # no negative entry: median split puts the lower half in M
        p = split([0.0, 0.3])
        assert group_m(p).tolist() == [0]

    def test_two_negatives(self):
        p = split([-0.2, -0.1, 0.4])
        assert group_m(p).tolist() == [0, 1]

    def test_all_equal_falls_back_to_first_node(self):
        p = split([0.7, 0.7, 0.7])
        assert group_m(p).tolist() == [0]
        assert p.size_mbar == 2

    def test_both_groups_always_nonempty(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            p = split(rng.normal(size=k).round(1))
            assert p.size_m >= 1
            assert p.size_mbar >= 1


def naive_fine_tune(graph, mask, partition):
    """Reference fixpoint: rescan every node in ascending id, flip when
    all active neighbors are opposite and the group keeps a member."""
    labels = {int(v): bool(m) for v, m in zip(partition.nodes, partition.in_m)}
    active = np.asarray(mask, bool)
    changed = True
    while changed:
        changed = False
        for v in sorted(labels):
            mine = labels[v]
            group = [u for u, lab in labels.items() if lab == mine]
            nbrs = [int(u) for u in graph.neighbors(v) if active[u]]
            if not nbrs:
                continue
            if all(labels[u] != mine for u in nbrs) and len(group) > 1:
                labels[v] = not mine
                changed = True
    in_m = np.array([labels[int(v)] for v in partition.nodes])
    return Partition(nodes=partition.nodes, in_m=in_m)


def count_cut(graph, partition):
    from netdismantle import cut_edges

    return len(cut_edges(subgraph(graph, partition.nodes), partition))


class TestFineTune:
    def test_fixpoint_when_no_candidate(self):
        # path split down the middle: everyone keeps a same-side neighbor
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        p = Partition(nodes=np.arange(4), in_m=np.array([True, True, False, False]))
        flips: list[int] = []
        q = fine_tune_partition(subgraph(g, np.arange(4)), p, flip_log=flips)
        assert flips == []
        assert (q.in_m == p.in_m).all()

    def test_surrounded_singleton_pulls_neighbor_over(self):
        # path 0-1-2 with the middle alone in M: the middle itself is
        # pinned (M would empty) but node 0, wholly opposite-labeled and
        # with company in its own group, crosses over to join it
        g = Graph.from_edges([(0, 1), (1, 2)])
        p = Partition(nodes=np.arange(3), in_m=np.array([False, True, False]))
        flips: list[int] = []
        q = fine_tune_partition(subgraph(g, np.arange(3)), p, flip_log=flips)
        assert flips == [0]
        assert q.in_m.tolist() == [True, True, False]
        assert count_cut(g, q) == 1

    def test_alternating_path_settles_to_one_cut(self):
        # path 0-1-2-3, M = {1, 3}: node 0 joins M, then node 3 leaves it;
        # node 2 stays pinned while it is the last member of its group
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        p = Partition(nodes=np.arange(4), in_m=np.array([False, True, False, True]))
        flips: list[int] = []
        q = fine_tune_partition(subgraph(g, np.arange(4)), p, flip_log=flips)
        assert flips == [0, 3]
        assert q.in_m.tolist() == [True, True, False, False]
        assert count_cut(g, q) == 1

    def test_star_center_with_leaf_company_is_pinned(self):
        # center 0 plus leaf 1 in M: the same-labeled leaf blocks the
        # all-opposite condition for the center, so the center never
        # moves; the far leaves drain into M instead until one is left
        g = Graph.from_edges([(0, i) for i in range(1, 6)])
        in_m = np.array([True, True, False, False, False, False])
        p = Partition(nodes=np.arange(6), in_m=in_m)
        before = count_cut(g, p)
        flips: list[int] = []
        q = fine_tune_partition(subgraph(g, np.arange(6)), p, flip_log=flips)
        assert before == 4
        assert q.in_m[0]
        assert flips == [2, 3, 4]
        assert q.in_m.tolist() == [True, True, True, True, True, False]
        assert count_cut(g, q) == 1

    def test_leaves_drain_toward_hub_side(self):
        # all leaves opposite the hub flip one by one until one remains
        g = Graph.from_edges([(0, i) for i in range(1, 6)])
        in_m = np.array([False, True, True, True, True, True])
        p = Partition(nodes=np.arange(6), in_m=in_m)
        q = fine_tune_partition(subgraph(g, np.arange(6)), p)
        assert q.size_m == 1
        assert count_cut(g, q) == 1

    def test_zero_degree_node_never_flips(self):
        g = Graph.from_edges([(0, 1)], n=3)
        p = Partition(nodes=np.arange(3), in_m=np.array([True, False, True]))
        q = fine_tune_partition(subgraph(g, np.arange(3)), p)
        assert q.in_m[2]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 5_000), n=st.integers(3, 28))
    def test_matches_naive_fixpoint(self, seed, n):
        g = random_connected_graph(seed, n)
        rng = np.random.default_rng(seed + 9)
        in_m = rng.random(n) < 0.5
        if in_m.all() or not in_m.any():
            in_m[0] = not in_m[0]
        p = Partition(nodes=np.arange(n), in_m=in_m)
        fast = fine_tune_partition(subgraph(g, np.arange(n)), p)
        slow = naive_fine_tune(g, full_mask(n), p)
        assert (fast.in_m == slow.in_m).all()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5_000), n=st.integers(3, 30))
    def test_cut_never_grows_and_flips_are_exact(self, seed, n):
        g = random_connected_graph(seed, n)
        rng = np.random.default_rng(seed + 77)
        in_m = rng.random(n) < 0.4
        if in_m.all() or not in_m.any():
            in_m[0] = not in_m[0]
        p = Partition(nodes=np.arange(n), in_m=in_m)
        before = count_cut(g, p)
        flips: list[int] = []
        q = fine_tune_partition(subgraph(g, np.arange(n)), p, flip_log=flips)
        after = count_cut(g, q)
        assert after <= before
        if flips:
            assert after < before
        # replay the flips: each one cuts exactly its active degree
        labels = p.in_m.copy()
        current = before
        for v in flips:
            labels[v] = ~labels[v]
            step = count_cut(g, Partition(nodes=p.nodes, in_m=labels))
            assert current - step == g.degree[v]
            current = step
        assert current == after

