"""Cut extraction, local-ratio cover sweep, and redundancy pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdismantle import (
    CostMode,
    CostVector,
    Graph,
    Partition,
    cut_edges,
    prune_redundant,
    weighted_vertex_cover,
)
from netdismantle.cover import _SWEEP_BLOCK, CoverResult
from netdismantle.errors import InvalidCostError

from conftest import random_bipartite_cut
from oracles import brute_force_min_vertex_cover, subgraph


def unit_costs(n):
    return CostVector(w=np.ones(n), mode=CostMode.UNIT)


def covers_all(cover, cut):
    members = set(int(v) for v in cover)
    return all(int(u) in members or int(v) in members for u, v in cut)


class TestCutEdges:
    def test_square_alternating(self):
        g = Graph.from_edges([(0, 1), (0, 3), (1, 2), (2, 3)])
        p = Partition(nodes=np.arange(4), in_m=np.array([True, False, True, False]))
        cut = cut_edges(subgraph(g, p.nodes), p)
        assert cut.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]

    def test_grouped_path_cuts_once(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        p = Partition(nodes=np.arange(4), in_m=np.array([True, True, False, False]))
        cut = cut_edges(subgraph(g, p.nodes), p)
        assert cut.tolist() == [[1, 2]]

    def test_masked_endpoint_excluded(self):
        # node 2 is left out of the subgraph, as a removed node is
        g = Graph.from_edges([(0, 1), (1, 2)])
        p = Partition(nodes=np.array([0, 1]), in_m=np.array([True, False]))
        cut = cut_edges(subgraph(g, p.nodes), p)
        assert cut.tolist() == [[0, 1]]

    def test_unlabeled_endpoint_excluded(self):
        # partition spans one component; edges into other components stay out
        g = Graph.from_edges([(0, 1), (2, 3)])
        p = Partition(nodes=np.array([0, 1]), in_m=np.array([True, False]))
        cut = cut_edges(subgraph(g, p.nodes), p)
        assert cut.tolist() == [[0, 1]]

    def test_local_ids_in_parent_edge_order(self):
        # the subgraph on {2, 4, 5, 7}, local ids 0..3: its cut comes back
        # in local ids, in the order of the parent's sorted edge list
        g = Graph.from_edges([(7, 2), (4, 5), (2, 4), (5, 7), (2, 5), (1, 2)])
        view = subgraph(g, np.array([7, 2, 5, 4]))
        p = Partition(nodes=view.nodes, in_m=np.array([True, False, True, False]))
        cut = cut_edges(view, p)
        assert view.nodes[cut].tolist() == [[2, 4], [2, 7], [4, 5], [5, 7]]
        assert cut.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]

    def test_no_cross_edges(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        p = Partition(nodes=np.arange(4), in_m=np.array([True, True, False, False]))
        assert len(cut_edges(subgraph(g, p.nodes), p)) == 0


class TestSweep:
    def test_triangle_unit(self):
        # first edge zeroes both endpoints; later edges transfer nothing
        cut = np.array([[0, 1], [0, 2], [1, 2]])
        costs = unit_costs(3)
        result = weighted_vertex_cover(cut, costs.w)
        assert result.cover.tolist() == [0, 1]
        assert float(costs.w[result.cover].sum()) == 2.0

    def test_path_hits_two_to_one(self):
        # {0, 1} against the optimal {1}: the 2x bound is tight here
        cut = np.array([[0, 1], [1, 2]])
        costs = unit_costs(3)
        result = weighted_vertex_cover(cut, costs.w)
        assert result.cover.tolist() == [0, 1]
        assert float(costs.w[result.cover].sum()) == 2.0
        assert brute_force_min_vertex_cover(cut, unit_costs(3)) == 1.0

    def test_star_expensive_center_takes_everyone(self):
        w = np.array([5.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        costs = CostVector(w=w, mode=CostMode.UNIT)
        cut = np.array([[0, i] for i in range(1, 6)])
        result = weighted_vertex_cover(cut, costs.w)
        assert result.cover.tolist() == [0, 1, 2, 3, 4, 5]
        assert float(costs.w[result.cover].sum()) == 10.0

    def test_zero_cost_node_enters_for_free(self):
        costs = CostVector(w=np.array([0.0, 1.0]), mode=CostMode.UNIT)
        result = weighted_vertex_cover(np.array([[0, 1]]), costs.w)
        assert result.cover.tolist() == [0]
        assert float(costs.w[result.cover].sum()) == 0.0

    def test_zero_cost_id_off_the_cut_stays_out(self):
        # weight runs past the ids the cut uses; ids 2 and 4 cost nothing
        # but no cut edge touches them, so they are no part of the cover
        w = np.array([1.0, 2.0, 0.0, 1.0, 0.0, 3.0, 0.0])
        result = weighted_vertex_cover(np.array([[0, 1], [1, 3]]), w)
        assert result.cover.tolist() == [0, 1, 3]

    def test_empty_cut(self):
        costs = unit_costs(1)
        result = weighted_vertex_cover(np.empty((0, 2), dtype=np.int64), costs.w)
        assert len(result.cover) == 0
        assert float(costs.w[result.cover].sum()) == 0.0

    def test_negative_cost_rejected(self):
        costs = CostVector(w=np.array([1.0, -1.0]), mode=CostMode.UNIT)
        with pytest.raises(InvalidCostError):
            weighted_vertex_cover(np.array([[0, 1]]), costs.w)

    def test_order_sensitivity_is_the_given_order(self):
        # the sweep walks edges as handed in; a different order may choose
        # a different cover, so the function must not re-sort
        costs = unit_costs(3)
        forward = weighted_vertex_cover(np.array([[0, 1], [0, 2]]), costs.w)
        backward = weighted_vertex_cover(np.array([[0, 2], [0, 1]]), costs.w)
        assert forward.cover.tolist() == [0, 1]
        assert backward.cover.tolist() == [0, 2]


class TestPrune:
    def test_single_edge_equal_cost_keeps_lower_id(self):
        # both endpoints covered and interchangeable: the scan tries the
        # larger id first, so the smaller id survives
        cut = np.array([[0, 5]])
        costs = unit_costs(6)
        full = weighted_vertex_cover(cut, costs.w)
        assert full.cover.tolist() == [0, 5]
        pruned = prune_redundant(full, cut, costs.w)
        assert pruned.cover.tolist() == [0]

    def test_expensive_node_dropped_first(self):
        cut = np.array([[0, 1], [1, 2]])
        costs = CostVector(w=np.array([1.0, 5.0, 1.0]), mode=CostMode.UNIT)
        assert weighted_vertex_cover(cut, costs.w).cover.tolist() == [0, 2]
        # force the full cover through pruning to watch the scan order
        everyone = CoverResult(cover=np.array([0, 1, 2]))
        pruned = prune_redundant(everyone, cut, costs.w)
        assert pruned.cover.tolist() == [0, 2]
        assert float(costs.w[pruned.cover].sum()) == 2.0

    def test_star_prune_recovers_optimum(self):
        w = np.array([5.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        costs = CostVector(w=w, mode=CostMode.UNIT)
        cut = np.array([[0, i] for i in range(1, 6)])
        pruned = prune_redundant(weighted_vertex_cover(cut, costs.w), cut, costs.w)
        assert pruned.cover.tolist() == [1, 2, 3, 4, 5]
        assert float(costs.w[pruned.cover].sum()) == 5.0
        assert float(costs.w[pruned.cover].sum()) == brute_force_min_vertex_cover(cut, costs)

    def test_unit_star_prune_keeps_hub(self):
        costs = unit_costs(6)
        cut = np.array([[0, i] for i in range(1, 6)])
        pruned = prune_redundant(weighted_vertex_cover(cut, costs.w), cut, costs.w)
        assert pruned.cover.tolist() == [0]

    def test_empty_cover_passthrough(self):
        costs = unit_costs(1)
        empty = CoverResult(cover=np.empty(0, dtype=np.int64))
        pruned = prune_redundant(empty, np.empty((0, 2), dtype=np.int64), costs.w)
        assert len(pruned.cover) == 0
        assert float(costs.w[pruned.cover].sum()) == 0.0


def reference_sweep(cut, w):
    """The local-ratio sweep over the whole cut in one loop."""
    residual = list(w)
    for u, v in cut:
        eps = min(residual[u], residual[v])
        residual[u] -= eps
        residual[v] -= eps
    return sorted({int(x) for e in cut for x in e if residual[x] == 0.0})


class TestCutTypes:
    """An int32 cut is swept as given, an int64 or list cut as int64, in
    blocks of _SWEEP_BLOCK edges; the covers are the same either way."""

    @pytest.mark.parametrize("m", [1, _SWEEP_BLOCK, _SWEEP_BLOCK + 1, 3 * _SWEEP_BLOCK + 17])
    def test_int32_int64_and_list_cuts_agree(self, m):
        rng = np.random.default_rng(m)
        n = 500
        u = rng.integers(0, n, size=m)
        cut = np.stack([u, (u + rng.integers(1, n, size=m)) % n], axis=1)
        w = rng.integers(0, 6, size=n).astype(np.float64)
        want = reference_sweep(cut.tolist(), w.tolist())
        pruned = None
        for given in (cut.astype(np.int32), cut.astype(np.int64), cut.tolist()):
            cover = weighted_vertex_cover(given, w)
            assert cover.cover.tolist() == want
            again = prune_redundant(cover, given, w)
            assert covers_all(again.cover, cut)
            if pruned is None:
                pruned = again.cover.tolist()
            assert again.cover.tolist() == pruned

    @pytest.mark.parametrize(
        "empty", [[], np.empty((0, 2), dtype=np.int32), np.empty((0, 2), dtype=np.int64)], ids=["list", "int32", "int64"]
    )
    def test_empty_cut_of_every_type(self, empty):
        # np.asarray([]) is float64, which cannot index
        w = np.array([0.0, 1.0, 2.0])
        cover = weighted_vertex_cover(empty, w)
        assert cover.cover.tolist() == []
        assert prune_redundant(cover, empty, w).cover.tolist() == []


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_sweep_covers_and_two_approximates(self, seed):
        cut, n = random_bipartite_cut(seed)
        rng = np.random.default_rng(seed + 1)
        costs = CostVector(w=rng.integers(1, 10, size=n).astype(np.float64), mode=CostMode.UNIT)
        result = weighted_vertex_cover(cut, costs.w)
        assert covers_all(result.cover, cut)
        optimum = brute_force_min_vertex_cover(cut, costs)
        assert float(costs.w[result.cover].sum()) <= 2.0 * optimum + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_prune_keeps_coverage_and_never_costs_more(self, seed):
        cut, n = random_bipartite_cut(seed)
        rng = np.random.default_rng(seed + 2)
        costs = CostVector(w=rng.integers(1, 10, size=n).astype(np.float64), mode=CostMode.UNIT)
        full = weighted_vertex_cover(cut, costs.w)
        pruned = prune_redundant(full, cut, costs.w)
        assert covers_all(pruned.cover, cut)
        assert float(costs.w[pruned.cover].sum()) <= float(costs.w[full.cover].sum()) + 1e-9
        assert set(pruned.cover.tolist()) <= set(full.cover.tolist())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_pruned_cover_is_one_minimal(self, seed):
        # dropping any single survivor must break coverage
        cut, n = random_bipartite_cut(seed)
        rng = np.random.default_rng(seed + 3)
        costs = CostVector(w=rng.integers(1, 10, size=n).astype(np.float64), mode=CostMode.UNIT)
        pruned = prune_redundant(weighted_vertex_cover(cut, costs.w), cut, costs.w)
        members = [int(v) for v in pruned.cover]
        for v in members:
            remaining = np.array([u for u in members if u != v], dtype=np.int64)
            assert not covers_all(remaining, cut)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_prune_is_idempotent_and_deterministic(self, seed):
        cut, n = random_bipartite_cut(seed)
        rng = np.random.default_rng(seed + 4)
        costs = CostVector(w=rng.integers(1, 10, size=n).astype(np.float64), mode=CostMode.UNIT)
        once = prune_redundant(weighted_vertex_cover(cut, costs.w), cut, costs.w)
        twice = prune_redundant(once, cut, costs.w)
        again = prune_redundant(weighted_vertex_cover(cut, costs.w), cut, costs.w)
        assert once.cover.tolist() == twice.cover.tolist()
        assert once.cover.tolist() == again.cover.tolist()
