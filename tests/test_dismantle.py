"""Outer loop, replay bookkeeping, reinsertion, and reported cost."""

import heapq
import importlib
import math
import pickle
import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netdismantle import (
    CostMode,
    CostVector,
    DismantlingSolution,
    DismantlingTarget,
    Graph,
    Partition,
    build_operator,
    components,
    cost_of,
    dismantle,
    full_mask,
    iteration_budget,
    reinsert,
    replay_gcc_sizes,
    sign_partition,
)
from netdismantle.cover import CoverResult, prune_redundant, weighted_vertex_cover
from netdismantle.dismantle import SolutionMetadata, _find, _forest
from netdismantle.errors import (
    ComponentTooSmallError,
    DegenerateSpectrumError,
    InternalInvariantError,
    InvalidCostError,
)
from netdismantle.rng import initial_vector, mix_seed, retry_seed
from netdismantle.serialize import solution_json, trajectory_csv
from netdismantle.spectral import _UNDERFLOW, _UnderflowCollapse

from conftest import BUNDLED, heavy_tailed_graph, load_bundled, random_connected_graph, random_graph
from oracles import bfs_gcc_size, brute_force_min_dismantling, largest_component, members, subgraph, trajectory_rows
from oracles import edges as oracle_edges


def unit(g):
    return CostVector.unit(g)


def solution_of(graph, costs, order, metadata):
    """A solution that removes order, built as dismantle builds its own."""
    return DismantlingSolution(graph, order, costs.w[order], metadata)


def star(leaves):
    return Graph.from_edges([(0, i) for i in range(1, leaves + 1)])


def mask_without(graph, removed):
    mask = full_mask(graph.n)
    mask[sorted(removed)] = False
    return mask


class TestTarget:
    def test_fraction_rounds_up_with_floor_of_one(self):
        assert DismantlingTarget.from_fraction(34, 0.01).c == 1
        assert DismantlingTarget.from_fraction(300, 0.01).c == 3
        assert DismantlingTarget.from_fraction(2000, 0.01).c == 20
        assert DismantlingTarget.from_fraction(10, 1.0).c == 10

    def test_fraction_of_a_float_product_that_rounds_up(self):
        # 0.07 * 100 is 7.000000000000001 in floats; the target is 7
        assert DismantlingTarget.from_fraction(100, 0.07).c == 7
        for k in range(1, 100):
            for n in (100, 200, 300, 1_000, 3_700, 20_000):
                assert DismantlingTarget.from_fraction(n, k / 100).c == max(1, -(-k * n // 100)), (k, n)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            DismantlingTarget.from_fraction(10, 0.0)
        with pytest.raises(ValueError):
            DismantlingTarget.from_fraction(10, 1.5)

    def test_absolute(self):
        assert DismantlingTarget.absolute(5).c == 5
        with pytest.raises(ValueError):
            DismantlingTarget.absolute(0)


class TestReplay:
    def test_path_prefixes(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        after, initial = replay_gcc_sizes(g, np.array([1, 3]))
        assert initial == 4
        assert after.tolist() == [2, 1]

    def test_empty_order(self):
        g = Graph.from_edges([(0, 1)])
        after, initial = replay_gcc_sizes(g, np.empty(0, dtype=np.int64))
        assert initial == 2
        assert len(after) == 0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 50_000), n=st.integers(2, 24))
    def test_matches_direct_bfs_on_every_prefix(self, seed, n):
        g = random_graph(seed, n, 0.25)
        rng = np.random.default_rng(seed + 5)
        k = int(rng.integers(0, n + 1))
        order = rng.permutation(n)[:k]
        after, initial = replay_gcc_sizes(g, order)
        assert initial == bfs_gcc_size(g, full_mask(n))
        mask = full_mask(n)
        for i, v in enumerate(order):
            mask[v] = False
            assert after[i] == bfs_gcc_size(g, mask)


class TestDismantle:
    def test_path_then_reinsertion_leaves_middle(self):
        # the raw loop pays twice on a path: the cut {0-1} covers toward
        # the smaller id, stranding the middle for a second round; the
        # reinsertion pass returns the endpoint
        g = Graph.from_edges([(0, 1), (1, 2)])
        target = DismantlingTarget.absolute(1)
        sol = dismantle(g, unit(g), target)
        assert [v for v, _, _ in sol.removal_order] == [0, 1]
        assert sol.total_cost == 2.0
        assert sol.final_gcc == 1
        repaired = reinsert(g, unit(g), target, sol)
        assert repaired.removed == {1}
        assert repaired.total_cost == 1.0

    def test_star_takes_hub(self):
        g = star(9)
        for seed in range(3):
            sol = dismantle(g, unit(g), DismantlingTarget.absolute(2), seed=seed)
            assert sol.removed == {0}
            assert sol.removal_order == [(0, 1.0, 1)]

    def test_complete_four_c1(self):
        g = Graph.from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])
        sol = dismantle(g, unit(g), DismantlingTarget.absolute(1))
        assert sol.total_cost == 3.0
        assert sol.final_gcc == 1

    def test_already_satisfied_is_a_no_op(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        sol = dismantle(g, unit(g), DismantlingTarget.absolute(2))
        assert sol.removed == frozenset()
        assert sol.removal_order == []
        assert trajectory_rows(sol.trajectory) == [(0.0, 2)]
        assert sol.metadata.bisections == 0

    def test_two_node_component_splits_without_spectral_work(self):
        g = Graph.from_edges([(0, 1)])
        sol = dismantle(g, unit(g), DismantlingTarget.absolute(1))
        assert sol.removed == {0}
        assert sol.metadata.power_iterations == 0

    def test_deterministic_per_seed(self):
        g = random_connected_graph(7, 60)
        a = dismantle(g, unit(g), DismantlingTarget.absolute(3), seed=11)
        b = dismantle(g, unit(g), DismantlingTarget.absolute(3), seed=11)
        assert a.removal_order == b.removal_order
        assert trajectory_rows(a.trajectory) == trajectory_rows(b.trajectory)

    def test_metadata_records_the_run(self):
        g = random_connected_graph(3, 40)
        sol = dismantle(g, CostVector.degree(g), DismantlingTarget.absolute(4), seed=5)
        md = sol.metadata
        assert md.seed == 5
        assert md.cost_mode == "degree"
        assert md.target_c == 4
        assert md.initial_gcc == 40
        assert md.bisections >= 1
        assert md.power_iterations > 0
        assert set(md.phase_seconds) == {
            "components",
            "spectral",
            "operator",
            "power_iteration",
            "fine_tune",
            "cover",
            "replay",
        }

    def test_trajectory_shape_and_monotonicity(self):
        for seed in range(4):
            g = random_connected_graph(seed, 50)
            sol = dismantle(g, unit(g), DismantlingTarget.absolute(2), seed=seed)
            rows = trajectory_rows(sol.trajectory)
            assert rows[0] == (0.0, 50)
            assert len(rows) == len(sol.removal_order) + 1
            costs = [c for c, _ in rows]
            sizes = [s for _, s in rows]
            assert all(a < b for a, b in zip(costs, costs[1:]))
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            assert sizes[-1] <= 2

    def test_trajectory_is_a_float_and_an_int_array(self):
        g = random_connected_graph(6, 50)
        target = DismantlingTarget.absolute(3)
        first = dismantle(g, CostVector.degree(g), target, seed=2)
        repaired = reinsert(g, CostVector.degree(g), target, first)
        empty = dismantle(g, unit(g), DismantlingTarget.absolute(g.n))
        for sol in (first, repaired, empty):
            costs, sizes = sol.trajectory
            assert (costs.dtype, sizes.dtype) == (np.float64, np.int64)
            assert len(costs) == len(sizes) == sol.removed_count + 1

    def test_multiplier_scales_total_power_work(self):
        # per-bisection budgets scale exactly by the multiplier; bisection
        # counts may drift because better vectors cut differently, so the
        # total only has to stay within a factor of two of proportional
        g = random_connected_graph(13, 60)
        target = DismantlingTarget.absolute(3)
        a = dismantle(g, unit(g), target, seed=4, iter_multiplier=1)
        b = dismantle(g, unit(g), target, seed=4, iter_multiplier=3)
        ratio = b.metadata.power_iterations / (3 * a.metadata.power_iterations)
        assert 0.5 <= ratio <= 2.0

    def test_gcc_after_matches_direct_bfs(self):
        g = random_connected_graph(9, 45)
        sol = dismantle(g, unit(g), DismantlingTarget.absolute(3), seed=1)
        mask = full_mask(g.n)
        for v, _, gcc_after in sol.removal_order:
            mask[v] = False
            assert gcc_after == bfs_gcc_size(g, mask)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 50_000),
        n=st.integers(3, 40),
        degree_mode=st.booleans(),
        fine=st.booleans(),
    )
    def test_feasible_on_random_graphs(self, seed, n, degree_mode, fine):
        g = random_graph(seed, n, 0.15)
        costs = CostVector.degree(g) if degree_mode else unit(g)
        c = max(1, n // 8)
        sol = dismantle(
            g, costs, DismantlingTarget.absolute(c), seed=seed, fine_tuning=fine
        )
        assert sol.final_gcc <= c
        assert bfs_gcc_size(g, mask_without(g, sol.removed)) <= c

    def test_near_optimal_on_tiny_instances(self):
        # heuristic cost must never beat the exhaustive optimum
        for seed in range(12):
            g = random_graph(seed, 8, 0.35)
            costs = unit(g)
            target = DismantlingTarget.absolute(2)
            sol = reinsert(g, costs, target, dismantle(g, costs, target, seed=seed))
            best_cost, _ = brute_force_min_dismantling(g, costs, 2)
            assert sol.total_cost >= best_cost - 1e-9


class TestReinsert:
    def run(self, g, costs, c, seed=0):
        target = DismantlingTarget.absolute(c)
        before = dismantle(g, costs, target, seed=seed)
        return before, reinsert(g, costs, target, before)

    def test_never_costs_more_and_stays_feasible(self):
        for seed in range(6):
            g = random_connected_graph(seed, 55)
            before, after = self.run(g, unit(g), 3, seed)
            assert after.total_cost <= before.total_cost
            assert after.final_gcc <= 3
            assert after.removed <= before.removed

    def test_isolated_node_comes_back(self):
        # a degree-zero node always merges into a component of size one
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2)], n=5)
        metadata = SolutionMetadata(
            seed=0,
            iter_multiplier=1,
            fine_tuning=True,
            reinserted=False,
            cost_mode="unit",
            target_c=5,
            initial_gcc=3,
        )
        handmade = solution_of(g, unit(g), np.array([0, 3]), metadata)
        target = DismantlingTarget.absolute(5)
        out = reinsert(g, unit(g), target, handmade)
        assert out.removed == frozenset()

    def test_partial_reinsertion_keeps_order(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2)], n=5)
        metadata = SolutionMetadata(
            seed=0,
            iter_multiplier=1,
            fine_tuning=True,
            reinserted=False,
            cost_mode="unit",
            target_c=1,
            initial_gcc=3,
        )
        handmade = solution_of(g, unit(g), np.array([0, 1, 3]), metadata)
        out = reinsert(g, unit(g), DismantlingTarget.absolute(1), handmade)
        # node 3 returns alone; 0 and 1 would each rejoin node 2
        assert out.removed == {0, 1}
        assert [v for v, _, _ in out.removal_order] == [0, 1]
        assert out.metadata.reinserted

    def test_merge_size_tie_breaks_toward_higher_cost(self):
        # removed 3 and 4 would both merge to size 2 through the shared
        # singleton {1}; 3 carries the larger frozen degree so it returns
        # first and its return pushes 4 over the limit
        g = Graph.from_edges([(1, 3), (1, 4), (3, 5), (0, 5), (2, 5)], n=6)
        costs = CostVector.degree(g)
        metadata = SolutionMetadata(
            seed=0,
            iter_multiplier=1,
            fine_tuning=True,
            reinserted=False,
            cost_mode="degree",
            target_c=2,
            initial_gcc=6,
        )
        handmade = solution_of(g, costs, np.array([3, 4, 5]), metadata)
        out = reinsert(g, costs, DismantlingTarget.absolute(2), handmade)
        assert out.removed == {4, 5}

    def test_full_tie_breaks_toward_smaller_id(self):
        # symmetric around nodes 3 and 4: equal merge size, equal cost,
        # so the smaller id returns and blocks the other
        g = Graph.from_edges([(0, 3), (1, 3), (1, 4), (2, 4), (3, 4)], n=5)
        metadata = SolutionMetadata(
            seed=0,
            iter_multiplier=1,
            fine_tuning=True,
            reinserted=False,
            cost_mode="unit",
            target_c=3,
            initial_gcc=5,
        )
        handmade = solution_of(g, unit(g), np.array([3, 4]), metadata)
        out = reinsert(g, unit(g), DismantlingTarget.absolute(3), handmade)
        assert out.removed == {4}

    def test_still_removed_nodes_are_individually_necessary(self):
        for seed in range(5):
            g = random_connected_graph(seed + 20, 48)
            _, after = self.run(g, CostVector.degree(g), 4, seed)
            mask = mask_without(g, after.removed)
            for v in sorted(after.removed):
                mask[v] = True
                assert bfs_gcc_size(g, mask) > 4
                mask[v] = False

    def test_idempotent(self):
        g = random_connected_graph(31, 40)
        target = DismantlingTarget.absolute(3)
        once = reinsert(g, unit(g), target, dismantle(g, unit(g), target, seed=2))
        twice = reinsert(g, unit(g), target, once)
        assert once.removed == twice.removed
        assert once.total_cost == twice.total_cost


def reference_reinsert(graph, costs, target, solution):
    """The reinsert that rescanned each popped node's CSR row."""
    t0 = time.perf_counter()
    removed = sorted(solution.removed)
    base = full_mask(graph.n)
    base[removed] = False
    parent, size, _ = _forest(graph, base)
    mask = base.tolist()
    w = costs.w.tolist()

    def merged_size(v: int) -> int:
        roots = {_find(parent, u) for u in graph.neighbors(v).tolist() if mask[u]}
        return 1 + sum(size[r] for r in roots)

    def union(a: int, b: int) -> None:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]

    heap = []
    for v in removed:
        s = merged_size(v)
        if s <= target.c:
            heap.append((s, -w[v], v))
    heapq.heapify(heap)
    still_removed = set(removed)
    while heap:
        s, neg_w, v = heapq.heappop(heap)
        s_now = merged_size(v)
        if s_now > target.c:
            continue
        if s_now > s:
            heapq.heappush(heap, (s_now, neg_w, v))
            continue
        mask[v] = True
        still_removed.discard(v)
        for u in graph.neighbors(v).tolist():
            if mask[u]:
                union(v, u)
    reinsert_seconds = time.perf_counter() - t0

    order = np.array(
        [v for v in solution._order if v in still_removed], dtype=np.int64
    )
    metadata = replace(
        solution.metadata,
        reinserted=True,
        phase_seconds={**solution.metadata.phase_seconds, "reinsert": reinsert_seconds},
    )
    result = solution_of(graph, costs, order, metadata)
    if result.total_cost > solution.total_cost + 1e-9:
        raise InternalInvariantError("reinsertion increased total cost")
    if result.final_gcc > target.c:
        raise InternalInvariantError("reinsertion broke the target constraint")
    return result


def assert_same_reinsertion(graph, costs, target, solution):
    mine = reinsert(graph, costs, target, solution)
    ref = reference_reinsert(graph, costs, target, solution)
    assert mine.removal_order == ref.removal_order
    assert trajectory_rows(mine.trajectory) == trajectory_rows(ref.trajectory)
    assert mine.total_cost == ref.total_cost


class TestReinsertReference:
    """reinsert seeds its merged sizes in one pass and then keeps the
    roots around each waiting node; the old row-rescanning loop is the
    oracle."""

    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("mode", ["unit", "degree"])
    def test_bundled(self, name, mode):
        g = load_bundled(name)
        costs = CostVector.for_mode(g, mode)
        for fraction in (0.01, 0.1):
            target = DismantlingTarget.from_fraction(g.n, fraction)
            assert_same_reinsertion(g, costs, target, dismantle(g, costs, target, seed=3))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 60),
        p=st.floats(0.02, 0.3),
        share=st.floats(0.0, 1.0),
        c=st.integers(1, 12),
        degree=st.booleans(),
    )
    def test_drawn_removal_sets(self, seed, n, p, share, c, degree):
        g = random_graph(seed, n, p)
        costs = CostVector.degree(g) if degree else unit(g)
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)[: int(share * n)]
        c = max(c, bfs_gcc_size(g, mask_without(g, order.tolist())))
        metadata = SolutionMetadata(
            seed=0,
            iter_multiplier=1,
            fine_tuning=True,
            reinserted=False,
            cost_mode=costs.mode.value,
            target_c=c,
            initial_gcc=bfs_gcc_size(g, full_mask(n)),
        )
        handmade = solution_of(g, costs, order, metadata)
        assert_same_reinsertion(g, costs, DismantlingTarget.absolute(c), handmade)


class TestReinsertMemory:
    """reinsert keeps a root list only for nodes that can still return,
    and its final forest is where the replay of its result starts."""

    # tracemalloc peak of one reinsert, its replay included, per node that
    # dismantle removed, on heavy_tailed_graph(5, 30_000) with degree costs
    # (C = 300; 14,788 removed, 9,441 kept; numpy 2.4): 765 bytes while
    # every removed node kept a root list and the replay rebuilt the forest
    # from a components pass, 470 bytes with the pruned lists and the
    # forest handed over
    PEAK_BYTES_PER_REMOVED = 600

    @pytest.fixture(scope="class")
    def dismantled(self):
        g = heavy_tailed_graph(5, 30_000)
        costs = CostVector.degree(g)
        target = DismantlingTarget.from_fraction(g.n)
        return g, costs, target, dismantle(g, costs, target, seed=0)

    def test_peak_per_removed_node(self, dismantled):
        g, costs, target, first = dismantled
        # dismantle ran before tracing starts: the power iteration stays out
        tracemalloc.start()
        try:
            repaired = reinsert(g, costs, target, first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repaired.final_gcc <= target.c
        assert peak <= self.PEAK_BYTES_PER_REMOVED * first.removed_count

    def test_one_whole_graph_components_call(self, dismantled, monkeypatch):
        g, costs, target, first = dismantled
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return components(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module("netdismantle.dismantle"), "components", counted)
        repaired = reinsert(g, costs, target, first)
        repaired.removal_order, repaired.trajectory
        assert len(calls) == 1


class TestLazyReplay:
    """The removal order is replayed once, on first read, and never twice."""

    # pickle.dumps(..., protocol=4) of the sbm_600 degree-cost run at seed 5
    # (414 and 374 rows) takes 10,695 and 9,755 bytes as three arrays: 24
    # bytes per row and a header of metadata.  Rows kept as tuple lists took
    # 12,638 and 11,870.
    PICKLE_BYTES_PER_ROW = 24
    PICKLE_HEADER_BYTES = 1000

    @pytest.fixture
    def replay_calls(self, monkeypatch):
        module = importlib.import_module("netdismantle.dismantle")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return replay_gcc_sizes(*args, **kwargs)

        monkeypatch.setattr(module, "replay_gcc_sizes", counted)
        return calls

    def test_dismantle_then_reinsert_replays_once(self, replay_calls):
        g = random_connected_graph(4, 60)
        target = DismantlingTarget.absolute(4)
        sol = reinsert(g, unit(g), target, dismantle(g, unit(g), target, seed=1))
        sol.removal_order, sol.trajectory, sol.final_gcc
        assert len(replay_calls) == 1
        assert sol.metadata.phase_seconds["replay"] > 0.0

    def test_repeated_reads_replay_once(self, replay_calls):
        g = random_connected_graph(4, 60)
        sol = dismantle(g, unit(g), DismantlingTarget.absolute(4), seed=1)
        assert replay_calls == []
        assert trajectory_rows(sol.trajectory) == trajectory_rows(sol.trajectory)
        assert len(replay_calls) == 1

    def test_lazy_fields_equal_an_eager_replay(self):
        g = random_connected_graph(8, 50)
        costs = CostVector.degree(g)
        sol = dismantle(g, costs, DismantlingTarget.absolute(3), seed=2)
        order = np.array([v for v, _, _ in sol.removal_order])
        after, initial = replay_gcc_sizes(g, order)
        node_costs = costs.w[order].tolist()
        assert sol.removal_order == list(zip(order.tolist(), node_costs, after.tolist()))
        assert trajectory_rows(sol.trajectory) == list(
            zip(np.concatenate([[0.0], np.cumsum(node_costs)]).tolist(), [initial, *after.tolist()])
        )

    def test_wrong_initial_gcc_raises_on_read(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        metadata = SolutionMetadata(
            seed=0,
            iter_multiplier=1,
            fine_tuning=True,
            reinserted=False,
            cost_mode="unit",
            target_c=1,
            initial_gcc=2,
        )
        sol = solution_of(g, unit(g), np.array([1]), metadata)
        with pytest.raises(InternalInvariantError):
            sol.trajectory

    def test_pickle_holds_no_graph_and_is_no_larger(self):
        g = load_bundled("sbm_600.txt")
        costs = CostVector.degree(g)
        target = DismantlingTarget.from_fraction(g.n)
        first = dismantle(g, costs, target, seed=5)
        repaired = reinsert(g, costs, target, first)
        for sol in (first, repaired):
            data = pickle.dumps(sol, protocol=4)
            assert b"Graph" not in data
            assert len(data) <= self.PICKLE_BYTES_PER_ROW * sol.removed_count + self.PICKLE_HEADER_BYTES
            back = pickle.loads(data)
            assert back.removal_order == sol.removal_order
            assert trajectory_rows(back.trajectory) == trajectory_rows(sol.trajectory)
            assert back.removed == sol.removed
            assert back.total_cost == sol.total_cost

    def test_pickle_round_trip_keeps_views_and_reported_cost(self):
        g = load_bundled("sbm_600.txt")
        costs = CostVector.degree(g)
        target = DismantlingTarget.from_fraction(g.n)
        sol = reinsert(g, costs, target, dismantle(g, costs, target, seed=3))
        back = pickle.loads(pickle.dumps(sol))
        # the reported cost keeps its bits, and the set its insertion order
        assert cost_of(back, costs, g).hex() == cost_of(sol, costs, g).hex()
        assert list(back.removed) == list(sol.removed)
        assert back.removal_order == sol.removal_order
        assert trajectory_rows(back.trajectory) == trajectory_rows(sol.trajectory)
        assert back.final_gcc == sol.final_gcc
        assert back.removed_count == sol.removed_count == len(sol.removal_order)

    def test_views_are_built_on_read_and_not_kept(self):
        g = load_bundled("sbm_600.txt")
        costs = CostVector.degree(g)
        target = DismantlingTarget.from_fraction(g.n)
        sol = reinsert(g, costs, target, dismantle(g, costs, target, seed=5))
        solution_json(sol, cost_of(sol, costs, g))
        trajectory_csv(sol.trajectory)
        assert sol.removal_order is not sol.removal_order
        kept = {k: type(v).__name__ for k, v in vars(sol).items()
                if isinstance(v, (list, tuple, set, frozenset))}
        assert kept == {}


class TestReportedCost:
    def test_unit_mode_counts_nodes_as_int(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        target = DismantlingTarget.absolute(1)
        sol = reinsert(g, unit(g), target, dismantle(g, unit(g), target))
        value = cost_of(sol, unit(g), g)
        assert value == 1
        assert isinstance(value, int)

    def test_degree_mode_is_a_fraction_of_degree_mass(self):
        g = Graph.from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])
        costs = CostVector.degree(g)
        sol = dismantle(g, costs, DismantlingTarget.absolute(1), seed=0)
        value = cost_of(sol, costs, g)
        assert value == pytest.approx(len(sol.removed) * 3 / 12)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 80), p=st.floats(0.02, 0.3), c=st.integers(1, 12))
    def test_degree_cost_is_the_removed_mass_bit_for_bit(self, seed, n, p, c):
        g = random_graph(seed, n, p)
        assume(g.m > 0)
        costs = CostVector.degree(g)
        target = DismantlingTarget.absolute(c)
        first = dismantle(g, costs, target, seed=seed)
        for sol in (first, reinsert(g, costs, target, first)):
            expected = float(costs.w[sorted(sol.removed)].sum() / costs.total())
            assert cost_of(sol, costs, g).hex() == expected.hex()

    def test_empty_solution_costs_nothing(self):
        g = Graph.from_edges([(0, 1)])
        sol = dismantle(g, unit(g), DismantlingTarget.absolute(2))
        assert cost_of(sol, unit(g), g) == 0
        assert cost_of(sol, CostVector.degree(g), g) == 0.0


# The bisection loop as it was when every bisection made global passes:
# components over all edges, the operator and fine-tune over the global
# CSR with a mask, cut_edges over the global edge list, the cover on
# dict-keyed global ids, and the power step with a separate diagonal.
# Bodies are verbatim apart from the reference_ names.


@dataclass(frozen=True)
class ReferenceOperator:
    nodes: np.ndarray
    b: sp.csr_matrix
    weighted_degree: np.ndarray
    shift: float
    scale: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)


def reference_adjacency_flat(graph, nodes):
    starts = graph.indptr[nodes]
    counts = graph.indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    idx = np.repeat(starts - offsets, counts) + np.arange(total)
    flat_rows = np.repeat(np.arange(len(nodes)), counts)
    return flat_rows, graph.indices[idx]


def reference_build_operator(graph, mask, costs, component):
    nodes = np.asarray(component, dtype=np.int64)
    nodes = np.sort(nodes)
    k = len(nodes)
    if k < 2:
        raise ComponentTooSmallError("component too small to bisect (need >= 2 nodes)")
    active = np.asarray(mask, dtype=bool)
    if not active[nodes].all():
        raise ValueError("component contains masked-out nodes")
    w = costs.w
    if (w[nodes] < 0).any():
        raise InvalidCostError("negative cost inside component")
    if not (w[nodes] > 0).any():
        raise InvalidCostError("component has all-zero costs, edge weights vanish")
    local = np.full(graph.n, -1, dtype=np.int64)
    local[nodes] = np.arange(k)
    flat_rows, nbrs = reference_adjacency_flat(graph, nodes)
    cols = local[nbrs]
    keep = cols >= 0
    rows = flat_rows[keep]
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=k), out=indptr[1:])
    b = sp.csr_matrix((w[nodes[rows]] + w[nbrs[keep]], cols[keep], indptr), shape=(k, k))
    weighted_degree = np.asarray(b.sum(axis=1)).ravel()
    shift = 2.0 * float(weighted_degree.max())
    return ReferenceOperator(
        nodes=nodes,
        b=b,
        weighted_degree=weighted_degree,
        shift=shift,
        scale=shift - weighted_degree,
    )


def reference_power_iterate(op, x0, iterations):
    from scipy.sparse._sparsetools import csr_matvec

    b = op.b
    k = op.size
    x = x0.copy()
    y = np.empty(k)
    bx = np.empty(k)
    for _ in range(iterations):
        np.subtract(x, np.add.reduce(x) / k, out=x)
        if math.sqrt(x.dot(x)) < _UNDERFLOW:
            raise _UnderflowCollapse
        bx.fill(0.0)  # the kernel adds into its output
        csr_matvec(k, k, b.indptr, b.indices, b.data, x, bx)
        np.multiply(op.scale, x, out=y)
        np.add(y, bx, out=y)
        norm = math.sqrt(y.dot(y))
        if norm < _UNDERFLOW:
            raise _UnderflowCollapse
        np.divide(y, norm, out=x)
    x = x - x.mean()
    norm = float(np.linalg.norm(x))
    if norm < _UNDERFLOW:
        raise _UnderflowCollapse
    return x / norm


def reference_approx_fiedler(op, seed, iterations):
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    x0 = initial_vector(seed, op.size)
    try:
        values = reference_power_iterate(op, x0, iterations)
    except _UnderflowCollapse:
        x1 = initial_vector(retry_seed(seed), op.size)
        try:
            values = reference_power_iterate(op, x1, iterations)
        except _UnderflowCollapse:
            raise DegenerateSpectrumError(
                f"degenerate spectrum: power iteration collapsed twice on a "
                f"{op.size}-node component"
            ) from None
    return values


def reference_fine_tune_partition(graph, mask, component, partition, flip_log=None):
    nodes = partition.nodes
    active = np.asarray(mask, dtype=bool)
    labels = np.full(graph.n, -1, dtype=np.int8)
    labels[nodes] = partition.in_m.astype(np.int8)
    size = [int(partition.size_mbar), int(partition.size_m)]  # size[lab]
    flat_rows, flat_nbrs = reference_adjacency_flat(graph, nodes)
    valid = active[flat_nbrs]
    same = valid & (labels[flat_nbrs] == labels[nodes][flat_rows])
    active_deg = np.bincount(flat_rows[valid], minlength=len(nodes))
    same_count = np.bincount(flat_rows[same], minlength=len(nodes))
    pending = [int(v) for v in nodes[(active_deg >= 1) & (same_count == 0)]]
    changed = True
    while changed and pending:
        changed = False
        still_pending: list[int] = []
        for v in pending:
            nbrs = graph.neighbors(v)
            nbrs = nbrs[active[nbrs]]
            lab = labels[v]
            if len(nbrs) and (labels[nbrs] != lab).all():
                if size[lab] > 1:
                    labels[v] = 1 - lab
                    size[lab] -= 1
                    size[1 - lab] += 1
                    changed = True
                    if flip_log is not None:
                        flip_log.append(v)
                else:
                    still_pending.append(v)
        pending = still_pending
    return Partition(nodes=nodes, in_m=labels[nodes] == 1)


def reference_cut_edges(graph, mask, partition):
    active = np.asarray(mask, dtype=bool)
    labels = np.full(graph.n, -1, dtype=np.int8)
    labels[partition.nodes] = partition.in_m.astype(np.int8)
    e = oracle_edges(graph)
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


def reference_weighted_vertex_cover(cut, costs):
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
    return CoverResult(cover=np.array(chosen, dtype=np.int64))


def reference_prune_redundant(result, cut, costs):
    cut = np.asarray(cut, dtype=np.int64).reshape(-1, 2)
    cover = set(result.cover.tolist())
    partner: dict[int, list[int]] = {v: [] for v in cover}
    for u, v in cut.tolist():
        if u in partner:
            partner[u].append(v)
        if v in partner:
            partner[v].append(u)
    candidates = [v for v in cover if all(other in cover for other in partner[v])]
    weight = costs.w.tolist()
    for v in sorted(candidates, key=lambda x: (-weight[x], -x)):
        if all(other in cover for other in partner[v]):
            cover.discard(v)
    return CoverResult(cover=np.array(sorted(cover), dtype=np.int64))


def reference_dismantle(graph, costs, target, seed=0, iter_multiplier=1, fine_tuning=True):
    """Returns (deletion order, bisections, power iterations)."""
    costs.validate(graph)
    mask = full_mask(graph.n)
    bisections = 0
    power_iterations = 0
    decomposition = components(graph, mask)
    batches: list[np.ndarray] = []
    while decomposition.gcc_size > target.c:
        comp = members(decomposition, largest_component(decomposition))
        if len(comp) == 2:
            partition = Partition(nodes=comp, in_m=np.array([True, False]))
        else:
            operator = reference_build_operator(graph, mask, costs, comp)
            iterations = iteration_budget(len(comp), iter_multiplier)
            vector = reference_approx_fiedler(operator, mix_seed(seed, bisections), iterations)
            power_iterations += iterations
            partition = sign_partition(vector, operator.nodes)
            if fine_tuning:
                partition = reference_fine_tune_partition(graph, mask, comp, partition)
        cut = reference_cut_edges(graph, mask, partition)
        result = reference_prune_redundant(reference_weighted_vertex_cover(cut, costs), cut, costs)
        if len(result.cover) == 0:
            raise InternalInvariantError(
                "empty cover while the largest component still exceeds the target"
            )
        mask[result.cover] = False
        batches.append(result.cover)
        bisections += 1
        decomposition = components(graph, mask)
    if decomposition.gcc_size > target.c:
        raise InternalInvariantError("run ended above the target component size")
    order = np.concatenate(batches) if batches else np.empty(0, dtype=np.int64)
    return order.tolist(), bisections, power_iterations


def assert_same_run(graph, costs, target, seed, fine_tuning):
    ref = reference_dismantle(graph, costs, target, seed=seed, fine_tuning=fine_tuning)
    sol = dismantle(graph, costs, target, seed=seed, fine_tuning=fine_tuning)
    md = sol.metadata
    assert ([v for v, _, _ in sol.removal_order], md.bisections, md.power_iterations) == ref
    final = components(graph, mask_without(graph, sol.removed)).gcc_size
    assert sol.final_gcc == final <= target.c


@st.composite
def component_mixes(draw):
    """A graph made of drawn connected blocks under shuffled ids: blocks
    above and below C, a repeated size for equal-size ties, two-node
    blocks and isolated nodes (which cost 0 under degree costs)."""
    sizes = draw(st.lists(st.integers(3, 16), min_size=1, max_size=5))
    if draw(st.booleans()):
        sizes.append(sizes[0])
    sizes += [2] * draw(st.integers(0, 3)) + [1] * draw(st.integers(0, 3))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    ids = rng.permutation(sum(sizes))
    edges, start = [], 0
    for size in sizes:
        block = ids[start : start + size]
        start += size
        if size > 1:
            local = random_connected_graph(int(rng.integers(1 << 30)), size, extra=0.2)
            edges.append(block[oracle_edges(local)])
    edges = np.concatenate(edges) if edges else np.empty((0, 2), dtype=np.int64)
    return Graph.from_edges(edges, n=len(ids)), seed


class TestLoopReference:
    """The loop bisects one component's subgraph, splits only that
    component afterwards and covers on local ids; the loop that made
    global passes every bisection is the oracle."""

    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("mode", ["unit", "degree"])
    @pytest.mark.parametrize("fine", [True, False])
    def test_bundled(self, name, mode, fine):
        g = load_bundled(name)
        costs = CostVector.for_mode(g, mode)
        assert_same_run(g, costs, DismantlingTarget.from_fraction(g.n), seed=g.n, fine_tuning=fine)

    @pytest.mark.parametrize("mode", ["unit", "degree"])
    def test_heavy_tailed_graph(self, mode):
        # the first operator sorts its step rows by length
        g = heavy_tailed_graph(3, 10_000)
        costs = CostVector.for_mode(g, mode)
        assert build_operator(subgraph(g, np.arange(g.n)), costs).order is not None
        assert_same_run(g, costs, DismantlingTarget.from_fraction(g.n), seed=3, fine_tuning=True)

    @settings(max_examples=80, deadline=None)
    @given(
        mix=component_mixes(),
        c=st.integers(1, 8),
        degree=st.booleans(),
        fine=st.booleans(),
    )
    def test_drawn_component_mixes(self, mix, c, degree, fine):
        g, seed = mix
        costs = CostVector.degree(g) if degree else unit(g)
        assert_same_run(g, costs, DismantlingTarget.absolute(c), seed=seed, fine_tuning=fine)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(2, 30), zeros=st.floats(0.0, 0.5))
    def test_cover_on_drawn_cuts(self, seed, n, zeros):
        # costs with zeros, and covers that also hold nodes off the cut
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        cut = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        w = rng.integers(1, 6, size=n).astype(np.float64)
        w[rng.random(n) < zeros] = 0.0
        costs = CostVector(w=w, mode=CostMode.UNIT)
        mine = weighted_vertex_cover(cut, w)
        ref = reference_weighted_vertex_cover(cut, costs)
        assert mine.cover.tolist() == ref.cover.tolist()
        assert float(w[mine.cover].sum()) == float(w[ref.cover].sum())
        extra = np.flatnonzero(rng.random(n) < 0.3)
        for result in (mine, CoverResult(cover=np.union1d(mine.cover, extra))):
            pruned = prune_redundant(result, cut, w)
            expected = reference_prune_redundant(result, cut, costs)
            assert pruned.cover.tolist() == expected.cover.tolist()
            assert float(w[pruned.cover].sum()) == float(w[expected.cover].sum())

    def test_components_runs_once_per_dismantle(self, monkeypatch):
        module = importlib.import_module("netdismantle.dismantle")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return components(*args, **kwargs)

        monkeypatch.setattr(module, "components", counted)
        g = load_bundled("sbm_600.txt")
        sol = dismantle(g, unit(g), DismantlingTarget.from_fraction(g.n), seed=1)
        assert sol.metadata.bisections > 5
        assert len(calls) == 1
