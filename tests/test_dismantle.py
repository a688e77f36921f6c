"""Outer loop, replay bookkeeping, reinsertion, and reported cost."""

import heapq
import importlib
import pickle
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdismantle import (
    CostMode,
    CostVector,
    DismantlingSolution,
    DismantlingTarget,
    Graph,
    cost_of,
    dismantle,
    full_mask,
    reinsert,
    replay_gcc_sizes,
)
from netdismantle.dismantle import SolutionMetadata, _build_solution, _UnionFind
from netdismantle.errors import InternalInvariantError
from netdismantle.oracles import bfs_gcc_size, brute_force_min_dismantling

from conftest import BUNDLED, load_bundled, random_connected_graph, random_graph


def unit(g):
    return CostVector.unit(g)


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
        assert sol.trajectory == [(0.0, 2)]
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
        assert a.trajectory == b.trajectory

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
            assert sol.trajectory[0] == (0.0, 50)
            assert len(sol.trajectory) == len(sol.removal_order) + 1
            costs = [c for c, _ in sol.trajectory]
            sizes = [s for _, s in sol.trajectory]
            assert all(a < b for a, b in zip(costs, costs[1:]))
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            assert sizes[-1] <= 2

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
        handmade = _build_solution(g, unit(g), np.array([0, 3]), metadata)
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
        handmade = _build_solution(g, unit(g), np.array([0, 1, 3]), metadata)
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
        handmade = _build_solution(g, costs, np.array([3, 4, 5]), metadata)
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
        handmade = _build_solution(g, unit(g), np.array([3, 4]), metadata)
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
    uf, _ = _UnionFind.over_components(graph, base)
    mask = base.tolist()
    size = uf.size
    w = costs.w.tolist()

    def merged_size(v: int) -> int:
        roots = {uf.find(u) for u in graph.neighbors(v).tolist() if mask[u]}
        return 1 + sum(size[r] for r in roots)

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
                uf.union(v, u)
    reinsert_seconds = time.perf_counter() - t0

    order = np.array(
        [v for v in solution._deletion_order() if v in still_removed], dtype=np.int64
    )
    metadata = replace(
        solution.metadata,
        reinserted=True,
        phase_seconds={**solution.metadata.phase_seconds, "reinsert": reinsert_seconds},
    )
    result = _build_solution(graph, costs, order, metadata)
    if result.total_cost > solution.total_cost + 1e-9:
        raise InternalInvariantError("reinsertion increased total cost")
    if result.final_gcc > target.c:
        raise InternalInvariantError("reinsertion broke the target constraint")
    return result


def assert_same_reinsertion(graph, costs, target, solution):
    mine = reinsert(graph, costs, target, solution)
    ref = reference_reinsert(graph, costs, target, solution)
    assert mine.removal_order == ref.removal_order
    assert mine.trajectory == ref.trajectory
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
        handmade = _build_solution(g, costs, order, metadata)
        assert_same_reinsertion(g, costs, DismantlingTarget.absolute(c), handmade)


class TestLazyReplay:
    """The removal order is replayed once, on first read, and never twice."""

    # pickle.dumps(..., protocol=4) of the sbm_600 degree-cost run at seed 5
    # while dismantle still replayed eagerly: dismantle-only, reinserted
    EAGER_PICKLE_BYTES = (13644, 12770)

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
        assert sol.trajectory == sol.trajectory
        assert len(replay_calls) == 1

    def test_lazy_fields_equal_an_eager_replay(self):
        g = random_connected_graph(8, 50)
        costs = CostVector.degree(g)
        sol = dismantle(g, costs, DismantlingTarget.absolute(3), seed=2)
        order = np.array([v for v, _, _ in sol.removal_order])
        after, initial = replay_gcc_sizes(g, order)
        node_costs = costs.w[order].tolist()
        assert sol.removal_order == list(zip(order.tolist(), node_costs, after.tolist()))
        assert sol.trajectory == list(
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
        sol = _build_solution(g, unit(g), np.array([1]), metadata)
        with pytest.raises(InternalInvariantError):
            sol.trajectory

    def test_pickle_holds_no_graph_and_is_no_larger(self):
        g = load_bundled("sbm_600.txt")
        costs = CostVector.degree(g)
        target = DismantlingTarget.from_fraction(g.n)
        first = dismantle(g, costs, target, seed=5)
        repaired = reinsert(g, costs, target, first)
        for sol, eager_bytes in zip((first, repaired), self.EAGER_PICKLE_BYTES):
            data = pickle.dumps(sol, protocol=4)
            assert b"Graph" not in data and b"ndarray" not in data
            assert len(data) <= eager_bytes
            back = pickle.loads(data)
            assert back.removal_order == sol.removal_order
            assert back.trajectory == sol.trajectory
            assert back.removed == sol.removed
            assert back.total_cost == sol.total_cost


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

    def test_empty_solution_costs_nothing(self):
        g = Graph.from_edges([(0, 1)])
        sol = dismantle(g, unit(g), DismantlingTarget.absolute(2))
        assert cost_of(sol, unit(g), g) == 0
        assert cost_of(sol, CostVector.degree(g), g) == 0.0
