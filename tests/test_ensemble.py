"""Ensemble runs, best-member selection, and trajectory comparison."""

import gc
import tracemalloc
from concurrent.futures import Future
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from netdismantle import (
    CostVector,
    DismantlingTarget,
    EnsembleConfig,
    EnsembleReport,
    Graph,
    cost_of,
    dismantle,
    gcc_difference_histogram,
    reinsert,
    run_ensemble,
    run_variability,
)
from netdismantle import ensemble
from netdismantle.ensemble import MemberResult, _best_index
from netdismantle.errors import EnsembleMemberError
from netdismantle.rng import MASK64

from conftest import load_bundled, random_connected_graph
from oracles import trajectory_arrays, trajectory_rows


def fake_member(index, cost, gcc):
    return MemberResult(
        index=index, seed=index, reported_cost=cost, final_gcc=gcc, solution=None
    )


class TestSelectBest:
    def test_cost_then_gcc_then_index(self):
        members = [
            fake_member(0, 5.0, 4),
            fake_member(1, 3.0, 6),
            fake_member(2, 3.0, 2),
        ]
        assert _best_index(members) == 2

    def test_single_member(self):
        assert _best_index([fake_member(0, 7.0, 3)]) == 0

    def test_full_tie_keeps_earliest(self):
        members = [fake_member(0, 1.0, 1), fake_member(1, 1.0, 1)]
        assert _best_index(members) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _best_index([])


class TestRunEnsemble:
    def setup_method(self):
        self.graph = random_connected_graph(5, 40)
        self.costs = CostVector.unit(self.graph)
        self.target = DismantlingTarget.absolute(3)

    def test_k1_equals_single_run(self):
        config = EnsembleConfig(k=1, base_seed=9)
        report = run_ensemble(self.graph, self.costs, self.target, config)
        lone = reinsert(
            self.graph,
            self.costs,
            self.target,
            dismantle(self.graph, self.costs, self.target, seed=9),
        )
        assert len(report.members) == 1
        assert report.members[0].seed == 9
        assert report.best.solution.removal_order == lone.removal_order
        assert report.members[0].reported_cost == cost_of(lone, self.costs, self.graph)

    def test_member_seeds_are_consecutive(self):
        config = EnsembleConfig(k=4, base_seed=100)
        report = run_ensemble(self.graph, self.costs, self.target, config)
        assert [m.seed for m in report.members] == [100, 101, 102, 103]
        assert [m.index for m in report.members] == [0, 1, 2, 3]

    def test_best_cost_never_worse_with_more_members(self):
        costs_by_k = []
        for k in (1, 3, 6):
            report = run_ensemble(
                self.graph, self.costs, self.target, EnsembleConfig(k=k, base_seed=0)
            )
            costs_by_k.append(report.best.reported_cost)
        assert costs_by_k[0] >= costs_by_k[1] >= costs_by_k[2]

    def test_parallel_equals_serial(self):
        serial = run_ensemble(
            self.graph, self.costs, self.target, EnsembleConfig(k=4, base_seed=3)
        )
        parallel = run_ensemble(
            self.graph,
            self.costs,
            self.target,
            EnsembleConfig(k=4, base_seed=3, workers=2),
        )
        for a, b in zip(serial.members, parallel.members):
            assert a.seed == b.seed
            assert a.reported_cost == b.reported_cost
            assert a.solution.removal_order == b.solution.removal_order

    def test_pool_never_outnumbers_members(self, monkeypatch):
        sizes = []

        class InlinePool:
            """Records the pool size and runs each task in this process."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(ensemble, "_WORKER_CTX", None)
        serial = run_ensemble(self.graph, self.costs, self.target, EnsembleConfig(k=2))
        pooled = run_ensemble(
            self.graph, self.costs, self.target, EnsembleConfig(k=2, workers=64)
        )
        assert sizes == [2]
        assert [m.reported_cost for m in pooled.members] == [
            m.reported_cost for m in serial.members
        ]
        run_ensemble(self.graph, self.costs, self.target, EnsembleConfig(k=1, workers=8))
        assert sizes == [2]

    def test_pool_bounded_by_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert ensemble._pool_size(500, 1000) == 3
        assert ensemble._pool_size(2, 1000) == 2
        assert ensemble._pool_size(500, 1) == 1

    def test_pool_without_sched_getaffinity(self, monkeypatch):
        # os.sched_getaffinity exists only on Linux; elsewhere the CPU
        # count bounds the pool
        monkeypatch.delattr(ensemble.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 3)
        assert ensemble._pool_size(500, 1000) == 3
        serial = run_ensemble(self.graph, self.costs, self.target, EnsembleConfig(k=2, base_seed=3))
        pooled = run_ensemble(self.graph, self.costs, self.target, EnsembleConfig(k=2, base_seed=3, workers=2))
        assert [m.solution.removal_order for m in pooled.members] == [
            m.solution.removal_order for m in serial.members
        ]
        # cpu_count may not know either
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: None)
        assert ensemble._pool_size(500, 1000) == 1

    def test_members_record_their_multiplier(self):
        config = EnsembleConfig(k=2, iter_multiplier=3)
        report = run_ensemble(self.graph, self.costs, self.target, config)
        assert [m.multiplier for m in report.members] == [3, 3]
        lone = dismantle(self.graph, self.costs, self.target, seed=1, iter_multiplier=3)
        lone = reinsert(self.graph, self.costs, self.target, lone)
        assert report.members[1].solution.removal_order == lone.removal_order

    def test_cost_summary_spread(self):
        report = EnsembleReport(config=EnsembleConfig(k=3))
        report.members = [
            fake_member(0, 4.0, 1),
            fake_member(1, 9.0, 1),
            fake_member(2, 2.0, 1),
        ]
        assert report.cost_summary() == {"min": 2.0, "median": 4.0, "max": 9.0}

    def test_member_failure_is_wrapped_with_index(self):
        bad = Graph.from_edges([(0, 1)], n=3)
        costs = CostVector(w=np.ones(2), mode=self.costs.mode)  # wrong length
        with pytest.raises(EnsembleMemberError) as excinfo:
            run_ensemble(bad, costs, self.target, EnsembleConfig(k=2, base_seed=MASK64))
        assert excinfo.value.member_index == 0
        assert excinfo.value.seed == MASK64
        assert f"(seed {MASK64})" in str(excinfo.value)

    def test_member_timings_recorded(self):
        report = run_ensemble(
            self.graph, self.costs, self.target, EnsembleConfig(k=2)
        )
        assert all(m.seconds >= 0.0 for m in report.members)

    def test_reinsertion_toggle_respected(self):
        with_r = run_ensemble(
            self.graph, self.costs, self.target, EnsembleConfig(k=2, reinsertion=True)
        )
        without = run_ensemble(
            self.graph, self.costs, self.target, EnsembleConfig(k=2, reinsertion=False)
        )
        for a, b in zip(with_r.members, without.members):
            assert a.solution.metadata.reinserted
            assert not b.solution.metadata.reinserted
            assert a.reported_cost <= b.reported_cost

    # a removal row is three 8-byte array entries; tuple rows and a kept
    # frozenset took about 360 bytes
    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_retains_few_bytes_per_removal(self, workers):
        g = load_bundled("sbm_600.txt")
        costs = CostVector.degree(g)
        target = DismantlingTarget.from_fraction(g.n)
        config = EnsembleConfig(k=8, base_seed=0, workers=workers)
        tracemalloc.start()
        try:
            report = run_ensemble(g, costs, target, config)
            rows = sum(m.solution.removed_count for m in report.members)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del report
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rows > 0
        assert held / rows <= 96

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(k=0)
        with pytest.raises(ValueError):
            EnsembleConfig(workers=0)
        with pytest.raises(ValueError):
            EnsembleConfig(iter_multiplier=0)


class TestVariabilityStudy:
    def setup_method(self):
        self.graph = random_connected_graph(5, 40)
        self.costs = CostVector.unit(self.graph)
        self.target = DismantlingTarget.absolute(3)

    def test_seeds_match_one_ensemble_per_multiplier(self):
        config = EnsembleConfig(k=3, base_seed=4)
        handed = []
        summary, settling, rows = run_variability(
            self.graph, self.costs, self.target, config, [1, 5], lambda *seed: handed.append(seed)
        )
        ensembles = {
            d: run_ensemble(self.graph, self.costs, self.target, EnsembleConfig(k=3, base_seed=4, iter_multiplier=d))
            for d in (1, 5)
        }
        assert [(m.index, m.multiplier) for members, _, _ in handed for m in members] == [
            (i, d) for i in range(3) for d in (1, 5)
        ]
        for members, trajectories, histograms in handed:
            low, high = (ensembles[d].members[members[0].index] for d in (1, 5))
            curves = [trajectory_rows(t) for t in trajectories]
            assert curves == [trajectory_rows(low.solution.trajectory), trajectory_rows(high.solution.trajectory)]
            grid = np.unique([c for c, _ in curves[0] + curves[1]])
            expected = gcc_difference_histogram(trajectories[0], trajectories[1], grid)
            assert len(histograms) == 1
            assert histograms[0].differences.tolist() == expected.differences.tolist()
        assert all(row.solution is None for row in rows)
        assert [(r.index, r.seed, r.multiplier, r.reported_cost) for r in rows] == [
            (i, 4 + i, d, ensembles[d].members[i].reported_cost) for i in range(3) for d in (1, 5)
        ]
        for row, d in zip(summary["per_multiplier"], (1, 5)):
            costs = [m.reported_cost for m in ensembles[d].members]
            assert (row["multiplier"], row["mean_cost"]) == (d, float(np.mean(costs)))
        assert summary["comparisons"][0]["grid_points"] == sum(len(h[0].differences) for _, _, h in handed)
        for d in (1, 5):
            trajectories = [trajectory_rows(m.solution.trajectory) for m in ensembles[d].members]
            same = all(t == trajectories[0] for t in trajectories)
            assert settling["settled_by_multiplier"][str(d)] == same

    def test_settling_threshold_needs_every_larger_multiplier_settled(self, monkeypatch):
        # a fake trajectory per (seed, multiplier): seeds agree only at D=2 and D=4
        def fake_member(graph, costs, target, config, index, multiplier):
            curve = trajectory_arrays([(0.0, 40), (1.0, 3 if multiplier in (2, 4) else 3 + index)])
            solution = SimpleNamespace(trajectory=curve)
            return MemberResult(index, index, 1.0, 3, solution, multiplier=multiplier)

        monkeypatch.setattr(ensemble, "_run_member", fake_member)
        config = EnsembleConfig(k=3)
        run = partial(run_variability, self.graph, self.costs, self.target, config, on_seed=lambda *seed: None)
        _, settling, _ = run([1, 2, 3, 4])
        assert settling == {
            "settled_by_multiplier": {"1": False, "2": True, "3": False, "4": True},
            "settling_threshold": 4,
        }
        assert run([1, 3])[1]["settling_threshold"] is None
        assert run([2])[1]["settling_threshold"] == 2

    @pytest.mark.parametrize("multipliers", [[], [2, 1], [1, 1]])
    def test_multipliers_must_ascend(self, multipliers):
        with pytest.raises(ValueError, match="ascending"):
            run_variability(
                self.graph, self.costs, self.target, EnsembleConfig(k=1), multipliers, lambda *seed: None
            )

    def test_member_failure_names_its_multiplier(self):
        bad = Graph.from_edges([(0, 1)], n=3)
        costs = CostVector(w=np.ones(2), mode=self.costs.mode)  # wrong length
        with pytest.raises(EnsembleMemberError) as excinfo:
            run_variability(bad, costs, self.target, EnsembleConfig(k=2, base_seed=7), [3, 5], lambda *seed: None)
        assert (excinfo.value.member_index, excinfo.value.seed, excinfo.value.multiplier) == (0, 7, 3)
        assert "ensemble member 0 (seed 7) at multiplier 3 failed: " in str(excinfo.value)

    # The study keeps one small row per member and drops each seed's
    # members once it has handed them over, so its peak at K=8 exceeds
    # its peak after the first 4 seeds by less than one seed's members.
    # With two workers, up to three finished members can wait unread in
    # the pool's four submitted tasks, so the bound is two seeds' members.
    # gc.collect() at each seed clears the interpreter's free lists, whose
    # filling would otherwise read as growth.  The pool's processes run
    # untraced: only the parent's memory is measured.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_flat_in_members(self, workers, monkeypatch):
        g = load_bundled("sbm_600.txt")
        costs = CostVector.unit(g)
        # C = 60 keeps the bisections, which tracemalloc slows, few
        target = DismantlingTarget.from_fraction(g.n, 0.1)
        init = ensemble._init_worker

        def untraced_worker(*args):
            tracemalloc.stop()
            init(*args)

        monkeypatch.setattr(ensemble, "_init_worker", untraced_worker)
        peaks = []

        def on_seed(*seed):
            gc.collect()
            peaks.append(tracemalloc.get_traced_memory()[1])

        tracemalloc.start()
        try:
            seed = list(ensemble._members(g, costs, target, EnsembleConfig(k=1), [1, 2]))
            gc.collect()
            seed_bytes = tracemalloc.get_traced_memory()[0]
            del seed
            gc.collect()
            seed_bytes -= tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_variability(g, costs, target, EnsembleConfig(k=8, workers=workers), [1, 2], on_seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(peaks) == 8
        assert peak - peaks[3] <= workers * seed_bytes


class TestDifferenceHistogram:
    def test_identical_curves_are_all_zero(self):
        curve = trajectory_arrays([(0.0, 10), (1.0, 6), (2.0, 3)])
        hist = gcc_difference_histogram(curve, curve, np.array([0.0, 0.5, 1.0, 2.0]))
        assert float((hist.differences == 0).mean()) == 1.0
        assert hist.values.tolist() == [0]
        assert hist.counts.tolist() == [4]

    def test_uniform_offset_lands_in_one_bin(self):
        a = trajectory_arrays([(0.0, 20), (1.0, 15)])
        b = trajectory_arrays([(0.0, 10), (1.0, 5)])
        hist = gcc_difference_histogram(a, b, np.array([0.0, 0.5, 1.0]))
        assert hist.values.tolist() == [10]
        assert hist.counts.tolist() == [3]
        assert float((hist.differences > 0).mean()) == 1.0
        assert float((hist.differences < 0).mean()) == 0.0

    def test_step_semantics_right_continuous(self):
        # between removals the curve holds the last gcc; exactly at a
        # removal's cumulative cost the new gcc applies
        a = trajectory_arrays([(0.0, 10), (2.0, 4)])
        b = trajectory_arrays([(0.0, 10), (1.0, 4)])
        hist = gcc_difference_histogram(a, b, np.array([0.5, 1.0, 1.5, 2.0]))
        assert hist.differences.tolist() == [0, 6, 6, 0]

    def test_grid_below_start_rejected(self):
        a = trajectory_arrays([(0.0, 10)])
        b = trajectory_arrays([(1.0, 10)])
        with pytest.raises(ValueError, match="below the trajectory start"):
            gcc_difference_histogram(a, b, np.array([0.5]))

    def test_unsorted_trajectory_rejected(self):
        bad = trajectory_arrays([(0.0, 10), (2.0, 8), (1.0, 6)])
        good = trajectory_arrays([(0.0, 10)])
        with pytest.raises(ValueError, match="non-decreasing"):
            gcc_difference_histogram(bad, good, np.array([0.0]))

    def test_mismatched_array_lengths_rejected(self):
        costs, gccs = trajectory_arrays([(0.0, 10), (1.0, 6)])
        good = trajectory_arrays([(0.0, 10)])
        with pytest.raises(ValueError, match="differ in length"):
            gcc_difference_histogram((costs, gccs[:1]), good, np.array([0.0]))

    def test_empty_grid_rejected(self):
        curve = trajectory_arrays([(0.0, 5)])
        with pytest.raises(ValueError, match="nonempty"):
            gcc_difference_histogram(curve, curve, np.array([]))

    def test_real_runs_compare_cleanly(self):
        g = random_connected_graph(2, 50)
        costs = CostVector.degree(g)
        target = DismantlingTarget.absolute(3)
        sol_a = dismantle(g, costs, target, seed=0)
        sol_b = dismantle(g, costs, target, seed=1)
        top = min(trajectory_rows(sol_a.trajectory)[-1][0], trajectory_rows(sol_b.trajectory)[-1][0])
        grid = np.linspace(0.0, top, 32)
        hist = gcc_difference_histogram(sol_a.trajectory, sol_b.trajectory, grid)
        d = hist.differences
        fractions = float((d > 0).mean()) + float((d < 0).mean()) + float((d == 0).mean())
        assert fractions == pytest.approx(1.0)
        assert hist.differences.shape == (32,)
