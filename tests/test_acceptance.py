"""Acceptance gate: ten end-to-end checks, one summary line each.

Every test records a criterion line through conftest.record_criterion; the
terminal summary block lists them all at the end of the run.  Checks that
need the optional reference datasets skip with download-free instructions
when the files are absent (see data/README.md).
"""

import time

import numpy as np
import pytest

from netdismantle import (
    CostMode,
    CostVector,
    DismantlingTarget,
    EnsembleConfig,
    Graph,
    Partition,
    approx_fiedler,
    build_operator,
    cost_of,
    cut_edges,
    dismantle,
    fine_tune_partition,
    full_mask,
    gcc_difference_histogram,
    reinsert,
    run_ensemble,
    sign_partition,
    weighted_vertex_cover,
)
from netdismantle.rng import mix_seed
from netdismantle.spectral import iteration_budget

from conftest import (
    BUNDLED,
    fiedler_test_instances,
    load_bundled,
    random_bipartite_cut,
    random_connected_graph,
    random_graph,
    record_criterion,
    reference_graph,
    reference_skip_reason,
)
from oracles import (
    bfs_gcc_size,
    brute_force_min_dismantling,
    brute_force_min_vertex_cover,
    dense_fiedler,
    largest_component,
    members,
    subgraph,
)


def mask_without(graph, removed):
    mask = full_mask(graph.n)
    if removed:
        mask[sorted(removed)] = False
    return mask


def gnm_graph(seed: int, n: int, m: int) -> Graph:
    """Uniform random graph with exactly n nodes and m distinct edges."""
    rng = np.random.default_rng(seed)
    rows: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(rows) < m:
        cand = rng.integers(0, n, size=((m - len(rows)) * 2 + 16, 2))
        for u, v in cand:
            if u == v:
                continue
            a, b = (int(u), int(v)) if u < v else (int(v), int(u))
            if (a, b) in seen:
                continue
            seen.add((a, b))
            rows.append((a, b))
            if len(rows) == m:
                break
    return Graph.from_edges(np.array(rows, dtype=np.int64), n=n)


def variant_solutions(graph, costs, target, seed, k=3):
    """The four pipeline variants: plain, reinserted, best-of-K for both."""
    plain = dismantle(graph, costs, target, seed=seed)
    repaired = reinsert(graph, costs, target, plain)
    ens = run_ensemble(
        graph, costs, target, EnsembleConfig(k=k, base_seed=seed, reinsertion=False)
    )
    ensr = run_ensemble(
        graph, costs, target, EnsembleConfig(k=k, base_seed=seed, reinsertion=True)
    )
    return {
        "plain": [plain],
        "reinserted": [repaired],
        "best_of_k": [m.solution for m in ens.members],
        "best_of_k_reinserted": [m.solution for m in ensr.members],
    }


def test_c01_feasibility_everywhere():
    violations = []
    runs = 0
    cases = [(name, load_bundled(name)) for name in BUNDLED]
    cases += [
        (f"random-{seed}", random_graph(seed, 8 + seed % 33, 0.04 + 0.02 * (seed % 8)))
        for seed in range(200)
    ]
    for name, graph in cases:
        target = DismantlingTarget.from_fraction(graph.n)
        for mode in (CostMode.UNIT, CostMode.DEGREE):
            costs = CostVector.for_mode(graph, mode)
            for variant, solutions in variant_solutions(graph, costs, target, seed=0).items():
                for solution in solutions:
                    runs += 1
                    direct = bfs_gcc_size(graph, mask_without(graph, solution.removed))
                    if solution.final_gcc > target.c or direct > target.c:
                        violations.append((name, mode.value, variant))
    ok = not violations
    record_criterion(
        1,
        "PASS" if ok else "FAIL",
        f"final gcc <= C on {runs} runs "
        f"(6 bundled + 200 random graphs, 4 variants, both cost modes)"
        + (f"; violations: {violations[:5]}" if violations else ""),
    )
    assert ok, violations


def test_c02_cover_two_approximation():
    worst = 0.0
    violations = 0
    for seed in range(100):
        cut, n = random_bipartite_cut(seed, max_endpoints=12)
        rng = np.random.default_rng(seed + 1)
        costs = CostVector(
            w=rng.integers(1, 10, size=n).astype(np.float64), mode=CostMode.UNIT
        )
        swept = float(costs.w[weighted_vertex_cover(cut, costs.w).cover].sum())
        optimum = brute_force_min_vertex_cover(cut, costs)
        worst = max(worst, swept / optimum)
        if swept > 2.0 * optimum + 1e-9:
            violations += 1
    ok = violations == 0
    record_criterion(
        2,
        "PASS" if ok else "FAIL",
        f"sweep cost <= 2x optimum on 100 random cuts; worst ratio {worst:.3f}",
    )
    assert ok


def test_c03_spectral_fidelity():
    # instances are screened on the oracle spectrum: accuracy at budget P
    # is only answerable when the per-step separation rate compounds to
    # at least 100 over P, otherwise no start vector can converge
    cosines = []
    for graph, costs, budget, seed in fiedler_test_instances(20, max_n=60):
        op = build_operator(subgraph(graph, np.arange(graph.n)), costs)
        vec = approx_fiedler(op, seed, budget)
        _, exact = dense_fiedler(graph, full_mask(graph.n), costs, np.arange(graph.n))
        cosines.append(abs(float(vec @ exact)))
    ok = min(cosines) >= 0.99
    record_criterion(
        3,
        "PASS" if ok else "FAIL",
        f"|cosine| vs dense eigenvector >= 0.99 on 20 gap-screened random "
        f"connected graphs (n 10..60, D=1); min {min(cosines):.5f}",
    )
    assert ok, cosines


def test_c04_reference_cost_bands():
    crime = reference_graph("crime")
    petster = reference_graph("petster-hamster")
    if crime is None or petster is None:
        missing = [
            name
            for name, graph in (("crime", crime), ("petster-hamster", petster))
            if graph is None
        ]
        reason = "; ".join(reference_skip_reason(name) for name in missing)
        record_criterion(4, "SKIP", reason)
        pytest.skip(reason)
    import os

    workers = min(8, os.cpu_count() or 1)
    bands = [
        ("crime", crime, CostMode.UNIT, 89.0, 109.0),
        ("petster-hamster", petster, CostMode.UNIT, 397.0, 485.0),
        ("crime", crime, CostMode.DEGREE, 0.515, 0.629),
        ("petster-hamster", petster, CostMode.DEGREE, 0.713, 0.871),
    ]
    results = []
    ok = True
    for name, graph, mode, low, high in bands:
        costs = CostVector.for_mode(graph, mode)
        target = DismantlingTarget.from_fraction(graph.n)
        report = run_ensemble(
            graph,
            costs,
            target,
            EnsembleConfig(k=1000, base_seed=0, reinsertion=True, workers=workers),
        )
        got = report.best.reported_cost
        results.append(f"{name}/{mode.value}: {got:.3f} in [{low}, {high}]")
        ok = ok and low <= got <= high
    record_criterion(4, "PASS" if ok else "FAIL", "; ".join(results))
    assert ok, results


def test_c05_ensemble_never_worse_than_single():
    failures = []
    for name in BUNDLED:
        graph = load_bundled(name)
        target = DismantlingTarget.from_fraction(graph.n)
        for mode in (CostMode.UNIT, CostMode.DEGREE):
            costs = CostVector.for_mode(graph, mode)
            for reinsertion in (False, True):
                single = dismantle(graph, costs, target, seed=0)
                if reinsertion:
                    single = reinsert(graph, costs, target, single)
                single_cost = cost_of(single, costs, graph)
                report = run_ensemble(
                    graph,
                    costs,
                    target,
                    EnsembleConfig(k=3, base_seed=0, reinsertion=reinsertion),
                )
                if report.best.reported_cost > single_cost + 1e-12:
                    failures.append((name, mode.value, reinsertion))
    ok = not failures
    record_criterion(
        5,
        "PASS" if ok else "FAIL",
        "best-of-3 cost <= single-seed cost on 6 bundled datasets x 2 cost "
        "modes x {plain, reinserted}" + (f"; failures: {failures}" if failures else ""),
    )
    assert ok, failures


def test_c06_reinsertion_properties():
    pairs = 0
    kept_nodes = 0
    for i in range(30):
        n = 10 + (i * 3) % 45
        graph = random_connected_graph(400 + i, n)
        c = max(1, n // 6)
        target = DismantlingTarget.absolute(c)
        for mode in (CostMode.UNIT, CostMode.DEGREE):
            costs = CostVector.for_mode(graph, mode)
            raw = dismantle(graph, costs, target, seed=i)
            repaired = reinsert(graph, costs, target, raw)
            pairs += 1
            assert repaired.total_cost <= raw.total_cost + 1e-9
            mask = mask_without(graph, repaired.removed)
            for v in sorted(repaired.removed):
                mask[v] = True
                assert bfs_gcc_size(graph, mask) > c, (i, mode, v)
                mask[v] = False
                kept_nodes += 1
    record_criterion(
        6,
        "PASS",
        f"cost never increased and every kept node individually necessary "
        f"({pairs} run pairs, {kept_nodes} per-node checks)",
    )


def test_c07_fine_tuning_properties():
    total_flips = 0
    for i in range(50):
        n = 6 + (i * 5) % 40
        graph = random_connected_graph(700 + i, n)
        rng = np.random.default_rng(i)
        in_m = rng.random(n) < 0.5
        if in_m.all() or not in_m.any():
            in_m[0] = not in_m[0]
        partition = Partition(nodes=np.arange(n), in_m=in_m)
        mask = full_mask(n)
        before = len(cut_edges(subgraph(graph, np.arange(n)), partition))
        flips: list[int] = []
        tuned = fine_tune_partition(subgraph(graph, np.arange(n)), partition, flip_log=flips)
        after = len(cut_edges(subgraph(graph, np.arange(n)), tuned))
        assert after <= before
        labels = partition.in_m.copy()
        current = before
        for v in flips:
            labels[v] = ~labels[v]
            stepped = len(
                cut_edges(subgraph(graph, np.arange(n)), Partition(nodes=partition.nodes, in_m=labels))
            )
            assert current - stepped == graph.degree[v], (i, v)
            current = stepped
        assert current == after
        total_flips += len(flips)

    petster = reference_graph("petster-hamster")
    if petster is None:
        subnote = "first-bisection flip check skipped (reference dataset absent)"
        sub_ok = True
    else:
        costs = CostVector.unit(petster)
        from netdismantle import components

        decomposition = components(petster, full_mask(petster.n))
        comp = members(decomposition, largest_component(decomposition))
        op = build_operator(subgraph(petster, comp), costs)
        vec = approx_fiedler(op, mix_seed(0, 0), iteration_budget(len(comp), 1))
        part = sign_partition(vec, op.nodes)
        flips = []
        fine_tune_partition(subgraph(petster, comp), part, flip_log=flips)
        sub_ok = len(flips) > 0
        subnote = f"first bisection of petster-hamster flipped {len(flips)} nodes"
    record_criterion(
        7,
        "PASS" if sub_ok else "FAIL",
        f"cut never grew and each flip cut exactly its active degree on 50 "
        f"random partitions ({total_flips} flips total); {subnote}",
    )
    assert sub_ok


def test_c08_budget_variability_sign_balance():
    petster = reference_graph("petster-hamster")
    if petster is not None:
        graphs = [("petster-hamster", petster)]
        proxy = ""
    else:
        graphs = [("karate", load_bundled("karate.txt")), ("florentine", load_bundled("florentine.txt"))]
        proxy = " (reference dataset absent; bundled stand-ins)"
    balances = []
    for name, graph in graphs:
        costs = CostVector.unit(graph)
        target = DismantlingTarget.from_fraction(graph.n)
        low = dismantle(graph, costs, target, seed=0, iter_multiplier=1)
        high = dismantle(graph, costs, target, seed=0, iter_multiplier=500)
        grid = np.unique(
            np.concatenate(
                [[c for c, _ in low.trajectory], [c for c, _ in high.trajectory]]
            )
        )
        differences = gcc_difference_histogram(low.trajectory, high.trajectory, grid).differences
        balances.append(
            f"{name}: positive {(differences > 0).mean():.3f}, zero "
            f"{(differences == 0).mean():.3f}, negative {(differences < 0).mean():.3f}"
        )
    # qualitative, recorded not hard-failed: the observed sign balance is
    # the deliverable
    record_criterion(
        8, "PASS", "D=1 vs D=500 same-seed gcc differences" + proxy + ": " + "; ".join(balances)
    )


def test_c09_runtime_budgets():
    petster = reference_graph("petster-hamster")
    if petster is None:
        petster = gnm_graph(101, 2000, 16714)
        pet_label = "2000-node/16714-edge random stand-in"
    else:
        pet_label = "petster-hamster"
    dblp = reference_graph("dblp")
    if dblp is None:
        dblp = gnm_graph(102, 12495, 49563)
        dblp_label = "12495-node/49563-edge random stand-in"
    else:
        dblp_label = "dblp"

    started = time.perf_counter()
    dismantle(petster, CostVector.unit(petster), DismantlingTarget.from_fraction(petster.n), seed=0)
    pet_seconds = time.perf_counter() - started
    started = time.perf_counter()
    dismantle(dblp, CostVector.unit(dblp), DismantlingTarget.from_fraction(dblp.n), seed=0)
    dblp_seconds = time.perf_counter() - started
    ok = pet_seconds <= 10.0 and dblp_seconds <= 120.0
    record_criterion(
        9,
        "PASS" if ok else "FAIL",
        f"single run {pet_label} {pet_seconds:.2f}s (limit 10s); "
        f"{dblp_label} {dblp_seconds:.2f}s (limit 120s)",
    )
    assert ok, (pet_seconds, dblp_seconds)


def test_c10_optimality_gap():
    single_gaps = []
    ensemble_gaps = []
    for i in range(30):
        n = 8 + i % 5
        graph = random_connected_graph(900 + i, n)
        costs = CostVector.unit(graph)
        target = DismantlingTarget.absolute(2)
        optimum, _ = brute_force_min_dismantling(graph, costs, 2)
        assert optimum > 0
        single = reinsert(graph, costs, target, dismantle(graph, costs, target, seed=i))
        single_cost = float(cost_of(single, costs, graph))
        report = run_ensemble(
            graph, costs, target, EnsembleConfig(k=50, base_seed=i, reinsertion=True)
        )
        best_cost = float(report.best.reported_cost)
        assert single_cost >= optimum - 1e-9
        assert best_cost >= optimum - 1e-9
        single_gaps.append(single_cost / optimum)
        ensemble_gaps.append(best_cost / optimum)
    mean_single = float(np.mean(single_gaps))
    mean_ensemble = float(np.mean(ensemble_gaps))
    ok = mean_ensemble <= mean_single + 1e-12
    record_criterion(
        10,
        "PASS" if ok else "FAIL",
        f"30 brute-forced instances (n 8..12, C=2): mean gap single "
        f"{mean_single:.3f}, best-of-50 {mean_ensemble:.3f}, never below optimum",
    )
    assert ok, (mean_single, mean_ensemble)
