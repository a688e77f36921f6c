"""The measured process: set up, solve for a fixed time, check every op.

run.py starts this in a fresh interpreter per run, with BLAS thread pools
pinned to one thread, so `ru_maxrss` is this run's peak and nothing else's.
It only reads the generated input; the generator ran in its own process.

An op is one solve: `dismantle` + `reinsert` + both serializers on the
single-run workloads, `run_ensemble` + serializing the best member on the
ensemble workload.  Ops repeat with the same input and seed until the
time is up, each after a timed set-up; each op's outputs are checked
outside its timed span, and every op must produce byte-identical outputs.

With --trace 1, ops alternate untraced and traced; per-layer metrics
come from the traced ones and trace.overhead_s compares the two halves.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

import netdismantle as nd
from netdismantle.serialize import solution_json, trajectory_csv

from outcheck import ReferenceGraph, check_solution
from tracer import Tracer
from workloads import WORKLOADS, Workload, reference_path, solver_seed

ROOT = Path(__file__).resolve().parent.parent

# at least this many ops (and set-ups) per run, whatever --seconds says;
# three also gives a traced run one traced and two untraced ops
MIN_OPS = 3

WORKERS = min(2, len(os.sched_getaffinity(0)))

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "members_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "worker_peak_rss_mib": "MiB",
    "reported_cost": "cost",
    "ok_ops_ratio": "ratio",
}

# per-layer metric -> span whose summed self time per op it reports
SPAN_SECONDS = {
    "graph.components_s": "components",
    "spectral.build_operator_s": "build_operator",
    "spectral.power_iteration_s": "approx_fiedler",
    "spectral.fine_tune_s": "fine_tune_partition",
    "cover.cut_edges_s": "cut_edges",
    "cover.local_ratio_s": "weighted_vertex_cover",
    "cover.prune_s": "prune_redundant",
    "dismantle.self_s": "dismantle",
    "dismantle.replay_s": "replay_gcc_sizes",
    "dismantle.reinsert_self_s": "reinsert",
    "serialize.solution_json_s": "solution_json",
    "serialize.trajectory_csv_s": "trajectory_csv",
}
SPAN_CALLS = {
    "graph.components_calls": "components",
    "dismantle.replay_calls": "replay_gcc_sizes",
}
COUNTERS = {
    "spectral.matvecs": "matvecs",
    "spectral.nnz_processed": "nnz_processed",
    "spectral.bytes_moved_computed": "bytes_moved_computed",
    "spectral.fine_tune_flips": "fine_tune_flips",
    "cover.cut_edge_count": "cut_edge_count",
    "cover.nodes_before_prune": "nodes_before_prune",
    "cover.nodes_after_prune": "nodes_after_prune",
}
# ensemble members run in pool workers, where spans are out of reach;
# their own phase timers stand in
MEMBER_PHASES = {
    "ensemble.member_components_s": "components",
    "ensemble.member_spectral_s": "spectral",
    "ensemble.member_cover_s": "cover",
    "ensemble.member_replay_s": "replay",
    "ensemble.member_reinsert_s": "reinsert",
}
PER_LAYER_UNITS = {
    "graph.parse_s": "s",
    "graph.parse_ns_per_edge": "ns",
    **{name: "s" for name in SPAN_SECONDS},
    **{name: "count" for name in SPAN_CALLS},
    **{name: "count" for name in COUNTERS},
    "spectral.bytes_moved_computed": "bytes",
    "spectral.ns_per_nnz": "ns",
    "cover.prune_keep_ratio": "ratio",
    "dismantle.bisections": "count",
    "dismantle.reinsert_yield": "ratio",
    "ensemble.member_s_median": "s",
    "ensemble.member_s_p75": "s",
    "ensemble.pool_overhead_s": "s",
    "ensemble.result_pickle_bytes": "bytes",
    "ensemble.parent_rss_growth_mib": "MiB",
    **{name: "s" for name in MEMBER_PHASES},
    "serialize.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Op:
    index: int
    traced: bool
    seconds: float = 0.0
    solver_seconds: float = 0.0  # dismantle + reinsert, or run_ensemble
    ok: bool = False
    problems: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)  # traced ops only


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _rss_mib() -> float:
    with open("/proc/self/statm") as f:
        resident_pages = int(f.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _entry_points(tracer: Tracer | None) -> SimpleNamespace:
    functions = {
        "parse_edge_list": nd.parse_edge_list,
        "dismantle": nd.dismantle,
        "reinsert": nd.reinsert,
        "run_ensemble": nd.run_ensemble,
        "solution_json": solution_json,
        "trajectory_csv": trajectory_csv,
    }
    if tracer is not None:
        functions = {name: tracer.wrap(name, fn) for name, fn in functions.items()}
    return SimpleNamespace(**functions)


def _setup(workload: Workload, path: Path, fns: SimpleNamespace):
    """What the CLI does before solving."""
    graph = fns.parse_edge_list(path.read_text())
    costs = nd.CostVector.for_mode(graph, workload.cost)
    target = nd.DismantlingTarget.from_fraction(graph.n, workload.target_fraction)
    return graph, costs, target


def _solve(workload, graph, costs, target, seed, fns, op: Op) -> SimpleNamespace:
    started = time.perf_counter()
    if workload.ensemble_k:
        rss_before = _rss_mib()
        config = nd.EnsembleConfig(k=workload.ensemble_k, base_seed=seed, workers=WORKERS)
        report = fns.run_ensemble(graph, costs, target, config)
        op.solver_seconds = time.perf_counter() - started
        rss_growth = _rss_mib() - rss_before
        solution, cost = report.best.solution, report.best.reported_cost
        first = None
    else:
        first = fns.dismantle(graph, costs, target, seed=seed)
        solution = fns.reinsert(graph, costs, target, first)
        op.solver_seconds = time.perf_counter() - started
        cost = nd.cost_of(solution, costs, graph)
        report = rss_growth = None
    sj = fns.solution_json(solution, cost)
    tc = fns.trajectory_csv(solution.trajectory)
    op.seconds = time.perf_counter() - started
    return SimpleNamespace(
        solution=solution, first=first, cost=cost, sj=sj, tc=tc, report=report, rss_growth=rss_growth
    )


def _ensemble_layer(out: SimpleNamespace, op: Op) -> dict[str, float]:
    members = out.report.members
    seconds = [m.seconds for m in members]
    quartiles = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds * 3
    layer = {
        "ensemble.member_s_median": statistics.median(seconds),
        "ensemble.member_s_p75": quartiles[2],
        "ensemble.pool_overhead_s": op.solver_seconds - sum(seconds) / WORKERS,
        "ensemble.result_pickle_bytes": statistics.median(len(pickle.dumps(m)) for m in members),
        "ensemble.parent_rss_growth_mib": out.rss_growth,
    }
    for name, phase in MEMBER_PHASES.items():
        layer[name] = statistics.median(m.solution.metadata.phase_seconds.get(phase, 0.0) for m in members)
    return layer


def _op_layer(tracer: Tracer, label: str, out: SimpleNamespace, op: Op) -> dict[str, float]:
    """Per-layer numbers of one traced op."""
    self_s = tracer.self_times(label)
    calls = tracer.calls(label)
    counters = tracer.counters[label]
    layer = {name: 0.0 for name in PER_LAYER_UNITS}
    layer.update({name: self_s.get(span, 0.0) for name, span in SPAN_SECONDS.items()})
    layer.update({name: float(calls.get(span, 0)) for name, span in SPAN_CALLS.items()})
    layer.update({name: float(counters.get(key, 0)) for name, key in COUNTERS.items()})
    layer["spectral.ns_per_nnz"] = 1e9 * _ratio(
        layer["spectral.power_iteration_s"], layer["spectral.nnz_processed"]
    )
    layer["cover.prune_keep_ratio"] = _ratio(
        layer["cover.nodes_after_prune"], layer["cover.nodes_before_prune"]
    )
    layer["serialize.output_bytes"] = float(len(out.sj.encode()) + len(out.tc.encode()))
    if out.first is not None:
        layer["dismantle.bisections"] = float(out.first.metadata.bisections)
        layer["dismantle.reinsert_yield"] = _ratio(
            len(out.first.removed) - len(out.solution.removed), len(out.first.removed)
        )
    if out.report is not None:
        layer.update(_ensemble_layer(out, op))
    return layer


def _ensemble_problems(report) -> list[str]:
    best = report.best.reported_cost
    cheapest = min(m.reported_cost for m in report.members)
    return [] if best == cheapest else [f"best cost {best} != cheapest member {cheapest}"]


def _environment() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "cpu_model": cpu,
        "l3_cache": l3.read_text().strip() if l3.exists() else None,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def run(workload: Workload, path: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result with its full record."""
    tracer = Tracer() if trace else None
    fns = _entry_points(None)
    traced_fns = _entry_points(tracer) if tracer else None
    ref = ReferenceGraph(np.load(reference_path(path)))
    base_seed = solver_seed(seed)

    setup_seconds = []
    parse_seconds = []
    ops: list[Op] = []
    digests = set()
    cost_seen = None
    deadline = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        # a fresh set-up before every op, so set-up is sampled over the
        # same stretch of time as the solves; the old graph goes first
        graph = costs = target = None
        label = f"setup-{len(setup_seconds)}"
        if tracer:
            tracer.op = label
        started = time.perf_counter()
        graph, costs, target = _setup(workload, path, traced_fns or fns)
        setup_seconds.append(time.perf_counter() - started)
        if tracer:
            parse_seconds.append(tracer.self_times(label)["parse_edge_list"])

        op = Op(index=len(ops), traced=trace and len(ops) % 2 == 1)
        ops.append(op)
        label = f"op-{op.index}"
        gc.collect()
        try:
            if op.traced:
                tracer.op = label
                tracer.install()
            try:
                out = _solve(workload, graph, costs, target, base_seed, traced_fns if op.traced else fns, op)
            finally:
                if op.traced:
                    tracer.uninstall()
        except Exception:  # a failed op is counted, and the run goes on
            op.problems.append(traceback.format_exc())
            continue
        op.problems += check_solution(
            ref, graph.labels, out.solution.removed, out.sj, out.tc, target.c, workload.cost
        )
        if out.report is not None:
            op.problems += _ensemble_problems(out.report)
        digests.add((_sha256(out.sj), _sha256(out.tc), out.cost))
        if len(digests) > 1:
            op.problems.append("outputs differ from an earlier op with the same input and seed")
        op.ok = not op.problems
        cost_seen = out.cost
        if op.traced:
            op.layer = _op_layer(tracer, label, out, op)
        del out

    good = [op for op in ops if op.ok]
    failed = len(ops) - len(good)
    record = {
        "workload": workload.name,
        "seed": seed,
        "solver_seed": base_seed,
        "graph": graph.stats(),
        "target_c": target.c,
        "setup_seconds": setup_seconds,
        "ops": [
            {"seconds": op.seconds, "solver_seconds": op.solver_seconds, "traced": op.traced,
             "ok": op.ok, "problems": op.problems}
            for op in ops
        ],
        "outputs": [
            {"solution_json_sha256": a, "trajectory_csv_sha256": b, "reported_cost": c}
            for a, b, c in sorted(digests)
        ],
        "environment": _environment(),
    }

    if not trace:
        times = [op.seconds for op in good] or [0.0]
        solver_times = [op.solver_seconds for op in good] or [0.0]
        self_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        children_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        pooled = workload.ensemble_k and WORKERS > 1
        values = {
            "setup_s": statistics.median(setup_seconds),
            "solve_s": statistics.median(times),
            "members_per_s": _ratio(max(workload.ensemble_k, 1), statistics.median(solver_times)),
            "peak_rss_mib": self_peak,
            "worker_peak_rss_mib": children_peak if pooled else self_peak,
            "reported_cost": float(cost_seen or 0.0),
            "ok_ops_ratio": len(good) / len(ops),
        }
        record["solve_s_samples"] = len(good)
        metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
    else:
        traced = [op for op in good if op.traced]
        untraced = [op for op in good if not op.traced]
        values = {
            name: statistics.median(op.layer[name] for op in traced) if traced else 0.0
            for name in PER_LAYER_UNITS
        }
        values["graph.parse_s"] = statistics.median(parse_seconds)
        values["graph.parse_ns_per_edge"] = 1e9 * values["graph.parse_s"] / graph.m
        if traced and untraced:
            values["trace.overhead_s"] = statistics.median(op.seconds for op in traced) - statistics.median(
                op.seconds for op in untraced
            )
        record["absent_layers"] = sorted(tracer.absent)
        # every op's time is covered by top-level spans, so this gap is
        # what the tracer's own bookkeeping and the glue between calls cost
        record["traced_ops"] = [
            {"seconds": op.seconds, "self_seconds_sum": sum(tracer.self_times(f"op-{op.index}").values())}
            for op in traced
        ]
        metrics = {k: {"value": float(values[k]), "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}
        tracer.write(ROOT / ".bench_results" / f"{workload.name}-seed{seed}-spans.jsonl")

    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.input, args.seed, args.seconds, bool(args.trace))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
