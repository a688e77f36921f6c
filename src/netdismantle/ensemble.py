"""Best-of-K ensembles and budget-variability studies over seeded runs.

The spectral run is cheap and its quality varies a lot with the start
vector, so running K seeds and keeping the cheapest beats spending the
same budget on longer power iteration for one seed.  A member is (index,
seed, multiplier): it runs seed base_seed + index with the power
iteration budget scaled by the multiplier.  An ensemble runs its K
members at one multiplier; a variability study runs the same K seeds at
several.  Results are identical whatever the worker count, because
members never share state.
"""

from __future__ import annotations

import os
import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from itertools import islice, product

import numpy as np

from .costs import CostVector
from .dismantle import DismantlingSolution, DismantlingTarget, cost_of, dismantle, reinsert
from .errors import EnsembleMemberError
from .graph import Graph
from .rng import MASK64


@dataclass(frozen=True)
class EnsembleConfig:
    k: int = 1000
    base_seed: int = 0
    iter_multiplier: int = 1
    reinsertion: bool = True
    fine_tuning: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("ensemble needs at least one member")
        if self.iter_multiplier < 1:
            raise ValueError("iter_multiplier must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True, slots=True)
class MemberResult:
    """One member's run.  solution is None in the member rows of a
    variability study, which keeps the other fields only."""

    index: int
    seed: int
    reported_cost: float
    final_gcc: int
    solution: DismantlingSolution | None
    seconds: float = 0.0
    multiplier: int = 1


@dataclass
class EnsembleReport:
    config: EnsembleConfig
    members: list[MemberResult] = field(default_factory=list)

    @property
    def best_index(self) -> int:
        return _best_index(self.members)

    @property
    def best(self) -> MemberResult:
        return self.members[self.best_index]

    def cost_summary(self) -> dict:
        """Descriptive spread of per-member costs (min, median, max)."""
        costs = np.array([m.reported_cost for m in self.members], dtype=np.float64)
        return {
            "min": float(costs.min()),
            "median": float(np.median(costs)),
            "max": float(costs.max()),
        }


def _best_index(members: list[MemberResult]) -> int:
    if not members:
        raise ValueError("empty ensemble")
    best = 0
    for i in range(1, len(members)):
        a, b = members[i], members[best]
        if (a.reported_cost, a.final_gcc, a.index) < (b.reported_cost, b.final_gcc, b.index):
            best = i
    return best


# worker processes get the shared inputs once via the initializer instead
# of per task
_WORKER_CTX: tuple | None = None


def _init_worker(graph, costs, target, config):
    global _WORKER_CTX
    _WORKER_CTX = (graph, costs, target, config)


def _run_member_in_worker(index: int, multiplier: int) -> MemberResult:
    graph, costs, target, config = _WORKER_CTX
    return _run_member(graph, costs, target, config, index, multiplier)


def _member_seed(config: EnsembleConfig, index: int) -> int:
    return (config.base_seed + index) & MASK64


def _run_member(
    graph: Graph,
    costs: CostVector,
    target: DismantlingTarget,
    config: EnsembleConfig,
    index: int,
    multiplier: int,
) -> MemberResult:
    seed = _member_seed(config, index)
    started = time.perf_counter()
    solution = dismantle(
        graph,
        costs,
        target,
        seed=seed,
        iter_multiplier=multiplier,
        fine_tuning=config.fine_tuning,
    )
    if config.reinsertion:
        solution = reinsert(graph, costs, target, solution)
    return MemberResult(
        index=index,
        seed=seed,
        reported_cost=cost_of(solution, costs, graph),
        final_gcc=solution.final_gcc,
        solution=solution,
        seconds=time.perf_counter() - started,
        multiplier=multiplier,
    )


def _pool_size(workers: int, tasks: int) -> int:
    """Processes worth starting: no more than the tasks, nor than the CPUs
    this process may run on (all of them where the platform cannot say),
    since results do not depend on the count."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(workers, tasks, cpus)


def _members(
    graph: Graph,
    costs: CostVector,
    target: DismantlingTarget,
    config: EnsembleConfig,
    multipliers: Sequence[int],
) -> Iterator[MemberResult]:
    """Run each of the K seeds at every multiplier (config.iter_multiplier
    is not read) and yield the members in (index, multiplier) order.

    One worker runs them in this process.  More share one pool over the
    whole grid, which holds at most two tasks per worker submitted and
    unread, so the parent keeps a bounded number of futures whatever K is.
    A member's failure ends the run as EnsembleMemberError.
    """
    workers = _pool_size(config.workers, config.k * len(multipliers))
    unsubmitted = product(range(config.k), multipliers)
    with ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(
                ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_worker,
                    initargs=(graph, costs, target, config),
                )
            )
            submitted: deque = deque()
        for index, multiplier in product(range(config.k), multipliers):
            try:
                if workers == 1:
                    member = _run_member(graph, costs, target, config, index, multiplier)
                else:
                    for task in islice(unsubmitted, 2 * workers - len(submitted)):
                        submitted.append(pool.submit(_run_member_in_worker, *task))
                    member = submitted.popleft().result()
            except Exception as exc:
                raise EnsembleMemberError(index, _member_seed(config, index), multiplier, exc) from exc
            yield member


def run_ensemble(
    graph: Graph,
    costs: CostVector,
    target: DismantlingTarget,
    config: EnsembleConfig,
) -> EnsembleReport:
    """Run all K members and collect their results in index order."""
    members = list(_members(graph, costs, target, config, (config.iter_multiplier,)))
    return EnsembleReport(config=config, members=members)


@dataclass(frozen=True)
class DifferenceHistogram:
    """Distribution of gcc(curve_a) - gcc(curve_b) sampled on a cost grid:
    the difference at each grid point, and each distinct difference
    (ascending) with its count."""

    differences: np.ndarray
    values: np.ndarray
    counts: np.ndarray


def _step_interpolate(trajectory: list[tuple[float, int]], grid: np.ndarray) -> np.ndarray:
    """Right-continuous step value of a trajectory at each grid point:
    the gcc after the last removal whose cumulative cost is <= the point."""
    if not trajectory:
        raise ValueError("empty trajectory")
    costs = np.array([c for c, _ in trajectory], dtype=np.float64)
    gccs = np.array([g for _, g in trajectory], dtype=np.int64)
    if (np.diff(costs) < 0).any():
        raise ValueError("trajectory costs must be non-decreasing")
    idx = np.searchsorted(costs, grid, side="right") - 1
    if (idx < 0).any():
        raise ValueError("grid extends below the trajectory start")
    return gccs[idx]


def gcc_difference_histogram(
    curve_a: list[tuple[float, int]],
    curve_b: list[tuple[float, int]],
    cost_grid: np.ndarray,
) -> DifferenceHistogram:
    """Histogram of pointwise gcc differences between two removal curves.

    Positive entries mean curve_b kept the giant component smaller than
    curve_a at that spend level.
    """
    grid = np.asarray(cost_grid, dtype=np.float64)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("cost grid must be a nonempty 1-d array")
    a = _step_interpolate(curve_a, grid)
    b = _step_interpolate(curve_b, grid)
    differences = a - b
    values, counts = np.unique(differences, return_counts=True)
    return DifferenceHistogram(differences=differences, values=values, counts=counts)


def run_variability(
    graph: Graph,
    costs: CostVector,
    target: DismantlingTarget,
    config: EnsembleConfig,
    multipliers: Sequence[int],
    on_seed: Callable[[list[MemberResult], list[list[tuple[float, int]]], list[DifferenceHistogram]], None],
) -> tuple[dict, dict, list[MemberResult]]:
    """Run config's K seeds at each of the distinct, ascending multipliers
    (config.iter_multiplier is not read) and compare each seed's curve at
    every larger multiplier with its curve at the smallest.

    Once a seed has run at every multiplier, on_seed gets its members,
    their trajectories and the base-vs-D gcc difference histograms on the
    union of both curves' costs; then they are dropped.  Returns the
    summary (cost spread per multiplier; difference signs pooled over all
    seeds and grid points), the settling result (whether every member
    followed the first member's trajectory, per multiplier, and the
    smallest multiplier from which on all did, or None), and each
    member's result without its solution.
    """
    multipliers = list(multipliers)
    if not multipliers or multipliers != sorted(set(multipliers)):
        raise ValueError("multipliers must be distinct and ascending")
    rows: list[MemberResult] = []
    signs = np.zeros((len(multipliers) - 1, 3), dtype=np.int64)  # negative, zero, positive
    first: list[list[tuple[float, int]]] = []
    settled = [True] * len(multipliers)
    seed: list[MemberResult] = []
    for member in _members(graph, costs, target, config, multipliers):
        seed.append(member)
        rows.append(replace(member, solution=None))
        if len(seed) < len(multipliers):
            continue
        trajectories = [m.solution.trajectory for m in seed]
        first = first or trajectories
        settled = [s and t == f for s, t, f in zip(settled, trajectories, first)]
        base = trajectories[0]
        histograms = [
            gcc_difference_histogram(base, t, np.unique([c for c, _ in base + t])) for t in trajectories[1:]
        ]
        for counts, hist in zip(signs, histograms):
            counts += np.bincount(np.sign(hist.differences) + 1, minlength=3)
        on_seed(seed, trajectories, histograms)
        seed = []
        del trajectories, base, histograms
    comparisons = []
    for multiplier, (negatives, zeros, positives) in zip(multipliers[1:], signs.tolist()):
        total = negatives + zeros + positives
        comparisons.append(
            {
                "base_multiplier": multipliers[0],
                "multiplier": multiplier,
                "grid_points": total,
                "positive_fraction": positives / total,
                "zero_fraction": zeros / total,
                "negative_fraction": negatives / total,
            }
        )
    spreads = []
    for multiplier in multipliers:
        paid = [row.reported_cost for row in rows if row.multiplier == multiplier]
        spreads.append(
            {
                "multiplier": multiplier,
                "mean_cost": float(np.mean(paid)),
                "min_cost": float(np.min(paid)),
                "max_cost": float(np.max(paid)),
            }
        )
    summary = {
        "multipliers": multipliers,
        "members": config.k,
        "per_multiplier": spreads,
        "comparisons": comparisons,
    }
    settling = {
        "settled_by_multiplier": {str(m): s for m, s in zip(multipliers, settled)},
        "settling_threshold": next((m for i, m in enumerate(multipliers) if all(settled[i:])), None),
    }
    return summary, settling, rows
