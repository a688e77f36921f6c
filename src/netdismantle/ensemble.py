"""Best-of-K ensembles over independently seeded runs.

The spectral run is cheap and its quality varies a lot with the start
vector, so running K seeds and keeping the cheapest beats spending the
same budget on longer power iteration for one seed.  Member k uses seed
base_seed + k; results are identical whatever the worker count, because
members never share state.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class MemberResult:
    index: int
    seed: int
    reported_cost: float
    final_gcc: int
    solution: DismantlingSolution
    seconds: float = 0.0


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


def _run_member_in_worker(index: int) -> MemberResult:
    graph, costs, target, config = _WORKER_CTX
    return _run_member(graph, costs, target, config, index)


def _member_seed(config: EnsembleConfig, index: int) -> int:
    return (config.base_seed + index) & MASK64


def _run_member(
    graph: Graph,
    costs: CostVector,
    target: DismantlingTarget,
    config: EnsembleConfig,
    index: int,
) -> MemberResult:
    seed = _member_seed(config, index)
    started = time.perf_counter()
    solution = dismantle(
        graph,
        costs,
        target,
        seed=seed,
        iter_multiplier=config.iter_multiplier,
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
    )


def run_ensemble(
    graph: Graph,
    costs: CostVector,
    target: DismantlingTarget,
    config: EnsembleConfig,
) -> EnsembleReport:
    """Run all K members and collect their results in index order."""
    report = EnsembleReport(config=config)
    workers = min(config.workers, config.k)
    if workers == 1:
        for index in range(config.k):
            try:
                report.members.append(_run_member(graph, costs, target, config, index))
            except Exception as exc:
                raise EnsembleMemberError(index, _member_seed(config, index), exc) from exc
        return report
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(graph, costs, target, config),
    ) as pool:
        futures = [pool.submit(_run_member_in_worker, index) for index in range(config.k)]
        for index, future in enumerate(futures):
            try:
                report.members.append(future.result())
            except Exception as exc:
                raise EnsembleMemberError(index, _member_seed(config, index), exc) from exc
    return report


@dataclass(frozen=True)
class DifferenceHistogram:
    """Distribution of gcc(curve_a) - gcc(curve_b) sampled on a cost grid."""

    grid: np.ndarray
    differences: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    @property
    def positive_fraction(self) -> float:
        return float((self.differences > 0).mean())

    @property
    def negative_fraction(self) -> float:
        return float((self.differences < 0).mean())

    @property
    def zero_fraction(self) -> float:
        return float((self.differences == 0).mean())


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
    return DifferenceHistogram(grid=grid, differences=differences, values=values, counts=counts)
