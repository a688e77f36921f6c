"""The benchmark's workloads and their seeded input generators.

Each workload is a graph family, a cost mode and a solve mode.  The edge
list is a pure function of (workload, seed); the solver seed is derived
from the same seed, so one seed fixes everything a run does.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "regular" | "pa" | "gnm_exact"
    n: int
    # regular: degree; pa: links per new node; gnm_exact: distinct edges
    m: int
    cost: str  # "unit" | "degree"
    ensemble_k: int = 0  # 0: one dismantle + reinsert per op
    target_fraction: float = 0.01  # the CLI's default target
    why: str = ""


# Sizes keep one op to a few seconds on a 2-core machine, so a run's
# median is taken over several ops.  The unit-cost expander is regular
# rather than G(n, m): on G(n, m) the work of one solve varies about 2x
# with the seed (its low-degree fringe makes some runs chop off small
# pieces over and over), on the regular graph by a few percent.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rrg12k_unit",
            family="regular",
            n=12_500,
            m=8,
            cost="unit",
            why="random 8-regular expander, unit costs, ~38 large bisections: power "
            "iteration and the per-bisection O(m) passes dominate",
        ),
        Workload(
            name="pa50k_degree",
            family="pa",
            n=50_000,
            m=3,
            cost="degree",
            why="hub-heavy preferential attachment, degree costs, few bisections: "
            "pure-Python replay, reinsert, cover and components dominate",
        ),
        Workload(
            name="ensemble2k_degree",
            family="gnm_exact",
            n=2_000,
            m=16_714,
            cost="degree",
            ensemble_k=16,
            why="best-of-16 ensemble over a 2-worker process pool: the only "
            "workload that pays pool start, result pickling and retention",
        ),
    )
}


def solver_seed(seed: int) -> int:
    """Base solver seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, 0x5EED]).generate_state(1, np.uint64)[0] >> 1)


def _regular(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Configuration model: n*d stubs paired at random.  The few loops and
    repeated pairs stay in the file; the parser drops them."""
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    return stubs.reshape(-1, 2)


def _gnm_exact(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """m distinct non-loop edges, kept in the order first drawn."""
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < m:
        for u, v in rng.integers(0, n, size=(m, 2)).tolist():
            key = (u, v) if u < v else (v, u)
            if u != v and key not in seen:
                seen.add(key)
                out.append(key)
                if len(out) == m:
                    break
    return np.array(out, dtype=np.int64)


def _preferential_attachment(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Each new node links to m distinct targets drawn proportionally to
    current degree, starting from a star on the first m+1 nodes (the rule
    the bundled ba_300 graph was made with)."""
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []
    for v in range(1, m + 1):
        edges.append((0, v))
        repeated += [0, v]
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in sorted(targets):
            edges.append((t, v))
            repeated += [t, v]
    return np.array(edges, dtype=np.int64)


_FAMILIES = {
    "regular": _regular,
    "gnm_exact": _gnm_exact,
    "pa": _preferential_attachment,
}


def generate(workload: Workload, seed: int) -> np.ndarray:
    """The workload's edge list for this seed, as drawn."""
    rng = np.random.default_rng(seed)
    return _FAMILIES[workload.family](rng, workload.n, workload.m)


def write_input(workload: Workload, seed: int, path: Path) -> None:
    """Write the edge list as text for the solver and as .npy for the
    output check, which must not depend on the solver's parser."""
    edges = generate(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"% {workload.name} seed {seed}\n" + "".join(f"{u} {v}\n" for u, v in edges.tolist()))
    np.save(reference_path(path), edges)


def reference_path(path: Path) -> Path:
    return path.with_name(path.name + ".npy")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's edge list.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    write_input(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
