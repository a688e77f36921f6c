"""Outside-in tracer: wraps the library's public functions, records spans.

The dismantling loop looks its helpers up in the `netdismantle.dismantle`
module namespace at call time, so replacing those names there puts a
span around every call the loop makes without touching the library.
(`import netdismantle.dismantle` would give the *function* the package
re-exports under that name; the module has to come from importlib.)

Spans stay in memory as (name, start, end, parent, op) and are written
out once, when the measured process ends.  Self time is a span's length
minus the length of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

LOOP_MODULE = "netdismantle.dismantle"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    op: str


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


# Counters taken at the boundary where the work happens.  Each hook gets
# the call's arguments and result and returns {counter: amount}.
def _count_power_iteration(args, kwargs, result) -> dict:
    op = _arg(args, kwargs, 0, "op")
    iterations = _arg(args, kwargs, 2, "iterations")
    b = op.b
    nnz = int(b.nnz)
    # Compulsory traffic of one CSR matvec (values, column indices, row
    # pointers, read x once, write y once); computed, not measured.
    per_matvec = (
        nnz * (b.data.itemsize + b.indices.itemsize)
        + (op.size + 1) * b.indptr.itemsize
        + 2 * op.size * 8
    )
    return {
        "matvecs": iterations,
        "nnz_processed": iterations * nnz,
        "bytes_moved_computed": iterations * per_matvec,
    }


def _count_flips(args, kwargs, result) -> dict:
    before = _arg(args, kwargs, 3, "partition")
    return {"fine_tune_flips": int((before.in_m != result.in_m).sum())}


def _count_cut(args, kwargs, result) -> dict:
    return {"cut_edge_count": len(result)}


def _count_cover(args, kwargs, result) -> dict:
    return {"nodes_before_prune": len(result.cover)}


def _count_pruned(args, kwargs, result) -> dict:
    return {"nodes_after_prune": len(result.cover)}


# names the loop resolves in LOOP_MODULE, with their counters
LOOP_NAMES: dict[str, Callable | None] = {
    "components": None,
    "build_operator": None,
    "approx_fiedler": _count_power_iteration,
    "fine_tune_partition": _count_flips,
    "cut_edges": _count_cut,
    "weighted_vertex_cover": _count_cover,
    "prune_redundant": _count_pruned,
    "replay_gcc_sizes": None,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = ""
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.op)
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.counters[self.op][key] += amount
            return result

        return traced

    def install(self) -> None:
        """Wrap every LOOP_NAMES entry the loop module still has; a name a
        refactor removed is recorded as absent instead of failing."""
        module = importlib.import_module(LOOP_MODULE)
        for name, count in LOOP_NAMES.items():
            original = getattr(module, name, None)
            if original is None:
                self.absent.add(name)
                continue
            setattr(module, name, self.wrap(name, original, count))
            self._patched.append((module, name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def self_times(self, op: str) -> dict[str, float]:
        """Summed self seconds per span name within one op."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.op == op and span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span.op == op:
                totals[span.name] += span.end - span.start - child_time[index]
        return totals

    def calls(self, op: str) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span.op == op:
                counts[span.name] += 1
        return counts

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")
