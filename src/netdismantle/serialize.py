"""JSON and CSV emitters with pinned number formatting.

Floats are always written with repr-faithful 17 significant digits so
that a rerun with the same inputs produces byte-identical files.  The
stdlib json module does not expose float formatting, hence the small
emitter here; it covers exactly the value shapes our outputs use.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from enum import Enum
from typing import Any

import numpy as np

from .dismantle import DismantlingSolution
from .ensemble import DifferenceHistogram, EnsembleReport


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in output")
    return format(float(x), ".17g")


class _Rendered(str):
    """JSON text already laid out for its place in the document."""


def _emit(value: Any, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(value, _Rendered):
        out.append(value)
        return
    if isinstance(value, Enum):
        value = value.value
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key)!r}")
            out.append(f"{inner}{json.dumps(key)}: ")
            _emit(item, out, indent, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)) or isinstance(value, np.ndarray):
        items = list(value)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(inner)
            _emit(item, out, indent, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def to_json(value: Any, indent: int = 2) -> str:
    out: list[str] = []
    _emit(value, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _summary(solution: DismantlingSolution, reported_cost: float | int) -> dict:
    meta = solution.metadata
    return {
        "reported_cost": reported_cost,
        "total_cost": solution.total_cost,
        "removed_count": solution.removed_count,
        "final_gcc": solution.final_gcc,
        "metadata": {
            "seed": meta.seed,
            "prng": meta.prng,
            "iter_multiplier": meta.iter_multiplier,
            "fine_tuning": meta.fine_tuning,
            "reinserted": meta.reinserted,
            "cost_mode": meta.cost_mode,
            "target_c": meta.target_c,
            "initial_gcc": meta.initial_gcc,
            "bisections": meta.bisections,
            "power_iterations": meta.power_iterations,
        },
    }


def solution_json(solution: DismantlingSolution, reported_cost: float | int) -> str:
    """The solution as JSON: its summary, then the removal_order rows,
    which are nearly all of the file, written from one template per row
    as to_json would lay them out."""
    rows = ",\n".join(
        f'    {{\n      "node": {node},\n      "cost": {format_float(cost)},\n'
        f'      "gcc_after": {gcc}\n    }}'
        for node, cost, gcc in solution.removal_order
    )
    removal_order = _Rendered(f"[\n{rows}\n  ]" if rows else "[]")
    return to_json({**_summary(solution, reported_cost), "removal_order": removal_order})


def _float_int_csv(header: str, floats: np.ndarray, ints: np.ndarray) -> str:
    """A two-column CSV: floats at full precision, then integers."""
    rows = (f"{format_float(x)},{k}" for x, k in zip(floats.tolist(), ints.tolist()))
    return "\n".join([header, *rows]) + "\n"


def trajectory_csv(trajectory: tuple[np.ndarray, np.ndarray]) -> str:
    return _float_int_csv("cumulative_cost,gcc_size", *trajectory)


def histogram_csv(histogram: DifferenceHistogram) -> str:
    return _float_int_csv("difference,count", histogram.values, histogram.counts)


def report_to_dict(report: EnsembleReport) -> dict:
    return {
        "config": asdict(report.config),
        "best_index": report.best_index,
        "cost_summary": report.cost_summary(),
        "members": [
            {
                "index": member.index,
                "seed": member.seed,
                "reported_cost": member.reported_cost,
                "final_gcc": member.final_gcc,
                "removed_count": member.solution.removed_count,
            }
            for member in report.members
        ],
    }
