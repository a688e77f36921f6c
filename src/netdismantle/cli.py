"""Command-line front end.

One binary, three subcommands: dismantle (single run or best-of-K
ensemble, with each member's phase timings), variability (compare runs
across power-iteration budgets), stats (graph summary).  Flags beat
config-file values beat defaults; the resolved settings are echoed into
the output manifest so a rerun from the manifest reproduces the files
byte for byte.

Exit codes: 0 success, 2 bad input or configuration, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .costs import CostMode, CostVector
from .dismantle import DismantlingTarget
from .ensemble import EnsembleConfig, run_ensemble, run_variability
from .errors import InternalInvariantError, InvalidCostError, ParseError
from .graph import Graph, parse_edge_list
from .serialize import format_float, histogram_csv, report_to_dict, solution_json, to_json, trajectory_csv

WORKERS_ENV = "DISMANTLE_WORKERS"


class _UsageError(Exception):
    """Bad flag combination or config value; maps to exit code 2."""


# the type of each setting that is not an int, and how to name a type;
# a bool is never taken for a number
_KINDS = {"input": str, "cost": str, "out": str, "target_fraction": (int, float), "reinsert": bool, "fine_tune": bool}
_KIND_NAMES = {str: "a string", int: "an integer", (int, float): "a number", bool: "true or false"}


@dataclass
class RunSettings:
    input: str
    cost: str = "unit"
    target_fraction: float | None = None
    target_size: int | None = None
    ensemble: int = 1
    seed: int = 0
    iter_multiplier: int = 1
    reinsert: bool = True
    fine_tune: bool = True
    workers: int = 1
    out: str = "dismantle-out"

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), _KINDS.get(f.name, int)
            if value is None and f.default is None:
                continue
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise _UsageError(f"setting {f.name!r} must be {_KIND_NAMES[kind]}")
        if self.cost not in ("unit", "degree"):
            raise _UsageError(f"unknown cost mode {self.cost!r}")
        if self.target_fraction is not None and self.target_size is not None:
            raise _UsageError("give either --target-fraction or --target-size, not both")
        if self.target_fraction is None and self.target_size is None:
            self.target_fraction = 0.01
        if self.target_size is not None and self.target_size < 1:
            raise _UsageError("--target-size must be at least 1")
        if self.target_fraction is not None and not 0.0 < self.target_fraction <= 1.0:
            raise _UsageError("--target-fraction must be in (0, 1]")
        if self.ensemble < 1:
            raise _UsageError("--ensemble must be at least 1")
        if self.iter_multiplier < 1:
            raise _UsageError("--iter-multiplier must be at least 1")
        if self.workers < 1:
            raise _UsageError("--workers must be at least 1")

    def ensemble_config(self, k: int) -> EnsembleConfig:
        return EnsembleConfig(k=k, base_seed=self.seed, iter_multiplier=self.iter_multiplier,
                              reinsertion=self.reinsert, fine_tuning=self.fine_tune, workers=self.workers)

    def target_for(self, graph: Graph) -> DismantlingTarget:
        if self.target_size is not None:
            return DismantlingTarget.absolute(self.target_size)
        return DismantlingTarget.from_fraction(graph.n, self.target_fraction)


_ONOFF = {"on": True, "off": False}


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", help="edge-list file")
    sub.add_argument("--cost", choices=["unit", "degree"])
    sub.add_argument("--target-fraction", type=float, dest="target_fraction")
    sub.add_argument("--target-size", type=int, dest="target_size")
    sub.add_argument("--ensemble", type=int, help="number of seeds to try, keep the cheapest")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--iter-multiplier", type=int, dest="iter_multiplier")
    sub.add_argument("--reinsert", choices=["on", "off"])
    sub.add_argument("--fine-tune", choices=["on", "off"], dest="fine_tune")
    sub.add_argument("--workers", type=int)
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--config", help="JSON file with defaults for any flag")


def _given_settings(args: argparse.Namespace, unused: tuple[str, ...] = ()) -> dict:
    """The settings that were given, for RunSettings to check and to fill
    with defaults: flags that were given win, and the config file fills
    the rest.  Booleans arrive as on/off strings from the flags.  A
    setting named in unused, which the command has no use for, is a usage
    error whether a flag or the config file gives it."""
    config: dict = {}
    if getattr(args, "config", None):
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(config, dict):
            raise _UsageError("config file must hold a JSON object")
    merged: dict = {}
    valid = {f.name for f in fields(RunSettings)}
    for key, value in config.items():
        if key not in valid:
            raise _UsageError(f"unknown config key {key!r}")
        merged[key] = value
    for name in valid:
        given = getattr(args, name, None)
        if given is not None:
            merged[name] = _ONOFF[given] if name in ("reinsert", "fine_tune") else given
    for name in unused:
        if name in merged:
            raise _UsageError(f"{args.command} does not use {name!r} (--{name.replace('_', '-')})")
    if "workers" not in merged and "workers" not in unused:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            try:
                merged["workers"] = int(env)
            except ValueError as exc:
                raise _UsageError(f"{WORKERS_ENV} must be an integer") from exc
    if not merged.get("input"):
        raise _UsageError("--input is required")
    return merged


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read input: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot decode input as {exc.encoding}: bad byte at offset {exc.start}") from exc
    return parse_edge_list(text)


def _write(directory: Path, name: str, content: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(content, encoding="utf-8")
    return path


def _manifest(command: str, settings: RunSettings, graph: Graph, results: dict) -> dict:
    from .rng import PRNG_NAME

    return {
        "tool": "netdismantle",
        "version": __version__,
        "command": command,
        "prng": PRNG_NAME,
        "settings": asdict(settings),
        "graph": graph.stats(),
        "results": results,
    }


def cmd_dismantle(args: argparse.Namespace) -> int:
    settings = RunSettings(**_given_settings(args))
    started = time.perf_counter()
    graph = _load_graph(settings.input)
    parse_seconds = time.perf_counter() - started
    costs = CostVector.for_mode(graph, settings.cost)
    target = settings.target_for(graph)
    out_dir = Path(settings.out)
    report = run_ensemble(graph, costs, target, settings.ensemble_config(settings.ensemble))
    best = report.best.solution
    best_cost = report.best.reported_cost
    results = {
        "best_cost": best_cost,
        "best_index": report.best_index,
        "best_seed": report.best.seed,
        "final_gcc": best.final_gcc,
        "removed_count": best.removed_count,
        "target_c": target.c,
        "cost_summary": report.cost_summary(),
        "parse_seconds": parse_seconds,
        "member_seconds": [member.seconds for member in report.members],
        "member_phase_seconds": [member.solution.metadata.phase_seconds for member in report.members],
    }
    _write(out_dir, "manifest.json", to_json(_manifest("dismantle", settings, graph, results)))
    _write(out_dir, "solution.json", solution_json(best, best_cost))
    _write(out_dir, "trajectory.csv", trajectory_csv(best.trajectory))
    _write(out_dir, "node_labels.txt", "".join(f"{label}\n" for label in graph.labels))
    if settings.ensemble > 1:
        _write(out_dir, "ensemble.json", to_json(report_to_dict(report)))
    print(
        f"best cost: {format_float(best_cost)} "
        f"({settings.cost} mode, K={settings.ensemble}, final gcc={best.final_gcc}, "
        f"target C={target.c})"
    )
    print(f"outputs in {out_dir}")
    return 0


def cmd_variability(args: argparse.Namespace) -> int:
    settings = RunSettings(**_given_settings(args, unused=("ensemble", "iter_multiplier")))
    try:
        multipliers = sorted({int(tok) for tok in args.multipliers.split(",") if tok.strip()})
    except ValueError as exc:
        raise _UsageError("--multipliers must be a comma-separated integer list") from exc
    if not multipliers or multipliers[0] < 1:
        raise _UsageError("--multipliers must list integers >= 1")
    members = args.members
    if members < 1:
        raise _UsageError("--members must be at least 1")
    graph = _load_graph(settings.input)
    costs = CostVector.for_mode(graph, settings.cost)
    target = settings.target_for(graph)
    out_dir = Path(settings.out)
    config = settings.ensemble_config(members)

    def write_seed(runs, trajectories, histograms):
        for member, trajectory in zip(runs, trajectories):
            name = f"D{member.multiplier}_member{member.index}.csv"
            _write(out_dir / "trajectories", name, trajectory_csv(trajectory))
        for member, hist in zip(runs[1:], histograms):
            name = f"D{runs[0].multiplier}_vs_D{member.multiplier}_member{member.index}.csv"
            _write(out_dir / "histograms", name, histogram_csv(hist))

    summary, settling, rows = run_variability(graph, costs, target, config, multipliers, write_seed)
    cost_rows = ["multiplier,member,seed,cost,final_gcc,seconds"] + [
        f"{r.multiplier},{r.index},{r.seed},{format_float(r.reported_cost)},{r.final_gcc},{r.seconds:.4f}"
        for r in sorted(rows, key=lambda r: (r.multiplier, r.index))
    ]
    results = {"summary": summary}
    _write(out_dir, "manifest.json", to_json(_manifest("variability", settings, graph, results)))
    _write(out_dir, "variability.json", to_json(summary))
    _write(out_dir, "settling.json", to_json(settling))
    _write(out_dir, "member_costs.csv", "\n".join(cost_rows) + "\n")
    for row in summary["per_multiplier"]:
        print(
            f"D={row['multiplier']}: mean cost {format_float(row['mean_cost'])} "
            f"[{format_float(row['min_cost'])}, {format_float(row['max_cost'])}] "
            f"over {members} members"
        )
    for row in summary["comparisons"]:
        print(
            f"D={row['base_multiplier']} vs D={row['multiplier']}: "
            f"gcc difference positive {row['positive_fraction']:.3f}, "
            f"zero {row['zero_fraction']:.3f}, negative {row['negative_fraction']:.3f}"
        )
    print(f"outputs in {out_dir}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    unused = tuple(f.name for f in fields(RunSettings) if f.name not in ("input", "out"))
    given = _given_settings(args, unused)
    settings = RunSettings(**given)
    graph = _load_graph(settings.input)
    text = to_json(graph.stats())
    print(text, end="")
    if "out" in given:
        _write(Path(settings.out), "graph_stats.json", text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netdismantle",
        description="Fragment a network into small components at minimum node cost.",
    )
    parser.add_argument("--version", action="version", version=f"netdismantle {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dismantle", help="single run or best-of-K ensemble")
    _add_common_flags(p)
    p.set_defaults(func=cmd_dismantle)

    p = subs.add_parser("variability", help="compare power-iteration budgets seed by seed")
    _add_common_flags(p)
    p.add_argument("--multipliers", default="1,200,500", help="comma-separated budgets")
    p.add_argument("--members", type=int, default=10, help="seeds per budget")
    p.set_defaults(func=cmd_variability)

    p = subs.add_parser("stats", help="parse a graph and print its summary")
    _add_common_flags(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, ParseError, InvalidCostError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
