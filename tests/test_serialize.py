"""Pinned-format JSON and CSV output."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdismantle import CostVector, DismantlingTarget, dismantle
from netdismantle.serialize import format_float, solution_json, to_json, trajectory_csv

from conftest import random_connected_graph
from oracles import trajectory_arrays

METADATA_FIELDS = (
    "seed", "prng", "iter_multiplier", "fine_tuning", "reinserted",
    "cost_mode", "target_c", "initial_gcc", "bisections", "power_iterations",
)


def solution_to_dict(solution, reported_cost):
    """The document solution_json writes, built as plain data: the
    reference for its templated rows."""
    return {
        "reported_cost": reported_cost,
        "total_cost": solution.total_cost,
        "removed_count": solution.removed_count,
        "final_gcc": solution.final_gcc,
        "metadata": {name: getattr(solution.metadata, name) for name in METADATA_FIELDS},
        "removal_order": [
            {"node": node, "cost": cost, "gcc_after": gcc} for node, cost, gcc in solution.removal_order
        ],
    }


class TestFormatFloat:
    def test_seventeen_significant_digits(self):
        assert format_float(1 / 3) == "0.33333333333333331"
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(2.0) == "2"

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips_exactly(self, x):
        assert float(format_float(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))
        with pytest.raises(ValueError):
            format_float(float("inf"))


class TestToJson:
    def test_matches_stdlib_semantics(self):
        value = {
            "name": "run",
            "ints": [1, 2, 3],
            "flag": True,
            "nothing": None,
            "nested": {"x": 0.5, "empty": [], "bare": {}},
            "text": 'quote " and \\ backslash',
        }
        parsed = json.loads(to_json(value))
        assert parsed == value

    def test_numpy_scalars_and_arrays(self):
        value = {
            "arr": np.array([1.5, 2.5]),
            "i": np.int64(7),
            "f": np.float64(0.25),
            "b": np.bool_(True),
        }
        parsed = json.loads(to_json(value))
        assert parsed == {"arr": [1.5, 2.5], "i": 7, "f": 0.25, "b": True}

    def test_floats_printed_with_17g(self):
        assert to_json(1 / 3) == "0.33333333333333331\n"

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            to_json({1: "x"})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            to_json(object())

    def test_stable_output_bytes(self):
        value = {"a": [0.1, 0.2], "b": {"c": 3}}
        assert to_json(value) == to_json(value)


class TestSolutionJson:
    def make(self):
        g = random_connected_graph(1, 30)
        costs = CostVector.unit(g)
        sol = dismantle(g, costs, DismantlingTarget.absolute(3), seed=0)
        return g, costs, sol

    def test_shape_and_fields(self):
        g, costs, sol = self.make()
        d = json.loads(solution_json(sol, len(sol.removed)))
        assert d["removed_count"] == len(sol.removed)
        assert d["final_gcc"] == sol.final_gcc
        assert d["metadata"]["seed"] == 0
        assert d["metadata"]["cost_mode"] == "unit"
        assert "phase_seconds" not in d["metadata"]
        assert len(d["removal_order"]) == len(sol.removal_order)
        first = d["removal_order"][0]
        assert set(first) == {"node", "cost", "gcc_after"}

    def test_byte_stable_across_identical_runs(self):
        # wall-clock phase timings stay out of the file, so two identical
        # runs serialize to identical bytes
        g, costs, sol1 = self.make()
        _, _, sol2 = self.make()
        assert solution_json(sol1, 5) == solution_json(sol2, 5)

    def test_templated_rows_match_the_generic_emitter(self):
        g, costs, sol = self.make()
        empty = dismantle(g, costs, DismantlingTarget.absolute(g.n), seed=0)
        for solution in (sol, empty):
            assert solution_json(solution, 0.25) == to_json(solution_to_dict(solution, 0.25))

    def test_parses_as_json(self):
        g, costs, sol = self.make()
        parsed = json.loads(solution_json(sol, len(sol.removed)))
        assert parsed["metadata"]["prng"].startswith("numpy-pcg64")


class TestTrajectoryCsv:
    def test_schema_and_rows(self):
        text = trajectory_csv(trajectory_arrays([(0.0, 10), (1.5, 4)]))
        assert text == "cumulative_cost,gcc_size\n0,10\n1.5,4\n"

    def test_full_precision_costs(self):
        text = trajectory_csv(trajectory_arrays([(1 / 3, 2)]))
        assert "0.33333333333333331,2" in text
