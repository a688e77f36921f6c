"""End-to-end CLI behavior through in-process main() calls."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netdismantle
from netdismantle import parse_edge_list
from netdismantle.cli import WORKERS_ENV, main

from conftest import DATA_DIR


@pytest.fixture
def path_graph(tmp_path):
    f = tmp_path / "path.txt"
    f.write_text("% three-node path\n0 1\n1 2\n")
    return f


@pytest.fixture
def ring_graph(tmp_path):
    edges = [(i, (i + 1) % 12) for i in range(12)]
    f = tmp_path / "ring.txt"
    f.write_text("\n".join(f"{u} {v}" for u, v in edges) + "\n")
    return f


def run(argv):
    return main([str(a) for a in argv])


def run_in_c_locale(argv):
    """The CLI in a child process under the C locale without UTF-8 mode,
    where the locale's encoding is ASCII."""
    src = str(Path(netdismantle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    code = "import sys; from netdismantle.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env, capture_output=True, timeout=60)


class TestDismantleCommand:
    def test_writes_all_artifacts(self, path_graph, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            ["dismantle", "--input", path_graph, "--target-size", "1", "--out", out]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "best cost: 1" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        solution = json.loads((out / "solution.json").read_text())
        trajectory = (out / "trajectory.csv").read_text()
        assert manifest["tool"] == "netdismantle"
        assert manifest["command"] == "dismantle"
        assert manifest["graph"] == {"n": 3, "m": 2, "degree_min": 1, "degree_max": 2}
        assert manifest["results"]["best_cost"] == 1
        assert manifest["results"]["final_gcc"] == 1
        assert solution["reported_cost"] == 1
        assert solution["metadata"]["reinserted"] is True
        assert trajectory.splitlines()[0] == "cumulative_cost,gcc_size"
        assert not (out / "ensemble.json").exists()

    def test_node_labels_name_the_removed_nodes(self, tmp_path):
        source = DATA_DIR / "lesmis.txt"
        out = tmp_path / "out"
        assert run(["dismantle", "--input", source, "--cost", "degree", "--target-fraction", "0.1", "--out", out]) == 0
        labels = parse_edge_list(source.read_text(encoding="utf-8")).labels
        lines = (out / "node_labels.txt").read_text(encoding="utf-8").split("\n")
        assert lines == [*labels, ""]
        rows = json.loads((out / "solution.json").read_text())["removal_order"]
        assert rows and all(0 <= row["node"] < len(labels) for row in rows)

    def test_node_labels_are_utf8_whatever_the_locale(self, tmp_path):
        f = tmp_path / "accents.txt"
        f.write_bytes("é ü\nü 𝔘\n".encode())
        proc = run_in_c_locale(["dismantle", "--input", f, "--out", tmp_path / "out"])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "node_labels.txt").read_bytes() == "é\nü\n𝔘\n".encode()

    def test_ensemble_report_written_for_k_above_one(self, ring_graph, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "dismantle",
                "--input",
                ring_graph,
                "--target-size",
                "3",
                "--ensemble",
                "3",
                "--out",
                out,
            ]
        )
        assert code == 0
        report = json.loads((out / "ensemble.json").read_text())
        assert report["config"]["k"] == 3
        assert len(report["members"]) == 3
        assert set(report["cost_summary"]) == {"min", "median", "max"}
        costs = [m["reported_cost"] for m in report["members"]]
        assert report["cost_summary"]["min"] == min(costs)

    def test_byte_order_mark_leaves_solution_bytes(self, ring_graph, tmp_path):
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + ring_graph.read_bytes())
        for name, path in (("plain", ring_graph), ("bom", bom)):
            assert run(["dismantle", "--input", path, "--target-size", "2", "--seed", "7", "--out", tmp_path / name]) == 0
        assert (tmp_path / "bom" / "solution.json").read_bytes() == (tmp_path / "plain" / "solution.json").read_bytes()

    def test_solution_bytes_stable_across_reruns(self, ring_graph, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert (
                run(
                    [
                        "dismantle",
                        "--input",
                        ring_graph,
                        "--target-size",
                        "2",
                        "--seed",
                        "7",
                        "--out",
                        out,
                    ]
                )
                == 0
            )
        assert (out_a / "solution.json").read_bytes() == (out_b / "solution.json").read_bytes()
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()

    def test_reinsert_off_is_recorded(self, ring_graph, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "dismantle",
                "--input",
                ring_graph,
                "--target-size",
                "2",
                "--reinsert",
                "off",
                "--out",
                out,
            ]
        )
        assert code == 0
        solution = json.loads((out / "solution.json").read_text())
        assert solution["metadata"]["reinserted"] is False

    def test_default_target_is_one_percent(self, ring_graph, tmp_path):
        out = tmp_path / "out"
        assert run(["dismantle", "--input", ring_graph, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # ceil(0.01 * 12) = 1
        assert manifest["results"]["target_c"] == 1
        assert manifest["settings"]["target_fraction"] == 0.01


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        code = run(["dismantle", "--input", tmp_path / "nope.txt"])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_no_input_at_all(self, capsys):
        assert run(["dismantle"]) == 2
        assert "--input is required" in capsys.readouterr().err

    def test_both_targets_rejected(self, path_graph, capsys):
        code = run(
            [
                "dismantle",
                "--input",
                path_graph,
                "--target-size",
                "1",
                "--target-fraction",
                "0.5",
            ]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--target-size", "0", "--target-size must be at least 1"),
            ("--target-fraction", "1.5", "--target-fraction must be in (0, 1]"),
        ],
    )
    def test_bad_target_is_usage_error(self, path_graph, capsys, flag, value, message):
        assert run(["bench", "--input", path_graph, flag, value]) == 2
        assert message in capsys.readouterr().err

    def test_value_error_inside_the_solver_is_internal(self, path_graph, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("solver bug")

        monkeypatch.setattr("netdismantle.ensemble.dismantle", broken)
        assert run(["bench", "--input", path_graph, "--target-size", "1"]) == 3
        assert "solver bug" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n0\n")
        assert run(["stats", "--input", bad]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_undecodable_input_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 2\n\xff\xfe 3\n")
        assert run(["dismantle", "--input", bad]) == 2
        err = capsys.readouterr().err
        assert "offset 4" in err
        assert "Traceback" not in err

    def test_unknown_config_key(self, path_graph, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"budget": 5}')
        assert run(["dismantle", "--input", path_graph, "--config", cfg]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_cost_mode_in_config(self, path_graph, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cost": "random"}')
        assert run(["dismantle", "--input", path_graph, "--config", cfg]) == 2
        assert "cost mode" in capsys.readouterr().err

    def test_malformed_config_json(self, path_graph, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        assert run(["dismantle", "--input", path_graph, "--config", cfg]) == 2

    def test_non_boolean_toggle_in_config(self, path_graph, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"reinsert": "yes"}')
        assert run(["dismantle", "--input", path_graph, "--config", cfg]) == 2
        assert "true or false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"ensemble": 2.5},
            {"seed": "abc"},
            {"iter_multiplier": 1.5},
            {"target_size": 3.5},
            {"workers": True},
            {"seed": None},
            {"target_fraction": "0.5"},
            {"target_fraction": True},
            {"out": 7},
            {"cost": ["unit"]},
            {"input": 1},
            {"fine_tune": 1},
        ],
    )
    def test_config_value_of_the_wrong_type(self, path_graph, tmp_path, capsys, monkeypatch, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(path_graph), "target_size": 1, **config}))
        monkeypatch.chdir(tmp_path)
        assert run(["dismantle", "--config", cfg]) == 2
        err = capsys.readouterr().err
        [key] = config
        assert f"{key!r}" in err
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "path.txt"]

    def test_integral_target_fraction_is_a_number(self, ring_graph, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"target_fraction": 1}')
        out = tmp_path / "out"
        assert run(["dismantle", "--input", ring_graph, "--config", cfg, "--out", out]) == 0
        assert json.loads((out / "manifest.json").read_text())["results"]["target_c"] == 12


class TestConfigPrecedence:
    def test_flag_beats_config(self, ring_graph, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 5, "target_size": 2}')
        out = tmp_path / "out"
        code = run(
            ["dismantle", "--input", ring_graph, "--config", cfg, "--seed", "9", "--out", out]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["seed"] == 9
        assert manifest["settings"]["target_size"] == 2

    def test_config_fills_missing_flags(self, ring_graph, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 5, "target_size": 2}')
        out = tmp_path / "out"
        assert run(["dismantle", "--input", ring_graph, "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["seed"] == 5

    def test_workers_env_fallback(self, ring_graph, tmp_path, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        out = tmp_path / "out"
        assert run(
            ["dismantle", "--input", ring_graph, "--target-size", "2", "--out", out]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["workers"] == 2

    def test_workers_flag_beats_env(self, ring_graph, tmp_path, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        out = tmp_path / "out"
        assert run(
            [
                "dismantle",
                "--input",
                ring_graph,
                "--target-size",
                "2",
                "--workers",
                "1",
                "--out",
                out,
            ]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["workers"] == 1

    def test_bad_workers_env(self, ring_graph, monkeypatch, capsys):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        assert run(["dismantle", "--input", ring_graph]) == 2
        assert WORKERS_ENV in capsys.readouterr().err


class TestVariabilityCommand:
    def test_artifacts_and_fractions(self, ring_graph, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            [
                "variability",
                "--input",
                ring_graph,
                "--target-size",
                "2",
                "--multipliers",
                "1,2",
                "--members",
                "2",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert (out / "trajectories" / "D1_member0.csv").exists()
        assert (out / "trajectories" / "D2_member1.csv").exists()
        assert (out / "histograms" / "D1_vs_D2_member0.csv").exists()
        summary = json.loads((out / "variability.json").read_text())
        assert summary["multipliers"] == [1, 2]
        comparison = summary["comparisons"][0]
        total = (
            comparison["positive_fraction"]
            + comparison["zero_fraction"]
            + comparison["negative_fraction"]
        )
        assert total == pytest.approx(1.0)
        assert "D=1 vs D=2" in capsys.readouterr().out

    def test_single_multiplier_skips_comparisons(self, path_graph, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "variability",
                "--input",
                path_graph,
                "--target-size",
                "1",
                "--multipliers",
                "1",
                "--members",
                "1",
                "--out",
                out,
            ]
        )
        assert code == 0
        summary = json.loads((out / "variability.json").read_text())
        assert summary["comparisons"] == []

    # karate, --multipliers 1,200 --members 3, as written before the study
    # moved into the library: these bytes must not move
    KARATE_SHA256 = {
        "variability.json": "d51b4a32afcbbee4a593ef1394fe07274e0e6bcf6247991dc6cf061a7adc3f97",
        "histograms/D1_vs_D200_member0.csv": "5aa3eb5ca82a62dd693de5ffc290436f46a093daaa169133c66f0ee64ea6dd19",
        "histograms/D1_vs_D200_member1.csv": "5aa3eb5ca82a62dd693de5ffc290436f46a093daaa169133c66f0ee64ea6dd19",
        "histograms/D1_vs_D200_member2.csv": "0519516b5047b483489d5fd1aacea322530304776a5f40706e3d03f22e56d142",
        "trajectories/D1_member0.csv": "a78d3be0f177ae34b0c1081edee48f307add7e24def127132e87c36e899adf5b",
        "trajectories/D1_member1.csv": "a78d3be0f177ae34b0c1081edee48f307add7e24def127132e87c36e899adf5b",
        "trajectories/D1_member2.csv": "ccfaab67a3e4f8f50481fab9238857e8968b855310737c2f8543c75bd5a46d03",
        "trajectories/D200_member0.csv": "13afbaa94399ecc28ae535dbcfa896502feb0d2380a816e0cd22ae9aa894c712",
        "trajectories/D200_member1.csv": "13afbaa94399ecc28ae535dbcfa896502feb0d2380a816e0cd22ae9aa894c712",
        "trajectories/D200_member2.csv": "13afbaa94399ecc28ae535dbcfa896502feb0d2380a816e0cd22ae9aa894c712",
    }
    KARATE_STDOUT = [
        "D=1: mean cost 14 [14, 14] over 3 members",
        "D=200: mean cost 14 [14, 14] over 3 members",
        "D=1 vs D=200: gcc difference positive 0.089, zero 0.667, negative 0.244",
    ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_karate_bytes_pinned(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        argv = ["variability", "--input", DATA_DIR / "karate.txt", "--multipliers", "1,200"]
        assert run([*argv, "--members", "3", "--workers", workers, "--out", out]) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[:-1] == self.KARATE_STDOUT
        assert stdout[-1] == f"outputs in {out}"
        written = {
            str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.rglob("*.*")
            if path.parent.name in ("trajectories", "histograms") or path.name == "variability.json"
        }
        assert written == self.KARATE_SHA256
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"] == {"summary": json.loads((out / "variability.json").read_text())}
        # every D=200 member follows one trajectory; member 2 differs at D=1
        assert json.loads((out / "settling.json").read_text()) == {
            "settled_by_multiplier": {"1": False, "200": True},
            "settling_threshold": 200,
        }
        rows = (out / "member_costs.csv").read_text().splitlines()
        assert rows[0] == "multiplier,member,seed,cost,final_gcc,seconds"
        assert [row.split(",")[:5] for row in rows[1:]] == [
            [d, i, i, "14", "1"] for d in ("1", "200") for i in ("0", "1", "2")
        ]

    def test_multipliers_sorted_and_deduplicated(self, ring_graph, tmp_path, capsys):
        common = ["variability", "--input", ring_graph, "--target-size", "2", "--members", "2"]
        assert run([*common, "--multipliers", "2,1,1", "--out", tmp_path / "a"]) == 0
        assert run([*common, "--multipliers", "1,2", "--out", tmp_path / "b"]) == 0
        summary = (tmp_path / "a" / "variability.json").read_bytes()
        assert summary == (tmp_path / "b" / "variability.json").read_bytes()
        assert json.loads(summary)["multipliers"] == [1, 2]
        assert capsys.readouterr().out.count("D=1 vs D=2") == 2
        assert sorted(p.name for p in (tmp_path / "a" / "histograms").iterdir()) == [
            "D1_vs_D2_member0.csv",
            "D1_vs_D2_member1.csv",
        ]

    @pytest.mark.parametrize("flag,key", [("--ensemble", "ensemble"), ("--iter-multiplier", "iter_multiplier")])
    def test_ensemble_settings_are_usage_errors(self, path_graph, tmp_path, capsys, flag, key):
        common = ["variability", "--input", path_graph, "--multipliers", "1", "--members", "1"]
        assert run([*common, flag, "7", "--out", tmp_path / "flag"]) == 2
        assert flag in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 7}))
        assert run([*common, "--config", cfg, "--out", tmp_path / "config"]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "flag").exists() and not (tmp_path / "config").exists()

    def test_bad_multiplier_list(self, path_graph, capsys):
        assert (
            run(["variability", "--input", path_graph, "--multipliers", "1,x"]) == 2
        )
        assert "comma-separated" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_json_and_stdout(self, ring_graph, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            ["bench", "--input", ring_graph, "--target-size", "2", "--out", out]
        )
        assert code == 0
        bench = json.loads((out / "bench.json").read_text())
        printed = json.loads(capsys.readouterr().out)
        assert bench["graph"]["n"] == 12
        assert set(bench["phase_seconds"]) >= {
            "components",
            "spectral",
            "operator",
            "power_iteration",
            "fine_tune",
            "cover",
            "replay",
        }
        assert printed["removed_count"] == bench["removed_count"]
        assert bench["total_seconds"] >= 0.0
        assert bench["parse_seconds"] >= 0.0
        assert "parse" not in bench["phase_seconds"]

    @pytest.mark.parametrize("flag,key", [("--ensemble", "ensemble"), ("--workers", "workers")])
    def test_ensemble_settings_are_usage_errors(self, ring_graph, tmp_path, capsys, flag, key):
        # bench times one member; an ensemble size or a pool would be ignored
        common = ["bench", "--input", ring_graph, "--target-size", "2"]
        assert run([*common, flag, "7", "--out", tmp_path / "flag"]) == 2
        assert flag in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 7}))
        assert run([*common, "--config", cfg, "--out", tmp_path / "config"]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "flag").exists() and not (tmp_path / "config").exists()

    def test_workers_environment_is_accepted(self, ring_graph, tmp_path, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        out = tmp_path / "out"
        assert run(["bench", "--input", ring_graph, "--target-size", "2", "--out", out]) == 0
        assert (out / "bench.json").is_file()

    @pytest.mark.parametrize("value", ["0", "lots"])
    def test_invalid_workers_environment_is_not_read(self, ring_graph, tmp_path, monkeypatch, value):
        monkeypatch.setenv(WORKERS_ENV, value)
        out = tmp_path / "out"
        assert run(["bench", "--input", ring_graph, "--target-size", "2", "--out", out]) == 0
        assert (out / "bench.json").is_file()


class TestStatsCommand:
    def test_prints_summary(self, path_graph, capsys):
        assert run(["stats", "--input", path_graph]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats == {"n": 3, "m": 2, "degree_min": 1, "degree_max": 2}

    @pytest.mark.parametrize(
        "flag, key, value",
        [("--ensemble", "ensemble", 5), ("--workers", "workers", 9), ("--cost", "cost", "degree"),
         ("--target-size", "target_size", 2), ("--reinsert", "reinsert", "off")],
    )
    def test_run_settings_are_usage_errors(self, path_graph, tmp_path, capsys, flag, key, value):
        # stats only parses; a solver setting would be ignored
        assert run(["stats", "--input", path_graph, flag, value]) == 2
        assert flag in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["stats", "--input", path_graph, "--config", cfg]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "lots"])
    def test_invalid_workers_environment_is_not_read(self, path_graph, monkeypatch, capsys, value):
        monkeypatch.setenv(WORKERS_ENV, value)
        assert run(["stats", "--input", path_graph]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

    def test_byte_order_mark_is_not_a_node(self, tmp_path, capsys):
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf1 2\n1 3\n2 3\n3 4\n")
        assert run(["stats", "--input", bom]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 4

    def test_input_decodes_as_utf8_whatever_the_locale(self, tmp_path):
        f = tmp_path / "accents.txt"
        f.write_bytes("é ü\nü 𝔘\n".encode())
        proc = run_in_c_locale(["stats", "--input", f])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["n"] == 3

    def test_writes_file_when_out_given(self, path_graph, tmp_path):
        out = tmp_path / "out"
        assert run(["stats", "--input", path_graph, "--out", out]) == 0
        stats = json.loads((out / "graph_stats.json").read_text())
        assert stats["n"] == 3

    def test_writes_file_when_config_gives_out(self, path_graph, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["stats", "--input", path_graph]) == 0
        assert sorted(os.listdir(tmp_path)) == ["path.txt"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "out")}))
        capsys.readouterr()
        assert run(["stats", "--input", path_graph, "--config", cfg]) == 0
        assert (tmp_path / "out" / "graph_stats.json").read_text() == capsys.readouterr().out
