import json
from pathlib import Path

import jsonschema

from gridsec.cli import main
from gridsec.datasets import bundled_path
from gridsec.qubo import Qubo

SEVENBUS = str(bundled_path("sevenbus"))
DEMO_K1 = str(bundled_path("demo_single_switch"))


def schema(name):
    root = Path(__file__).parents[1] / "src" / "gridsec" / "schemas"
    return json.loads((root / f"{name}.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_insecure_fixture_exit_code(self, capsys):
        code, out, _ = run(capsys, "check", "--network", SEVENBUS, "--k-max", "2")
        assert code == 2
        assert "INSECURE" in out
        assert "SECURE_K1" in out

    def test_json_output_validates(self, capsys):
        code, out, _ = run(capsys, "check", "--network", SEVENBUS, "--format", "json")
        assert code == 2
        doc = json.loads(out)
        jsonschema.validate(doc, schema("n1_report"))
        assert doc["overall"] is False

    def test_secure_network_exit_zero(self, capsys, tmp_path):
        doc = {
            "nodes": [
                {"id": 0, "type": "OS", "u_nom": 10500.0, "load": [0, 0],
                 "u_min": 10500.0, "u_max": 10500.0},
                {"id": 1, "type": "MSR", "u_nom": 10500.0, "load": [1000.0, 0],
                 "u_min": 9800.0, "u_max": 11000.0},
            ],
            "edges": [
                {"id": 1, "n": 0, "m": 1, "z": [0.1, 0.1], "i_max": 999.0, "active": True},
                {"id": 2, "n": 0, "m": 1, "z": [0.1, 0.1], "i_max": 999.0, "active": False},
            ],
        }
        jsonschema.validate(doc, schema("network"))
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", "--network", str(path), "--k-max", "1")
        assert code == 0
        assert "SECURE" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--network", "/nope/missing.json")
        assert code == 1
        assert "error" in err

    def test_bad_k_max(self, capsys):
        code, _, err = run(capsys, "check", "--network", SEVENBUS, "--k-max", "0")
        assert code == 1
        assert "k_max" in err

    def test_nan_load_is_input_error(self, capsys, tmp_path):
        doc = json.loads(Path(SEVENBUS).read_text())
        doc["nodes"][0]["load"] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--network", str(path))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "load must be finite" in err


class TestEnumerate:
    def test_fixture_k1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--network", SEVENBUS, "--k", "1")
        assert code == 0
        assert "7 reconfigurations" in out

    def test_restricted(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--network", SEVENBUS, "--k", "1", "--failing-edge", "2"
        )
        assert code == 0
        assert "1 reconfigurations" in out

    def test_k_too_large(self, capsys):
        code, _, err = run(capsys, "enumerate", "--network", SEVENBUS, "--k", "7")
        assert code == 1
        assert "k must be" in err

    def test_failing_edge_outside_configuration(self, capsys):
        # 5 is an inactive spare, 99 no edge at all
        for edge in ("5", "99"):
            code, out, err = run(
                capsys, "enumerate", "--network", SEVENBUS, "--k", "1", "--failing-edge", edge
            )
            assert code == 1
            assert out == ""
            assert err == f"error: cannot restrict to edges [{edge}]: not in the configuration\n"


class TestLoadflow:
    def test_fixture_swap_compliant(self, capsys):
        code, out, _ = run(
            capsys, "loadflow", "--network", SEVENBUS,
            "--activate", "4", "--deactivate", "2",
        )
        assert code == 0
        assert "compliant" in out

    def test_zero_rated_violation_reported(self, capsys):
        code, out, _ = run(
            capsys, "loadflow", "--network", SEVENBUS, "--format", "json",
            "--activate", "5", "--deactivate", "7",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema("compliance_report"))
        assert doc["compliant"] is False
        assert doc["current_violations"][0]["edge"] == 5

    def test_non_tree_rejected(self, capsys):
        code, _, err = run(
            capsys, "loadflow", "--network", SEVENBUS, "--deactivate", "2",
        )
        assert code == 1
        assert "spanning tree" in err

    def test_text_prints_voltages_and_currents(self, capsys):
        code, out, _ = run(capsys, "loadflow", "--network", SEVENBUS)
        assert code == 0
        lines = out.splitlines()
        assert sum(line.startswith("node") for line in lines) == 7
        assert sum(line.startswith("edge") for line in lines) == 6
        assert lines[-1] == "compliant"

    def test_singular_system_is_input_error(self, capsys, tmp_path):
        # node 1 draws -1/z of its only cable: its balance row is zero
        doc = {
            "nodes": [
                {"id": 0, "type": "OS", "u_nom": 10500.0, "load": [0, 0],
                 "u_min": 10500.0, "u_max": 10500.0},
                {"id": 1, "type": "MSR", "u_nom": 10500.0,
                 "load": [-10500.0**2, -10500.0**2], "u_min": 9800.0, "u_max": 11000.0},
                {"id": 2, "type": "MSR", "u_nom": 10500.0, "load": [1000.0, 0],
                 "u_min": 9800.0, "u_max": 11000.0},
            ],
            "edges": [
                {"id": 1, "n": 0, "m": 1, "z": [0.5, 0.5], "i_max": 999.0, "active": True},
                {"id": 2, "n": 0, "m": 2, "z": [0.5, 0.5], "i_max": 999.0, "active": True},
            ],
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "loadflow", "--network", str(path))
        assert code == 1
        assert err.startswith("error: pivot") and err.count("\n") == 1


class TestQubo:
    def test_export_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "problem.qubo"
        layout_path = tmp_path / "problem.layout.json"
        code, _, err = run(
            capsys, "qubo", "--network", SEVENBUS, "--failing-edge", "2",
            "--out", str(out_path), "--layout-out", str(layout_path),
        )
        assert code == 0
        qubo, labels = Qubo.loads(out_path.read_text())
        layout_doc = json.loads(layout_path.read_text())
        assert qubo.n == len(layout_doc["variables"]) == len(labels)
        assert f"variables: {qubo.n}" in err

    def test_tree_only_is_smaller(self, capsys, tmp_path):
        full = tmp_path / "full.qubo"
        tree = tmp_path / "tree.qubo"
        run(capsys, "qubo", "--network", SEVENBUS, "--failing-edge", "2", "--out", str(full))
        run(capsys, "qubo", "--network", SEVENBUS, "--failing-edge", "2",
            "--tree-only", "--out", str(tree))
        full_q, _ = Qubo.loads(full.read_text())
        tree_q, _ = Qubo.loads(tree.read_text())
        assert tree_q.n < full_q.n

    def test_weights_json_validation(self, capsys):
        code, _, err = run(
            capsys, "qubo", "--network", SEVENBUS, "--weights", '{"bogus": 1}',
        )
        assert code == 1
        assert "bogus" in err


class TestAnneal:
    ARGS = [
        "anneal", "--network", SEVENBUS, "--failing-edge", "2", "--tree-only",
        "--height", "4", "--reads", "20", "--sweeps", "400", "--sweeps-per-beta", "10",
    ]

    def test_requires_seed(self, capsys, monkeypatch):
        monkeypatch.delenv("GRIDSEC_SEED", raising=False)
        code, _, err = run(capsys, *self.ARGS)
        assert code == 1
        assert "seed" in err.lower()

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("GRIDSEC_SEED", "77")
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        assert "seed: 77" in out

    def test_json_summary(self, capsys, monkeypatch):
        monkeypatch.delenv("GRIDSEC_SEED", raising=False)
        code, out, _ = run(capsys, *self.ARGS, "--seed", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 5
        assert doc["reads"] == 20
        assert sum(b["feasible"] + b["infeasible"] for b in doc["histogram"]["bins"]) == 20

    def test_beta_window_flags(self, capsys, monkeypatch):
        monkeypatch.delenv("GRIDSEC_SEED", raising=False)
        code, out, _ = run(capsys, *self.ARGS, "--seed", "5", "--beta-min", "0.02", "--beta-max", "5")
        assert code == 0
        code, _, err = run(capsys, *self.ARGS, "--seed", "5", "--beta-min", "0.02")
        assert code == 1
        assert "together" in err

    def test_reproducible_and_post_processed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("GRIDSEC_SEED", raising=False)
        hist = tmp_path / "h.csv"
        samples = tmp_path / "s.csv"
        argv = self.ARGS + [
            "--seed", "5", "--post-process",
            "--histogram-out", str(hist), "--samples-out", str(samples),
        ]
        code, out_a, _ = run(capsys, *argv)
        assert code == 0
        first_hist = hist.read_text()
        code, out_b, _ = run(capsys, *argv)
        assert code == 0
        assert out_a == out_b
        assert hist.read_text() == first_hist
        lines = first_hist.strip().splitlines()
        assert lines[0] == "energy,feasible,infeasible"
        total = sum(int(f) + int(i) for _, f, i in (row.split(",") for row in lines[1:]))
        assert total == 20
        assert samples.read_text().startswith("energy,multiplicity,feasible,configuration")


class TestGrover:
    def test_demo_search(self, capsys, tmp_path):
        dist = tmp_path / "d.csv"
        code, out, _ = run(
            capsys, "grover", "--network", DEMO_K1, "--failing-edge", "2",
            "--k", "1", "--iterations", "1", "--seed", "3",
            "--distribution-out", str(dist),
        )
        assert code == 0
        assert "candidates: 4, marked: 1" in out
        assert "sampled id 0" in out
        rows = dist.read_text().strip().splitlines()
        assert rows[0] == "id,probability,switchover_json"
        assert len(rows) == 5

    def test_zero_iterations(self, capsys):
        code, out, _ = run(
            capsys, "grover", "--network", DEMO_K1, "--failing-edge", "2",
            "--iterations", "0", "--seed", "3",
        )
        assert code == 0
        assert "iterations: 0, oracle queries: 0" in out

    def test_unknown_count_reports_queries(self, capsys):
        code, out, _ = run(
            capsys, "grover", "--network", DEMO_K1, "--failing-edge", "2", "--seed", "4",
        )
        assert code == 0
        assert "oracle queries:" in out

    def test_empty_space_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "grover", "--network", SEVENBUS, "--failing-edge", "1", "--seed", "1",
        )
        assert code == 1
        assert "no 1-switchover" in err

    def test_unfixable_edge_answers_cleanly(self, capsys):
        code, out, err = run(
            capsys, "grover", "--network", SEVENBUS, "--failing-edge", "6", "--seed", "1",
        )
        assert code == 2
        assert err == ""
        assert out.splitlines()[0] == "seed: 1"
        assert out.splitlines()[1].startswith("no compliant switchover within k=1 for failing edge 6")
        assert len(out.splitlines()) == 2

    def test_fixed_iterations_on_unfixable_edge(self, capsys):
        code, out, err = run(
            capsys, "grover", "--network", SEVENBUS, "--failing-edge", "6",
            "--iterations", "1", "--seed", "1",
        )
        assert code == 2
        assert err == ""
        assert out.splitlines() == [
            "seed: 1",
            "no compliant switchover within k=1 for failing edge 6"
            " (candidates: 1, oracle queries: 1)",
        ]

    def test_fixed_iterations_flags_a_missed_sample(self, capsys):
        # no amplification: seed 1 samples id 1, while only id 0 is compliant
        code, out, _ = run(
            capsys, "grover", "--network", DEMO_K1, "--failing-edge", "2",
            "--iterations", "0", "--seed", "1",
        )
        assert code == 0
        assert "candidates: 4, marked: 1" in out
        assert out.splitlines()[-1] == "sampled id 1: on[7] off[2] (not compliant)"
