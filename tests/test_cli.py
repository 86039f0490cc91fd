import errno
import json
import os
from pathlib import Path

import jsonschema
import pytest

from gridsec import anneal, grover, n1qubo
from gridsec.cli import main
from gridsec.datasets import bundled_path, load_bundled

SEVENBUS = str(bundled_path("sevenbus"))
DEMO_K1 = str(bundled_path("demo_single_switch"))

# QUBO size flags that `qubo` and `anneal` reject, each with its one-line error; the
# heights come first.  |V| + 1 levels is the smallest height past the cap
# (sevenbus has 7 nodes), so the check allocates nothing to fail.
BAD_SIZES = (
    (["--height", "0"], "need at least 2 depth levels, got 0"),
    (["--height", "1"], "need at least 2 depth levels, got 1"),
    (["--height", "8"], "need at most 7 depth levels (the node count), got 8"),
    (["--bits-u", "0"], "bits_real must be >= 1, got 0"),
    (["--bits-ui", "0"], "bits_imag must be >= 1, got 0"),
    (["--bits-i", "-1"], "bits_current must be >= 1, got -1"),
)

# penalty weights that `qubo` and `anneal` reject, each with its one-line error
BAD_WEIGHTS = (
    ('{"dw": "x"}', "penalty weight dw must be a finite positive number, got 'x'"),
    ('{"u_real": null}', "penalty weight u_real must be a finite positive number, got None"),
    ('{"current": null}', "penalty weight current must be a finite positive number, got None"),
    ('{"ind": true}', "penalty weight ind must be a finite positive number, got True"),
    ('{"root": 0}', "penalty weight root must be a finite positive number, got 0"),
    ('{"con": -2.5}', "penalty weight con must be a finite positive number, got -2.5"),
    ('{"aux": NaN}', "penalty weight aux must be a finite positive number, got nan"),
    ('{"u_imag": Infinity}', "penalty weight u_imag must be a finite positive number, got inf"),
    ('{"dw": [1]}', "penalty weight dw must be a finite positive number, got [1]"),
    ('[1]', "--weights must be a JSON object, got [1]"),
    ('5', "--weights must be a JSON object, got 5"),
    ('nope', "--weights is not JSON: Expecting value: line 1 column 1 (char 0)"),
)

# finite weights that overflow the QUBO or the annealer's fields, each with its one-line error
OVERFLOWING_WEIGHTS = {
    "ind": "the penalty weights overflow the QUBO: its (0, 0) term is inf",
    "dw": "the coefficients of QUBO variable 0 sum beyond the float range",
}


def sevenbus_with(kind, key, value):
    """The bundled sevenbus file with ``key`` of its first node or edge set to ``value``."""
    doc = json.loads(Path(SEVENBUS).read_text())
    doc[kind][0][key] = value
    return doc


# network documents that `check` rejects, each with its one-line error: the
# arrays must hold objects, and a number field takes a JSON number alone
BAD_NETWORK_TYPES = (
    ({"nodes": 5, "edges": []}, "document: nodes must be an array of objects, got 5"),
    ({"nodes": [], "edges": None}, "document: edges must be an array of objects, got None"),
    ({"nodes": {"a": 1}, "edges": []}, "document: nodes must be an array of objects, got {'a': 1}"),
    ({"nodes": [5], "edges": []}, "nodes[0]: must be an object, got 5"),
    (sevenbus_with("edges", "i_max", True), "edges[0]: i_max must be a number, got True"),
    (sevenbus_with("edges", "i_max", "300"), "edges[0]: i_max must be a number, got '300'"),
    (sevenbus_with("nodes", "load", [True, "5"]), "nodes[0]: load[0] must be a number, got True"),
    (sevenbus_with("nodes", "load", [0.0, "5"]), "nodes[0]: load[1] must be a number, got '5'"),
    (sevenbus_with("edges", "z", [0.1, False]), "edges[0]: z[1] must be a number, got False"),
    (sevenbus_with("nodes", "u_nom", "10500"), "nodes[0]: u_nom must be a number, got '10500'"),
    (sevenbus_with("nodes", "u_min", None), "nodes[0]: u_min must be a number, got None"),
    (sevenbus_with("nodes", "u_max", [11000.0]), "nodes[0]: u_max must be a number, got [11000.0]"),
)

# usage errors, each with the start of its one stderr line; argparse's own
# exit 2 would read as an INSECURE verdict
USAGE_ERRORS = (
    (["check", "--network", SEVENBUS, "--k-max", "two"],
     "gridsec check: error: argument --k-max: invalid int value: 'two'"),
    (["check"], "gridsec check: error: the following arguments are required: --network"),
    (["check", "--network", SEVENBUS, "--bogus"], "gridsec: error: unrecognized arguments: --bogus"),
    (["frob"], "gridsec: error: argument command: invalid choice: 'frob'"),
)

IS_A_DIRECTORY = os.strerror(errno.EISDIR)
NO_SUCH_FILE = os.strerror(errno.ENOENT)


def schema(name):
    root = Path(__file__).parents[1] / "src" / "gridsec" / "schemas"
    return json.loads((root / f"{name}.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbid(monkeypatch, module, name):
    """Make ``module.name`` fail if called: the command must stop before it."""

    def called(*args, **kwargs):
        raise AssertionError(f"{name} ran before the command failed")

    monkeypatch.setattr(module, name, called)


class TestUsage:
    @pytest.mark.parametrize(
        "argv, message", USAGE_ERRORS,
        ids=["k-max-not-int", "missing-network", "unknown-flag", "unknown-subcommand"],
    )
    def test_usage_errors_exit_one(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["grover", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.out.startswith("usage: gridsec")
        assert captured.err == ""


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

    def test_directory_network_is_input_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", "--network", str(tmp_path))
        assert (code, out, err) == (1, "", f"error: cannot read {tmp_path}: {IS_A_DIRECTORY}\n")

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


    @pytest.mark.parametrize("doc, message", BAD_NETWORK_TYPES, ids=[m for _, m in BAD_NETWORK_TYPES])
    def test_malformed_network_is_one_line(self, capsys, tmp_path, doc, message):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema("network"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--network", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_number_beyond_float_range_is_one_line(self, capsys, tmp_path):
        # the schema bounds every number by the largest float, which a
        # 401-digit integer exceeds
        doc = sevenbus_with("edges", "i_max", 10**400)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema("network"))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--network", str(path))
        assert (code, out, err) == (1, "", "error: edges[0]: i_max is too large for a float\n")

    @pytest.mark.parametrize("text, message", [
        ('{"nodes": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}', "maximum recursion depth"),
        ('{"nodes": [], "edges": [], "x": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ], ids=["nesting", "integer digits"])
    def test_undecodable_json_is_one_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", "--network", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: invalid JSON: {message}") and err.count("\n") == 1


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

    def test_non_positive_u_nom_is_input_error(self, capsys, tmp_path):
        doc = json.loads(Path(SEVENBUS).read_text())
        doc["nodes"][0]["u_nom"] = -10500.0
        path = tmp_path / "negative_u_nom.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "enumerate", "--network", str(path), "--k", "1")
        assert (code, out) == (1, "")
        assert err == "error: node 1: u_nom must be positive, got -10500.0\n"


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

    @pytest.mark.parametrize("switches, message", [
        # edges 1-3 and 6-8 are active, 4 and 5 inactive
        (["--activate", "2", "--deactivate", "4"],
         "cannot deactivate edges [4]: not in the configuration"),
        (["--deactivate", "5"], "cannot deactivate edges [5]: not in the configuration"),
        (["--activate", "2"], "cannot activate edges [2]: already active"),
        (["--activate", "4", "--deactivate", "99"], "unknown edge ids [99]"),
    ], ids=["active-on-inactive-off", "inactive-off", "active-on", "unknown"])
    def test_switch_in_wrong_state_rejected(self, capsys, switches, message):
        code, out, err = run(capsys, "loadflow", "--network", SEVENBUS, *switches)
        assert (code, out, err) == (1, "", f"error: {message}\n")

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

    def test_bad_tolerance_is_input_error(self, capsys):
        for tol in ("-1", "nan", "inf"):
            code, out, err = run(capsys, "loadflow", "--network", SEVENBUS, "--tol", tol)
            assert code == 1, tol
            assert out == ""
            assert err.startswith("error: tol must be finite and non-negative") and err.count("\n") == 1


class TestQubo:
    def test_export_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "problem.qubo"
        layout_path = tmp_path / "problem.layout.json"
        code, _, err = run(
            capsys, "qubo", "--network", SEVENBUS, "--failing-edge", "2",
            "--out", str(out_path), "--layout-out", str(layout_path),
        )
        assert code == 0
        qubo, layout = n1qubo.build_n1_qubo(load_bundled("sevenbus"), failing_edge=2)
        assert out_path.read_text() == qubo.dumps(layout.labels)
        layout_doc = json.loads(layout_path.read_text())
        assert layout_doc["variables"] == {str(i): label for i, label in enumerate(layout.labels)}
        assert f"variables: {qubo.n}" in err

    def test_tree_only_is_smaller(self, capsys, tmp_path):
        full = tmp_path / "full.qubo"
        tree = tmp_path / "tree.qubo"
        run(capsys, "qubo", "--network", SEVENBUS, "--failing-edge", "2", "--out", str(full))
        run(capsys, "qubo", "--network", SEVENBUS, "--failing-edge", "2",
            "--tree-only", "--out", str(tree))

        def size(path):  # the header reads "# n=<variables> offset=<offset>"
            return int(path.read_text().split()[1].removeprefix("n="))

        assert size(tree) < size(full)

    def test_bad_failing_edge_is_input_error(self, capsys, tmp_path):
        # 99 is no edge at all, 5 an inactive spare; neither writes a QUBO
        out_path = tmp_path / "problem.qubo"
        for edge, message in (("99", "unknown edge id 99"), ("5", "failing edge 5 is not active")):
            for extra in ([], ["--tree-only"]):
                code, out, err = run(
                    capsys, "qubo", "--network", SEVENBUS, "--failing-edge", edge,
                    "--out", str(out_path), *extra,
                )
                assert code == 1
                assert out == ""
                assert err == f"error: {message}\n"
                assert not out_path.exists()

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "problem.qubo"
        for path, reason in ((tmp_path, IS_A_DIRECTORY), (missing, NO_SUCH_FILE)):
            code, out, err = run(
                capsys, "qubo", "--network", SEVENBUS, "--failing-edge", "2", "--out", str(path),
            )
            assert (code, out, err) == (1, "", f"error: cannot write {path}: {reason}\n")

    def test_unwritable_layout_fails_before_the_build(self, capsys, tmp_path, monkeypatch):
        forbid(monkeypatch, n1qubo, "build_n1_qubo")
        out_path, layout_path = tmp_path / "problem.qubo", tmp_path / "nodir" / "layout.json"
        code, out, err = run(
            capsys, "qubo", "--network", SEVENBUS, "--failing-edge", "2",
            "--out", str(out_path), "--layout-out", str(layout_path),
        )
        assert (code, out, err) == (1, "", f"error: cannot write {layout_path}: {NO_SUCH_FILE}\n")
        assert not out_path.exists()

    def test_weights_json_validation(self, capsys):
        code, _, err = run(
            capsys, "qubo", "--network", SEVENBUS, "--weights", '{"bogus": 1}',
        )
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("mode", [["--tree-only"], ["--failing-edge", "2"]], ids=["tree", "n1"])
    @pytest.mark.parametrize("weights, message", BAD_WEIGHTS, ids=[w for w, _ in BAD_WEIGHTS])
    def test_bad_weight_values_are_input_errors(self, capsys, tmp_path, mode, weights, message):
        out_path = tmp_path / "problem.qubo"
        code, out, err = run(
            capsys, "qubo", "--network", SEVENBUS, *mode, "--weights", weights, "--out", str(out_path),
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_path.exists()

    def test_overflowing_weights_are_input_errors(self, capsys, tmp_path):
        # finite weights whose default domain-wall weight 4 ind + 2 |E| overflows
        out_path = tmp_path / "problem.qubo"
        code, out, err = run(
            capsys, "qubo", "--network", SEVENBUS, "--failing-edge", "2",
            "--weights", '{"ind": 1e308}', "--out", str(out_path),
        )
        assert (code, out, err) == (1, "", f"error: {OVERFLOWING_WEIGHTS['ind']}\n")
        assert not out_path.exists()

    def test_resolved_weights_may_be_null(self, capsys, tmp_path):
        out_path = tmp_path / "problem.qubo"
        weights = '{"dw": null, "root": null, "con": null, "ind": null, "aux": null}'
        code, _, _ = run(capsys, "qubo", "--network", SEVENBUS, "--failing-edge", "2",
                         "--weights", weights, "--out", str(out_path))
        assert code == 0
        assert out_path.exists()

    def test_bad_sizes_are_input_errors(self, capsys, tmp_path):
        out_path = tmp_path / "problem.qubo"
        heights = [(["--tree-only", *flags], message) for flags, message in BAD_SIZES[:3]]
        for flags, message in [*BAD_SIZES, *heights]:
            code, out, err = run(
                capsys, "qubo", "--network", SEVENBUS, "--failing-edge", "2",
                "--out", str(out_path), *flags,
            )
            assert (code, out, err) == (1, "", f"error: {message}\n"), flags
            assert not out_path.exists()


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

    def test_bad_seed_is_input_error(self, capsys, monkeypatch):
        monkeypatch.delenv("GRIDSEC_SEED", raising=False)
        for seed in ("-1", str(2**128)):
            code, out, err = run(capsys, *self.ARGS, "--seed", seed)
            assert (code, out) == (1, "")
            assert err == f"error: --seed must lie in [0, 2**128), got {seed}\n"
        monkeypatch.setenv("GRIDSEC_SEED", "abc")
        code, out, err = run(capsys, *self.ARGS)
        assert (code, out) == (1, "")
        assert err == "error: GRIDSEC_SEED must be an integer, got 'abc'\n"

    def test_json_summary(self, capsys, monkeypatch):
        monkeypatch.delenv("GRIDSEC_SEED", raising=False)
        code, out, _ = run(capsys, *self.ARGS, "--seed", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 5
        assert doc["reads"] == 20
        assert sum(b["feasible"] + b["infeasible"] for b in doc["histogram"]["bins"]) == 20

    def test_bad_failing_edge_is_input_error(self, capsys, monkeypatch):
        monkeypatch.delenv("GRIDSEC_SEED", raising=False)
        for edge, message in (("99", "unknown edge id 99"), ("5", "failing edge 5 is not active")):
            code, out, err = run(
                capsys, "anneal", "--network", SEVENBUS, "--failing-edge", edge,
                "--reads", "2", "--sweeps", "10", "--seed", "5",
            )
            assert code == 1
            assert out == ""
            assert err == f"error: {message}\n"

    def test_bad_sizes_are_input_errors(self, capsys):
        heights = [(["--tree-only", *flags], message) for flags, message in BAD_SIZES[:3]]
        for flags, message in [*BAD_SIZES, *heights]:
            code, out, err = run(
                capsys, "anneal", "--network", SEVENBUS, "--failing-edge", "2",
                "--reads", "2", "--sweeps", "10", "--seed", "5", *flags,
            )
            assert (code, out, err) == (1, "", f"error: {message}\n"), flags

    def test_bad_schedules_are_input_errors(self, capsys):
        cases = (
            (["--beta-min", "0.1", "--beta-max", "inf"],
             "beta range needs finite 0 < min <= max, got (0.1, inf)"),
            (["--beta-min", "nan", "--beta-max", "1"],
             "beta range needs finite 0 < min <= max, got (nan, 1.0)"),
            (["--sweeps", "45", "--sweeps-per-beta", "20"],
             "need sweeps a multiple of sweeps_per_beta >= 1, got 45/20"),
        )
        for flags, message in cases:
            code, out, err = run(
                capsys, "anneal", "--network", SEVENBUS, "--failing-edge", "2",
                "--tree-only", "--height", "4", "--reads", "2", "--sweeps", "40",
                "--seed", "5", *flags,
            )
            assert (code, out, err) == (1, "", f"error: {message}\n"), flags

    def test_bad_weight_values_are_input_errors(self, capsys):
        for mode in ([], ["--tree-only"]):
            for weights, message in BAD_WEIGHTS[:2]:
                code, out, err = run(
                    capsys, "anneal", "--network", SEVENBUS, "--failing-edge", "2",
                    "--reads", "2", "--sweeps", "10", "--seed", "5", "--weights", weights, *mode,
                )
                assert (code, out, err) == (1, "", f"error: {message}\n"), (weights, mode)

    @pytest.mark.parametrize("key", sorted(OVERFLOWING_WEIGHTS))
    def test_overflowing_weights_are_input_errors(self, capsys, key):
        # "ind" overflows the QUBO itself; "dw" leaves it finite but the
        # annealer's fields would overflow
        code, out, err = run(
            capsys, "anneal", "--network", SEVENBUS, "--failing-edge", "2", "--height", "4",
            "--reads", "2", "--sweeps", "10", "--sweeps-per-beta", "10", "--seed", "5",
            "--beta-min", "0.1", "--beta-max", "1", "--weights", json.dumps({key: 1e308}),
        )
        assert (code, out, err) == (1, "", f"error: {OVERFLOWING_WEIGHTS[key]}\n")

    def test_unwritable_histogram_is_input_error(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "h.csv"
        for path, reason in ((tmp_path, IS_A_DIRECTORY), (missing, NO_SUCH_FILE)):
            code, out, err = run(capsys, *self.ARGS, "--seed", "5", "--histogram-out", str(path))
            assert (code, out, err) == (1, "", f"error: cannot write {path}: {reason}\n")

    def test_unwritable_samples_fail_before_the_anneal(self, capsys, tmp_path, monkeypatch):
        forbid(monkeypatch, anneal, "simulated_annealing")
        hist, samples = tmp_path / "h.csv", tmp_path / "nodir" / "s.csv"
        code, out, err = run(
            capsys, *self.ARGS, "--seed", "5",
            "--samples-out", str(samples), "--histogram-out", str(hist),
        )
        assert (code, out, err) == (1, "", f"error: cannot write {samples}: {NO_SUCH_FILE}\n")
        assert not hist.exists()
        # an existing output is left as it was, not truncated
        hist.write_text("kept\n")
        not_a_dir = tmp_path / "h.csv" / "s.csv"
        code, out, err = run(
            capsys, *self.ARGS, "--seed", "5",
            "--histogram-out", str(hist), "--samples-out", str(not_a_dir),
        )
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {not_a_dir}: {os.strerror(errno.ENOTDIR)}\n"
        assert hist.read_text() == "kept\n"

    def test_beta_pairing_checked_before_the_build(self, capsys, monkeypatch):
        forbid(monkeypatch, n1qubo, "build_tree_qubo")
        code, out, err = run(capsys, *self.ARGS, "--seed", "5", "--beta-max", "5")
        assert (code, out, err) == (1, "", "error: --beta-min and --beta-max must be given together\n")

    def test_oversized_reads_are_input_error(self, capsys):
        # 63 variables x 10**15 reads of int64 is 0.5 EB: beyond any address
        # space, so the allocation fails at once instead of being overcommitted
        code, out, err = run(capsys, *self.ARGS, "--seed", "5", "--reads", str(10**15))
        assert (code, out, err) == (
            1, "", "error: out of memory: annealing 1000000000000000 reads x 63 variables\n"
        )

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

    def test_unwritable_distribution_is_input_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "grover", "--network", DEMO_K1, "--failing-edge", "2", "--seed", "3",
            "--distribution-out", str(tmp_path),
        )
        assert (code, out) == (1, "seed: 3\n")
        assert err == f"error: cannot write {tmp_path}: {IS_A_DIRECTORY}\n"

    def test_unwritable_distribution_fails_before_the_oracle(self, capsys, tmp_path, monkeypatch):
        forbid(monkeypatch, grover, "make_oracle")
        path = tmp_path / "nodir" / "d.csv"
        code, out, err = run(
            capsys, "grover", "--network", DEMO_K1, "--failing-edge", "2", "--seed", "3",
            "--distribution-out", str(path),
        )
        assert (code, out) == (1, "seed: 3\n")
        assert err == f"error: cannot write {path}: {NO_SUCH_FILE}\n"

    def test_negative_iterations_fail_before_the_oracle(self, capsys, monkeypatch):
        forbid(monkeypatch, grover, "make_oracle")
        code, out, err = run(
            capsys, "grover", "--network", DEMO_K1, "--failing-edge", "2", "--seed", "3",
            "--iterations", "-1",
        )
        assert (code, out) == (1, "seed: 3\n")
        assert err == "error: iterations must be >= 0, got -1\n"

    def test_bad_seed_is_input_error(self, capsys, monkeypatch):
        argv = ["grover", "--network", DEMO_K1, "--failing-edge", "2"]
        monkeypatch.delenv("GRIDSEC_SEED", raising=False)
        for seed in ("-1", str(2**128)):
            code, out, err = run(capsys, *argv, "--seed", seed)
            assert (code, out) == (1, "")
            assert err == f"error: --seed must lie in [0, 2**128), got {seed}\n"
        for env in ("abc", "-1"):
            monkeypatch.setenv("GRIDSEC_SEED", env)
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.count("\n") == 1 and err.startswith("error: GRIDSEC_SEED must")
        code, out, _ = run(capsys, *argv, "--seed", str(2**128 - 1))
        assert code == 0
        assert out.splitlines()[0] == f"seed: {2**128 - 1}"

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
