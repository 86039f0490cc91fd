"""Pinned text dumps of the three QUBO builders and of the ``qubo`` command.

``tests/data/qubo_dump_digests.json`` holds the sha256 of ``Qubo.dumps``
(with variable labels) for every builder case below, captured before the
residual assembly of the two load-flow builders was merged.
``tests/data/qubo_cli_digests.json`` holds the sha256 of the files
``gridsec qubo --out ... --layout-out ...`` writes, for every bundled network
with and without ``--failing-edge 1``, N-1 and ``--tree-only``, at
``--height 3``.  Any change to a coefficient, its summation order, a label,
the variable order or a layout sidecar field shows up here.  To re-capture
both pins after a deliberate change, run this file as a script with the new
sources on ``PYTHONPATH``; it rewrites both files.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from conftest import spanning_trees

from gridsec.cli import main
from gridsec.datasets import bundled_names, bundled_path, load_bundled
from gridsec.n1qubo import build_loadflow_qubo, build_n1_qubo, build_tree_qubo
from gridsec.network import Configuration

DIGESTS = Path(__file__).parent / "data" / "qubo_dump_digests.json"
CLI_DIGESTS = Path(__file__).parent / "data" / "qubo_cli_digests.json"
LEVELS = 4
CLI_CASES = {
    f"{name}/{edge}/{kind}": [
        "qubo", "--network", str(bundled_path(name)), "--height", "3",
        *(["--failing-edge", edge] if edge != "none" else []),
        *(["--tree-only"] if kind == "tree" else []),
    ]
    for name in bundled_names()
    for edge in ("none", "1")
    for kind in ("n1", "tree")
}


def _digest(qubo, layout) -> str:
    return hashlib.sha256(qubo.dumps(layout.labels).encode()).hexdigest()


def loadflow_digests() -> dict[str, str]:
    """``build_loadflow_qubo`` on every sevenbus spanning tree at 4 bits."""
    net = load_bundled("sevenbus")
    return {
        " ".join(map(str, sorted(tree))): _digest(*build_loadflow_qubo(net, Configuration(tree)))
        for tree in spanning_trees(net)
    }


def failing_edge_digests(build) -> dict[str, str]:
    """One builder for every active failing edge of the bundled networks."""
    digests = {}
    for name in bundled_names():
        net = load_bundled(name)
        for edge in sorted(net.active_ids):
            digests[f"{name}/{edge}"] = _digest(*build(net, edge))
    return digests


def current_digests() -> dict[str, dict[str, str]]:
    return {
        "loadflow_sevenbus_4bit": loadflow_digests(),
        "n1_levels4": failing_edge_digests(
            lambda net, edge: build_n1_qubo(net, failing_edge=edge, levels=LEVELS)
        ),
        "tree_levels4": failing_edge_digests(
            lambda net, edge: build_tree_qubo(net, LEVELS, failing_edge=edge)
        ),
    }


def cli_digests() -> dict[str, dict[str, str]]:
    """sha256 of the QUBO dump and the layout sidecar of every CLI case."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out, layout = Path(tmp) / "problem.qubo", Path(tmp) / "layout.json"
        for case, argv in CLI_CASES.items():
            assert main([*argv, "--out", str(out), "--layout-out", str(layout)]) == 0, case
            digests[case] = {
                "out": hashlib.sha256(out.read_bytes()).hexdigest(),
                "layout": hashlib.sha256(layout.read_bytes()).hexdigest(),
            }
    return digests


@pytest.fixture(scope="module")
def digests():
    return current_digests()


@pytest.mark.parametrize("case", ["loadflow_sevenbus_4bit", "n1_levels4", "tree_levels4"])
def test_dump_digests_unchanged(digests, case):
    pinned = json.loads(DIGESTS.read_text())[case]
    assert len(pinned) == len(digests[case])
    assert digests[case] == pinned


def test_cli_digests_unchanged():
    pinned = json.loads(CLI_DIGESTS.read_text())
    assert len(pinned) == len(CLI_CASES) == 12
    assert cli_digests() == pinned


if __name__ == "__main__":
    for path, capture in ((DIGESTS, current_digests), (CLI_DIGESTS, cli_digests)):
        path.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
