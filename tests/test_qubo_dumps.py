"""Pinned text dumps of the three QUBO builders.

``tests/data/qubo_dump_digests.json`` holds the sha256 of ``Qubo.dumps``
(with variable labels) for every case below, captured before the residual
assembly of the two load-flow builders was merged.  Any change to a
coefficient, its summation order, a label or the variable order shows up
here.  To re-capture after a deliberate change, run this file as a script
with the new sources on ``PYTHONPATH``; it prints the JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from conftest import spanning_trees

from gridsec.datasets import bundled_names, load_bundled
from gridsec.n1qubo import build_loadflow_qubo, build_n1_qubo, build_tree_qubo
from gridsec.network import Configuration

DIGESTS = Path(__file__).parent / "data" / "qubo_dump_digests.json"
LEVELS = 4


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


@pytest.fixture(scope="module")
def digests():
    return current_digests()


@pytest.mark.parametrize("case", ["loadflow_sevenbus_4bit", "n1_levels4", "tree_levels4"])
def test_dump_digests_unchanged(digests, case):
    pinned = json.loads(DIGESTS.read_text())[case]
    assert len(pinned) == len(digests[case])
    assert digests[case] == pinned


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=1, sort_keys=True))
