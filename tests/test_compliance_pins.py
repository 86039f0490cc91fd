"""Pinned compliance reports and load-flow solutions.

``tests/data/compliance_digests.json`` holds, for every k <= 2
reconfiguration of the three bundled networks and of a 4 x 25 feeder grid
built below, the sha256 of every ``check_compliance`` report (a
configuration that is not a tree, or is singular, hashed as an empty
non-compliant report) and of every ``solve_tree`` solution, plus the
``check_n1`` report of each network (the feeder grid at k = 1 and k = 2).
The oracle's verdict on every candidate must equal its report's.  Every number is hashed as its IEEE double, in
dict order, so any change to a voltage, a current, a violation tuple or the
residual shows up here, down to the last bit.  To re-capture after a deliberate change,
run this file as a script with the sources on ``PYTHONPATH``; it prints the
JSON.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from itertools import chain
from pathlib import Path

import pytest

from gridsec.classical import check_n1, enumerate_reconfigurations
from gridsec.datasets import bundled_names, load_bundled
from gridsec.loadflow import (
    ComplianceOracle,
    ComplianceReport,
    SingularSystemError,
    VoltageSolution,
    check_compliance,
    solve_tree,
)
from gridsec.network import Edge, Network, Node, NotSpanningTreeError

DIGESTS = Path(__file__).parent / "data" / "compliance_digests.json"


def feeder_4x25() -> Network:
    """One OS node feeding four radial chains of 25 MSR nodes.

    Tail-to-tail ties join adjacent chains, and one zero-rated mid tie joins
    the middle two.  A chain that picks up a neighbour's load drops below its
    voltage band and overloads its head cable, so reports vary.  Loads and
    impedances are jittered by a fixed seed.
    """
    rng = random.Random(25)
    nodes = [Node(0, "OS", 10500.0, 0j, 10500.0, 10500.0)]
    edges: list[Edge] = []

    def cable(a: int, b: int, i_max: float, active: bool) -> None:
        scale = rng.uniform(0.95, 1.05)
        edges.append(Edge(len(edges) + 1, a, b, complex(0.04 * scale, 0.03 * scale), i_max, active))

    for f in range(4):
        previous = 0
        for j in range(25):
            nid = 1 + 25 * f + j
            p = 250_000.0 * rng.uniform(0.95, 1.05)
            nodes.append(Node(nid, "MSR", 10500.0, complex(p, 0.33 * p), 9800.0, 11000.0))
            cable(previous, nid, 994.0, True)
            previous = nid
    for f in range(3):
        cable(25 * (f + 1), 25 * (f + 2), 994.0, False)
    cable(25 + 13, 50 + 13, 0.0, False)
    return Network(nodes, edges)


def networks() -> dict[str, Network]:
    found = {name: load_bundled(name) for name in bundled_names()}
    found["feeder_4x25"] = feeder_4x25()
    return found


def _doubles(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def report_bytes(report: ComplianceReport) -> bytes:
    return _doubles(
        report.compliant,
        len(report.voltage_violations), *chain(*report.voltage_violations),
        len(report.current_violations), *chain(*report.current_violations),
        len(report.currents), *chain(*((e, i.real, i.imag) for e, i in report.currents.items())),
    )


def solution_bytes(solution: VoltageSolution) -> bytes:
    return _doubles(
        solution.residual,
        len(solution.u), *chain(*((n, u.real, u.imag) for n, u in solution.u.items())),
    )


def reference_report(net: Network, cfg, oracle: ComplianceOracle) -> ComplianceReport:
    try:
        return check_compliance(net, cfg, solve_tree(net, cfg), oracle.tol)
    except (NotSpanningTreeError, SingularSystemError):
        return ComplianceReport(False, (), (), {})


def current_digests() -> dict[str, dict]:
    """Digests as in the module docstring; raises AssertionError where the
    oracle's verdict differs from the report's."""
    digests = {}
    for name, net in networks().items():
        oracle = ComplianceOracle(net)
        for k in (1, 2):
            reports, solutions = hashlib.sha256(), hashlib.sha256()
            listing = enumerate_reconfigurations(net, net.initial_configuration(), k)
            for _, cfg in listing:
                report = reference_report(net, cfg, oracle)
                assert oracle.passes(cfg) == report.compliant, (name, sorted(cfg.edges))
                reports.update(report_bytes(report))
                solutions.update(solution_bytes(solve_tree(net, cfg)))
            digests[f"{name}/k{k}"] = {
                "candidates": len(listing),
                "reports": reports.hexdigest(),
                "solutions": solutions.hexdigest(),
            }
        n1 = check_n1(net, 1 if name == "feeder_4x25" else 2)
        digests[f"{name}/check_n1"] = n1_digest(n1)
    # k = 2 on the feeder grid exhausts every step-2 stream (63 INSECURE edges)
    digests["feeder_4x25/check_n1_k2"] = n1_digest(check_n1(feeder_4x25(), 2))
    return digests


def n1_digest(report) -> dict:
    return {
        "loadflow_calls": report.loadflow_calls,
        "report": hashlib.sha256(report.to_json().encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def digests():
    return current_digests()


def test_compliance_digests_unchanged(digests):
    assert digests == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=1, sort_keys=True))
