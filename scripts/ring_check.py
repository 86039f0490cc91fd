"""Time ``check_n1`` on a seeded feeder ring, optionally with lighter loads.

The grid is ``benchmarks/feeders.py``'s ``feeder_grid(feeders, length, seed,
ring=True)``.  ``--load-kw`` rescales every MSR load (active and reactive
alike) so that its nominal active draw is that many kW instead of 250 kW; at
100 kW the 4 x 50 ring complies in its base state.  Prints one JSON line: the
median wall time over ``--repeats`` calls, the load-flow calls, the oracle's
solves and the queries among them that its load-floor screen answered, the
verdict counts, a digest of the report JSON and the peak resident memory.

    PYTHONPATH=src python3 scripts/ring_check.py --feeders 4 --length 50 --load-kw 100 --k 2
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from feeders import LOAD_W, feeder_grid  # noqa: E402

from gridsec import classical, loadflow, network  # noqa: E402


def ring(feeders: int, length: int, seed: int, load_kw: float | None) -> dict:
    doc = feeder_grid(feeders, length, seed, ring=True)
    if load_kw is not None:
        scale = load_kw * 1e3 / LOAD_W
        for node in doc["nodes"]:
            if node["type"] == "MSR":
                node["load"] = [part * scale for part in node["load"]]
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--feeders", type=int, default=4)
    parser.add_argument("--length", type=int, default=25)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--load-kw", type=float, default=None)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args()

    grid = network.parse_network(json.dumps(ring(args.feeders, args.length, args.seed, args.load_kw)))
    oracles = []
    init = loadflow.ComplianceOracle.__init__

    def recording(oracle, *rest):
        init(oracle, *rest)
        oracles.append(oracle)

    times = []
    with mock.patch.object(loadflow.ComplianceOracle, "__init__", recording):
        for _ in range(args.repeats):
            started = time.perf_counter()
            report = classical.check_n1(grid, args.k)
            times.append(time.perf_counter() - started)
    oracle = oracles[-1]
    statuses = [v.status for v in report.per_edge.values()]
    print(json.dumps({
        "wall_s": statistics.median(times),
        "loadflow_calls": report.loadflow_calls,
        "solves": oracle.solves,
        "screened": oracle.screened,
        "verdicts": {s: statuses.count(s) for s in (classical.SECURE_K1, classical.SECURE_KN, classical.INSECURE)},
        "report_sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
