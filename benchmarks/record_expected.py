"""Rewrite expected_verdicts.json: the per-edge status and k of each
feeder workload at the default seed, as ``check_n1`` gives them now.

    python3 benchmarks/record_expected.py

Run it only when a change is meant to alter verdicts, and say so; the
benchmark compares every default-seed run against this table.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

if __name__ == "__main__":
    table = {}
    for name, wl in workloads.WORKLOADS.items():
        if isinstance(wl, workloads.FeederCheck):
            report = wl.job(wl.prepare(wl.inputs(workloads.DEFAULT_SEED), workloads.DEFAULT_SEED))
            table[name] = {str(eid): [v.status, v.k] for eid, v in sorted(report.per_edge.items())}
    blocks = []
    for name, edges in table.items():
        rows = ",\n".join(f"  {json.dumps(eid)}: {json.dumps(v)}" for eid, v in edges.items())
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    workloads.EXPECTED_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
