"""Set-up probe: import gridsec in a fresh process and parse one workload's
input, read from stdin.  run.py times this process from start to exit.

    python3 benchmarks/setup_probe.py <workload> <seed> < input
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports gridsec)

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name].prepare(sys.stdin.read(), seed)
