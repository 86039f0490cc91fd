"""Seeded synthetic feeder grids in the ``gridsec`` network JSON format.

One OS node (id 0) feeds ``feeders`` radial chains of ``length`` MSR nodes.
Every pair of adjacent feeders gets two inactive tie cables: tail to tail
and mid to mid; ``ring=True`` also ties the last feeder back to the first.

The seed only jitters loads and cable impedances around fixed nominal
values.  Topology, ratings and voltage bands do not depend on it, so two
seeds give grids that need about the same amount of work to check; the
benchmark compares runs across seeds and would otherwise mostly measure
how lucky a seed was.
"""

from __future__ import annotations

import json
import random

U_NOM = 10_500.0
U_MIN = 9_800.0
U_MAX = 11_000.0
POWER_FACTOR_Q = 0.33  # reactive share of each load, Q = 0.33 P
LOAD_W = 250_000.0  # nominal active load of one MSR node
Z_SEGMENT = 0.04 + 0.03j  # nominal impedance of one cable, ohm
# Every cable is rated at I_MAX_FACTOR times the nominal head current of one
# feeder, so a feeder can pick up part of a neighbour's load but not all of it.
I_MAX_FACTOR = 1.67
JITTER = 0.05  # largest relative deviation the seed applies to a load or impedance


def feeder_grid(feeders: int, length: int, seed: int, *, ring: bool = False) -> dict:
    """Network document for ``feeders`` x ``length`` MSR nodes."""
    if feeders < 2 or length < 2:
        raise ValueError(f"need at least 2 feeders of length 2, got {feeders} x {length}")
    if ring and feeders < 3:
        raise ValueError("a ring needs at least 3 feeders")
    rng = random.Random(seed)

    def jittered(value: float) -> float:
        return value * (1.0 + JITTER * rng.uniform(-1.0, 1.0))

    nodes = [{"id": 0, "type": "OS", "u_nom": U_NOM, "load": [0.0, 0.0],
              "u_min": U_NOM, "u_max": U_NOM}]
    for f in range(feeders):
        for j in range(length):
            p = jittered(LOAD_W)
            nodes.append({"id": node_id(f, j, length), "type": "MSR", "u_nom": U_NOM,
                          "load": [p, POWER_FACTOR_Q * p], "u_min": U_MIN, "u_max": U_MAX})

    i_max = I_MAX_FACTOR * length * LOAD_W / U_NOM
    edges = []

    def cable(a: int, b: int, active: bool) -> None:
        scale = jittered(1.0)
        edges.append({"id": len(edges) + 1, "n": a, "m": b,
                      "z": [Z_SEGMENT.real * scale, Z_SEGMENT.imag * scale],
                      "i_max": i_max, "active": active})

    for f in range(feeders):
        previous = 0
        for j in range(length):
            cable(previous, node_id(f, j, length), True)
            previous = node_id(f, j, length)
    pairs = [(f, f + 1) for f in range(feeders - 1)]
    if ring:
        pairs.append((feeders - 1, 0))
    for a, b in pairs:
        cable(node_id(a, length - 1, length), node_id(b, length - 1, length), False)
        cable(node_id(a, length // 2, length), node_id(b, length // 2, length), False)
    return {"nodes": nodes, "edges": edges}


def node_id(feeder: int, position: int, length: int) -> int:
    """Id of the MSR node ``position`` steps (0-based) down ``feeder``."""
    return 1 + feeder * length + position


def feeder_grid_json(*args, **kwargs) -> str:
    return json.dumps(feeder_grid(*args, **kwargs))
