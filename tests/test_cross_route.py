"""The three routes answer the same question alike on small grids.

For every active failing edge of a small random grid, the classical k=1
verdict is SECURE_K1 exactly when the Grover oracle marks some candidate,
and every marked configuration is a zero-penalty state of the default tree
QUBO whose energy is its switch count.  At k=2, on the bundled networks and
a benchmark ring, the classical verdict's k is the smallest k at which the
Grover oracle marks a candidate.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridsec.classical import SECURE_K1, check_n1
from gridsec.datasets import load_bundled
from gridsec.grover import SearchSpaceError, index_reconfigurations, make_oracle
from gridsec.n1qubo import STRUCTURAL_GROUPS, build_tree_qubo, decode_solution, default_levels
from gridsec.network import apply_switchover, parse_network

from conftest import make_network

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@st.composite
def small_grids(draw):
    """A random 4-7-node grid: a random parent per node is the active tree,
    1-3 spare cables close loops (parallel cables allowed), and a tight
    40 A rating on about a third of the cables makes some failures fixable
    and others not."""
    n = draw(st.integers(4, 7), label="nodes")
    pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    for _ in range(draw(st.integers(1, 3), label="spares")):
        a = draw(st.integers(0, n - 1))
        pairs.append((a, (a + draw(st.integers(1, n - 1))) % n))
    i_max = {
        eid: draw(st.sampled_from([40.0, 999.0, 999.0]), label=f"i_max {eid}")
        for eid in range(1, len(pairs) + 1)
    }
    return make_network(n, pairs, set(range(1, n)), i_max=i_max)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_grids())
def test_classical_grover_and_tree_qubo_agree(grid):
    report = check_n1(grid, k_max=1)
    levels = default_levels(grid)
    for edge in sorted(grid.active_ids):
        try:
            space = index_reconfigurations(grid, edge, 1)
        except SearchSpaceError:
            marked, space = [], None
        else:
            marked = make_oracle(grid, space).marked_ids()
        assert (report.per_edge[edge].status == SECURE_K1) == (len(marked) > 0)

        qubo, layout = build_tree_qubo(grid, levels, failing_edge=edge)
        for candidate in marked:
            cfg = apply_switchover(grid.initial_configuration(), space.switchover(int(candidate)))
            bits = layout.encode_tree(grid, cfg, root=grid.os_ids[0])
            decoded = decode_solution(bits, layout)
            assert decoded.feasible and decoded.configuration == cfg
            assert all(
                decoded.penalties[name] == 0.0
                for name in STRUCTURAL_GROUPS
                if name in decoded.penalties
            )
            assert qubo.evaluate(bits) == len(cfg.edges ^ grid.active_ids)


def ring_3x6():
    """A 3 x 6 ring of the benchmark's feeder grids, seed 1."""
    spec = importlib.util.spec_from_file_location("feeders", BENCHMARKS / "feeders.py")
    feeders = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(feeders)
    return parse_network(feeders.feeder_grid_json(3, 6, 1, ring=True))


@pytest.mark.parametrize(
    "grid",
    [load_bundled("demo_double_switch"), load_bundled("demo_single_switch"),
     load_bundled("sevenbus"), ring_3x6()],
    ids=["demo_double_switch", "demo_single_switch", "sevenbus", "ring_3x6"],
)
def test_classical_k2_verdict_matches_grover_marks(grid):
    report = check_n1(grid, k_max=2)
    for edge in sorted(grid.active_ids):
        first = None
        for k in (1, 2):
            try:
                marked = make_oracle(grid, index_reconfigurations(grid, edge, k)).marked_ids()
            except SearchSpaceError:
                continue
            except ValueError:
                assert k > len(grid.inactive_ids)
                continue
            if marked.size:
                first = k
                break
        assert report.per_edge[edge].k == first, edge
