"""Shared fixtures and independent oracles for the test suite.

The oracle helpers deliberately avoid the library's own algorithms: tree
enumeration scans edge subsets with a union-find, and expected load-flow
values come from hand-assembled matrices, so the tests cross-check rather
than echo the implementation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from gridsec.datasets import load_bundled
from gridsec.loadflow import check_compliance, solve_tree
from gridsec.network import Configuration, Edge, Network, Node


@pytest.fixture(scope="session")
def sevenbus() -> Network:
    return load_bundled("sevenbus")


@pytest.fixture(scope="session")
def demo_k1() -> Network:
    return load_bundled("demo_single_switch")


@pytest.fixture(scope="session")
def demo_k2() -> Network:
    return load_bundled("demo_double_switch")


def make_network(
    n_nodes: int,
    edges: list[tuple[int, int]],
    active: set[int],
    os_node: int = 0,
    loads: dict[int, complex] | None = None,
    i_max: dict[int, float] | None = None,
) -> Network:
    """Small synthetic grid: node ids 0..n-1, edge ids 1..len(edges)."""
    loads = loads or {}
    i_max = i_max or {}
    nodes = [
        Node(
            i,
            "OS" if i == os_node else "MSR",
            10500.0,
            0j if i == os_node else loads.get(i, 200_000 + 30_000j),
            10500.0 if i == os_node else 9800.0,
            10500.0 if i == os_node else 11000.0,
        )
        for i in range(n_nodes)
    ]
    built = [
        Edge(eid, a, b, 0.01 + 0.02j, i_max.get(eid, 999.0), eid in active)
        for eid, (a, b) in enumerate(edges, start=1)
    ]
    return Network(nodes, built)


@st.composite
def grids_with_spares(draw):
    """A random connected 4-9-node grid whose active set is a random
    spanning tree, leaving 1-4 spare cables (parallel cables allowed)."""
    n = draw(st.integers(4, 9), label="nodes")
    pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    for _ in range(draw(st.integers(1, 4), label="spares")):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
        pairs.append((a, b))
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    active = set()
    for eid in draw(st.permutations(range(1, len(pairs) + 1)), label="cable order"):
        ra, rb = find(pairs[eid - 1][0]), find(pairs[eid - 1][1])
        if ra != rb:
            parent[ra] = rb
            active.add(eid)
    return make_network(n, pairs, active)


def spanning_trees(network: Network) -> list[frozenset[int]]:
    """Brute-force tree enumeration: all (|V|-1)-subsets that connect."""
    edge_ids = [e.id for e in network.edges]
    want = len(network.nodes) - 1
    found = []
    for combo in itertools.combinations(edge_ids, want):
        if _connects(network, combo):
            found.append(frozenset(combo))
    return found


def _connects(network: Network, edge_ids) -> bool:
    parent = {n.id: n.id for n in network.nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for eid in edge_ids:
        e = network.edge_by_id[eid]
        ra, rb = find(e.n), find(e.m)
        if ra == rb:
            return False
        parent[ra] = rb
    return len({find(n.id) for n in network.nodes}) == 1


def rooted_height(network: Network, tree: frozenset[int], root: int) -> int:
    """Depth of the deepest node when the tree is rooted at ``root``."""
    adjacency: dict[int, list[int]] = {n.id: [] for n in network.nodes}
    for eid in tree:
        e = network.edge_by_id[eid]
        adjacency[e.n].append(e.m)
        adjacency[e.m].append(e.n)
    depth = {root: 0}
    frontier = [root]
    while frontier:
        current = frontier.pop(0)
        for neighbor in adjacency[current]:
            if neighbor not in depth:
                depth[neighbor] = depth[current] + 1
                frontier.append(neighbor)
    assert len(depth) == len(network.nodes)
    return max(depth.values())


def full_report(network: Network, cfg: Configuration, tol: float = 1e-9):
    """The full compliance report of a whole-tree solve, rather than the
    oracle's branch reuse."""
    return check_compliance(network, cfg, solve_tree(network, cfg), tol)


def compliant(network: Network, cfg: Configuration) -> bool:
    return full_report(network, cfg).compliant


def tree_config(edge_ids) -> Configuration:
    return Configuration(frozenset(edge_ids))


def zero_tree_penalty_strings(layout, chunk: int = 1 << 17) -> list[np.ndarray]:
    """All bitstrings whose tree penalties are exactly zero.

    Anything with a broken domain wall pays a positive wall penalty (proved
    exhaustively per variable in test_qubo), so it suffices to enumerate
    every combination of wall positions and filter the remaining groups.
    The enumeration is mixed-radix and fully vectorized.
    """
    blocks = list(layout.tree.node_bits.values()) + list(layout.tree.edge_bits.values())
    options = [len(b) + 1 for b in blocks]
    total = int(np.prod(options))
    strides = np.ones(len(blocks), dtype=np.int64)
    for i in range(len(blocks) - 2, -1, -1):
        strides[i] = strides[i + 1] * options[i + 1]

    found = []
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        batch = np.zeros((len(codes), layout.num_vars))
        for block, option_count, stride in zip(blocks, options, strides):
            walls = (codes // stride) % option_count
            for k, bit in enumerate(block):
                batch[:, bit] = walls <= k
        mask = np.ones(len(codes), dtype=bool)
        for name in ("root", "connectivity", "indicator"):
            mask &= np.abs(layout.groups[name].energies(batch)) < 1e-9
        found.extend(row.astype(np.uint8) for row in batch[mask])
    return found


def uniform_state(n: int) -> np.ndarray:
    """The N-vector start of the amplitude-amplification search."""
    if n < 1:
        raise ValueError("state needs at least one amplitude")
    return np.full(n, 1.0 / math.sqrt(n))


def grover_iterate(state: np.ndarray, marked) -> np.ndarray:
    """One N-vector amplification step: flip marked phases, reflect about the
    mean.  The reference for the library's two-amplitude search."""
    amplitudes = np.array(state, dtype=np.float64)
    marked = np.asarray(list(marked) if isinstance(marked, (set, frozenset)) else marked, dtype=np.int64)
    if marked.size:
        amplitudes[marked] *= -1.0
    return 2.0 * amplitudes.mean() - amplitudes
