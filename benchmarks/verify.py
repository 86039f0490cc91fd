"""Independent output checks for the benchmark.

Nothing here calls ``gridsec``: spanning trees are checked with a local
union-find, load flows with a hand-assembled dense complex solve, and QUBO
energies straight from the coefficient table.  The checks read the same
network JSON document the program was given, so a wrong answer cannot be
confirmed by the code that produced it.
"""

from __future__ import annotations

import numpy as np

SECURE_K1 = "SECURE_K1"
SECURE_KN = "SECURE_KN"
INSECURE = "INSECURE"
TOL = 1e-9  # relative slack on voltage bands and cable ratings


class Grid:
    """Plain view of a network document: ids, impedances, bands, ratings."""

    def __init__(self, doc: dict):
        self.nodes = {n["id"]: n for n in doc["nodes"]}
        self.edges = {e["id"]: e for e in doc["edges"]}
        self.active = frozenset(e["id"] for e in doc["edges"] if e["active"] is True)
        self.inactive = frozenset(self.edges) - self.active
        self.os_ids = [nid for nid, n in self.nodes.items() if n["type"] == "OS"]
        self.msr_ids = sorted(nid for nid, n in self.nodes.items() if n["type"] == "MSR")

    def is_spanning_tree(self, edge_ids) -> bool:
        edge_ids = list(edge_ids)
        if len(edge_ids) != len(self.nodes) - 1 or not set(edge_ids) <= set(self.edges):
            return False
        parent = {nid: nid for nid in self.nodes}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for eid in edge_ids:
            e = self.edges[eid]
            ra, rb = find(e["n"]), find(e["m"])
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    def voltages(self, edge_ids) -> dict[int, complex]:
        """Constant-impedance load flow of one configuration, dense solve."""
        index = {nid: k for k, nid in enumerate(self.msr_ids)}
        size = len(index)
        a = np.zeros((size, size), dtype=complex)
        b = np.zeros(size, dtype=complex)
        for nid, k in index.items():
            node = self.nodes[nid]
            a[k, k] += complex(*node["load"]).conjugate() / node["u_nom"] ** 2
        for eid in edge_ids:
            e = self.edges[eid]
            y = 1.0 / complex(*e["z"])
            for here, there in ((e["n"], e["m"]), (e["m"], e["n"])):
                if here not in index:
                    continue
                a[index[here], index[here]] += y
                if there in index:
                    a[index[here], index[there]] -= y
                else:
                    b[index[here]] += y * self.nodes[there]["u_nom"]
        x = np.linalg.solve(a, b)
        u = {nid: complex(self.nodes[nid]["u_nom"]) for nid in self.os_ids}
        u.update((nid, complex(x[k])) for nid, k in index.items())
        return u

    def compliant(self, edge_ids) -> bool:
        """Every node inside its voltage band, every cable under its rating."""
        u = self.voltages(edge_ids)
        for nid, node in self.nodes.items():
            mag = abs(u[nid])
            if not node["u_min"] * (1.0 - TOL) <= mag <= node["u_max"] * (1.0 + TOL):
                return False
        for eid in edge_ids:
            e = self.edges[eid]
            current = abs((u[e["m"]] - u[e["n"]]) / complex(*e["z"]))
            if current > (e["i_max"] * (1.0 + TOL) if e["i_max"] > 0 else TOL):
                return False
        return True

    def single_switch_candidates(self, failing: int) -> list[frozenset[int]]:
        """Every tree one switchover away that drops ``failing``."""
        found = []
        for tie in sorted(self.inactive):
            candidate = self.active - {failing} | {tie}
            if self.is_spanning_tree(candidate):
                found.append(candidate)
        return found


def check_verdicts(grid: Grid, verdicts: dict[int, tuple], k_max: int) -> dict[int, str]:
    """Problems per active edge, as ``{edge: reason}``; empty when all hold.

    ``verdicts`` maps every active edge to ``(status, k, activate,
    deactivate)``.  A secure verdict must carry a witness that turns the
    base tree into a compliant spanning tree with ``k`` switchovers that
    drop the edge.  A verdict other than ``SECURE_K1`` also claims that no
    single switchover works, which is checked against every candidate.
    """
    problems: dict[int, str] = {}
    for eid in sorted(set(grid.active) ^ set(verdicts)):
        problems[eid] = "verdict missing for an active edge or given for another"
    for eid, (status, k, activate, deactivate) in sorted(verdicts.items()):
        if eid in problems:
            continue
        if status == INSECURE:
            if k is not None or activate or deactivate:
                problems[eid] = "INSECURE verdict carries a witness"
        elif status in (SECURE_K1, SECURE_KN):
            activate, deactivate = frozenset(activate), frozenset(deactivate)
            if not isinstance(k, int) or (status == SECURE_K1) != (k == 1) or not 1 <= k <= k_max:
                problems[eid] = f"status {status} with k={k}"
            elif len(activate) != k or len(deactivate) != k:
                problems[eid] = "witness size differs from k"
            elif eid not in deactivate:
                problems[eid] = "witness keeps the failing edge"
            elif not activate <= grid.inactive or not deactivate <= grid.active:
                problems[eid] = "witness switches the wrong edges"
            else:
                tree = grid.active - deactivate | activate
                if not grid.is_spanning_tree(tree):
                    problems[eid] = "witness is not a spanning tree"
                elif not grid.compliant(tree):
                    problems[eid] = "witness violates a voltage band or rating"
        else:
            problems[eid] = f"unknown status {status!r}"
        if eid not in problems and status != SECURE_K1:
            if any(grid.compliant(c) for c in grid.single_switch_candidates(eid)):
                problems[eid] = f"{status} although a single switchover is compliant"
    return problems


def qubo_energies(n: int, coeffs: dict, offset: float, samples: np.ndarray) -> np.ndarray:
    """Energies of bit rows straight from the ``{(i, j): q}`` table."""
    keys = list(coeffs)
    i = np.array([key[0] for key in keys], dtype=np.int64)
    j = np.array([key[1] for key in keys], dtype=np.int64)
    q = np.array([coeffs[key] for key in keys], dtype=np.float64)
    x = np.asarray(samples, dtype=np.float64).reshape(-1, n)
    return offset + (x[:, i] * x[:, j]) @ q
