"""Classical N-1 search: enumerate k-switchover spanning trees through the
fundamental-cycle table, validate them with the load-flow oracle's
verdict (:meth:`ComplianceOracle.query`, which re-solves only the feeder
branches a switchover touches), and assemble a per-edge security verdict.
The Grover search space indexes the same stream.

Step 1 streams every single switchover once.  Step 2 streams, per leftover
edge and growing k, the trees deactivating it up to the first pass, which
witnesses every edge it deactivates, so one load-flow call can clear
several edges.  The streams yield bare ``(activations, deactivations)``
pairs, which the oracle's :meth:`~ComplianceOracle.query` takes as they
come; only a witness becomes a :class:`Switchover`.
Every candidate reached counts as one oracle call, the classical baseline's
query; one that cannot change a verdict (step 1: its edge already witnessed;
step 2: a repeated tree) is not solved, so the solves can be fewer.

The enumeration never runs a connectivity check.  For a tree T, inactive
edges A = (a_1..a_k) and tree edges D = (d_1..d_k) with d_j in C(a_j), the
fundamental cycle of a_j, T - D + A is a spanning tree iff the k x k
exchange matrix M[i][j] = [d_j in C(a_i)] is nonsingular over GF(2) (basis
exchange in the graphic matroid, which is binary; Oxley, Matroid Theory,
2nd ed., 2011, section 6.4).  M has a unit diagonal, so at k = 1 every
choice is a tree; at k = 2 the choice is a tree unless d_2 in C(a_1) and
d_1 in C(a_2); at k >= 3 the rows are bitmasks reduced by Gaussian
elimination.  A repeated deactivation gives two equal columns and is
rejected by the same test.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .loadflow import ComplianceOracle
from .network import Configuration, Network, Switchover, fundamental_cycles
from .network import is_spanning_tree  # noqa: F401  (benchmarks/selftest.py checks this name is restored after tracing)

__all__ = [
    "EdgeVerdict",
    "N1Report",
    "enumerate_reconfigurations",
    "step1_single_switch",
    "step2_multi_switch",
    "check_n1",
    "SECURE_K1",
    "SECURE_KN",
    "INSECURE",
]

SECURE_K1 = "SECURE_K1"
SECURE_KN = "SECURE_KN"
INSECURE = "INSECURE"


def enumerate_reconfigurations(
    network: Network,
    cfg: Configuration,
    k: int,
    restrict_to: frozenset[int] | None = None,
) -> tuple[tuple[Switchover, Configuration], ...]:
    """All spanning trees exactly k switchovers from ``cfg``, deduplicated,
    each with its switchover.

    Every combination of k fundamental-cycle rows proposes the k inactive
    edges to activate; every choice of one cycle edge per row proposes the
    deactivations.  Choices that break the tree are dropped, as are
    duplicates arising from overlapping cycles.  With ``restrict_to`` given,
    only trees deactivating at least one listed edge are kept; naming an
    edge outside ``cfg`` raises ``ValueError``.

    Tree-ness comes from the cycle sets alone: a choice is a tree iff its
    exchange matrix [d_j in C(a_i)] is nonsingular over GF(2) (module
    docstring).  At k = 1 every choice is; at k = 2 a choice is unless each
    deactivation also lies on the other activation's cycle; at k >= 3
    Gaussian elimination decides.  Duplicates are caught per combination,
    since the activations fix the inactive part of the edge set.
    """
    stream = _stream(network, cfg, k, restrict_to)
    return tuple((Switchover(a, d), Configuration(cfg.edges - d | a)) for a, d in stream)


def _stream(network: Network, cfg: Configuration, k: int, restrict_to: frozenset[int] | None):
    """:func:`enumerate_reconfigurations`' argument checks, made at once, then
    its entries as the lazy :func:`_reconfigurations` stream."""
    cycles = fundamental_cycles(network, cfg)
    if not 1 <= k <= len(cycles):
        raise ValueError(f"k must be between 1 and {len(cycles)} inactive edges, got {k}")
    if restrict_to is not None and not restrict_to <= cfg.edges:
        outside = sorted(restrict_to - cfg.edges)
        raise ValueError(f"cannot restrict to edges {outside}: not in the configuration")
    return _reconfigurations(cycles, k, cfg.edges if restrict_to is None else restrict_to)


def _reconfigurations(cycles: dict, k: int, restrict_to: frozenset[int]):
    """Lazily, in :func:`enumerate_reconfigurations`' order and unchecked, its
    switchovers deactivating an edge of ``restrict_to``, as bare
    ``(activations, deactivations)`` pairs.  Combinations whose rows all miss
    ``restrict_to`` are skipped, and a choice whose first k - 1 edges miss it
    draws its last edge from ``restrict_to`` only."""
    for combo in itertools.combinations(sorted(cycles), k):
        *heads, last = rows = [cycles[x] for x in combo]
        if all(map(restrict_to.isdisjoint, rows)):
            continue
        lasts, hits = sorted(last), sorted(last & restrict_to)
        activations = frozenset(combo)
        seen: set[frozenset[int]] = set()
        for head in itertools.product(*map(sorted, heads)):
            for d in hits if restrict_to.isdisjoint(head) else lasts:
                choice = (*head, d)
                if not _exchange_is_tree(rows, choice):
                    continue
                deactivations = frozenset(choice)
                if deactivations in seen:
                    continue
                seen.add(deactivations)
                yield activations, deactivations


def _exchange_is_tree(rows: list[frozenset[int]], choice: tuple[int, ...]) -> bool:
    """Whether the exchange matrix M[i][j] = [choice[j] in rows[i]] is
    nonsingular over GF(2); ``choice[i]`` is drawn from ``rows[i]``."""
    k = len(choice)
    if k == 1:
        return True
    if k == 2:
        return not (choice[1] in rows[0] and choice[0] in rows[1])
    bits = [sum(1 << j for j, d in enumerate(choice) if d in row) for row in rows]
    for col in range(k):
        mask = 1 << col
        pivot = next((r for r in range(col, k) if bits[r] & mask), None)
        if pivot is None:
            return False
        bits[col], bits[pivot] = bits[pivot], bits[col]
        for r in range(col + 1, k):
            if bits[r] & mask:
                bits[r] ^= bits[col]
    return True


def step1_single_switch(network: Network, oracle: ComplianceOracle) -> dict[int, Switchover]:
    """First passing single-switchover witness per active edge.

    Each single switchover, streamed in canonical order, is one oracle call
    (the classical baseline for query comparisons); per failing edge the
    first passing candidate wins and that edge's later ones go unsolved.
    """
    witnesses: dict[int, Switchover] = {}
    if not network.inactive_ids:
        return witnesses
    base = network.initial_configuration()
    for activations, deactivations in _reconfigurations(fundamental_cycles(network, base), 1, base.edges):
        oracle.calls += 1  # the baseline queries every candidate
        (failing_edge,) = deactivations
        if failing_edge in witnesses:
            continue
        if oracle.query(activations, deactivations):
            witnesses[failing_edge] = Switchover(activations, deactivations)
    return witnesses


def step2_multi_switch(
    network: Network, remaining: frozenset[int], k: int, oracle: ComplianceOracle
) -> dict[int, Switchover]:
    """Multi-switchover sweep over the edges step 1 could not clear.

    Each failing edge, in id order and unless witnessed, streams the trees
    deactivating it in canonical order until one passes, witnessing all its
    deactivations; a repeated tree counts as a query but is not re-solved.
    """
    if k < 2:
        raise ValueError(f"multi-switch step needs k >= 2, got {k}")
    if not remaining <= network.active_ids:
        raise ValueError("remaining edges must be active edges")
    witnesses: dict[int, Switchover] = {}
    if not remaining or k > len(network.inactive_ids):
        return witnesses
    base = network.initial_configuration()
    cycles = fundamental_cycles(network, base)
    failed = set()  # switchover pairs; a passing tree ends every scan it could recur in
    for failing_edge in sorted(remaining):
        if failing_edge in witnesses:
            continue
        for pair in _reconfigurations(cycles, k, frozenset({failing_edge})):
            oracle.calls += 1  # a repeated query is still a query
            if pair in failed:
                continue
            if oracle.query(*pair):
                switch = Switchover(*pair)
                for covered in sorted(switch.deactivate):
                    witnesses.setdefault(covered, switch)
                break
            failed.add(pair)
    return witnesses


@dataclass(frozen=True)
class EdgeVerdict:
    status: str
    k: int | None
    witness: Switchover | None

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "k": self.k,
            "witness": self.witness.as_dict() if self.witness else None,
        }


@dataclass(frozen=True)
class N1Report:
    per_edge: dict[int, EdgeVerdict]
    overall: bool
    loadflow_calls: int

    def as_dict(self) -> dict:
        return {
            "overall": self.overall,
            "loadflow_calls": self.loadflow_calls,
            "per_edge": {str(eid): v.as_dict() for eid, v in sorted(self.per_edge.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def check_n1(network: Network, k_max: int) -> N1Report:
    """Full verdict: step 1, then step 2 with k = 2 .. k_max on the rest."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    oracle = ComplianceOracle(network)
    witnessed: dict[int, tuple[int, Switchover]] = {}
    for eid, switch in step1_single_switch(network, oracle).items():
        witnessed[eid] = (1, switch)
    for k in range(2, k_max + 1):
        remaining = network.active_ids - set(witnessed)
        if not remaining:
            break
        for eid, switch in step2_multi_switch(network, frozenset(remaining), k, oracle).items():
            witnessed.setdefault(eid, (k, switch))

    per_edge: dict[int, EdgeVerdict] = {}
    for eid in sorted(network.active_ids):
        if eid in witnessed:
            k, switch = witnessed[eid]
            status = SECURE_K1 if k == 1 else SECURE_KN
            per_edge[eid] = EdgeVerdict(status=status, k=k, witness=switch)
        else:
            per_edge[eid] = EdgeVerdict(status=INSECURE, k=None, witness=None)
    overall = all(v.status != INSECURE for v in per_edge.values())
    return N1Report(per_edge=per_edge, overall=overall, loadflow_calls=oracle.calls)
