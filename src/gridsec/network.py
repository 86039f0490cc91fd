"""Grid graphs: substations, cables, configurations and switchovers.

A network is an undirected graph of OS nodes (primary substations with a
fixed voltage) and MSR nodes (secondary substations with a load), whose
cables are partitioned into an active set and an inactive set.  The active
set must form a spanning tree; reconfiguration searches swap active and
inactive cables while preserving that invariant.

Everything here is an immutable value; operations are pure functions.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "NetworkError",
    "ParseError",
    "ValidationError",
    "NotSpanningTreeError",
    "Node",
    "Edge",
    "Network",
    "Configuration",
    "Switchover",
    "parse_network",
    "load_network",
    "serialize_network",
    "is_spanning_tree",
    "tree_walk",
    "fundamental_cycles",
    "apply_switchover",
]

OS = "OS"
MSR = "MSR"


class NetworkError(Exception):
    """Base class for network construction and validation failures."""


class ParseError(NetworkError):
    """Malformed network file."""


class ValidationError(NetworkError):
    """Structurally valid file describing an inconsistent network."""


class NotSpanningTreeError(ValueError):
    """A configuration that a tree-only operation got is not a spanning tree."""


def _require_finite(what: str, **values) -> None:
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValidationError(f"{what}: {name} must be finite, got {value}")


@dataclass(frozen=True)
class Node:
    id: int
    kind: str
    u_nom: float
    load: complex
    u_min: float
    u_max: float

    def __post_init__(self):
        _require_finite(
            f"node {self.id}", u_nom=self.u_nom, load=self.load, u_min=self.u_min, u_max=self.u_max
        )
        if self.kind not in (OS, MSR):
            raise ValidationError(f"node {self.id}: kind must be OS or MSR, got {self.kind!r}")
        if not self.u_nom > 0:
            raise ValidationError(f"node {self.id}: u_nom must be positive, got {self.u_nom}")
        if not self.u_min > 0:
            raise ValidationError(f"node {self.id}: u_min must be positive, got {self.u_min}")
        if self.u_max < self.u_min:
            raise ValidationError(f"node {self.id}: u_max {self.u_max} below u_min {self.u_min}")
        if self.kind == OS and not (self.u_min == self.u_max == self.u_nom):
            raise ValidationError(
                f"node {self.id}: OS nodes have a fixed voltage, need u_min = u_max = u_nom"
            )


@dataclass(frozen=True)
class Edge:
    id: int
    n: int
    m: int
    z: complex
    i_max: float
    initially_active: bool

    def __post_init__(self):
        _require_finite(f"edge {self.id}", z=self.z, i_max=self.i_max)
        if self.n == self.m:
            raise ValidationError(f"edge {self.id}: endpoints must differ, got ({self.n}, {self.m})")
        if self.z == 0:
            raise ValidationError(f"edge {self.id}: impedance must be nonzero")
        if self.i_max < 0:
            raise ValidationError(f"edge {self.id}: i_max must be >= 0, got {self.i_max}")
        # stable endpoint order so hashing and serialization never depend on input order
        if self.n > self.m:
            lo, hi = self.m, self.n
            object.__setattr__(self, "n", lo)
            object.__setattr__(self, "m", hi)

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.n, self.m)


@dataclass(frozen=True)
class Configuration:
    """A claimed spanning tree, as the set of active edge ids."""

    edges: frozenset[int]

    @classmethod
    def of(cls, edge_ids: Iterable[int]) -> Configuration:
        return cls(frozenset(edge_ids))

    def __contains__(self, edge_id: int) -> bool:
        return edge_id in self.edges

    def __len__(self) -> int:
        return len(self.edges)

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.edges))


@dataclass(frozen=True)
class Switchover:
    """Paired activation/deactivation of equally many edges."""

    activate: frozenset[int]
    deactivate: frozenset[int]

    def __post_init__(self):
        if len(self.activate) != len(self.deactivate):
            raise ValidationError(
                f"switchover must pair activations with deactivations, "
                f"got {len(self.activate)} on / {len(self.deactivate)} off"
            )
        if self.activate & self.deactivate:
            raise ValidationError("switchover activates and deactivates the same edge")

    @classmethod
    def of(cls, activate: Iterable[int], deactivate: Iterable[int]) -> Switchover:
        return cls(frozenset(activate), frozenset(deactivate))

    @property
    def k(self) -> int:
        return len(self.activate)

    def as_dict(self) -> dict:
        return {"activate": sorted(self.activate), "deactivate": sorted(self.deactivate)}


class Network:
    """Immutable grid graph with an active/inactive cable partition."""

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge]):
        self.nodes: tuple[Node, ...] = tuple(sorted(nodes, key=lambda n: n.id))
        self.edges: tuple[Edge, ...] = tuple(sorted(edges, key=lambda e: e.id))
        self.node_by_id: dict[int, Node] = {n.id: n for n in self.nodes}
        self.edge_by_id: dict[int, Edge] = {e.id: e for e in self.edges}
        if len(self.node_by_id) != len(self.nodes):
            raise ValidationError("duplicate node ids")
        if len(self.edge_by_id) != len(self.edges):
            raise ValidationError("duplicate edge ids")
        for e in self.edges:
            for end in e.endpoints:
                if end not in self.node_by_id:
                    raise ValidationError(f"edge {e.id}: endpoint {end} is not a node")
        self.active_ids: frozenset[int] = frozenset(e.id for e in self.edges if e.initially_active)
        self.inactive_ids: frozenset[int] = frozenset(
            e.id for e in self.edges if not e.initially_active
        )
        self.os_ids: tuple[int, ...] = tuple(n.id for n in self.nodes if n.kind == OS)
        self.msr_ids: tuple[int, ...] = tuple(n.id for n in self.nodes if n.kind == MSR)
        if not self.os_ids:
            raise ValidationError("network needs at least one OS node")
        stranded, cycle_edge = _union_find(self, self.active_ids)
        if stranded:
            raise ValidationError(f"active edge set leaves nodes {stranded} disconnected")
        if cycle_edge is not None:
            e = self.edge_by_id[cycle_edge]
            raise ValidationError(
                f"active edge set contains a cycle through edge {cycle_edge} ({e.n}, {e.m})"
            )

    # -- structure helpers ---------------------------------------------------

    def initial_configuration(self) -> Configuration:
        return Configuration(self.active_ids)

    def neighbors(self, cfg: Configuration) -> dict[int, list[tuple[int, int]]]:
        """Adjacency of the configuration: node -> [(neighbor, edge id)]."""
        adj: dict[int, list[tuple[int, int]]] = {n.id: [] for n in self.nodes}
        for eid in cfg.edges:
            e = self.edge_by_id[eid]
            adj[e.n].append((e.m, eid))
            adj[e.m].append((e.n, eid))
        for lst in adj.values():
            lst.sort()
        return adj

    def as_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "id": n.id,
                    "type": n.kind,
                    "u_nom": n.u_nom,
                    "load": [n.load.real, n.load.imag],
                    "u_min": n.u_min,
                    "u_max": n.u_max,
                }
                for n in self.nodes
            ],
            "edges": [
                {
                    "id": e.id,
                    "n": e.n,
                    "m": e.m,
                    "z": [e.z.real, e.z.imag],
                    "i_max": e.i_max,
                    "active": e.initially_active,
                }
                for e in self.edges
            ],
        }


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def _complex_field(raw, where: str) -> complex:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise ParseError(f"{where}: complex values are 2-element [re, im] arrays, got {raw!r}")
    try:
        return complex(float(raw[0]), float(raw[1]))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _bool_field(raw, where: str) -> bool:
    if not isinstance(raw, bool):
        raise ParseError(f"{where}: active must be true or false, got {raw!r}")
    return raw


def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise ParseError(f"{where}: missing field {key!r}")
    return mapping[key]


def _int_field(mapping: Mapping, key: str, where: str) -> int:
    """An integer field; a JSON number with a fractional part, a string or a
    boolean is rejected rather than truncated or coerced."""
    raw = _require(mapping, key, where)
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError(f"{where}: {key} must be an integer, got {raw!r}")
    return raw


def parse_network(text: str) -> Network:
    """Parse the JSON network format into a validated :class:`Network`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object with 'nodes' and 'edges'")

    nodes = []
    for idx, raw in enumerate(_require(doc, "nodes", "document")):
        where = f"nodes[{idx}]"
        try:
            nodes.append(
                Node(
                    id=_int_field(raw, "id", where),
                    kind=str(_require(raw, "type", where)),
                    u_nom=float(_require(raw, "u_nom", where)),
                    load=_complex_field(_require(raw, "load", where), where),
                    u_min=float(_require(raw, "u_min", where)),
                    u_max=float(_require(raw, "u_max", where)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}: {exc}") from exc

    edges = []
    for idx, raw in enumerate(_require(doc, "edges", "document")):
        where = f"edges[{idx}]"
        try:
            edges.append(
                Edge(
                    id=_int_field(raw, "id", where),
                    n=_int_field(raw, "n", where),
                    m=_int_field(raw, "m", where),
                    z=_complex_field(_require(raw, "z", where), where),
                    i_max=float(_require(raw, "i_max", where)),
                    initially_active=_bool_field(_require(raw, "active", where), where),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}: {exc}") from exc

    return Network(nodes, edges)


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_network(handle.read())


def serialize_network(network: Network) -> str:
    return json.dumps(network.as_dict(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# configuration operations
# ---------------------------------------------------------------------------

def _validate_edge_ids(network: Network, edge_ids: Iterable[int]) -> None:
    unknown = sorted(set(edge_ids) - set(network.edge_by_id))
    if unknown:
        raise ValueError(f"unknown edge ids {unknown}")


def _union_find(network: Network, edge_ids: Iterable[int]) -> tuple[list[int], int | None]:
    """Join the endpoints of ``edge_ids`` in increasing id order: the node ids
    left outside the first OS node's component, and the first edge that
    closes a cycle (``None`` if none does)."""
    parent = {n.id: n.id for n in network.nodes}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    cycle_edge = None
    for eid in sorted(edge_ids):
        e = network.edge_by_id[eid]
        ra, rb = find(e.n), find(e.m)
        if ra != rb:
            parent[ra] = rb
        elif cycle_edge is None:
            cycle_edge = eid
    anchor = find(network.os_ids[0])
    return [n.id for n in network.nodes if find(n.id) != anchor], cycle_edge


def is_spanning_tree(network: Network, cfg: Configuration) -> bool:
    """True iff the configuration has |V| - 1 edges and connects every node."""
    _validate_edge_ids(network, cfg.edges)
    if len(cfg.edges) != len(network.nodes) - 1:
        return False
    return _union_find(network, cfg.edges)[1] is None


def tree_walk(
    network: Network, cfg: Configuration, root: int
) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """Breadth-first walk of the configuration from ``root``, neighbours in
    node-id order: the depth of every node reached, in visiting order, and the
    ``(parent, edge id)`` of every reached node but the root."""
    adj = network.neighbors(cfg)
    depth = {root: 0}
    parent_edge: dict[int, tuple[int, int]] = {}
    order = [root]
    for current in order:
        for neighbor, eid in adj[current]:
            if neighbor not in depth:
                depth[neighbor] = depth[current] + 1
                parent_edge[neighbor] = (current, eid)
                order.append(neighbor)
    return depth, parent_edge


def fundamental_cycles(network: Network, cfg: Configuration) -> dict[int, frozenset[int]]:
    """Fundamental cycle of every edge outside the configuration.

    For each such edge the value is the set of configuration edges on the
    unique tree path between its endpoints; adding the edge to the tree
    closes exactly that cycle.
    """
    if not is_spanning_tree(network, cfg):
        raise NotSpanningTreeError("configuration is not a spanning tree")
    depth, parent_edge = tree_walk(network, cfg, network.nodes[0].id)

    def tree_path(a: int, b: int) -> frozenset[int]:
        path = set()
        while depth[a] > depth[b]:
            up, eid = parent_edge[a]
            path.add(eid)
            a = up
        while depth[b] > depth[a]:
            up, eid = parent_edge[b]
            path.add(eid)
            b = up
        while a != b:
            up_a, eid_a = parent_edge[a]
            up_b, eid_b = parent_edge[b]
            path.add(eid_a)
            path.add(eid_b)
            a, b = up_a, up_b
        return frozenset(path)

    cycles = {}
    for e in network.edges:
        if e.id not in cfg.edges:
            cycles[e.id] = tree_path(e.n, e.m)
    return cycles


def apply_switchover(cfg: Configuration, s: Switchover) -> Configuration:
    """Deactivate then activate; the result is not necessarily a tree."""
    if not s.deactivate <= cfg.edges:
        missing = sorted(s.deactivate - cfg.edges)
        raise ValueError(f"cannot deactivate edges {missing}: not in the configuration")
    if s.activate & cfg.edges:
        present = sorted(s.activate & cfg.edges)
        raise ValueError(f"cannot activate edges {present}: already active")
    return Configuration(cfg.edges - s.deactivate | s.activate)
