"""Complex linear load flow for a configuration, with bound checking.

Loads follow a constant-impedance model: a node with complex power S at
nominal voltage U_nom draws the current ``U * Y`` with admittance
``Y = conj(S) / U_nom^2``, which keeps the balance equations linear.  OS
nodes carry fixed voltages; MSR node voltages are the unknowns.

Every configuration is a spanning tree, so the balance matrix is a tree
Laplacian plus diagonal load admittances.  It is solved exactly in O(n) by
the backward/forward sweep of radial load flow (Shirmohammadi et al., IEEE
TPWRS 1988): MSR nodes are eliminated leaf first toward the fixed OS nodes,
then one forward pass substitutes back.  One walk (one branch, a subtree
under one child of the root, at a time), one backward elimination and one
bounds rule serve every caller; a node's floats depend on its subtree only.
:func:`solve_tree` adds the nodal-balance residual and a voltage dict by
node id, and :func:`check_compliance` builds the full report from them.

:class:`ComplianceOracle` answers the verdict alone.  A switchover leaves
every branch of the base tree that holds no endpoint of a switched cable
with its base flows, as in the branch-exchange analyses of Civanlar et al.
(IEEE TPWRD 1988) and Baran & Wu (IEEE TPWRD 1989), so the oracle keeps
those branches' base verdicts, walks the touched ones and solves the new
branches among them largest first, up to the first violation.

Before any walk, the oracle tries to prove a violation from load floors.
A compliant node keeps ``|U|`` inside its band, so its load admittance Y
draws at least the complex floor ``p + jq``, ``p = Re(Y) |U|^2`` and
``q = -Im(Y) |U|^2`` each at the band edge that makes it smallest.  In a
branch holding no OS node but the root, with no cable of negative
resistance or reactance, and with ``s`` the branch's sum of floors:

* the head cable carries the branch's loads plus its losses, so its
  current is at least ``hypot(max(Re s, 0), max(Im s, 0)) / |U_root|``
  (the branch-exchange argument of Civanlar et al.);
* each cable lowers ``|U|^2`` by ``2 Re(S' conj(z)) + |z|^2 |I|^2`` over the
  receiving-end flow S' (DistFlow, Baran & Wu), and S' is at least the
  floors fed through it, part by part, so dropping the losses, as
  LinDistFlow does (Gan, Li, Topcu & Low, IEEE TAC 2015), bounds ``|U|^2``
  from above.

A head bound above the cable's limit, or a voltage bound below the band,
proves the switchover non-compliant without a load flow.

The dense system of :func:`assemble_system` and :func:`solve_loadflow`
(LU with a condition-number guard) stays as the reference the tree solve
is tested against.

Compliance means every node voltage magnitude stays inside its band and
every active cable current stays under its rating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import (
    OS, Configuration, Network, NotSpanningTreeError, _validate_edge_ids, is_spanning_tree,
)

__all__ = [
    "SingularSystemError",
    "LinearSystem",
    "VoltageSolution",
    "Admittances",
    "ComplianceReport",
    "admittance",
    "assemble_system",
    "solve_loadflow",
    "solve_tree",
    "check_compliance",
    "problem_edges",
    "ComplianceOracle",
]

DEFAULT_TOLERANCE = 1e-9
CONDITION_LIMIT = 1e12
PIVOT_LIMIT = 1e-12
SCREEN_MARGIN = 1e-9


class SingularSystemError(Exception):
    """The assembled system is singular or numerically unusable."""


@dataclass(frozen=True)
class LinearSystem:
    """Dense complex system A x = b over the MSR-node voltages."""

    a: np.ndarray
    b: np.ndarray
    unknown_index: dict[int, int]
    fixed: dict[int, complex]


@dataclass(frozen=True)
class VoltageSolution:
    """Voltages for every node, OS nodes at their fixed value."""

    u: dict[int, complex]
    residual: float


@dataclass(frozen=True)
class Admittances:
    """Per-network constants of the tree sweep and the compliance pass.

    Nodes are numbered by their position in ``network.nodes``.  ``edges`` maps
    each edge id, in increasing order, to ``(n, m, z, i_max)`` and
    ``incident`` lists each node's ``(edge id, other end, 1/z, |1/z|)`` by edge
    id.  ``loads``, ``load_scale`` and ``fixed`` (``None`` for an MSR node)
    hold each node's load admittance, its magnitude and fixed voltage.
    """

    node_ids: tuple[int, ...]
    root: int
    edges: dict[int, tuple[int, int, complex, float]]
    incident: tuple[tuple[tuple[int, int, complex, float], ...], ...]
    loads: tuple[complex, ...]
    load_scale: tuple[float, ...]
    fixed: tuple[complex | None, ...]

    @classmethod
    def of(cls, network: Network) -> Admittances:
        node_ids = tuple(node.id for node in network.nodes)
        position = {nid: k for k, nid in enumerate(node_ids)}
        edges = {}
        incident: list[list[tuple[int, int, complex, float]]] = [[] for _ in node_ids]
        for edge in network.edges:
            i, j = position[edge.n], position[edge.m]
            y = 1.0 / edge.z
            edges[edge.id] = (i, j, edge.z, edge.i_max)
            incident[i].append((edge.id, j, y, abs(y)))
            incident[j].append((edge.id, i, y, abs(y)))
        loads = tuple(0j if n.kind == OS else admittance(n.load, n.u_nom) for n in network.nodes)
        return cls(
            node_ids=node_ids,
            root=position[network.os_ids[0]],
            edges=edges,
            incident=tuple(map(tuple, incident)),
            loads=loads,
            load_scale=tuple(map(abs, loads)),
            fixed=tuple(
                complex(node.u_nom) if node.kind == OS else None for node in network.nodes
            ),
        )


@dataclass(frozen=True)
class ComplianceReport:
    compliant: bool
    voltage_violations: tuple[tuple[int, float, float], ...]
    current_violations: tuple[tuple[int, float, float], ...]
    currents: dict[int, complex] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "compliant": self.compliant,
            "voltage_violations": [
                {"node": n, "magnitude": mag, "bound": bound}
                for n, mag, bound in self.voltage_violations
            ],
            "current_violations": [
                {"edge": e, "magnitude": mag, "i_max": bound}
                for e, mag, bound in self.current_violations
            ],
            "currents": {
                str(eid): [i.real, i.imag] for eid, i in sorted(self.currents.items())
            },
        }


def admittance(load: complex, u_nom: float) -> complex:
    """Constant-impedance admittance of a complex power draw."""
    if not u_nom > 0:
        raise ValueError(f"u_nom must be positive, got {u_nom}")
    if load == 0:
        return 0j
    return load.conjugate() / (u_nom * u_nom)


def assemble_system(network: Network, cfg: Configuration) -> LinearSystem:
    """Balance equations over the configuration's edges.

    Row for MSR node n:
        (Y_n + sum_m 1/Z_nm) U_n - sum_{m MSR} U_m / Z_nm = sum_{m OS} U_m / Z_nm
    with m ranging over cfg neighbors of n.
    """
    if not is_spanning_tree(network, cfg):
        raise NotSpanningTreeError("configuration is not a spanning tree")
    unknown_index = {nid: col for col, nid in enumerate(network.msr_ids)}
    fixed = {
        nid: complex(network.node_by_id[nid].u_nom) for nid in network.os_ids
    }
    size = len(unknown_index)
    a = np.zeros((size, size), dtype=complex)
    b = np.zeros(size, dtype=complex)

    for nid, row in unknown_index.items():
        node = network.node_by_id[nid]
        a[row, row] += admittance(node.load, node.u_nom)
    for eid in sorted(cfg.edges):
        edge = network.edge_by_id[eid]
        y = 1.0 / edge.z
        for here, there in ((edge.n, edge.m), (edge.m, edge.n)):
            if here not in unknown_index:
                continue
            row = unknown_index[here]
            a[row, row] += y
            if there in unknown_index:
                a[row, unknown_index[there]] -= y
            else:
                b[row] += y * fixed[there]
    return LinearSystem(a=a, b=b, unknown_index=unknown_index, fixed=fixed)


def solve_loadflow(system: LinearSystem) -> VoltageSolution:
    """Direct dense solve (LU with partial pivoting) plus a residual check."""
    if system.a.size:
        cond = np.linalg.cond(system.a)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise SingularSystemError(
                f"system condition number {cond:.3e} exceeds {CONDITION_LIMIT:.1e}"
            )
        x = np.linalg.solve(system.a, system.b)
        residual = float(np.abs(system.a @ x - system.b).max())
    else:
        x = np.zeros(0, dtype=complex)
        residual = 0.0
    u = dict(system.fixed)
    for nid, col in system.unknown_index.items():
        u[nid] = complex(x[col])
    return VoltageSolution(u=u, residual=residual)


def _limits(network: Network, tol: float) -> tuple[list[tuple[float, float]], dict[int, float]]:
    """The one bounds rule: the node at position v in ``network.nodes``
    violates outside ``volts[v]`` and cable ``eid`` above ``amps[eid]``.  A
    zero-rated cable gets the absolute floor ``tol`` so float noise on a
    truly currentless cable does not read as a violation."""
    low, high = 1.0 - tol, 1.0 + tol
    volts = [(node.u_min * low, node.u_max * high) for node in network.nodes]
    amps = {e.id: e.i_max * high if e.i_max > 0 else tol for e in network.edges}
    return volts, amps


def _tree(adm: Admittances, active: frozenset[int], nodes: frozenset[int] | None = None):
    """Walk from the root one branch at a time, in the root's incident order
    and breadth first inside each, so siblings come in edge-id order: the
    reached non-root nodes in order, each one's parent (the root is its own)
    and parent link (the parent's ``incident`` entry for it), and where each
    branch starts in the order, then ``len(order)``.  Edge ids must be
    known.  With ``nodes``, non-root positions that no cable of ``active``
    joins to other non-root positions, only the root and ``nodes`` are
    visited and tree-checked."""
    incident = adm.incident
    size = len(incident)
    if len(active) != size - 1:
        raise NotSpanningTreeError("configuration is not a spanning tree")
    if nodes is None:
        up_of = [-1] * size
        reached = size - 1
    else:  # a node left out counts as visited
        up_of = [size] * size
        for v in nodes:
            up_of[v] = -1
        reached = len(nodes)
    link = [None] * size
    root = up_of[adm.root] = adm.root
    order, starts = [], []
    for head_link in incident[root]:
        head = head_link[1]
        if up_of[head] >= 0 or head_link[0] not in active:
            continue
        up_of[head], link[head] = root, head_link
        branch = [head]
        for here in branch:
            for entry in incident[here]:
                there = entry[1]
                if up_of[there] < 0 and entry[0] in active:
                    up_of[there], link[there] = here, entry
                    branch.append(there)
        starts.append(len(order))
        order += branch
    if len(order) != reached:
        raise NotSpanningTreeError("configuration is not a spanning tree")
    starts.append(len(order))
    return order, up_of, link, starts


def _sweep(adm: Admittances, order: list[int], up_of: list[int], link: list, state=None):
    """Backward elimination over :func:`_tree`'s order, or any part of it
    closed under children, leaf first: after it ``U_v = offset[v] + gain[v]
    * U_parent`` for every MSR node v, which the forward substitution of
    each caller evaluates root first; only a subtree holding an OS node has
    a nonzero offset.  Pass an earlier call's ``state`` to reuse its buffers."""
    loads, fixed = adm.loads, adm.fixed
    if state is None:
        state = list(loads), list(adm.load_scale), [0j] * len(loads), [0j] * len(loads)
    rest, row_scale, offset, gain = state
    for v in reversed(order):
        up, (_, _, y, y_abs) = up_of[v], link[v]
        parent_free = fixed[up] is None
        if fixed[v] is not None:
            if parent_free:
                rest[up] += y
                offset[up] += y * fixed[v]
                row_scale[up] += y_abs
            continue
        d = rest[v] + y
        if not abs(d) > PIVOT_LIMIT * (row_scale[v] + y_abs):
            raise SingularSystemError(
                f"pivot {abs(d):.3e} at node {adm.node_ids[v]} is within "
                f"{PIVOT_LIMIT:.0e} of its row scale"
            )
        gain[v] = t = y / d
        if parent_free:
            rest[up] += rest[v] * t
            row_scale[up] += y_abs
        if offset[v]:
            offset[v] /= d
            if parent_free:
                offset[up] += y * offset[v]
    return state


def solve_tree(network: Network, cfg: Configuration) -> VoltageSolution:
    """Exact load flow of a spanning-tree configuration in O(n).

    A walk from the first OS node, breadth first inside each branch, gives
    parent pointers.  In reverse walk order every MSR node v, with pivot
    d_v and right-hand side r_v, is eliminated into its parent p over their
    cable admittance y:
    ``d_p -= y^2 / d_v`` and ``r_p += y r_v / d_v``.  An OS parent is not
    eliminated into; an OS node feeds ``y U`` into its MSR parent's
    right-hand side.  One forward pass in walk order then sets
    ``U_v = (r_v + y U_p) / d_v``.  The pivot is kept as ``d_v = rest_v + y``,
    so the parent's update ``y^2 / d_v - y = -y rest_v / d_v`` never cancels,
    even across a near-zero impedance.

    Raises :class:`NotSpanningTreeError` unless ``cfg`` has |V| - 1 edges
    connecting every node, and :class:`SingularSystemError` when a pivot is
    at most ``PIVOT_LIMIT`` times the sum of admittance magnitudes in its row.
    The residual, the largest nodal current balance, is computed only here.
    """
    adm = Admittances.of(network)
    _validate_edge_ids(network, cfg.edges)
    order, up_of, link, _ = _tree(adm, cfg.edges)
    *_, offset, gain = _sweep(adm, order, up_of, link)
    loads, fixed = adm.loads, adm.fixed
    u = list(fixed)
    balance = [0j] * len(fixed)
    for v in order:
        up = up_of[v]
        if fixed[v] is None:
            u[v] = offset[v] + gain[v] * u[up]
            balance[v] += loads[v] * u[v]
        current = link[v][2] * (u[v] - u[up])
        balance[v] += current
        balance[up] -= current
    residual = max((abs(r) for r, f in zip(balance, fixed) if f is None), default=0.0)
    return VoltageSolution(u=dict(zip(adm.node_ids, u)), residual=residual)


def check_compliance(
    network: Network,
    cfg: Configuration,
    solution: VoltageSolution,
    tol: float = DEFAULT_TOLERANCE,
) -> ComplianceReport:
    """Inclusive bound checks with a finite, non-negative relative ``tol``.

    Edge current is ``(U_m - U_n) / Z_nm`` for every configuration edge, in
    edge-id order; voltage magnitudes are checked against each node's band.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    u = solution.u
    volts, amps = _limits(network, tol)
    voltage_violations = []
    for node, (low, high) in zip(network.nodes, volts):
        mag = abs(u[node.id])
        if mag < low:
            voltage_violations.append((node.id, mag, node.u_min))
        elif mag > high:
            voltage_violations.append((node.id, mag, node.u_max))

    active = cfg.edges
    currents: dict[int, complex] = {}
    current_violations = []
    for e in network.edges:
        if e.id not in active:
            continue
        currents[e.id] = current = (u[e.m] - u[e.n]) / e.z
        if abs(current) > amps[e.id]:
            current_violations.append((e.id, abs(current), e.i_max))

    return ComplianceReport(
        compliant=not voltage_violations and not current_violations,
        voltage_violations=tuple(voltage_violations),
        current_violations=tuple(current_violations),
        currents=currents,
    )


def problem_edges(network: Network) -> frozenset[int]:
    """Edges whose current limit can be violated while voltages stay in band.

    An edge is excluded when
        max(Un_max - Um_min, Um_max - Un_min) * |beta|
        + 0.1 (Un_min + Um_min) * |gamma|  <=  I_max
    with beta = Re(1/Z) and gamma = Im(1/Z); within the voltage bands that
    bound is the largest current the edge can ever carry.
    """
    problem = set()
    for edge in network.edges:
        inv_z = 1.0 / edge.z
        beta, gamma = inv_z.real, inv_z.imag
        node_n = network.node_by_id[edge.n]
        node_m = network.node_by_id[edge.m]
        spread = max(node_n.u_max - node_m.u_min, node_m.u_max - node_n.u_min)
        bound = spread * abs(beta) + 0.1 * (node_n.u_min + node_m.u_min) * abs(gamma)
        if bound > edge.i_max:
            problem.add(edge.id)
    return frozenset(problem)


class ComplianceOracle:
    """Compliance verdicts of switchovers from the base tree, with call
    accounting.

    :meth:`query` answers one ``(activations, deactivations)`` pair and
    derives its tree and switched cables itself; :meth:`passes` asks it
    about a whole configuration.  ``calls`` counts the queries, the classical
    query unit compared against the amplitude-amplification search; a caller
    that skips a query which cannot change a verdict still adds it, and
    ``solves`` counts the queries answered, ``screened`` those among them
    proved non-compliant without a load flow.  A result that is not a spanning
    tree, or whose system is singular, is non-compliant; an unknown edge id
    in :meth:`passes` raises ``ValueError``.  The bounds rule is
    ``_limits`` at ``DEFAULT_TOLERANCE``.

    A branch is a tree's subtree under one child of the root, solved from its
    own cables and the fixed root voltage alone, so a base branch with no
    endpoint of a switched cable keeps the verdict solved here once (False
    on a pivot failure).  The new branches among the touched ones are
    eliminated and checked one at a time, largest first, so an overloaded
    head cable of the branch that took on load ends a query early.

    Before that walk, the load-floor bounds of the module docstring screen the
    query in a number of steps that grows with k alone.  The k deactivations
    cut the base tree into pieces, and the activations hang them, as a
    contracted tree, under attach points of the root part; anything else (a
    cycle, a piece left over) goes to the walk.  A piece's floors leave at its
    base parent and arrive at its attach point, so a new branch's head floor
    is its base sum plus the pieces it gains minus those cut from it, and an
    attach point's voltage bound is its base bound shifted by ``2 Re(s c)``
    for each move's floor ``s`` and the root-path sum ``c`` of ``conj(z)``
    down to the common base ancestor.  The head bound is checked first, then
    the bound at each attach point; one beyond the tolerant limit by the
    relative ``SCREEN_MARGIN`` answers False.  The screen is off on a grid
    with a cable of negative r or x, and it leaves to the walk every query
    that moves a piece holding an OS node, every branch holding a second OS
    node, and every zero-rated head cable, whose limit is float noise.
    """

    def __init__(self, network: Network):
        self.network = network
        self.calls = 0
        self.solves = 0
        self.screened = 0
        self.admittances = adm = Admittances.of(network)
        self._limits = _limits(network, DEFAULT_TOLERANCE)
        self._base = base = network.initial_configuration().edges

        order, up_of, link, starts = _tree(adm, base)
        self._members = tuple(frozenset(order[lo:hi]) for lo, hi in zip(starts, starts[1:]))
        self._branch_of = branch_of = [-1] * len(adm.node_ids)  # -1 for the root
        for b, nodes in enumerate(self._members):
            for v in nodes:
                branch_of[v] = b
        self._failing = frozenset(
            b for b, nodes in enumerate(self._members) if not self._verdict(base, nodes)
        )
        self._screen = all(z.real >= 0 and z.imag >= 0 for *_, z, _ in adm.edges.values())
        if self._screen:
            self._prepare_screen(order, up_of, link, starts)

    def _prepare_screen(self, order, up_of, link, starts) -> None:
        """The screen's constants on the base tree, per node: parent, preorder
        interval, subtree sums of the complex floors and of OS nodes, root-path
        sum of ``conj(z)``, voltage bound and squared band floor; per cable:
        its child end and head limit; per branch: head cable and floor; and a
        sparse table of the shallowest node over preorder ranges."""
        adm = self.admittances
        volts, amps = self._limits
        root, fixed = adm.root, adm.fixed
        size = len(fixed)
        self._up = up_of
        self._below = {link[v][0]: v for v in order}
        children = [[] for _ in range(size)]
        for v in order:
            children[up_of[v]].append(v)
        preorder, stack = [], [root]
        while stack:
            v = stack.pop()
            preorder.append(v)
            stack += reversed(children[v])
        self._tin = tin = [0] * size
        for t, v in enumerate(preorder):
            tin[v] = t
        self._tout = tout = [t + 1 for t in tin]
        floors = [  # p + jq
            complex(y.real * (low * low if y.real >= 0 else high * high),
                    -y.imag * (low * low if y.imag <= 0 else high * high))
            for y, (low, high) in zip(adm.loads, volts)
        ]
        os_below = [int(f is not None) for f in fixed]
        for v in reversed(order):
            up = up_of[v]
            floors[up] += floors[v]
            os_below[up] += os_below[v]
            tout[up] = max(tout[up], tout[v])
        depth, path = [0] * size, [0j] * size  # path: the root-path sum of r - jx
        bound = [abs(fixed[root]) ** 2] * size
        for v in order:
            up, z = up_of[v], adm.edges[link[v][0]][2].conjugate()
            depth[v] = depth[up] + 1
            path[v] = path[up] + z
            bound[v] = bound[up] - 2 * (floors[v] * z).real
        self._floors, self._os_below = floors, os_below
        self._path, self._bound, self._depth = path, bound, depth
        self._low = [low * low * (1 - SCREEN_MARGIN) for low, _ in volts]
        head_u = abs(fixed[root]) * (1 + SCREEN_MARGIN)
        self._head_limit = {
            eid: amps[eid] * head_u if i_max > 0 else math.inf
            for eid, (*_, i_max) in adm.edges.items()
        }
        self._heads = tuple(  # per base branch: head cable and floors, None if it holds an OS node
            None if os_below[v] else (link[v][0], floors[v])
            for v in (order[lo] for lo in starts[:-1])
        )
        table = [preorder]
        while 1 << len(table) <= size:
            last, half = table[-1], 1 << (len(table) - 1)
            table.append([
                a if depth[a] < depth[b] else b for a, b in zip(last, last[half:])
            ])
        self._table = table

    def passes(self, cfg: Configuration) -> bool:
        """Whether ``cfg`` is compliant: the :meth:`query` of the switchover
        from the base tree to it."""
        self.calls += 1
        _validate_edge_ids(self.network, cfg.edges)
        return self.query(cfg.edges - self._base, self._base - cfg.edges)

    def query(self, activations: frozenset[int], deactivations: frozenset[int]) -> bool:
        """Whether the base tree with the known ``activations`` switched on
        and ``deactivations`` off is compliant; counts a solve, the caller the
        call.  The tree's edge set is built only once no untouched base
        branch fails and the screen proves no violation."""
        self.solves += 1
        edges, branch_of = self.admittances.edges, self._branch_of
        touched = {branch_of[v] for eid in activations | deactivations for v in edges[eid][:2]}
        touched.discard(-1)
        if not self._failing <= touched:
            return False
        if self._screen and self._proves_violation(activations, deactivations):
            self.screened += 1
            return False
        nodes = frozenset().union(*map(self._members.__getitem__, touched))
        return self._verdict(self._base - deactivations | activations, nodes)

    def _proves_violation(self, activations: frozenset[int], deactivations: frozenset[int]) -> bool:
        """The screen of the class docstring: whether a changed branch's head
        floor current or an attach point's voltage bound violates.  False
        whenever the switched cables do not contract to a tree."""
        k = len(deactivations)
        if len(activations) != k or not deactivations <= self._base:
            return False
        tin, tout, up, os_below = self._tin, self._tout, self._up, self._os_below
        cuts = [self._below[d] for d in deactivations]  # the pieces' base tops
        if k > 1:
            cuts.sort(key=tin.__getitem__)
        spans = []  # deepest first: a later cut in preorder never holds an earlier one
        for i, c in enumerate(cuts, 1):
            if os_below[c]:
                return False
            spans.insert(0, (tin[c], tout[c], i))

        def part(v):  # 1 + the index of the deepest cut above v, or 0 in the root part
            t = tin[v]
            for lo, hi, i in spans:
                if lo <= t < hi:
                    return i
            return 0

        floors, own = self._floors, [0j]
        moves = []  # (base node, floors gained there), losses negative
        for c in cuts:
            s = floors[c]
            own.append(s)
            outer = part(up[c])
            if outer:
                own[outer] -= s
            else:
                moves.append((up[c], -s))

        pending = []
        for a in activations:
            x, y = self.admittances.edges[a][:2]
            pending.append((part(x), x, part(y), y, a))
        hang, reached = [], {0}  # (parent part, attach point, part, cable), parents first
        for _ in range(k):  # each hangs one more part, or the cables are no tree
            for end in pending:
                px, x, py, y, a = end
                if (px in reached) != (py in reached):
                    break
            else:
                return False
            pending.remove(end)
            if py in reached:
                px, x, py = py, y, px
            hang.append((px, x, py, a))
            reached.add(py)

        root, limit = self.admittances.root, self._head_limit
        gains = []  # attach points in the root part, with the floors hung there
        for p, x, q, a in reversed(hang):
            if p:
                own[p] += own[q]
            elif x == root:  # a new branch, headed by the activated cable
                if math.hypot(max(own[q].real, 0.0), max(own[q].imag, 0.0)) > limit[a]:
                    return True
            else:
                gains.append(x)
                moves.append((x, own[q]))

        branch_of, heads = self._branch_of, self._heads
        changed = {}  # base branch: the floors it gains, net
        for m, s in moves:
            changed[branch_of[m]] = changed.get(branch_of[m], 0j) + s
        changed.pop(-1, None)  # a cut head cable leaves no branch behind
        for b, s in changed.items():
            if head := heads[b]:
                s += head[1]
                if math.hypot(max(s.real, 0.0), max(s.imag, 0.0)) > limit[head[0]]:
                    return True

        path, bound, low = self._path, self._bound, self._low
        for w in gains:
            b = branch_of[w]
            if heads[b] is None:
                continue
            ub = bound[w]
            for m, s in moves:
                if branch_of[m] == b:
                    ub -= 2 * (s * path[self._common(w, m)]).real
            if ub < low[w]:
                return True
        return False

    def _common(self, u: int, v: int) -> int:
        """The deepest common base-tree ancestor of ``u`` and ``v``: the
        parent of the shallowest node of the preorder after the earlier one,
        up to the later one."""
        lo, hi = self._tin[u], self._tin[v]
        if lo > hi:
            lo, hi = hi, lo
        elif lo == hi:
            return u
        j = (hi - lo).bit_length() - 1
        row, depth = self._table[j], self._depth
        a, b = row[lo + 1], row[hi + 1 - (1 << j)]
        return self._up[a if depth[a] < depth[b] else b]

    def _verdict(self, active: frozenset[int], nodes: frozenset[int]) -> bool:
        """Bounds on ``nodes`` and their parent cables under ``active``, new
        branch by new branch, largest first, as forward substitution goes."""
        adm = self.admittances
        try:
            order, up_of, link, starts = _tree(adm, active, nodes)
        except NotSpanningTreeError:
            return False
        volts, amps = self._limits
        edges, fixed = adm.edges, adm.fixed
        u = list(fixed)
        state = None
        for lo, hi in sorted(zip(starts, starts[1:]), key=lambda b: b[0] - b[1]):
            branch = order[lo:hi]
            try:
                state = _sweep(adm, branch, up_of, link, state)
            except SingularSystemError:
                return False
            offset, gain = state[2:]
            for v in branch:  # the root, at u_nom = u_min = u_max, is never in a branch
                if fixed[v] is None:
                    u[v] = offset[v] + gain[v] * u[up_of[v]]
                low, high = volts[v]
                mag = abs(u[v])
                if mag < low or mag > high:
                    return False
                eid = link[v][0]
                i, j, z, _ = edges[eid]
                if abs((u[j] - u[i]) / z) > amps[eid]:
                    return False
        return True
