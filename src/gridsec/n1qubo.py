"""The complete N-1 QUBO: rooted-spanning-tree penalties, a switch-count
objective, discretized load-flow residual penalties, and the gated coupling
between the two, plus decoding of sampler bitstrings.

Tree encoding
=============
Each node gets a depth variable with ``levels`` options (domain-wall bits),
each usable edge a state variable with ``2 * levels - 1`` options:

* option ``l`` in ``[0, levels-2]``: edge in layer ``l``, first endpoint is
  the deeper one (depth ``l+1``), second endpoint at depth ``l``;
* option ``levels-1+l``: edge in layer ``l`` the other way around;
* last option: edge not in the tree.

Because domain-wall strings are monotone, the last bit of an edge variable
is 1 exactly when some in-tree option is selected, so it doubles as the
edge's membership indicator and gates the load-flow terms.

A failing edge gets no variable at all: it is forced out of every tree and
its forced switch-off contributes a constant 1 to the objective, keeping
"objective = number of switches" intact.

Load-flow encoding
==================
Per MSR node, real voltage bits span ``[u_min, u_max]`` and imaginary bits
span ``[-0.1 u_min, +0.1 u_min]``; per problem edge, current bits span
``[-i_max, +i_max]`` (zero is always on the current grid).  Every balance
and current equation is row-equilibrated (divided by its largest affine
coefficient) before squaring, so one stiff low-impedance cable cannot
flatten the rest of the energy landscape.

One assembler builds these residuals for both QUBOs, given the voltage of
node ``w`` as seen through edge ``e``: ``U_w`` for a fixed configuration; in
the combined QUBO the gated product ``y_e * U_w``, linearized with auxiliary
bits ``z = y * u`` and the pairwise consistency penalty.

Layout
======
All three builders return one :class:`QuboLayout`: the variable labels, the
penalty groups with their weights, a tree part (``node_bits``,
``edge_bits``), a load-flow part and ``aux_bits[eid, nid, part]``; a builder
leaves out the parts it has no variables for.  Every quantized value is one
:class:`Grid`, read as ``voltage[nid, "R" | "I"]`` or ``current[eid]``; an
OS voltage is a grid with no bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .loadflow import admittance, check_compliance, problem_edges, solve_tree
from .network import Configuration, Network, tree_walk
from .qubo import (
    Qubo,
    QuboBuilder,
    VarAllocator,
    domain_wall,
    domain_wall_decode,
    domain_wall_level_terms,
    pair_reduction_penalty,
)

__all__ = [
    "PenaltyWeights",
    "Grid",
    "QuboLayout",
    "DecodedSolution",
    "default_levels",
    "build_tree_qubo",
    "build_loadflow_qubo",
    "build_n1_qubo",
    "decode_solution",
    "is_feasible",
    "rounded_reference_bits",
    "quantization_epsilon",
]

FEASIBILITY_TOL = 1e-9
STRUCTURAL_GROUPS = ("domain_wall", "root", "connectivity", "indicator", "aux")


@dataclass(frozen=True)
class PenaltyWeights:
    """Finite positive penalty factors; ``None`` fields resolve to network
    defaults in :meth:`groups`.

    The load-flow residual weights default to 0.1: the residual groups carry
    an irreducible quantization floor, so they are scaled well below the
    unit granularity of the switch-count objective, keeping the tree
    ordering decisive while gross violations still register.
    """

    dw: float | None = None
    root: float | None = None
    con: float | None = None
    ind: float | None = None
    u_real: float = 0.1
    u_imag: float = 0.1
    current: float = 0.1
    aux: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:  # a default fills these
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < float("inf"):
                raise ValueError(f"penalty weight {f.name} must be a finite positive number, got {value!r}")

    def groups(self, n_edges: int) -> dict[str, float]:
        """The weight of every penalty group, in group order.

        Constraint weights beat any achievable objective value (2 |E| each);
        the domain-wall weight additionally dominates the worst negative
        excursion a broken wall can draw out of the indicator penalty
        (4 per wall defect), so malformed strings never pay off.  The
        ``aux`` group has weight 1: ``aux`` weights each of its bits.
        """
        base = 2.0 * max(1, n_edges)
        ind = self.ind if self.ind is not None else base
        return {
            "domain_wall": self.dw if self.dw is not None else 4.0 * ind + base,
            "root": self.root if self.root is not None else base,
            "connectivity": self.con if self.con is not None else base,
            "indicator": ind,
            "objective": 1.0,
            "residual_real": self.u_real,
            "residual_imag": self.u_imag,
            "current": self.current,
            "aux": 1.0,
        }


@dataclass(frozen=True)
class Grid:
    """One quantized value: ``const + sum(coefs[k] * x[bits[k]])``.  A value
    the network fixes, such as an OS voltage, is a grid with no bits."""

    bits: tuple[int, ...]
    const: float
    coefs: tuple[float, ...] = ()

    def form(self) -> tuple[dict[int, float], float]:
        return dict(zip(self.bits, self.coefs)), self.const

    def value(self, x) -> float:
        return self.const + sum(c for c, b in zip(self.coefs, self.bits) if x[b])

    def nearest(self, v: float) -> tuple[int, ...]:
        """Bit values of the grid point nearest to ``v`` (clipped into the range)."""
        if not self.coefs or self.coefs[0] == 0.0:
            return tuple(0 for _ in self.coefs)
        level = int(round((v - self.const) / self.coefs[0]))
        level = max(0, min((1 << len(self.coefs)) - 1, level))
        return tuple((level >> k) & 1 for k in range(len(self.coefs)))


@dataclass(frozen=True)
class TreeVars:
    """Domain-wall depth bits per node and state bits per usable edge."""

    levels: int
    node_bits: dict[int, tuple[int, ...]]
    edge_bits: dict[int, tuple[int, ...]]
    edge_endpoints: dict[int, tuple[int, int]]
    active_ids: frozenset[int]
    failing_edge: int | None

    def in_tree_bit(self, edge_id: int) -> int:
        return self.edge_bits[edge_id][-1]

    def not_in_tree_option(self) -> int:
        return 2 * self.levels - 2

    def decode_depths(self, bits) -> dict[int, int | None]:
        return {
            nid: domain_wall_decode([bits[b] for b in var_bits])
            for nid, var_bits in self.node_bits.items()
        }

    def decode_selected_edges(self, bits) -> frozenset[int] | None:
        options = {
            eid: domain_wall_decode([bits[b] for b in var_bits])
            for eid, var_bits in self.edge_bits.items()
        }
        if any(opt is None for opt in options.values()):
            return None
        skip = self.not_in_tree_option()
        return frozenset(eid for eid, opt in options.items() if opt != skip)


@dataclass(frozen=True)
class LoadflowVars:
    """``voltage[nid, "R" | "I"]`` of every node (OS nodes first) and
    ``current[eid]`` of every problem edge; ``cfg`` is the fixed
    configuration, ``None`` in the N-1 QUBO."""

    voltage: dict[tuple[int, str], Grid]
    current: dict[int, Grid]
    cfg: Configuration | None

    def decode_voltages(self, bits) -> dict[int, complex]:
        return {
            nid: complex(grid.value(bits), self.voltage[nid, "I"].value(bits))
            for (nid, part), grid in self.voltage.items()
            if part == "R"
        }

    def decode_currents(self, bits) -> dict[int, float]:
        return {eid: grid.value(bits) for eid, grid in self.current.items()}


@dataclass(frozen=True, eq=False)
class QuboLayout:
    """The variable space of one QUBO: a tree part, a load-flow part or both,
    coupled by ``aux_bits[eid, nid, part]`` (the bits of ``z = y_e * u``)."""

    labels: list[str]
    groups: dict[str, Qubo]
    weights: dict[str, float]
    tree: TreeVars | None = None
    loadflow: LoadflowVars | None = None
    aux_bits: dict[tuple[int, int, str], tuple[int, ...]] = field(default_factory=dict)

    @property
    def num_vars(self) -> int:
        return len(self.labels)

    def encode_tree(self, network: Network, cfg: Configuration, root: int) -> np.ndarray:
        """Canonical zero-penalty encoding of a spanning tree rooted at ``root``."""
        tree = self.tree
        if tree is None:
            raise ValueError("layout has no tree part")
        depth = tree_walk(network, cfg, root)[0]
        if len(depth) != len(network.nodes):
            raise ValueError("configuration does not span all nodes")
        height = max(depth.values())
        if height > tree.levels - 1:
            raise ValueError(f"tree height {height} exceeds the {tree.levels - 1} encodable layers")

        bits = np.zeros(self.num_vars, dtype=np.uint8)

        def set_option(var_bits: tuple[int, ...], option: int) -> None:
            for b in var_bits[option:]:
                bits[b] = 1

        for nid, var_bits in tree.node_bits.items():
            set_option(var_bits, depth[nid])
        for eid, var_bits in tree.edge_bits.items():
            a, b = tree.edge_endpoints[eid]
            if eid in cfg.edges:
                if depth[a] == depth[b] + 1:
                    option = depth[b]
                elif depth[b] == depth[a] + 1:
                    option = (tree.levels - 1) + depth[a]
                else:
                    raise ValueError(f"edge {eid} does not join adjacent layers")
            else:
                option = tree.not_in_tree_option()
            set_option(var_bits, option)
        return bits

    def aux_consistent(self, bits) -> bool:
        for (eid, nid, part), z_bits in self.aux_bits.items():
            gate = bits[self.tree.in_tree_bit(eid)]
            for u_bit, z_bit in zip(self.loadflow.voltage[nid, part].bits, z_bits):
                if bits[z_bit] != gate * bits[u_bit]:
                    return False
        return True


# ---------------------------------------------------------------------------
# tree QUBO
# ---------------------------------------------------------------------------

def default_levels(network: Network) -> int:
    """Depth-value count |V| (at least 2): no spanning tree on |V| nodes is
    taller than |V| - 1, so every OS-rooted tree encodes.  The graph diameter
    is no such bound, as a switchover can leave a far taller tree."""
    return max(2, len(network.nodes))


def _tree_variables(
    network: Network, levels: int, failing_edge: int | None, alloc: VarAllocator
) -> TreeVars:
    if levels < 2:
        raise ValueError(f"need at least 2 depth levels, got {levels}")
    if levels > (cap := default_levels(network)):
        raise ValueError(f"need at most {cap} depth levels (the node count), got {levels}")
    if failing_edge is not None:
        if failing_edge not in network.edge_by_id:
            raise ValueError(f"unknown edge id {failing_edge}")
        if failing_edge not in network.active_ids:
            raise ValueError(f"failing edge {failing_edge} is not active")
    node_bits = {
        node.id: alloc.new_block(levels - 1, f"x[v={node.id},{{0}}]") for node in network.nodes
    }
    edge_bits: dict[int, tuple[int, ...]] = {}
    edge_endpoints: dict[int, tuple[int, int]] = {}
    for edge in network.edges:
        if edge.id == failing_edge:
            continue
        edge_bits[edge.id] = alloc.new_block(
            2 * levels - 2, f"y[e={edge.id}:{edge.n}-{edge.m},{{0}}]"
        )
        edge_endpoints[edge.id] = (edge.n, edge.m)
    return TreeVars(
        levels, node_bits, edge_bits, edge_endpoints, network.active_ids - {failing_edge}, failing_edge
    )


def _merge_terms(into: dict[int, float], terms: dict[int, float], sign: float = 1.0) -> None:
    for var, coef in terms.items():
        into[var] = into.get(var, 0.0) + sign * coef


def _tree_groups(network: Network, tree: TreeVars, n: int) -> dict[str, Qubo]:
    levels = tree.levels

    dw = QuboBuilder()
    for var_bits in list(tree.node_bits.values()) + list(tree.edge_bits.values()):
        dw.add_qubo(domain_wall(var_bits)[0])

    # exactly one root, and it must be an OS node: a node's first bit is its
    # depth-0 indicator
    root = QuboBuilder()
    root.add_square({tree.node_bits[nid][0]: 1.0 for nid in network.os_ids}, -1.0)
    for nid in network.msr_ids:
        root.add_linear(tree.node_bits[nid][0], 1.0)

    # every node at depth i >= 1 hangs off exactly one edge in layer i - 1:
    # option i - 1 of an edge seen from its first endpoint, levels - 1 + i - 1
    # from its second
    con = QuboBuilder()
    incident: dict[int, list[tuple[tuple[int, ...], int]]] = {node.id: [] for node in network.nodes}
    for eid, (a, b) in tree.edge_endpoints.items():
        incident[a].append((tree.edge_bits[eid], 0))
        incident[b].append((tree.edge_bits[eid], levels - 1))
    for node in network.nodes:
        for depth in range(1, levels):
            form, const = domain_wall_level_terms(tree.node_bits[node.id], depth)
            for edge_bits, offset in incident[node.id]:
                terms, edge_const = domain_wall_level_terms(edge_bits, offset + depth - 1)
                _merge_terms(form, terms, sign=-1.0)
                const -= edge_const
            con.add_square(form, const)

    # an in-tree edge at layer l must see its endpoints at depths l and l + 1
    ind = QuboBuilder()
    for eid, (a, b) in tree.edge_endpoints.items():
        for layer in range(levels - 1):
            for option, deep, shallow in (
                (layer, a, b),
                ((levels - 1) + layer, b, a),
            ):
                y_terms, y_const = domain_wall_level_terms(tree.edge_bits[eid], option)
                factor: dict[int, float] = {}
                deep_terms, deep_const = domain_wall_level_terms(
                    tree.node_bits[deep], layer + 1
                )
                shallow_terms, shallow_const = domain_wall_level_terms(
                    tree.node_bits[shallow], layer
                )
                _merge_terms(factor, deep_terms, sign=-1.0)
                _merge_terms(factor, shallow_terms, sign=-1.0)
                ind.add_product(y_terms, y_const, factor, 2.0 - deep_const - shallow_const)

    # switches: active edges dropped plus inactive edges picked up
    obj = QuboBuilder()
    if tree.failing_edge is not None:
        obj.add_offset(1.0)
    for eid in sorted(tree.edge_bits):
        gate = tree.in_tree_bit(eid)
        if eid in tree.active_ids:
            obj.add_offset(1.0)
            obj.add_linear(gate, -1.0)
        else:
            obj.add_linear(gate, 1.0)

    return {
        "domain_wall": dw.build(n),
        "root": root.build(n),
        "connectivity": con.build(n),
        "indicator": ind.build(n),
        "objective": obj.build(n),
    }


def build_tree_qubo(
    network: Network,
    levels: int,
    weights: PenaltyWeights = PenaltyWeights(),
    failing_edge: int | None = None,
) -> tuple[Qubo, QuboLayout]:
    """Spanning-tree QUBO whose zero-penalty states are exactly the encodings
    of OS-rooted spanning trees of height <= levels - 1, with energy equal to
    the number of switches away from the active set.
    """
    alloc = VarAllocator()
    tree = _tree_variables(network, levels, failing_edge, alloc)
    table = weights.groups(len(network.edges) - (failing_edge is not None))
    return _with_qubo(alloc.labels, _tree_groups(network, tree, alloc.count), table, tree=tree)


def _with_qubo(
    labels: list[str], groups: dict[str, Qubo], table: dict[str, float], **parts
) -> tuple[Qubo, QuboLayout]:
    """The weighted sum of ``groups``, each weighted from ``table``, and
    their layout, which lists the weights in group order."""
    layout = QuboLayout(labels, groups, {name: table[name] for name in groups}, **parts)
    total = QuboBuilder(layout.num_vars)
    for name, group in layout.groups.items():
        total.add_qubo(group, layout.weights[name])
    return total.build(layout.num_vars), layout


# ---------------------------------------------------------------------------
# load-flow QUBO
# ---------------------------------------------------------------------------

def _loadflow_variables(
    network: Network,
    current_edges: list[int],
    bits_real: int,
    bits_imag: int,
    bits_current: int,
    cfg: Configuration | None,
    alloc: VarAllocator,
) -> LoadflowVars:
    for name, value in (("bits_real", bits_real), ("bits_imag", bits_imag), ("bits_current", bits_current)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")

    def grid(nbits: int, label: str, lo: float, hi: float, lowest_raised: bool) -> Grid:
        """``nbits`` fresh bits on a binary grid over [lo, hi]; its lowest point
        is raised by one step when ``lowest_raised``."""
        step = (hi - lo) / float(1 << nbits)
        coefs = tuple(step * (1 << k) for k in range(nbits))
        return Grid(alloc.new_block(nbits, label), lo + (step if lowest_raised else 0.0), coefs)

    voltage: dict[tuple[int, str], Grid] = {}
    for nid in network.os_ids:
        u = complex(network.node_by_id[nid].u_nom)
        voltage[nid, "R"], voltage[nid, "I"] = Grid((), u.real), Grid((), u.imag)
    for nid in network.msr_ids:
        node = network.node_by_id[nid]
        voltage[nid, "R"] = grid(bits_real, f"uR[n={nid},{{0}}]", node.u_min, node.u_max, True)
        voltage[nid, "I"] = grid(bits_imag, f"uI[n={nid},{{0}}]", -0.1 * node.u_min, 0.1 * node.u_min, False)
    current = {}
    for eid in current_edges:
        i_max = network.edge_by_id[eid].i_max
        current[eid] = grid(bits_current, f"i[e={eid},{{0}}]", -i_max, i_max, True)
    return LoadflowVars(voltage, current, cfg)


def _add_equation(builder: QuboBuilder, form: dict[int, float], const: float) -> None:
    """Square one residual equation after row equilibration.

    Each equation is rescaled so its largest coefficient has magnitude one;
    without this, a single low-impedance cable (admittance orders of
    magnitude above the rest) dominates every other penalty and leaves the
    sampler no usable energy landscape.
    """
    magnitude = max([abs(c) for c in form.values()] + [abs(const)], default=0.0)
    if magnitude <= 0.0:
        return
    builder.add_square({v: c / magnitude for v, c in form.items()}, const / magnitude)


def _residual_groups(
    network: Network,
    lf: LoadflowVars,
    edge_ids: list[int],
    voltage: Callable[[int, int, str], tuple[dict[int, float], float]],
    n: int,
) -> dict[str, Qubo]:
    """Balance and current residual groups over the given edges.

    ``voltage(eid, nid, part)`` is the affine form of node ``nid``'s voltage
    part as seen through edge ``eid``: the node's own form for a fixed
    configuration, the gated product ``y_e * U_nid`` in the N-1 QUBO.  The
    load injection always uses the node's own form.
    """
    real_group = QuboBuilder(n)
    imag_group = QuboBuilder(n)
    adj: dict[int, list[int]] = {node.id: [] for node in network.nodes}
    for eid in edge_ids:
        edge = network.edge_by_id[eid]
        adj[edge.n].append(eid)
        adj[edge.m].append(eid)

    def add_flow(
        form: dict[int, float], eid: int, nid: int, other: int, beta: float, gamma: float
    ) -> float:
        """Merge beta (Un^R - Um^R) - gamma (Un^I - Um^I) into ``form``, the
        voltages seen through edge ``eid``; return the expression's constant."""
        ur_n, cn = voltage(eid, nid, "R")
        ur_m, cm = voltage(eid, other, "R")
        ui_n, cin = voltage(eid, nid, "I")
        ui_m, cim = voltage(eid, other, "I")
        _merge_terms(form, ur_n, beta)
        _merge_terms(form, ur_m, -beta)
        _merge_terms(form, ui_n, -gamma)
        _merge_terms(form, ui_m, gamma)
        return beta * (cn - cm) - gamma * (cin - cim)

    for nid in network.msr_ids:
        node = network.node_by_id[nid]
        y_load = admittance(node.load, node.u_nom)
        ur_terms, ur_const = lf.voltage[nid, "R"].form()
        ui_terms, ui_const = lf.voltage[nid, "I"].form()

        real_form: dict[int, float] = {}
        imag_form: dict[int, float] = {}
        # injection current of the constant-impedance load: U * Y
        _merge_terms(real_form, ur_terms, y_load.real)
        _merge_terms(real_form, ui_terms, -y_load.imag)
        real_const = y_load.real * ur_const - y_load.imag * ui_const
        _merge_terms(imag_form, ur_terms, y_load.imag)
        _merge_terms(imag_form, ui_terms, y_load.real)
        imag_const = y_load.imag * ur_const + y_load.real * ui_const

        for eid in adj[nid]:
            edge = network.edge_by_id[eid]
            other = edge.m if edge.n == nid else edge.n
            inv_z = 1.0 / edge.z
            real_const += add_flow(real_form, eid, nid, other, inv_z.real, inv_z.imag)
            # gamma (Un^R - Um^R) + beta (Un^I - Um^I)
            imag_const += add_flow(imag_form, eid, nid, other, inv_z.imag, -inv_z.real)

        _add_equation(real_group, real_form, real_const)
        _add_equation(imag_group, imag_form, imag_const)

    current_group = QuboBuilder(n)
    for eid, grid in lf.current.items():
        edge = network.edge_by_id[eid]
        inv_z = 1.0 / edge.z
        form, const_i = grid.form()
        const_i += add_flow(form, eid, edge.n, edge.m, inv_z.real, inv_z.imag)
        _add_equation(current_group, form, const_i)

    return {
        "residual_real": real_group.build(n),
        "residual_imag": imag_group.build(n),
        "current": current_group.build(n),
    }


def build_loadflow_qubo(
    network: Network,
    cfg: Configuration,
    bits_real: int = 4,
    bits_imag: int = 4,
    bits_current: int = 4,
    weights: PenaltyWeights = PenaltyWeights(),
) -> tuple[Qubo, QuboLayout]:
    """Squared-residual penalties of the discretized balance equations for a
    fixed configuration.  Current variables exist only for problem edges of
    the configuration; every other rated edge cannot be violated while the
    voltages stay inside their encoded bands.
    """
    alloc = VarAllocator()
    current_edges = sorted(problem_edges(network) & cfg.edges)
    lf = _loadflow_variables(network, current_edges, bits_real, bits_imag, bits_current, cfg, alloc)
    groups = _residual_groups(
        network, lf, sorted(cfg.edges), lambda eid, nid, part: lf.voltage[nid, part].form(), alloc.count
    )
    return _with_qubo(alloc.labels, groups, weights.groups(len(network.edges)), loadflow=lf)


# ---------------------------------------------------------------------------
# combined N-1 QUBO
# ---------------------------------------------------------------------------

def build_n1_qubo(
    network: Network,
    failing_edge: int | None = None,
    levels: int | None = None,
    bits_real: int = 4,
    bits_imag: int = 4,
    bits_current: int = 4,
    weights: PenaltyWeights = PenaltyWeights(),
) -> tuple[Qubo, QuboLayout]:
    """Tree search and load-flow residuals coupled through the edge
    membership bits.

    Voltage differences across an edge enter the residuals multiplied by the
    edge's membership bit; the cubic products are replaced by auxiliary bits
    ``z = y * u`` with the pairwise consistency penalty, so an edge outside
    the tree contributes nothing to any balance equation.
    """
    if levels is None:
        levels = default_levels(network)
    alloc = VarAllocator()
    tree = _tree_variables(network, levels, failing_edge, alloc)
    current_edges = sorted(problem_edges(network) - {failing_edge})
    lf = _loadflow_variables(network, current_edges, bits_real, bits_imag, bits_current, None, alloc)

    # auxiliary products z = y_e * u_w for every usable edge / MSR endpoint
    aux_bits: dict[tuple[int, int, str], tuple[int, ...]] = {}
    for eid in sorted(tree.edge_bits):
        for nid in tree.edge_endpoints[eid]:
            for part in "RI":
                if source := lf.voltage[nid, part].bits:
                    aux_bits[eid, nid, part] = alloc.new_block(
                        len(source), f"z[e={eid},n={nid},{part},{{0}}]"
                    )
    n = alloc.count

    def gated_voltage(eid: int, nid: int, part: str) -> tuple[dict[int, float], float]:
        """Affine form of y_e * U_nid over (z, gate) bits."""
        grid = lf.voltage[nid, part]
        form = dict(zip(aux_bits.get((eid, nid, part), ()), grid.coefs))
        form[tree.in_tree_bit(eid)] = grid.const
        return form, 0.0

    residuals = _residual_groups(network, lf, sorted(tree.edge_bits), gated_voltage, n)
    groups = {**_tree_groups(network, tree, n), **residuals}
    table = weights.groups(len(network.edges) - (failing_edge is not None))

    # Per-bit consistency weights: each z bit must out-penalize exactly the
    # residual energy it could shave off when misaligned, nothing more.  A
    # uniform worst-case weight (driven by the stiffest cable) would wall off
    # every edge-membership flip and strand the sampler.
    impact = _flip_impact([(group, table[name]) for name, group in residuals.items()])
    aux_group = QuboBuilder(n)
    for (eid, nid, part), z_bits in sorted(aux_bits.items()):
        gate = tree.in_tree_bit(eid)
        for u_bit, z_bit in zip(lf.voltage[nid, part].bits, z_bits):
            bit_weight = weights.aux if weights.aux is not None else 1.0 + impact.get(z_bit, 0.0)
            aux_group.add_qubo(pair_reduction_penalty(gate, u_bit, z_bit), bit_weight)
    groups["aux"] = aux_group.build(n)
    return _with_qubo(alloc.labels, groups, table, tree=tree, loadflow=lf, aux_bits=aux_bits)


def _flip_impact(weighted_groups: list[tuple[Qubo, float]]) -> dict[int, float]:
    """Per-variable bound on the energy a single flip can move across the
    given groups; used to size the consistency weight of each product bit."""
    impact: dict[int, float] = {}
    for qubo, weight in weighted_groups:
        for (i, j), q in qubo.coeffs.items():
            contribution = abs(weight * q)
            impact[i] = impact.get(i, 0.0) + contribution
            if i != j:
                impact[j] = impact.get(j, 0.0) + contribution
    return impact


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecodedSolution:
    """Diagnosis of one sampler bitstring."""

    feasible: bool
    configuration: Configuration | None
    selected_edges: frozenset[int] | None
    depths: dict[int, int | None] | None
    penalties: dict[str, float]
    voltages: dict[int, complex] | None
    currents: dict[int, float] | None
    aux_consistent: bool | None

    @property
    def violated_groups(self) -> tuple[str, ...]:
        return tuple(
            name
            for name in STRUCTURAL_GROUPS
            if self.penalties.get(name, 0.0) > FEASIBILITY_TOL
        )


def is_feasible(penalties: dict[str, float] | dict[str, np.ndarray]):
    """The feasibility rule: every structural group present is at most
    ``FEASIBILITY_TOL``.  Takes the group energies of one bitstring (floats)
    or of a batch (one array per group) and answers in kind."""
    verdict = True
    for name in STRUCTURAL_GROUPS:
        if name in penalties:
            verdict = verdict & (penalties[name] <= FEASIBILITY_TOL)
    return verdict


def decode_solution(bits, layout: QuboLayout) -> DecodedSolution:
    """Evaluate every penalty group and read the bits back into the domain.

    A bitstring is feasible when every structural group (domain wall, root,
    connectivity, indicator and, where present, auxiliary consistency) is
    zero; the load-flow residual groups are reported but never gate
    feasibility, since they carry an irreducible quantization floor.
    """
    bits = np.asarray(bits).astype(np.uint8)
    tree, lf = layout.tree, layout.loadflow
    penalties = {name: group.evaluate(bits) for name, group in layout.groups.items()}
    feasible = bool(is_feasible(penalties))
    selected = tree.decode_selected_edges(bits) if tree is not None else None
    return DecodedSolution(
        feasible=feasible,
        configuration=Configuration(selected) if feasible and selected is not None else None,
        selected_edges=selected,
        depths=tree.decode_depths(bits) if tree is not None else None,
        penalties=penalties,
        voltages=lf.decode_voltages(bits) if lf is not None else None,
        currents=lf.decode_currents(bits) if lf is not None else None,
        aux_consistent=layout.aux_consistent(bits) if tree is not None and lf is not None else None,
    )


# ---------------------------------------------------------------------------
# quantization reference
# ---------------------------------------------------------------------------

def rounded_reference_bits(layout: QuboLayout, network: Network) -> np.ndarray:
    """Nearest-grid encoding of the continuous load-flow solution.

    Only defined for fixed-configuration layouts (``ValueError`` otherwise);
    voltages come from the exact tree solve and currents from its compliance
    check, each rounded independently onto its grid (currents clipped into
    their range).
    """
    if layout.loadflow is None or layout.loadflow.cfg is None:
        raise ValueError("reference rounding needs a fixed-configuration layout")
    lf = layout.loadflow
    solution = solve_tree(network, lf.cfg)
    flows = check_compliance(network, lf.cfg, solution).currents
    targets = [(lf.voltage[nid, "R"], u.real) for nid, u in solution.u.items()]
    targets += [(lf.voltage[nid, "I"], u.imag) for nid, u in solution.u.items()]
    targets += [(grid, flows[eid].real) for eid, grid in lf.current.items()]
    bits = np.zeros(layout.num_vars, dtype=np.uint8)
    for grid, value in targets:
        for b, v in zip(grid.bits, grid.nearest(value)):
            bits[b] = v
    return bits


def quantization_epsilon(qubo: Qubo, layout: QuboLayout, network: Network) -> float:
    """Energy of the rounded continuous solution: the quantization floor used
    to declare a configuration feasible (minimum <= 2 * epsilon).  Raises
    ``ValueError`` on a layout without a fixed configuration."""
    return qubo.evaluate(rounded_reference_bits(layout, network))
