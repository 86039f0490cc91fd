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
    domain_wall_decode,
    domain_wall_level_terms,
    pair_reduction_penalty,
)

__all__ = [
    "PenaltyWeights",
    "TreeVarLayout",
    "LoadflowVarLayout",
    "N1QuboLayout",
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
    """Positive penalty factors; ``None`` fields resolve to network defaults.

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

    def resolved(self, n_edges: int) -> PenaltyWeights:
        """Fill tree-side defaults.

        Constraint weights beat any achievable objective value (2 |E| each);
        the domain-wall weight additionally dominates the worst negative
        excursion a broken wall can draw out of the indicator penalty
        (4 per wall defect), so malformed strings never pay off.
        """
        base = 2.0 * max(1, n_edges)
        ind = self.ind if self.ind is not None else base
        return PenaltyWeights(
            dw=self.dw if self.dw is not None else 4.0 * ind + base,
            root=self.root if self.root is not None else base,
            con=self.con if self.con is not None else base,
            ind=ind,
            u_real=self.u_real,
            u_imag=self.u_imag,
            current=self.current,
            aux=self.aux,
        )

    def validated(self) -> PenaltyWeights:
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if value is None and name in ("dw", "root", "con", "ind", "aux"):  # a default fills these
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < float("inf"):
                raise ValueError(f"penalty weight {name} must be a finite positive number, got {value!r}")
        return self


@dataclass
class TreeVarLayout:
    levels: int
    node_bits: dict[int, tuple[int, ...]]
    edge_bits: dict[int, tuple[int, ...]]
    edge_endpoints: dict[int, tuple[int, int]]
    active_ids: frozenset[int]
    failing_edge: int | None
    labels: list[str]
    num_vars: int
    groups: dict[str, Qubo] = field(default_factory=dict)
    weights: dict[str, float] = field(default_factory=dict)

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

    def encode_tree(self, network: Network, cfg: Configuration, root: int) -> np.ndarray:
        """Canonical zero-penalty encoding of a spanning tree rooted at ``root``."""
        depth = tree_walk(network, cfg, root)[0]
        if len(depth) != len(network.nodes):
            raise ValueError("configuration does not span all nodes")
        height = max(depth.values())
        if height > self.levels - 1:
            raise ValueError(f"tree height {height} exceeds the {self.levels - 1} encodable layers")

        bits = np.zeros(self.num_vars, dtype=np.uint8)

        def set_option(var_bits: tuple[int, ...], option: int) -> None:
            for b in var_bits[option:]:
                bits[b] = 1

        for nid, var_bits in self.node_bits.items():
            set_option(var_bits, depth[nid])
        for eid, var_bits in self.edge_bits.items():
            a, b = self.edge_endpoints[eid]
            if eid in cfg.edges:
                if depth[a] == depth[b] + 1:
                    option = depth[b]
                elif depth[b] == depth[a] + 1:
                    option = (self.levels - 1) + depth[a]
                else:
                    raise ValueError(f"edge {eid} does not join adjacent layers")
            else:
                option = self.not_in_tree_option()
            set_option(var_bits, option)
        return bits


@dataclass
class LoadflowVarLayout:
    bits_real: dict[int, tuple[int, ...]]
    bits_imag: dict[int, tuple[int, ...]]
    bits_current: dict[int, tuple[int, ...]]
    enc_real: dict[int, tuple[float, tuple[float, ...]]]
    enc_imag: dict[int, tuple[float, tuple[float, ...]]]
    enc_current: dict[int, tuple[float, tuple[float, ...]]]
    fixed_voltages: dict[int, complex]
    cfg: Configuration | None
    labels: list[str]
    num_vars: int
    groups: dict[str, Qubo] = field(default_factory=dict)
    weights: dict[str, float] = field(default_factory=dict)

    def decode_voltages(self, bits) -> dict[int, complex]:
        voltages = dict(self.fixed_voltages)
        for nid, var_bits in self.bits_real.items():
            const, coefs = self.enc_real[nid]
            real = const + sum(c for c, b in zip(coefs, var_bits) if bits[b])
            const_i, coefs_i = self.enc_imag[nid]
            imag = const_i + sum(
                c for c, b in zip(coefs_i, self.bits_imag[nid]) if bits[b]
            )
            voltages[nid] = complex(real, imag)
        return voltages

    def decode_currents(self, bits) -> dict[int, float]:
        currents = {}
        for eid, var_bits in self.bits_current.items():
            const, coefs = self.enc_current[eid]
            currents[eid] = const + sum(c for c, b in zip(coefs, var_bits) if bits[b])
        return currents


@dataclass
class N1QuboLayout:
    tree: TreeVarLayout
    loadflow: LoadflowVarLayout
    aux_bits: dict[tuple[int, int, str], tuple[int, ...]]
    labels: list[str]
    num_vars: int
    groups: dict[str, Qubo] = field(default_factory=dict)
    weights: dict[str, float] = field(default_factory=dict)

    def aux_consistent(self, bits) -> bool:
        for (eid, nid, part), z_bits in self.aux_bits.items():
            gate = bits[self.tree.in_tree_bit(eid)]
            source = (
                self.loadflow.bits_real[nid] if part == "R" else self.loadflow.bits_imag[nid]
            )
            for u_bit, z_bit in zip(source, z_bits):
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
) -> TreeVarLayout:
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
    return TreeVarLayout(
        levels=levels,
        node_bits=node_bits,
        edge_bits=edge_bits,
        edge_endpoints=edge_endpoints,
        active_ids=network.active_ids - ({failing_edge} if failing_edge is not None else set()),
        failing_edge=failing_edge,
        labels=alloc.labels,
        num_vars=alloc.count,
    )


def _merge_terms(into: dict[int, float], terms: dict[int, float], sign: float = 1.0) -> None:
    for var, coef in terms.items():
        into[var] = into.get(var, 0.0) + sign * coef


def _tree_groups(network: Network, layout: TreeVarLayout) -> dict[str, Qubo]:
    levels = layout.levels

    dw = QuboBuilder()
    for var_bits in list(layout.node_bits.values()) + list(layout.edge_bits.values()):
        for a, b in zip(var_bits, var_bits[1:]):
            dw.add_linear(a, 1.0)
            dw.add(a, b, -1.0)

    # exactly one root, and it must be an OS node
    root = QuboBuilder()
    os_terms: dict[int, float] = {}
    os_const = 0.0
    for nid in network.os_ids:
        terms, const = domain_wall_level_terms(layout.node_bits[nid], 0)
        _merge_terms(os_terms, terms)
        os_const += const
    root.add_square(os_terms, os_const - 1.0)
    for nid in network.msr_ids:
        terms, const = domain_wall_level_terms(layout.node_bits[nid], 0)
        root.add_offset(const)
        for var, coef in terms.items():
            root.add_linear(var, coef)

    # every node at depth i >= 1 hangs off exactly one edge in layer i - 1
    con = QuboBuilder()
    incident_first: dict[int, list[int]] = {node.id: [] for node in network.nodes}
    incident_second: dict[int, list[int]] = {node.id: [] for node in network.nodes}
    for eid, (a, b) in layout.edge_endpoints.items():
        incident_first[a].append(eid)
        incident_second[b].append(eid)
    for node in network.nodes:
        for depth in range(1, levels):
            form: dict[int, float] = {}
            terms, const = domain_wall_level_terms(layout.node_bits[node.id], depth)
            _merge_terms(form, terms)
            total_const = const
            for eid in incident_first[node.id]:
                terms, const = domain_wall_level_terms(layout.edge_bits[eid], depth - 1)
                _merge_terms(form, terms, sign=-1.0)
                total_const -= const
            for eid in incident_second[node.id]:
                option = (levels - 1) + (depth - 1)
                terms, const = domain_wall_level_terms(layout.edge_bits[eid], option)
                _merge_terms(form, terms, sign=-1.0)
                total_const -= const
            con.add_square(form, total_const)

    # an in-tree edge at layer l must see its endpoints at depths l and l + 1
    ind = QuboBuilder()
    for eid, (a, b) in layout.edge_endpoints.items():
        for layer in range(levels - 1):
            for option, deep, shallow in (
                (layer, a, b),
                ((levels - 1) + layer, b, a),
            ):
                y_terms, y_const = domain_wall_level_terms(layout.edge_bits[eid], option)
                factor: dict[int, float] = {}
                deep_terms, deep_const = domain_wall_level_terms(
                    layout.node_bits[deep], layer + 1
                )
                shallow_terms, shallow_const = domain_wall_level_terms(
                    layout.node_bits[shallow], layer
                )
                _merge_terms(factor, deep_terms, sign=-1.0)
                _merge_terms(factor, shallow_terms, sign=-1.0)
                ind.add_product(y_terms, y_const, factor, 2.0 - deep_const - shallow_const)

    # switches: active edges dropped plus inactive edges picked up
    obj = QuboBuilder()
    if layout.failing_edge is not None:
        obj.add_offset(1.0)
    for eid in sorted(layout.edge_bits):
        gate = layout.in_tree_bit(eid)
        if eid in layout.active_ids:
            obj.add_offset(1.0)
            obj.add_linear(gate, -1.0)
        else:
            obj.add_linear(gate, 1.0)

    n = layout.num_vars
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
    weights: PenaltyWeights | None = None,
    failing_edge: int | None = None,
    alloc: VarAllocator | None = None,
) -> tuple[Qubo, TreeVarLayout]:
    """Spanning-tree QUBO whose zero-penalty states are exactly the encodings
    of OS-rooted spanning trees of height <= levels - 1, with energy equal to
    the number of switches away from the active set.
    """
    weights = (weights or PenaltyWeights()).validated().resolved(
        len(network.edges) - (1 if failing_edge is not None else 0)
    )
    alloc = alloc or VarAllocator()
    layout = _tree_variables(network, levels, failing_edge, alloc)
    layout.groups = _tree_groups(network, layout)
    layout.weights = _tree_weights(weights)
    return _weighted_sum(layout.groups, layout.weights, layout.num_vars), layout


def _tree_weights(weights: PenaltyWeights) -> dict[str, float]:
    return {
        "domain_wall": weights.dw,
        "root": weights.root,
        "connectivity": weights.con,
        "indicator": weights.ind,
        "objective": 1.0,
    }


def _residual_weights(weights: PenaltyWeights) -> dict[str, float]:
    return {
        "residual_real": weights.u_real,
        "residual_imag": weights.u_imag,
        "current": weights.current,
    }


def _weighted_sum(groups: dict[str, Qubo], weights: dict[str, float], n: int) -> Qubo:
    total = QuboBuilder(n)
    for name, group in groups.items():
        total.add_qubo(group, weights[name])
    return total.build(n)


# ---------------------------------------------------------------------------
# load-flow QUBO
# ---------------------------------------------------------------------------

def _affine_encoding(lo: float, hi: float, nbits: int, half_step_up: bool):
    """Binary grid over [lo, hi]: value = const + sum coef_k * bit_k."""
    step = (hi - lo) / float(1 << nbits)
    const = lo + (step if half_step_up else 0.0)
    coefs = tuple(step * (1 << k) for k in range(nbits))
    return const, coefs


def _loadflow_variables(
    network: Network,
    current_edges: list[int],
    bits_real: int,
    bits_imag: int,
    bits_current: int,
    cfg: Configuration | None,
    alloc: VarAllocator,
) -> LoadflowVarLayout:
    for name, value in (("bits_real", bits_real), ("bits_imag", bits_imag), ("bits_current", bits_current)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    layout = LoadflowVarLayout(
        bits_real={},
        bits_imag={},
        bits_current={},
        enc_real={},
        enc_imag={},
        enc_current={},
        fixed_voltages={nid: complex(network.node_by_id[nid].u_nom) for nid in network.os_ids},
        cfg=cfg,
        labels=alloc.labels,
        num_vars=0,
    )
    for nid in network.msr_ids:
        node = network.node_by_id[nid]
        layout.bits_real[nid] = alloc.new_block(bits_real, f"uR[n={nid},{{0}}]")
        layout.enc_real[nid] = _affine_encoding(node.u_min, node.u_max, bits_real, True)
        layout.bits_imag[nid] = alloc.new_block(bits_imag, f"uI[n={nid},{{0}}]")
        layout.enc_imag[nid] = _affine_encoding(-0.1 * node.u_min, 0.1 * node.u_min, bits_imag, False)
    for eid in current_edges:
        edge = network.edge_by_id[eid]
        layout.bits_current[eid] = alloc.new_block(bits_current, f"i[e={eid},{{0}}]")
        layout.enc_current[eid] = _affine_encoding(-edge.i_max, edge.i_max, bits_current, True)
    layout.num_vars = alloc.count
    return layout


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


def _voltage_form(layout: LoadflowVarLayout, nid: int, part: str) -> tuple[dict[int, float], float]:
    """Direct (ungated) U^R or U^I of a node as an affine form over bits."""
    if nid in layout.fixed_voltages:
        fixed = layout.fixed_voltages[nid]
        return {}, (fixed.real if part == "R" else fixed.imag)
    if part == "R":
        const, coefs = layout.enc_real[nid]
        bits = layout.bits_real[nid]
    else:
        const, coefs = layout.enc_imag[nid]
        bits = layout.bits_imag[nid]
    return {b: c for b, c in zip(bits, coefs)}, const


def _residual_groups(
    network: Network,
    layout: LoadflowVarLayout,
    edge_ids: list[int],
    voltage: Callable[[int, int, str], tuple[dict[int, float], float]],
) -> dict[str, Qubo]:
    """Balance and current residual groups over the given edges.

    ``voltage(eid, nid, part)`` is the affine form of node ``nid``'s voltage
    part as seen through edge ``eid``: the node's own form for a fixed
    configuration, the gated product ``y_e * U_nid`` in the N-1 QUBO.  The
    load injection always uses the node's own form.
    """
    real_group = QuboBuilder(layout.num_vars)
    imag_group = QuboBuilder(layout.num_vars)
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
        ur_terms, ur_const = _voltage_form(layout, nid, "R")
        ui_terms, ui_const = _voltage_form(layout, nid, "I")

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

    current_group = QuboBuilder(layout.num_vars)
    for eid, var_bits in layout.bits_current.items():
        edge = network.edge_by_id[eid]
        inv_z = 1.0 / edge.z
        const_i, coefs_i = layout.enc_current[eid]
        form: dict[int, float] = dict(zip(var_bits, coefs_i))
        const_i += add_flow(form, eid, edge.n, edge.m, inv_z.real, inv_z.imag)
        _add_equation(current_group, form, const_i)

    return {
        "residual_real": real_group.build(layout.num_vars),
        "residual_imag": imag_group.build(layout.num_vars),
        "current": current_group.build(layout.num_vars),
    }


def build_loadflow_qubo(
    network: Network,
    cfg: Configuration,
    bits_real: int = 4,
    bits_imag: int = 4,
    bits_current: int = 4,
    weights: PenaltyWeights | None = None,
    alloc: VarAllocator | None = None,
) -> tuple[Qubo, LoadflowVarLayout]:
    """Squared-residual penalties of the discretized balance equations for a
    fixed configuration.  Current variables exist only for problem edges of
    the configuration; every other rated edge cannot be violated while the
    voltages stay inside their encoded bands.
    """
    weights = (weights or PenaltyWeights()).validated().resolved(len(network.edges))
    alloc = alloc or VarAllocator()
    current_edges = sorted(problem_edges(network) & cfg.edges)
    layout = _loadflow_variables(
        network, current_edges, bits_real, bits_imag, bits_current, cfg, alloc
    )
    layout.groups = _residual_groups(
        network, layout, sorted(cfg.edges), lambda eid, nid, part: _voltage_form(layout, nid, part)
    )
    layout.weights = _residual_weights(weights)
    return _weighted_sum(layout.groups, layout.weights, layout.num_vars), layout


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
    weights: PenaltyWeights | None = None,
) -> tuple[Qubo, N1QuboLayout]:
    """Tree search and load-flow residuals coupled through the edge
    membership bits.

    Voltage differences across an edge enter the residuals multiplied by the
    edge's membership bit; the cubic products are replaced by auxiliary bits
    ``z = y * u`` with the pairwise consistency penalty, so an edge outside
    the tree contributes nothing to any balance equation.
    """
    weights = (weights or PenaltyWeights()).validated().resolved(
        len(network.edges) - (1 if failing_edge is not None else 0)
    )
    if levels is None:
        levels = default_levels(network)
    alloc = VarAllocator()
    tree_layout = _tree_variables(network, levels, failing_edge, alloc)
    current_edges = sorted(problem_edges(network) - ({failing_edge} if failing_edge is not None else set()))
    lf_layout = _loadflow_variables(
        network, current_edges, bits_real, bits_imag, bits_current, None, alloc
    )

    # auxiliary products z = y_e * u_w for every usable edge / MSR endpoint
    aux_bits: dict[tuple[int, int, str], tuple[int, ...]] = {}
    for eid in sorted(tree_layout.edge_bits):
        a, b = tree_layout.edge_endpoints[eid]
        for nid in (a, b):
            if nid in lf_layout.fixed_voltages:
                continue
            aux_bits[(eid, nid, "R")] = alloc.new_block(
                bits_real, f"z[e={eid},n={nid},R,{{0}}]"
            )
            aux_bits[(eid, nid, "I")] = alloc.new_block(
                bits_imag, f"z[e={eid},n={nid},I,{{0}}]"
            )

    num_vars = alloc.count
    tree_layout.num_vars = num_vars
    lf_layout.num_vars = num_vars
    tree_layout.groups = _tree_groups(network, tree_layout)
    tree_layout.weights = _tree_weights(weights)

    def gated_voltage(eid: int, nid: int, part: str) -> tuple[dict[int, float], float]:
        """Affine form of y_e * U_nid over (gate, z) bits."""
        gate = tree_layout.in_tree_bit(eid)
        if nid in lf_layout.fixed_voltages:
            fixed = lf_layout.fixed_voltages[nid]
            value = fixed.real if part == "R" else fixed.imag
            return {gate: value}, 0.0
        if part == "R":
            const, coefs = lf_layout.enc_real[nid]
        else:
            const, coefs = lf_layout.enc_imag[nid]
        form = {z: c for z, c in zip(aux_bits[(eid, nid, part)], coefs)}
        form[gate] = form.get(gate, 0.0) + const
        return form, 0.0

    lf_layout.groups = _residual_groups(
        network, lf_layout, sorted(tree_layout.edge_bits), gated_voltage
    )
    lf_layout.weights = _residual_weights(weights)

    # Per-bit consistency weights: each z bit must out-penalize exactly the
    # residual energy it could shave off when misaligned, nothing more.  A
    # uniform worst-case weight (driven by the stiffest cable) would wall off
    # every edge-membership flip and strand the sampler.
    impact = _flip_impact(
        [(group, lf_layout.weights[name]) for name, group in lf_layout.groups.items()]
    )
    aux_group = QuboBuilder(num_vars)
    for (eid, nid, part), z_bits in sorted(aux_bits.items()):
        gate = tree_layout.in_tree_bit(eid)
        source = lf_layout.bits_real[nid] if part == "R" else lf_layout.bits_imag[nid]
        for u_bit, z_bit in zip(source, z_bits):
            bit_weight = weights.aux if weights.aux is not None else 1.0 + impact.get(z_bit, 0.0)
            aux_group.add_qubo(pair_reduction_penalty(gate, u_bit, z_bit), bit_weight)

    groups = {**tree_layout.groups, **lf_layout.groups, "aux": aux_group.build(num_vars)}
    group_weights = {**tree_layout.weights, **lf_layout.weights, "aux": 1.0}
    layout = N1QuboLayout(
        tree=tree_layout,
        loadflow=lf_layout,
        aux_bits=aux_bits,
        labels=alloc.labels,
        num_vars=num_vars,
        groups=groups,
        weights=group_weights,
    )
    return _weighted_sum(groups, group_weights, num_vars), layout


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


def decode_solution(
    bits, layout: TreeVarLayout | LoadflowVarLayout | N1QuboLayout
) -> DecodedSolution:
    """Evaluate every penalty group and read the bits back into the domain.

    A bitstring is feasible when every structural group (domain wall, root,
    connectivity, indicator and, where present, auxiliary consistency) is
    zero; the load-flow residual groups are reported but never gate
    feasibility, since they carry an irreducible quantization floor.
    """
    bits = np.asarray(bits).astype(np.uint8)

    tree = layout.tree if isinstance(layout, N1QuboLayout) else (
        layout if isinstance(layout, TreeVarLayout) else None
    )
    lf = layout.loadflow if isinstance(layout, N1QuboLayout) else (
        layout if isinstance(layout, LoadflowVarLayout) else None
    )

    penalties = {name: group.evaluate(bits) for name, group in layout.groups.items()}
    aux_consistent = layout.aux_consistent(bits) if isinstance(layout, N1QuboLayout) else None
    feasible = bool(is_feasible(penalties))

    selected = tree.decode_selected_edges(bits) if tree is not None else None
    depths = tree.decode_depths(bits) if tree is not None else None
    configuration = None
    if tree is not None and feasible and selected is not None:
        configuration = Configuration(selected)

    return DecodedSolution(
        feasible=feasible,
        configuration=configuration,
        selected_edges=selected,
        depths=depths,
        penalties=penalties,
        voltages=lf.decode_voltages(bits) if lf is not None else None,
        currents=lf.decode_currents(bits) if lf is not None else None,
        aux_consistent=aux_consistent,
    )


# ---------------------------------------------------------------------------
# quantization reference
# ---------------------------------------------------------------------------

def _round_onto(value: float, const: float, coefs: tuple[float, ...]) -> tuple[int, ...]:
    """Bits of the grid point nearest to ``value`` (clipped into the range)."""
    if not coefs or coefs[0] == 0.0:
        return tuple(0 for _ in coefs)
    step = coefs[0]
    level = int(round((value - const) / step))
    level = max(0, min((1 << len(coefs)) - 1, level))
    return tuple((level >> k) & 1 for k in range(len(coefs)))


def rounded_reference_bits(layout: LoadflowVarLayout, network: Network) -> np.ndarray:
    """Nearest-grid encoding of the continuous load-flow solution.

    Only defined for fixed-configuration layouts; voltages come from the
    exact tree solve and currents from its compliance check, each rounded
    independently onto its grid (currents clipped into their range).
    """
    if layout.cfg is None:
        raise ValueError("reference rounding needs a fixed-configuration layout")
    solution = solve_tree(network, layout.cfg)
    flows = check_compliance(network, layout.cfg, solution).currents
    bits = np.zeros(layout.num_vars, dtype=np.uint8)
    for nid, var_bits in layout.bits_real.items():
        const, coefs = layout.enc_real[nid]
        for b, v in zip(var_bits, _round_onto(solution.u[nid].real, const, coefs)):
            bits[b] = v
        const_i, coefs_i = layout.enc_imag[nid]
        for b, v in zip(layout.bits_imag[nid], _round_onto(solution.u[nid].imag, const_i, coefs_i)):
            bits[b] = v
    for eid, var_bits in layout.bits_current.items():
        const, coefs = layout.enc_current[eid]
        for b, v in zip(var_bits, _round_onto(flows[eid].real, const, coefs)):
            bits[b] = v
    return bits


def quantization_epsilon(qubo: Qubo, layout: LoadflowVarLayout, network: Network) -> float:
    """Energy of the rounded continuous solution: the quantization floor used
    to declare a configuration feasible (minimum <= 2 * epsilon)."""
    return qubo.evaluate(rounded_reference_bits(layout, network))
