import itertools

import numpy as np
import pytest

from gridsec import n1qubo
from gridsec.loadflow import assemble_system, problem_edges, solve_loadflow
from gridsec.network import Configuration
from gridsec.n1qubo import (
    build_loadflow_qubo,
    build_n1_qubo,
    build_tree_qubo,
    decode_solution,
    quantization_epsilon,
    rounded_reference_bits,
)

from conftest import compliant, make_network, spanning_trees

CFG_GOOD = frozenset({1, 3, 4, 6, 7, 8})   # spare {3,6} in, {2,3} out
CFG_BAD = frozenset({1, 2, 3, 5, 6, 8})    # zero-rated {4,6} carries the big load


def single_bus_network(load=0j, i_max=1e9):
    return make_network(2, [(0, 1)], {1}, loads={1: load}, i_max={1: i_max})


def exhaustive_min(qubo):
    best = np.inf
    best_bits = None
    for bits in itertools.product((0, 1), repeat=qubo.n):
        energy = qubo.evaluate(bits)
        if energy < best:
            best, best_bits = energy, bits
    return np.array(best_bits, dtype=np.uint8), best


class TestEncodings:
    def test_codomains_hold_for_every_bitstring(self, sevenbus):
        _, layout = build_loadflow_qubo(sevenbus, Configuration(CFG_GOOD), 3, 3, 3)
        rng = np.random.default_rng(1)
        probes = [np.zeros(layout.num_vars), np.ones(layout.num_vars)]
        probes += [rng.integers(0, 2, layout.num_vars) for _ in range(50)]
        for bits in probes:
            voltages = layout.loadflow.decode_voltages(bits)
            for nid in sevenbus.msr_ids:
                node = sevenbus.node_by_id[nid]
                assert node.u_min <= voltages[nid].real <= node.u_max
                assert -0.1 * node.u_min <= voltages[nid].imag <= 0.1 * node.u_min
            currents = layout.loadflow.decode_currents(bits)
            for eid, value in currents.items():
                assert abs(value) <= sevenbus.edge_by_id[eid].i_max + 1e-9

    def test_current_grid_contains_zero(self, sevenbus):
        _, layout = build_loadflow_qubo(sevenbus, Configuration(CFG_GOOD), 4, 4, 4)
        for eid, grid in layout.loadflow.current.items():
            step = grid.coefs[0] if grid.coefs else 0.0
            if step:
                level = round((0.0 - grid.const) / step)
                assert grid.const + step * level == pytest.approx(0.0, abs=1e-9)

    def test_grid_refinement_is_nested(self):
        """Every K-bit voltage grid point reappears on the (K+1)-bit grid."""
        net = single_bus_network(load=200_000 + 30_000j)
        cfg = net.initial_configuration()
        for bits in (2, 3, 4):
            _, coarse = build_loadflow_qubo(net, cfg, bits, bits, bits)
            _, fine = build_loadflow_qubo(net, cfg, bits + 1, bits + 1, bits + 1)
            coarse_r, fine_r = coarse.loadflow.voltage[1, "R"], fine.loadflow.voltage[1, "R"]
            c0, cc = coarse_r.const, coarse_r.coefs
            f0, fc = fine_r.const, fine_r.coefs
            coarse_grid = {c0 + sum(c for c, b in zip(cc, combo) if b)
                           for combo in itertools.product((0, 1), repeat=bits)}
            fine_grid = {f0 + sum(c for c, b in zip(fc, combo) if b)
                         for combo in itertools.product((0, 1), repeat=bits + 1)}
            assert all(any(abs(g - f) < 1e-6 for f in fine_grid) for g in coarse_grid)

    def test_refinement_never_raises_the_minimum(self):
        net = single_bus_network(load=200_000 + 30_000j)
        cfg = net.initial_configuration()
        minima = []
        for bits in (2, 3, 4, 5):
            qubo, _ = build_loadflow_qubo(net, cfg, bits, bits, 1)
            minima.append(exhaustive_min(qubo)[1])
        assert all(a >= b - 1e-12 for a, b in zip(minima, minima[1:]))


class TestFixedConfiguration:
    def test_zero_load_minimizer_tracks_source_voltage(self):
        net = single_bus_network(load=0j)
        cfg = net.initial_configuration()
        qubo, layout = build_loadflow_qubo(net, cfg, 4, 4, 1)
        bits, energy = exhaustive_min(qubo)
        voltage = layout.loadflow.decode_voltages(bits)[1]
        step = (11000.0 - 9800.0) / 2**4
        assert abs(voltage.real - 10500.0) <= step
        assert abs(voltage.imag) <= 0.2 * 9800.0 / 2**4

    def test_problem_edge_filter_applied(self, sevenbus):
        _, layout = build_loadflow_qubo(sevenbus, Configuration(CFG_GOOD), 4, 4, 4)
        assert set(layout.loadflow.current) == set(problem_edges(sevenbus) & CFG_GOOD)
        relaxed = make_network(2, [(0, 1)], {1}, i_max={1: 1e9})
        _, layout2 = build_loadflow_qubo(relaxed, relaxed.initial_configuration(), 4, 4, 4)
        assert layout2.loadflow.current == {}

    def test_rounded_reference_close_to_continuous(self, sevenbus):
        cfg = Configuration(CFG_GOOD)
        qubo, layout = build_loadflow_qubo(sevenbus, cfg, 6, 6, 6)
        bits = rounded_reference_bits(layout, sevenbus)
        solution = solve_loadflow(assemble_system(sevenbus, cfg))
        decoded = layout.loadflow.decode_voltages(bits)
        for nid in sevenbus.msr_ids:
            node = sevenbus.node_by_id[nid]
            step_r = (node.u_max - node.u_min) / 2**6
            step_i = 0.2 * node.u_min / 2**6
            assert abs(decoded[nid].real - solution.u[nid].real) <= step_r
            assert abs(decoded[nid].imag - solution.u[nid].imag) <= step_i

    def test_epsilon_positive_and_consistent(self, sevenbus):
        cfg = Configuration(CFG_GOOD)
        qubo, layout = build_loadflow_qubo(sevenbus, cfg, 6, 6, 6)
        eps = quantization_epsilon(qubo, layout, sevenbus)
        assert eps > 0.0
        assert eps == pytest.approx(qubo.evaluate(rounded_reference_bits(layout, sevenbus)))

    def test_reference_bits_match_dense_solve(self, sevenbus, monkeypatch):
        """Rounding the tree solve gives the dense LU's bits and epsilon on
        every sevenbus spanning tree at widths 1-12."""
        layouts = [
            build_loadflow_qubo(sevenbus, Configuration(tree), width, width, width)
            for tree in spanning_trees(sevenbus)
            for width in range(1, 13)
        ]
        assert len(layouts) == 192
        tree_bits = [rounded_reference_bits(layout, sevenbus) for _, layout in layouts]
        tree_eps = [quantization_epsilon(q, layout, sevenbus) for q, layout in layouts]
        monkeypatch.setattr(
            n1qubo, "solve_tree", lambda net, cfg: solve_loadflow(assemble_system(net, cfg))
        )
        for (qubo, layout), bits, eps in zip(layouts, tree_bits, tree_eps):
            assert np.array_equal(bits, rounded_reference_bits(layout, sevenbus))
            assert eps == quantization_epsilon(qubo, layout, sevenbus)

    @pytest.mark.parametrize("build", [
        lambda net: build_tree_qubo(net, 4, failing_edge=2),
        lambda net: build_n1_qubo(net, failing_edge=2, levels=4),
    ], ids=["tree", "n1"])
    def test_reference_needs_fixed_configuration(self, sevenbus, build):
        qubo, layout = build(sevenbus)
        message = "reference rounding needs a fixed-configuration layout"
        with pytest.raises(ValueError, match=message):
            rounded_reference_bits(layout, sevenbus)
        with pytest.raises(ValueError, match=message):
            quantization_epsilon(qubo, layout, sevenbus)

    def test_encode_tree_needs_tree_part(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        _, layout = build_loadflow_qubo(sevenbus, cfg)
        with pytest.raises(ValueError, match="^layout has no tree part$"):
            layout.encode_tree(sevenbus, cfg, root=7)

    def test_bit_width_guard(self, sevenbus):
        with pytest.raises(ValueError):
            build_loadflow_qubo(sevenbus, Configuration(CFG_GOOD), 0, 4, 4)


class TestCombined:
    def encode(self, network, layout, cfg, root, rng=None):
        """Tree encoding + consistent gated products + zero currents."""
        bits = layout.encode_tree(network, cfg, root)
        rng = rng or np.random.default_rng(0)
        lf = layout.loadflow
        for nid in network.msr_ids:
            for bit in (*lf.voltage[nid, "R"].bits, *lf.voltage[nid, "I"].bits):
                bits[bit] = rng.integers(0, 2)
        for eid, grid in lf.current.items():
            const, coefs, var_bits = grid.const, grid.coefs, grid.bits
            if coefs and coefs[0]:
                level = int(round(-const / coefs[0]))
                for k, bit in enumerate(var_bits):
                    bits[bit] = (level >> k) & 1
        for (eid, nid, part), z_bits in layout.aux_bits.items():
            gate = bits[layout.tree.in_tree_bit(eid)]
            source = lf.voltage[nid, part].bits
            for u_bit, z_bit in zip(source, z_bits):
                bits[z_bit] = gate * bits[u_bit]
        return bits

    @pytest.mark.parametrize("edge,message", [(99, "unknown edge id 99"),
                                              (5, "failing edge 5 is not active")])
    def test_bad_failing_edge_rejected(self, sevenbus, edge, message):
        # 99 is no edge at all, 5 an inactive spare
        with pytest.raises(ValueError, match=message):
            build_n1_qubo(sevenbus, failing_edge=edge)

    def test_structure_is_quadratic_with_expected_size(self, sevenbus):
        qubo, layout = build_n1_qubo(sevenbus, failing_edge=2, levels=5,
                                     bits_real=4, bits_imag=4, bits_current=4)
        nodes, edges = 7, 7  # edge {2,3} failed
        expected = (
            nodes * 4                 # depth walls
            + edges * 8               # edge state walls
            + 6 * (4 + 4)             # MSR voltages
            + 7 * 4                   # problem-edge currents
            + (2 * 3 + 1 * 4) * (4 + 4)  # gated products per MSR endpoint
        )
        assert qubo.n == layout.num_vars == expected
        assert all(i <= j for (i, j) in qubo.coeffs)

    def test_consistent_encoding_is_structurally_feasible(self, sevenbus):
        qubo, layout = build_n1_qubo(sevenbus, failing_edge=2, levels=5)
        cfg = Configuration(CFG_GOOD)
        bits = self.encode(sevenbus, layout, cfg, root=7)
        decoded = decode_solution(bits, layout)
        assert decoded.feasible
        assert decoded.aux_consistent
        assert decoded.configuration == cfg

    def test_inconsistent_product_bit_flags_aux(self, sevenbus):
        qubo, layout = build_n1_qubo(sevenbus, failing_edge=2, levels=5)
        bits = self.encode(sevenbus, layout, Configuration(CFG_GOOD), root=7)
        (eid, nid, part), z_bits = next(iter(sorted(layout.aux_bits.items())))
        corrupted = bits.copy()
        corrupted[z_bits[0]] ^= 1
        decoded = decode_solution(corrupted, layout)
        assert not decoded.aux_consistent
        assert not decoded.feasible
        assert "aux" in decoded.violated_groups
        # breaking a product can only raise the energy: its weight covers
        # whatever the residual groups could gain
        assert qubo.evaluate(corrupted) > qubo.evaluate(bits)

    def test_detached_edge_contributes_nothing(self):
        """With the gate at zero and products consistent, none of the spare
        edge's variables carries live energy: erasing every coefficient that
        touches them does not change any penalty value."""
        from gridsec.qubo import Qubo

        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        cfg = net.initial_configuration()
        qubo, layout = build_n1_qubo(net, levels=3, bits_current=1)
        bits = self.encode(net, layout, cfg, root=0, rng=np.random.default_rng(4))
        decoded = decode_solution(bits, layout)
        assert decoded.feasible and 3 not in decoded.configuration.edges

        spare_bits = set(layout.tree.edge_bits[3])
        if 3 in layout.loadflow.current:
            spare_bits |= set(layout.loadflow.current[3].bits)
        for (eid, _, _), z_bits in layout.aux_bits.items():
            if eid == 3:
                spare_bits |= set(z_bits)
        for name in ("residual_real", "residual_imag", "current"):
            group = layout.groups[name]
            stripped = Qubo(
                group.n,
                {k: q for k, q in group.coeffs.items() if not (set(k) & spare_bits)},
                group.offset,
            )
            assert group.evaluate(bits) == pytest.approx(stripped.evaluate(bits), abs=1e-12)

    def test_degenerate_weights_decouple(self, sevenbus):
        from gridsec.n1qubo import PenaltyWeights, build_tree_qubo

        tiny = PenaltyWeights(u_real=1e-12, u_imag=1e-12, current=1e-12, aux=1e-12)
        combined, layout = build_n1_qubo(sevenbus, failing_edge=2, levels=4, weights=tiny)
        tree_only, tree_layout = build_tree_qubo(sevenbus, levels=4, failing_edge=2)
        cfg = Configuration(CFG_GOOD)
        bits = self.encode(sevenbus, layout, cfg, root=7)
        tree_bits = tree_layout.encode_tree(sevenbus, cfg, root=7)
        assert combined.evaluate(bits) == pytest.approx(tree_only.evaluate(tree_bits), abs=1e-6)


class TestSeparationShape:
    """Feasibility separation on a grid fine enough to resolve the violation.

    A zero-rated cable forced to carry real current must leave residual
    energy no voltage assignment can hide, provided the grid granularity
    (admittance times voltage step) sits below the violating current."""

    def test_bad_configuration_forces_zero_current_grid(self, sevenbus):
        qubo, layout = build_loadflow_qubo(sevenbus, Configuration(CFG_BAD), 6, 6, 6)
        const, coefs = layout.loadflow.current[5].const, layout.loadflow.current[5].coefs
        assert const == 0.0 and all(c == 0.0 for c in coefs)

    @staticmethod
    def three_bus():
        from gridsec.network import Edge, Network, Node

        nodes = [
            Node(0, "OS", 10500.0, 0j, 10500.0, 10500.0),
            Node(1, "MSR", 10500.0, 200_000 + 0j, 10400.0, 10600.0),
            Node(2, "MSR", 10500.0, 2_000_000 + 0j, 10400.0, 10600.0),
        ]
        edges = [
            Edge(1, 0, 1, 0.1 + 0j, 1e9, True),
            Edge(2, 1, 2, 0.1 + 0j, 1e9, True),
            Edge(3, 0, 2, 0.1 + 0j, 0.0, False),
        ]
        return Network(nodes, edges)

    @pytest.mark.parametrize("bits", [3, 4])
    def test_exact_separation_at_adequate_resolution(self, bits):
        net = self.three_bus()
        good = Configuration(frozenset({1, 2}))
        bad = Configuration(frozenset({1, 3}))
        assert compliant(net, good)
        assert not compliant(net, bad)

        q_good, l_good = build_loadflow_qubo(net, good, bits, bits, bits)
        q_bad, _ = build_loadflow_qubo(net, bad, bits, bits, bits)
        epsilon = quantization_epsilon(q_good, l_good, net)
        assert exhaustive_min(q_good)[1] <= 2 * epsilon
        assert exhaustive_min(q_bad)[1] > 2 * epsilon
