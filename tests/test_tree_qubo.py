import numpy as np
import pytest

from gridsec.classical import check_n1
from gridsec.n1qubo import (
    PenaltyWeights,
    build_tree_qubo,
    decode_solution,
    default_levels,
)
from gridsec.network import Switchover, apply_switchover
from gridsec.qubo import brute_force_minimize

from conftest import make_network, rooted_height, spanning_trees

TREE_GROUPS = ("domain_wall", "root", "connectivity", "indicator")


def all_bitstrings_array(n, chunk_bits=18):
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    total = 1 << n
    for start in range(0, total, 1 << chunk_bits):
        stop = min(start + (1 << chunk_bits), total)
        codes = np.arange(start, stop, dtype=np.uint64)
        yield ((codes[:, None] >> shifts[None, :]) & 1).astype(np.float64)


def zero_penalty_strings_full_scan(layout):
    """Reference scan over all 2^n bitstrings (small layouts only)."""
    found = []
    for batch in all_bitstrings_array(layout.num_vars):
        mask = np.ones(len(batch), dtype=bool)
        for name in TREE_GROUPS:
            mask &= np.abs(layout.groups[name].energies(batch)) < 1e-9
        found.extend(batch[mask].astype(np.uint8))
    return found


from conftest import zero_tree_penalty_strings as zero_penalty_strings  # noqa: E402


def expected_tree_set(network, levels):
    """Oracle: spanning trees rooted at the OS node within the height cap."""
    root = network.os_ids[0]
    return {
        tree
        for tree in spanning_trees(network)
        if rooted_height(network, tree, root) <= levels - 1
    }


class TestZeroPenaltySets:
    """The zero-penalty states decode exactly to the encodable spanning trees."""

    CASES = [
        # (name, nodes, edges, active ids, levels)
        ("two_node", 2, [(0, 1)], {1}, 2),
        ("path3", 3, [(0, 1), (1, 2)], {1, 2}, 3),
        ("triangle", 3, [(0, 1), (1, 2), (0, 2)], {1, 2}, 3),
        ("star_plus_chord", 4, [(0, 1), (0, 2), (0, 3), (1, 2)], {1, 2, 3}, 2),
        ("k4_height1", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], {1, 2, 3}, 2),
        ("square_diag", 4, [(0, 1), (1, 2), (2, 3), (0, 3)], {1, 2, 3}, 3),
    ]

    @pytest.mark.parametrize("name,n,edges,active,levels", CASES)
    def test_exhaustive_equality(self, name, n, edges, active, levels):
        net = make_network(n, edges, active)
        _, layout = build_tree_qubo(net, levels=levels)
        decoded = set()
        for bits in zero_penalty_strings(layout):
            solution = decode_solution(bits, layout)
            assert solution.feasible
            assert solution.configuration is not None
            decoded.add(solution.configuration.edges)
        assert decoded == expected_tree_set(net, levels), name

    @pytest.mark.parametrize("name,n,edges,active,levels", CASES)
    def test_each_tree_has_unique_encoding(self, name, n, edges, active, levels):
        net = make_network(n, edges, active)
        _, layout = build_tree_qubo(net, levels=levels)
        strings = zero_penalty_strings(layout)
        # rooting at the OS node fixes all depths, so one string per tree
        assert len(strings) == len(expected_tree_set(net, levels))

    def test_height_cap_filters_trees(self):
        # of the triangle's three trees only the star at the OS node has height 1
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        _, shallow = build_tree_qubo(net, levels=2)
        _, full = build_tree_qubo(net, levels=3)
        assert len(zero_penalty_strings(shallow)) == len(expected_tree_set(net, 2)) == 1
        assert len(zero_penalty_strings(full)) == len(expected_tree_set(net, 3)) == 3

    def test_wall_enumeration_matches_full_scan(self):
        # belt and braces: the wall-position enumeration equals the 2^n scan
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        _, layout = build_tree_qubo(net, levels=3)
        fast = {bytes(b) for b in zero_penalty_strings(layout)}
        slow = {bytes(b) for b in zero_penalty_strings_full_scan(layout)}
        assert fast == slow


class TestObjective:
    def test_two_node_line_keeps_edge(self):
        net = make_network(2, [(0, 1)], {1})
        qubo, layout = build_tree_qubo(net, levels=2)
        result = brute_force_minimize(qubo)
        assert result.energy == 0.0
        decoded = decode_solution(np.array(result.argmin), layout)
        assert decoded.configuration.edges == frozenset({1})

    def test_triangle_energies_are_switch_counts(self):
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        qubo, layout = build_tree_qubo(net, levels=3)
        energies = {}
        for bits in zero_penalty_strings(layout):
            decoded = decode_solution(bits, layout)
            energies[decoded.configuration.edges] = qubo.evaluate(bits)
        assert sorted(energies.values()) == [0.0, 2.0, 2.0]
        base = frozenset({1, 2})
        for tree, energy in energies.items():
            assert energy == len(tree ^ base)

    def test_minimum_is_zero_on_intact_network(self):
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        qubo, _ = build_tree_qubo(net, levels=3)
        assert brute_force_minimize(qubo).energy == 0.0

    def test_penalty_only_minimizers_are_all_trees(self):
        """Without the switch objective, every spanning tree ties at zero."""
        from gridsec.qubo import QuboBuilder

        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        _, layout = build_tree_qubo(net, levels=3)
        builder = QuboBuilder(layout.num_vars)
        for name in ("domain_wall", "root", "connectivity", "indicator"):
            builder.add_qubo(layout.groups[name], layout.weights[name])
        result = brute_force_minimize(builder.build(layout.num_vars))
        assert result.energy == 0.0
        assert result.num_minima == 3
        decoded = decode_solution(np.array(result.argmin), layout)
        assert decoded.feasible

    @pytest.mark.parametrize(
        "edges,active,failing,levels",
        [
            ([(0, 1), (1, 2), (0, 2)], {1, 2}, 1, 3),
            ([(0, 1), (1, 2), (0, 2)], {1, 2}, 2, 3),
            ([(0, 1), (0, 2), (0, 3), (1, 2)], {1, 2, 3}, 1, 3),
            ([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)], {1, 2, 4}, 2, 3),
        ],
    )
    def test_failed_edge_minimum_is_twice_min_switchovers(self, edges, active, failing, levels):
        net = make_network(max(max(e) for e in edges) + 1, edges, active)
        qubo, layout = build_tree_qubo(net, levels=levels, failing_edge=failing)
        assert qubo.n <= 26, "instance too large for the exact check"
        base = net.initial_configuration().edges

        candidates = [
            tree
            for tree in spanning_trees(net)
            if failing not in tree
            and rooted_height(net, tree, net.os_ids[0]) <= levels - 1
        ]
        k_min = min(len(tree ^ base) // 2 for tree in candidates)
        # the height cap must not hide a better tree, else the comparison is moot
        unfiltered = min(
            len(tree ^ base) // 2 for tree in spanning_trees(net) if failing not in tree
        )
        assert k_min == unfiltered

        result = brute_force_minimize(qubo)
        assert result.energy == 2 * k_min
        decoded = decode_solution(np.array(result.argmin), layout)
        assert decoded.feasible
        assert failing not in decoded.configuration.edges

    def test_failing_edge_must_be_active(self):
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        with pytest.raises(ValueError, match="not active"):
            build_tree_qubo(net, levels=3, failing_edge=3)

    def test_levels_guard(self):
        net = make_network(2, [(0, 1)], {1})
        with pytest.raises(ValueError, match="levels"):
            build_tree_qubo(net, levels=1)


class TestEncodeAndDiagnose:
    def test_fixture_candidate_trees_encode_cleanly(self, sevenbus):
        _, layout = build_tree_qubo(sevenbus, levels=5, failing_edge=2)
        for tree in spanning_trees(sevenbus):
            if 2 in tree:
                continue
            from gridsec.network import Configuration

            bits = layout.encode_tree(sevenbus, Configuration(tree), root=7)
            decoded = decode_solution(bits, layout)
            assert decoded.feasible
            assert decoded.configuration.edges == tree

    def test_all_zeros_diagnosed(self):
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        _, layout = build_tree_qubo(net, levels=3)
        decoded = decode_solution(np.zeros(layout.num_vars, dtype=np.uint8), layout)
        assert not decoded.feasible
        assert decoded.configuration is None
        # all-zero walls decode every variable to its last option: no root,
        # no edges, every non-root node unattached
        assert "root" in decoded.violated_groups
        assert "connectivity" in decoded.violated_groups

    def test_single_depth_bit_corruption_flags_connectivity(self):
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        _, layout = build_tree_qubo(net, levels=3)
        bits = layout.encode_tree(net, net.initial_configuration(), root=0)
        # deepen node 2 from depth 2 to an unsupported depth without touching edges
        bits = bits.copy()
        node_bits = layout.tree.node_bits[2]
        assert [bits[b] for b in node_bits] == [0, 0]  # depth 2 = wall at the frame
        bits[node_bits[0]] = 1  # non-monotone: 1,0
        decoded = decode_solution(bits, layout)
        assert not decoded.feasible
        assert "domain_wall" in decoded.violated_groups

        bits2 = layout.encode_tree(net, net.initial_configuration(), root=0)
        bits2[layout.tree.node_bits[2][1]] = 1  # clean wall move: depth 2 -> 1
        decoded2 = decode_solution(bits2, layout)
        assert not decoded2.feasible
        assert "domain_wall" not in decoded2.violated_groups
        assert "connectivity" in decoded2.violated_groups or "indicator" in decoded2.violated_groups

    def test_random_corruptions_never_feasible_with_wrong_tree(self, sevenbus):
        rng = np.random.default_rng(9)
        _, layout = build_tree_qubo(sevenbus, levels=5)
        base = sevenbus.initial_configuration()
        bits = layout.encode_tree(sevenbus, base, root=7)
        for _ in range(200):
            corrupted = bits.copy()
            for flip in rng.integers(0, layout.num_vars, size=rng.integers(1, 4)):
                corrupted[flip] ^= 1
            decoded = decode_solution(corrupted, layout)
            if decoded.feasible:
                # a feasible corruption must be a genuine re-encoding
                assert decoded.configuration is not None
                assert decoded.selected_edges == decoded.configuration.edges

    def test_encode_rejects_too_tall_tree(self):
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        _, layout = build_tree_qubo(net, levels=2)
        with pytest.raises(ValueError, match="height"):
            layout.encode_tree(net, net.initial_configuration(), root=0)


class TestTwoSupplyPoints:
    def test_root_may_be_either_os_node(self):
        """With several OS nodes the root one-hot ranges over all of them, so
        the zero-penalty states are the union of rooted encodings."""
        from gridsec.network import Configuration, Edge, Network, Node

        nodes = [
            Node(0, "OS", 10500.0, 0j, 10500.0, 10500.0),
            Node(3, "OS", 10500.0, 0j, 10500.0, 10500.0),
            Node(1, "MSR", 10500.0, 1000 + 0j, 9800.0, 11000.0),
            Node(2, "MSR", 10500.0, 1000 + 0j, 9800.0, 11000.0),
        ]
        edges = [
            Edge(1, 0, 1, 0.01 + 0.02j, 999.0, True),
            Edge(2, 1, 2, 0.01 + 0.02j, 999.0, True),
            Edge(3, 2, 3, 0.01 + 0.02j, 999.0, True),
            Edge(4, 0, 2, 0.01 + 0.02j, 999.0, False),
        ]
        net = Network(nodes, edges)
        _, layout = build_tree_qubo(net, levels=4)

        decoded = {}
        for bits in zero_penalty_strings(layout):
            solution = decode_solution(bits, layout)
            assert solution.feasible
            depths = solution.depths
            root = [nid for nid, d in depths.items() if d == 0]
            assert root and root[0] in (0, 3)
            decoded.setdefault(solution.configuration.edges, set()).add(root[0])

        expected = {
            tree
            for tree in spanning_trees(net)
            if min(
                rooted_height(net, tree, r) for r in (0, 3)
            ) <= 3
        }
        assert set(decoded) == expected
        # at generous depth every tree admits an encoding per OS root
        assert any(len(roots) == 2 for roots in decoded.values())


class TestDefaults:
    def test_default_levels_fixture(self, sevenbus):
        # |V| levels: a spanning tree of 7 nodes is at most 6 edges tall
        assert default_levels(sevenbus) == 7

    def test_default_levels_floor(self):
        assert default_levels(make_network(3, [(0, 1), (1, 2)], {1, 2})) == 3
        assert default_levels(make_network(1, [], set())) == 2

    def test_default_levels_hold_the_demo_switchover(self, demo_k1):
        """Failing edge 2 of the demo is fixed only by on 6 / off 2, which
        leaves a tree of height 5 in a graph of diameter 2."""
        verdict = check_n1(demo_k1, k_max=1).per_edge[2]
        assert verdict.witness == Switchover.of([6], [2])
        cfg = apply_switchover(demo_k1.initial_configuration(), verdict.witness)
        qubo, layout = build_tree_qubo(demo_k1, default_levels(demo_k1), failing_edge=2)
        bits = layout.encode_tree(demo_k1, cfg, root=0)
        decoded = decode_solution(bits, layout)
        assert decoded.feasible and decoded.configuration == cfg
        assert qubo.evaluate(bits) == 2.0
        # three levels, the old diameter-based default, cannot hold the answer
        _, short = build_tree_qubo(demo_k1, 3, failing_edge=2)
        with pytest.raises(ValueError, match="height 5"):
            short.encode_tree(demo_k1, cfg, root=0)

    def test_weights_validation(self):
        with pytest.raises(ValueError, match="positive"):
            PenaltyWeights(dw=-1.0)

    def test_domain_wall_weight_dominates_indicator_dips(self):
        """No assignment of the weighted tree QUBO dips below zero."""
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        qubo, _ = build_tree_qubo(net, levels=3)
        assert brute_force_minimize(qubo).energy >= 0.0
