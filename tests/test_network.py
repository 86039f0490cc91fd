import json

import pytest

from gridsec.network import (
    Configuration,
    ParseError,
    Switchover,
    ValidationError,
    apply_switchover,
    fundamental_cycles,
    is_spanning_tree,
    parse_network,
    serialize_network,
)

from conftest import make_network


def ring_feeder():
    """OS node 0 feeding the chains 0-1-2-3 and 0-4-5-6, closed into rings by
    the open ties 3-6 and 2-5."""
    return make_network(
        7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (3, 6), (2, 5)], {1, 2, 3, 4, 5, 6}
    )


class TestParsing:
    def test_bundled_fixture_shape(self, sevenbus):
        assert len(sevenbus.nodes) == 7
        assert len(sevenbus.edges) == 8
        assert sorted(sevenbus.active_ids) == [1, 2, 3, 6, 7, 8]
        assert sevenbus.os_ids == (7,)
        os_node = sevenbus.node_by_id[7]
        assert os_node.u_min == os_node.u_max == os_node.u_nom == 10500.0

    def test_round_trip(self, sevenbus):
        again = parse_network(serialize_network(sevenbus))
        assert again.as_dict() == sevenbus.as_dict()

    def test_single_node_no_edges(self):
        doc = {
            "nodes": [
                {"id": 1, "type": "OS", "u_nom": 100.0, "load": [0, 0], "u_min": 100.0, "u_max": 100.0}
            ],
            "edges": [],
        }
        net = parse_network(json.dumps(doc))
        assert is_spanning_tree(net, net.initial_configuration())

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_network('{"nodes": [\n  {"id": }\n]}')

    def test_missing_field_named(self, sevenbus):
        doc = sevenbus.as_dict()
        del doc["edges"][0]["i_max"]
        with pytest.raises(ParseError, match="i_max"):
            parse_network(json.dumps(doc))

    def test_scalar_complex_rejected(self, sevenbus):
        doc = sevenbus.as_dict()
        doc["nodes"][0]["load"] = 5.0
        with pytest.raises(ParseError, match="2-element"):
            parse_network(json.dumps(doc))

    def test_disconnected_active_set_names_nodes(self, sevenbus):
        doc = sevenbus.as_dict()
        for edge in doc["edges"]:
            if edge["id"] == 1:  # drop {1,7}: node 1 loses its only active cable
                edge["active"] = False
            if edge["id"] == 4:  # keep the count at |V| - 1
                edge["active"] = True
        with pytest.raises(ValidationError, match=r"\[1\]"):
            parse_network(json.dumps(doc))

    def test_cyclic_active_set_rejected(self, sevenbus):
        doc = sevenbus.as_dict()
        for edge in doc["edges"]:
            if edge["id"] == 4:  # all nodes stay connected, loop 2-3-6-5-7 closes
                edge["active"] = True
        with pytest.raises(ValidationError, match="cycle"):
            parse_network(json.dumps(doc))

    def test_invariants_enforced(self):
        from gridsec.network import Edge, Node

        with pytest.raises(ValidationError):
            Node(1, "MSR", 100.0, 0j, -5.0, 10.0)
        with pytest.raises(ValidationError):
            Node(1, "OS", 100.0, 0j, 90.0, 110.0)
        with pytest.raises(ValidationError):
            Edge(1, 2, 2, 1 + 0j, 10.0, True)
        with pytest.raises(ValidationError):
            Edge(1, 1, 2, 0j, 10.0, True)
        with pytest.raises(ValidationError):
            Edge(1, 1, 2, 1j, -1.0, True)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_numbers_rejected(self, bad):
        from gridsec.network import Edge, Node

        for field in ("u_nom", "u_min", "u_max"):
            values = {"u_nom": 100.0, "u_min": 90.0, "u_max": 110.0, field: bad}
            with pytest.raises(ValidationError, match=f"{field} must be finite"):
                Node(1, "MSR", values["u_nom"], 0j, values["u_min"], values["u_max"])
        for load in (complex(bad, 0.0), complex(0.0, bad)):
            with pytest.raises(ValidationError, match="load must be finite"):
                Node(1, "MSR", 100.0, load, 90.0, 110.0)
        for z in (complex(bad, 1.0), complex(1.0, bad)):
            with pytest.raises(ValidationError, match="z must be finite"):
                Edge(1, 1, 2, z, 10.0, True)
        with pytest.raises(ValidationError, match="i_max must be finite"):
            Edge(1, 1, 2, 1j, bad, True)

    def test_nan_load_in_file_rejected(self, sevenbus):
        doc = sevenbus.as_dict()
        doc["nodes"][0]["load"] = [float("nan"), 0.0]
        with pytest.raises(ValidationError, match="node 1: load must be finite"):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize("u_nom", [-10500.0, 0.0])
    def test_non_positive_u_nom_rejected(self, sevenbus, u_nom):
        # node 1 is an MSR node, whose band does not pin its nominal voltage
        doc = sevenbus.as_dict()
        doc["nodes"][0]["u_nom"] = u_nom
        with pytest.raises(ValidationError) as raised:
            parse_network(json.dumps(doc))
        assert str(raised.value) == f"node 1: u_nom must be positive, got {u_nom}"

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_non_boolean_active_rejected(self, sevenbus, flag):
        doc = sevenbus.as_dict()
        doc["edges"][3]["active"] = flag
        with pytest.raises(ParseError, match="active must be true or false"):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize("bad", [1.7, "3", True, None])
    @pytest.mark.parametrize("kind,key", [("nodes", "id"), ("edges", "id"), ("edges", "n"), ("edges", "m")])
    def test_non_integer_ids_rejected(self, sevenbus, kind, key, bad):
        doc = sevenbus.as_dict()
        doc[kind][0][key] = bad
        with pytest.raises(ParseError, match=f"{kind}\\[0\\]: {key} must be an integer"):
            parse_network(json.dumps(doc))

    def test_integral_float_id_accepted(self, sevenbus):
        doc = sevenbus.as_dict()
        doc["nodes"][0]["id"] = float(doc["nodes"][0]["id"])
        assert parse_network(json.dumps(doc)).as_dict() == sevenbus.as_dict()

    def test_endpoint_order_normalized(self):
        from gridsec.network import Edge

        edge = Edge(1, 5, 2, 1j, 10.0, True)
        assert edge.endpoints == (2, 5)


class TestSpanningTree:
    def test_initial_configuration_is_tree(self, sevenbus):
        assert is_spanning_tree(sevenbus, sevenbus.initial_configuration())

    def test_too_few_edges(self, sevenbus):
        cfg = Configuration(sevenbus.active_ids - {2})
        assert not is_spanning_tree(sevenbus, cfg)

    def test_swap_keeps_tree(self, sevenbus):
        cfg = Configuration(sevenbus.active_ids - {2} | {4})
        assert is_spanning_tree(sevenbus, cfg)

    def test_right_count_but_cyclic(self, sevenbus):
        cfg = Configuration(sevenbus.active_ids - {1} | {4})
        assert not is_spanning_tree(sevenbus, cfg)

    def test_unknown_edge_id(self, sevenbus):
        with pytest.raises(ValueError, match="unknown edge ids"):
            is_spanning_tree(sevenbus, Configuration(frozenset({1, 2, 3, 6, 7, 99})))


class TestFundamentalCycles:
    def test_triangle(self):
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        cycles = fundamental_cycles(net, net.initial_configuration())
        assert cycles == {3: frozenset({1, 2})}

    def test_fixture_cycles(self, sevenbus):
        cycles = fundamental_cycles(sevenbus, sevenbus.initial_configuration())
        # tree path 3-2-7-5-6 for the {3,6} spare, 4-7-5-6 for the {4,6} spare
        assert cycles[4] == frozenset({2, 3, 8, 7})
        assert cycles[5] == frozenset({6, 8, 7})

    def test_requires_tree(self, sevenbus):
        with pytest.raises(ValueError, match="spanning tree"):
            fundamental_cycles(sevenbus, Configuration(sevenbus.active_ids - {2}))

    def test_each_inactive_edge_closes_one_cycle(self, sevenbus, demo_k1, demo_k2):
        for net in (sevenbus, demo_k1, demo_k2, ring_feeder()):
            cfg = net.initial_configuration()
            cycles = fundamental_cycles(net, cfg)
            assert set(cycles) == net.inactive_ids
            for eid, cycle in cycles.items():
                edge = net.edge_by_id[eid]
                # the cycle edges plus the inactive edge touch every node twice
                touched: dict[int, int] = {}
                for member in cycle | {eid}:
                    for end in net.edge_by_id[member].endpoints:
                        touched[end] = touched.get(end, 0) + 1
                assert all(count == 2 for count in touched.values())
                assert edge.n in touched and edge.m in touched

    def test_swap_along_cycle_restores_tree(self, sevenbus, demo_k1, demo_k2):
        # any cycle member may be traded for the inactive edge, and no other
        for net in (sevenbus, demo_k1, demo_k2, ring_feeder()):
            cfg = net.initial_configuration()
            for eid, cycle in fundamental_cycles(net, cfg).items():
                for member in cfg.edges:
                    swapped = apply_switchover(cfg, Switchover.of([eid], [member]))
                    assert is_spanning_tree(net, swapped) == (member in cycle)


class TestSwitchover:
    def test_apply_and_invert(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        switch = Switchover.of([4], [2])
        moved = apply_switchover(cfg, switch)
        assert moved.edges == cfg.edges - {2} | {4}
        assert apply_switchover(moved, Switchover(switch.deactivate, switch.activate)) == cfg

    def test_empty_switchover_is_identity(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        assert apply_switchover(cfg, Switchover.of([], [])) == cfg

    def test_result_may_break_tree(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        moved = apply_switchover(cfg, Switchover.of([4], [1]))
        assert not is_spanning_tree(sevenbus, moved)

    def test_preconditions(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        with pytest.raises(ValueError, match="not in the configuration"):
            apply_switchover(cfg, Switchover.of([4], [5]))
        with pytest.raises(ValueError, match="already active"):
            apply_switchover(cfg, Switchover.of([1], [2]))

    def test_unbalanced_rejected(self):
        with pytest.raises(ValidationError):
            Switchover.of([1, 2], [3])
        with pytest.raises(ValidationError):
            Switchover.of([1], [1])
