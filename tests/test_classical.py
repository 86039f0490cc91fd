import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsec.classical import (
    INSECURE,
    SECURE_K1,
    SECURE_KN,
    check_n1,
    enumerate_reconfigurations,
    step1_single_switch,
    step2_multi_switch,
)
from gridsec.datasets import load_bundled
from gridsec.loadflow import ComplianceOracle, evaluate_configuration
from gridsec.network import (
    Configuration,
    Switchover,
    apply_switchover,
    fundamental_cycles,
    is_spanning_tree,
)

from conftest import make_network, spanning_trees


def reference_enumeration(network, cfg, k, restrict_to=None):
    """Enumeration by brute force over cycle-edge choices: every candidate
    is applied and checked with a union-find, and duplicate edge sets are
    dropped across all activation combinations."""
    cycles = fundamental_cycles(network, cfg)
    seen = set()
    entries = []
    for combo in itertools.combinations(sorted(cycles.items()), k):
        activations = frozenset(x for x, _ in combo)
        for choice in itertools.product(*(sorted(cycle) for _, cycle in combo)):
            deactivations = frozenset(choice)
            if len(deactivations) < k:
                continue
            if restrict_to is not None and not (restrict_to & deactivations):
                continue
            switch = Switchover(activations, deactivations)
            candidate = apply_switchover(cfg, switch)
            if candidate.edges in seen or not is_spanning_tree(network, candidate):
                continue
            seen.add(candidate.edges)
            entries.append((switch, candidate))
    return entries


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


def feeder_ring():
    """Three 3-node feeders from OS node 0, tied tail to tail and mid to mid
    into a ring.  Each head cable carries five nodes' load but not six, so a
    failed head needs two switchovers to split its feeder."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9),
             (3, 6), (6, 9), (9, 3), (2, 5), (5, 8), (8, 2)]
    return make_network(10, edges, set(range(1, 10)), i_max={1: 100.0, 4: 100.0, 7: 100.0})


PINNED_NETWORKS = {
    "demo_double_switch": lambda: load_bundled("demo_double_switch"),
    "sevenbus": lambda: load_bundled("sevenbus"),
    "feeder_ring": feeder_ring,
}


class TestEnumeration:
    def test_fixture_k1_count(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        entries = enumerate_reconfigurations(sevenbus, cfg, 1)
        # one entry per cycle edge: 4 via the {3,6} spare, 3 via the {4,6} spare
        assert len(entries) == 7
        for switch, candidate in entries:
            assert switch.k == 1
            assert is_spanning_tree(sevenbus, candidate)

    def test_fixture_k1_restricted(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        entries = enumerate_reconfigurations(sevenbus, cfg, 1, restrict_to=frozenset({2}))
        assert len(entries) == 1
        switch, _ = entries.entries[0]
        assert switch.activate == frozenset({4})
        assert switch.deactivate == frozenset({2})

    def test_empty_filter(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        # edge 1 is a leaf cable: no spare closes a cycle through it
        entries = enumerate_reconfigurations(sevenbus, cfg, 1, restrict_to=frozenset({1}))
        assert len(entries) == 0

    def test_k_bounds(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        with pytest.raises(ValueError):
            enumerate_reconfigurations(sevenbus, cfg, 0)
        with pytest.raises(ValueError):
            enumerate_reconfigurations(sevenbus, cfg, 3)  # only two inactive edges

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_symmetric_difference_oracle(self, sevenbus, k):
        """Enumerated trees are exactly the spanning trees 2k edges away."""
        cfg = sevenbus.initial_configuration()
        entries = enumerate_reconfigurations(sevenbus, cfg, k)
        produced = {candidate.edges for _, candidate in entries}
        expected = {
            tree
            for tree in spanning_trees(sevenbus)
            if len(tree ^ cfg.edges) == 2 * k
        }
        assert produced == expected

    def test_matches_oracle_on_dense_graph(self):
        net = make_network(
            4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], {1, 2, 3}
        )
        cfg = net.initial_configuration()
        for k in (1, 2, 3):
            produced = {
                c.edges for _, c in enumerate_reconfigurations(net, cfg, k)
            }
            expected = {
                t for t in spanning_trees(net) if len(t ^ cfg.edges) == 2 * k
            }
            assert produced == expected

    def test_deterministic_order(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        first = enumerate_reconfigurations(sevenbus, cfg, 1)
        second = enumerate_reconfigurations(sevenbus, cfg, 1)
        assert [s for s, _ in first] == [s for s, _ in second]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("name", sorted(PINNED_NETWORKS))
    def test_counts_match_tree_oracle(self, name, k):
        """One entry per spanning tree 2k edges away, none repeated."""
        net = PINNED_NETWORKS[name]()
        cfg = net.initial_configuration()
        expected = sum(len(tree ^ cfg.edges) == 2 * k for tree in spanning_trees(net))
        assert len(enumerate_reconfigurations(net, cfg, k)) == expected

    @settings(max_examples=150, deadline=None)
    @given(grids_with_spares(), st.data())
    def test_matches_reference_enumeration(self, net, data):
        """Same entries in the same order as the union-find enumeration."""
        cfg = net.initial_configuration()
        restrict = frozenset(data.draw(st.sets(st.sampled_from(sorted(cfg.edges))), label="restrict"))
        for k in range(1, min(3, len(net.inactive_ids)) + 1):
            for restrict_to in (None, restrict):
                produced = enumerate_reconfigurations(net, cfg, k, restrict_to)
                assert list(produced) == reference_enumeration(net, cfg, k, restrict_to)

    @pytest.mark.parametrize("edge", [5, 99])
    def test_restrict_outside_configuration_rejected(self, sevenbus, edge):
        # 5 is an inactive spare, 99 no edge at all
        cfg = sevenbus.initial_configuration()
        with pytest.raises(ValueError, match=rf"\[{edge}\]"):
            enumerate_reconfigurations(sevenbus, cfg, 1, restrict_to=frozenset({2, edge}))


class TestStepOne:
    def test_fixture_witnesses(self, sevenbus):
        witnesses = step1_single_switch(sevenbus)
        assert sorted(witnesses) == [2, 3, 7, 8]
        for failing, (switch, report) in witnesses.items():
            assert failing in switch.deactivate
            assert report.compliant
            # all viable single-switch fixes route through the {3,6} spare,
            # since the {4,6} spare is rated at zero amps
            assert switch.activate == frozenset({4})

    def test_loadflow_call_accounting(self, sevenbus):
        oracle = ComplianceOracle(sevenbus)
        step1_single_switch(sevenbus, oracle)
        entries = enumerate_reconfigurations(sevenbus, sevenbus.initial_configuration(), 1)
        assert oracle.calls == len(entries)

    def test_no_spares_means_no_witnesses(self):
        net = make_network(3, [(0, 1), (1, 2)], {1, 2})
        assert step1_single_switch(net) == {}

    def test_all_candidates_failing(self):
        # the only spare is rated at zero, so every candidate violates
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2}, i_max={3: 0.0})
        assert step1_single_switch(net) == {}

    def test_witness_applies_cleanly(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        for switch, _ in step1_single_switch(sevenbus).values():
            candidate = apply_switchover(cfg, switch)
            assert is_spanning_tree(sevenbus, candidate)
            assert evaluate_configuration(sevenbus, candidate).compliant


class TestStepTwo:
    def test_empty_remaining(self, sevenbus):
        assert step2_multi_switch(sevenbus, frozenset(), 2) == {}

    def test_k_precondition(self, sevenbus):
        with pytest.raises(ValueError):
            step2_multi_switch(sevenbus, frozenset({2}), 1)

    def test_remaining_must_be_active(self, sevenbus):
        with pytest.raises(ValueError):
            step2_multi_switch(sevenbus, frozenset({4}), 2)

    def test_passing_tree_covers_all_its_deactivations(self):
        # ring of 4 with two spares; generous ratings make everything pass
        net = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], {1, 2, 3})
        witnesses = step2_multi_switch(net, frozenset({1, 2}), 2)
        assert set(witnesses) >= {1, 2}
        for eid, (switch, _) in witnesses.items():
            assert eid in switch.deactivate
        # the first passing double switchover clears both queried edges at once
        deactivation_sets = {tuple(sorted(s.deactivate)) for s, _ in witnesses.values()}
        assert len(deactivation_sets) < len(witnesses)

    def test_matches_brute_force_for_stubborn_edge(self, sevenbus):
        """k=2 coverage for edge 6 agrees with exhaustive tree checking."""
        oracle = ComplianceOracle(sevenbus)
        witnesses = step2_multi_switch(sevenbus, frozenset({6}), 2, oracle)
        cfg = sevenbus.initial_configuration()
        passing = [
            tree
            for tree in spanning_trees(sevenbus)
            if len(tree ^ cfg.edges) == 4
            and 6 not in tree
            and evaluate_configuration(sevenbus, Configuration(tree)).compliant
        ]
        assert (6 in witnesses) == bool(passing)


class TestFullCheck:
    def test_fixture_report(self, sevenbus):
        report = check_n1(sevenbus, k_max=2)
        statuses = {eid: v.status for eid, v in report.per_edge.items()}
        assert statuses == {
            1: INSECURE,   # leaf cable, no spare can replace it
            2: SECURE_K1,
            3: SECURE_K1,
            6: INSECURE,   # only alternative routes through the zero-rated spare
            7: SECURE_K1,
            8: SECURE_K1,
        }
        assert report.overall is False
        assert report.k_used == {2: 1, 3: 1, 7: 1, 8: 1}

    def test_overall_matches_brute_force(self, sevenbus):
        """Per-edge security agrees with exhaustive k=1 search."""
        report = check_n1(sevenbus, k_max=1)
        cfg = sevenbus.initial_configuration()
        trees = spanning_trees(sevenbus)
        for eid, verdict in report.per_edge.items():
            fixable = any(
                len(tree ^ cfg.edges) == 2
                and eid not in tree
                and evaluate_configuration(sevenbus, Configuration(tree)).compliant
                for tree in trees
            )
            assert (verdict.status != INSECURE) == fixable

    def test_ring_secure_at_k1(self):
        net = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 3)], {1, 2, 3})
        report = check_n1(net, k_max=1)
        assert report.overall is True
        assert all(v.status == SECURE_K1 for v in report.per_edge.values())

    def test_without_good_spare_edges_become_insecure(self, sevenbus):
        # removing the healthy spare leaves only the zero-rated one
        crippled = sevenbus.without_edge(4)
        report = check_n1(crippled, k_max=2)
        assert all(v.status == INSECURE for v in report.per_edge.values())

    def test_k_max_validation(self, sevenbus):
        with pytest.raises(ValueError):
            check_n1(sevenbus, k_max=0)

    def test_deterministic_witnesses(self, sevenbus):
        first = check_n1(sevenbus, k_max=2)
        second = check_n1(sevenbus, k_max=2)
        assert {e: v.witness for e, v in first.per_edge.items()} == {
            e: v.witness for e, v in second.per_edge.items()
        }

    def test_report_json(self, sevenbus):
        import json

        doc = json.loads(check_n1(sevenbus, k_max=1).to_json())
        assert doc["overall"] is False
        assert doc["per_edge"]["2"]["status"] == "SECURE_K1"
        assert doc["per_edge"]["2"]["witness"]["activate"] == [4]

    @pytest.mark.parametrize(
        "name, calls, table",
        [
            ("demo_double_switch", 22, {
                1: (SECURE_KN, 2, ((2, 3), (1, 7))),
                4: (SECURE_K1, 1, ((2,), (4,))),
                7: (SECURE_K1, 1, ((3,), (7,))),
                8: (SECURE_K1, 1, ((5,), (8,))),
                9: (INSECURE, None, None),
                10: (SECURE_K1, 1, ((6,), (10,))),
            }),
            ("sevenbus", 11, {
                1: (INSECURE, None, None),
                2: (SECURE_K1, 1, ((4,), (2,))),
                3: (SECURE_K1, 1, ((4,), (3,))),
                6: (INSECURE, None, None),
                7: (SECURE_K1, 1, ((4,), (7,))),
                8: (SECURE_K1, 1, ((4,), (8,))),
            }),
            ("feeder_ring", 89, {
                1: (SECURE_KN, 2, ((10, 15), (1, 3))),
                2: (SECURE_K1, 1, ((10,), (2,))),
                3: (SECURE_K1, 1, ((10,), (3,))),
                4: (SECURE_KN, 2, ((10, 14), (4, 6))),
                5: (SECURE_K1, 1, ((10,), (5,))),
                6: (SECURE_K1, 1, ((10,), (6,))),
                7: (SECURE_KN, 2, ((10, 14), (6, 7))),
                8: (SECURE_K1, 1, ((11,), (8,))),
                9: (SECURE_K1, 1, ((11,), (9,))),
            }),
        ],
    )
    def test_pinned_k2_verdicts(self, name, calls, table):
        """Load-flow calls, verdicts and witnesses of the k=2 check."""
        report = check_n1(PINNED_NETWORKS[name](), k_max=2)
        assert report.loadflow_calls == calls
        produced = {}
        for eid, verdict in report.per_edge.items():
            witness = verdict.witness and (
                tuple(sorted(verdict.witness.activate)),
                tuple(sorted(verdict.witness.deactivate)),
            )
            produced[eid] = (verdict.status, verdict.k, witness)
        assert produced == table

    def test_step2_contributions_reported(self):
        """An edge only fixable at k=2 is labeled with the k that fixed it."""
        # path 0-1-2-3 with spares (0,2) and (1,3): failing the middle cable
        # (1,2) needs both spares at once
        net = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)], {1, 2, 3})
        report = check_n1(net, k_max=2)
        assert report.per_edge[2].status in (SECURE_K1, SECURE_KN)
        assert report.overall is True
