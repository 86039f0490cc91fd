import importlib.util
import itertools
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsec.classical import (
    INSECURE,
    SECURE_K1,
    SECURE_KN,
    _reconfigurations,
    check_n1,
    enumerate_reconfigurations,
    step1_single_switch,
    step2_multi_switch,
)
from gridsec.datasets import load_bundled
from gridsec.loadflow import ComplianceOracle
from gridsec.network import (
    Configuration,
    Network,
    Switchover,
    apply_switchover,
    fundamental_cycles,
    is_spanning_tree,
    parse_network,
)

from conftest import compliant, grids_with_spares, make_network, spanning_trees
from test_loadflow import branchy_grids

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


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


def reference_step1(network, oracle):
    """Step 1 as a scan that queries every single switchover, its failing
    edge witnessed or not; per failing edge the first passing one wins."""
    witnesses = {}
    if not network.inactive_ids:
        return witnesses
    for switch, candidate in enumerate_reconfigurations(network, network.initial_configuration(), 1):
        (failing_edge,) = switch.deactivate
        if oracle.passes(candidate) and failing_edge not in witnesses:
            witnesses[failing_edge] = switch
    return witnesses


def reference_step2(network, remaining, k, oracle):
    """Step 2 as a scan of the materialised list: every failing edge, in
    order and unless already witnessed, queries each listed tree that
    deactivates it until one passes, and a repeated tree is queried again."""
    witnesses = {}
    if not remaining or k > len(network.inactive_ids):
        return witnesses
    base = network.initial_configuration()
    candidates = enumerate_reconfigurations(network, base, k, restrict_to=remaining)
    for failing_edge in sorted(remaining):
        if failing_edge in witnesses:
            continue
        for switch, candidate in candidates:
            if failing_edge not in switch.deactivate:
                continue
            if oracle.passes(candidate):
                for covered in sorted(switch.deactivate):
                    witnesses.setdefault(covered, switch)
                break
    return witnesses


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
        switch, _ = entries[0]
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

    @settings(max_examples=100, deadline=None)
    @given(branchy_grids())
    def test_per_edge_stream_is_the_filtered_list(self, net):
        """Streaming with ``restrict_to={f}`` yields the full list's entries
        that deactivate f, in the full list's order."""
        cfg = net.initial_configuration()
        cycles = fundamental_cycles(net, cfg)
        for k in range(1, min(3, len(cycles)) + 1):
            full = list(enumerate_reconfigurations(net, cfg, k))
            for f in sorted(cfg.edges):
                streamed = [
                    (Switchover(a, d), Configuration(cfg.edges - d | a))
                    for a, d in _reconfigurations(cycles, k, frozenset({f}))
                ]
                assert streamed == [entry for entry in full if f in entry[0].deactivate]

    @pytest.mark.parametrize("edge", [5, 99])
    def test_restrict_outside_configuration_rejected(self, sevenbus, edge):
        # 5 is an inactive spare, 99 no edge at all
        cfg = sevenbus.initial_configuration()
        with pytest.raises(ValueError, match=rf"\[{edge}\]"):
            enumerate_reconfigurations(sevenbus, cfg, 1, restrict_to=frozenset({2, edge}))


class TestStepOne:
    def test_fixture_witnesses(self, sevenbus):
        witnesses = step1_single_switch(sevenbus, ComplianceOracle(sevenbus))
        assert sorted(witnesses) == [2, 3, 7, 8]
        cfg = sevenbus.initial_configuration()
        for failing, switch in witnesses.items():
            assert failing in switch.deactivate
            assert compliant(sevenbus, apply_switchover(cfg, switch))
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
        assert step1_single_switch(net, ComplianceOracle(net)) == {}

    def test_all_candidates_failing(self):
        # the only spare is rated at zero, so every candidate violates
        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2}, i_max={3: 0.0})
        assert step1_single_switch(net, ComplianceOracle(net)) == {}

    def test_witness_applies_cleanly(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        for switch in step1_single_switch(sevenbus, ComplianceOracle(sevenbus)).values():
            candidate = apply_switchover(cfg, switch)
            assert is_spanning_tree(sevenbus, candidate)
            assert compliant(sevenbus, candidate)


class TestStepOneReference:
    """Step 1 against :func:`reference_step1`: the same witnesses and the same
    call count, while only the candidates reached before their failing edge
    has its witness are solved."""

    @staticmethod
    def solving(run, net):
        """``run(net, oracle)``'s witnesses, call and solve counts, and the
        failing edge and verdict of every solve, in order."""
        oracle = ComplianceOracle(net)
        solves = []
        query = ComplianceOracle.query

        def counting(self, activations, deactivations):
            (failing_edge,) = deactivations
            solves.append((failing_edge, query(self, activations, deactivations)))
            return solves[-1][1]

        with mock.patch.object(ComplianceOracle, "query", counting):
            witnesses = run(net, oracle)
        assert oracle.solves == len(solves)
        return witnesses, oracle.calls, solves

    def assert_same_as_reference(self, net):
        """Returns step 1's call and solve counts."""
        got, calls, solves = self.solving(step1_single_switch, net)
        want, want_calls, want_solves = self.solving(reference_step1, net)
        assert got == want
        assert calls == want_calls == len(want_solves)
        witnessed, expected = set(), []
        for failing_edge, passed in want_solves:
            if failing_edge not in witnessed:
                expected.append((failing_edge, passed))
                if passed:
                    witnessed.add(failing_edge)
        assert solves == expected
        return calls, len(solves)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(branchy_grids(), grids_with_spares()))
    def test_random_grids(self, net):
        self.assert_same_as_reference(net)

    @pytest.mark.parametrize("name", sorted(PINNED_NETWORKS))
    def test_pinned_networks(self, name):
        # (calls, solves): the reference solves every call on these grids
        counts = {"demo_double_switch": (13, 7), "feeder_ring": (30, 18), "sevenbus": (7, 5)}
        assert self.assert_same_as_reference(PINNED_NETWORKS[name]()) == counts[name]

    def test_benchmark_feeder_grid(self):
        # feeder-k1's default-seed grid: 4 radial feeders of 25 nodes
        spec = importlib.util.spec_from_file_location("feeders", BENCHMARKS / "feeders.py")
        feeders = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(feeders)
        net = parse_network(feeders.feeder_grid_json(4, 25, 1))
        assert self.assert_same_as_reference(net) == (228, 194)


class TestStepTwo:
    def test_empty_remaining(self, sevenbus):
        assert step2_multi_switch(sevenbus, frozenset(), 2, ComplianceOracle(sevenbus)) == {}

    def test_k_precondition(self, sevenbus):
        with pytest.raises(ValueError):
            step2_multi_switch(sevenbus, frozenset({2}), 1, ComplianceOracle(sevenbus))

    def test_remaining_must_be_active(self, sevenbus):
        with pytest.raises(ValueError):
            step2_multi_switch(sevenbus, frozenset({4}), 2, ComplianceOracle(sevenbus))

    def test_passing_tree_covers_all_its_deactivations(self):
        # ring of 4 with two spares; generous ratings make everything pass
        net = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], {1, 2, 3})
        witnesses = step2_multi_switch(net, frozenset({1, 2}), 2, ComplianceOracle(net))
        assert set(witnesses) >= {1, 2}
        for eid, switch in witnesses.items():
            assert eid in switch.deactivate
        # the first passing double switchover clears both queried edges at once
        deactivation_sets = {tuple(sorted(s.deactivate)) for s in witnesses.values()}
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
            and compliant(sevenbus, Configuration(tree))
        ]
        assert (6 in witnesses) == bool(passing)


class TestStepTwoReference:
    """Step 2 against :func:`reference_step2`: the same witnesses and the
    same query count, repeats included, at k = 2 and 3."""

    @staticmethod
    def assert_same_as_reference(net):
        witnessed = set(step1_single_switch(net, ComplianceOracle(net)))
        for k in (2, 3):
            for remaining in (net.active_ids, net.active_ids - witnessed):
                oracle, reference = ComplianceOracle(net), ComplianceOracle(net)
                got = step2_multi_switch(net, frozenset(remaining), k, oracle)
                assert got == reference_step2(net, frozenset(remaining), k, reference)
                assert oracle.calls == reference.calls

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(branchy_grids(), grids_with_spares()))
    def test_random_grids(self, net):
        self.assert_same_as_reference(net)

    @pytest.mark.parametrize("name", sorted(PINNED_NETWORKS))
    def test_pinned_networks(self, name):
        # sevenbus and demo_double_switch keep INSECURE edges at k = 2
        self.assert_same_as_reference(PINNED_NETWORKS[name]())


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
        k_used = {eid: v.k for eid, v in report.per_edge.items() if v.k is not None}
        assert k_used == {2: 1, 3: 1, 7: 1, 8: 1}

    def test_overall_matches_brute_force(self, sevenbus):
        """Per-edge security agrees with exhaustive k=1 search."""
        report = check_n1(sevenbus, k_max=1)
        cfg = sevenbus.initial_configuration()
        trees = spanning_trees(sevenbus)
        for eid, verdict in report.per_edge.items():
            fixable = any(
                len(tree ^ cfg.edges) == 2
                and eid not in tree
                and compliant(sevenbus, Configuration(tree))
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
        crippled = Network(sevenbus.nodes, [e for e in sevenbus.edges if e.id != 4])
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
