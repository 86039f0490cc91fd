import json
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsec import loadflow
from gridsec.classical import check_n1, enumerate_reconfigurations
from gridsec.loadflow import (
    Admittances,
    ComplianceOracle,
    ComplianceReport,
    SingularSystemError,
    LinearSystem,
    admittance,
    assemble_system,
    check_compliance,
    problem_edges,
    solve_loadflow,
    solve_tree,
)
from gridsec.datasets import bundled_names, load_bundled
from gridsec.network import Configuration, Edge, Network, Node, NotSpanningTreeError, parse_network

from conftest import compliant, full_report, grids_with_spares, make_network, spanning_trees, tree_config

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def independent_fixture_solve(network, cfg):
    """Hand-assembled balance matrix for the seven-bus grid, solved directly.

    Built straight from the node/edge attributes without touching
    assemble_system, so the two constructions can disagree.
    """
    msr = [n.id for n in network.nodes if n.kind == "MSR"]
    index = {nid: k for k, nid in enumerate(msr)}
    a = np.zeros((len(msr), len(msr)), dtype=complex)
    b = np.zeros(len(msr), dtype=complex)
    for nid in msr:
        node = network.node_by_id[nid]
        a[index[nid], index[nid]] += np.conj(node.load) / node.u_nom**2
    for eid in cfg.edges:
        edge = network.edge_by_id[eid]
        y = 1.0 / edge.z
        for here, there in ((edge.n, edge.m), (edge.m, edge.n)):
            if here not in index:
                continue
            a[index[here], index[here]] += y
            if there in index:
                a[index[here], index[there]] -= y
            else:
                b[index[here]] += y * network.node_by_id[there].u_nom
    x = np.linalg.solve(a, b)
    return {nid: x[index[nid]] for nid in msr}


class TestAdmittance:
    def test_zero_load(self):
        assert admittance(0j, 10500.0) == 0j

    def test_reactive_fixture_load(self):
        y = admittance(992.25j, 10500.0)
        assert y == pytest.approx(-992.25j / 10500.0**2)
        assert abs(y - (-9.0e-6j)) < 1e-7

    def test_real_load_conjugation_noop(self):
        assert admittance(5000.0 + 0j, 100.0) == pytest.approx(0.5 + 0j)

    def test_rejects_bad_nominal(self):
        with pytest.raises(ValueError):
            admittance(1j, 0.0)


class TestAssembleSolve:
    def test_single_msr_zero_load(self):
        net = make_network(2, [(0, 1)], {1}, loads={1: 0j})
        system = assemble_system(net, net.initial_configuration())
        assert system.a.shape == (1, 1)
        solution = solve_loadflow(system)
        assert solution.u[1] == pytest.approx(10500.0 + 0j)

    def test_fixture_dimensions(self, sevenbus):
        system = assemble_system(sevenbus, sevenbus.initial_configuration())
        assert system.a.shape == (6, 6)
        assert set(system.unknown_index) == {1, 2, 3, 4, 5, 6}
        assert system.fixed == {7: 10500.0 + 0j}

    def test_fixture_against_independent_solve(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        expected = independent_fixture_solve(sevenbus, cfg)
        solution = solve_loadflow(assemble_system(sevenbus, cfg))
        for nid, u in expected.items():
            assert solution.u[nid] == pytest.approx(u, rel=1e-12)
        assert all(9800.0 <= abs(solution.u[n]) <= 11000.0 for n in solution.u)

    def test_non_tree_rejected(self, sevenbus):
        with pytest.raises(ValueError, match="spanning tree"):
            assemble_system(sevenbus, Configuration(sevenbus.active_ids - {2}))
        with pytest.raises(NotSpanningTreeError):
            assemble_system(sevenbus, Configuration(sevenbus.active_ids - {1} | {4}))

    def test_singular_detection(self):
        system = LinearSystem(
            a=np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex),
            b=np.array([1.0, 2.0], dtype=complex),
            unknown_index={1: 0, 2: 1},
            fixed={},
        )
        with pytest.raises(SingularSystemError):
            solve_loadflow(system)

    def test_identity_system(self):
        system = LinearSystem(
            a=np.eye(2, dtype=complex),
            b=np.array([3.0 + 1j, 4.0], dtype=complex),
            unknown_index={1: 0, 2: 1},
            fixed={},
        )
        solution = solve_loadflow(system)
        assert solution.u == {1: 3.0 + 1j, 2: 4.0 + 0j}
        assert solution.residual == 0.0

    def test_deterministic_bit_identical(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        first = solve_loadflow(assemble_system(sevenbus, cfg))
        second = solve_loadflow(assemble_system(sevenbus, cfg))
        assert first.u == second.u
        assert first.residual == second.residual

    def test_two_supply_points(self):
        nodes = [
            Node(0, "OS", 10500.0, 0j, 10500.0, 10500.0),
            Node(4, "OS", 10400.0, 0j, 10400.0, 10400.0),
            Node(1, "MSR", 10500.0, 300_000 + 40_000j, 9800.0, 11000.0),
            Node(2, "MSR", 10500.0, 300_000 + 40_000j, 9800.0, 11000.0),
            Node(3, "MSR", 10500.0, 300_000 + 40_000j, 9800.0, 11000.0),
        ]
        edges = [
            Edge(1, 0, 1, 0.02 + 0.04j, 999.0, True),
            Edge(2, 1, 2, 0.02 + 0.04j, 999.0, True),
            Edge(3, 2, 3, 0.02 + 0.04j, 999.0, True),
            Edge(4, 3, 4, 0.02 + 0.04j, 999.0, True),
        ]
        net = Network(nodes, edges)
        solution = solve_loadflow(assemble_system(net, net.initial_configuration()))
        assert solution.u[0] == 10500.0 + 0j
        assert solution.u[4] == 10400.0 + 0j
        # load voltages interpolate between the two fixed supplies
        magnitudes = [abs(solution.u[n]) for n in (1, 2, 3)]
        assert all(10400.0 < m < 10500.0 for m in magnitudes)
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert compliant(net, net.initial_configuration())
        assert_same_voltages(solve_tree(net, net.initial_configuration()), solution, 1e-12)

    def test_zero_loads_pin_os_voltage(self):
        drained = make_network(
            5,
            [(0, 1), (1, 2), (2, 3), (1, 4)],
            {1, 2, 3, 4},
            loads={i: 0j for i in range(1, 5)},
        )
        solution = solve_loadflow(assemble_system(drained, drained.initial_configuration()))
        for u in solution.u.values():
            assert u == pytest.approx(10500.0 + 0j, abs=1e-9)


def exact_solve(network, cfg):
    """Balance equations solved by Gauss-Jordan in exact rational arithmetic.

    Complex numbers are (re, im) pairs of Fractions.  Every float input
    converts exactly, so the only rounding is the final conversion back.
    """

    def add(a, b):
        return (a[0] + b[0], a[1] + b[1])

    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1])

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def div(a, b):
        norm = b[0] * b[0] + b[1] * b[1]
        return mul(a, (b[0] / norm, -b[1] / norm))

    def exact(c):
        return (Fraction(c.real), Fraction(c.imag))

    zero = (Fraction(0), Fraction(0))
    msr = list(network.msr_ids)
    index = {nid: k for k, nid in enumerate(msr)}
    rows = [[zero] * (len(msr) + 1) for _ in msr]
    for nid in msr:
        node = network.node_by_id[nid]
        load = exact(node.load.conjugate())
        rows[index[nid]][index[nid]] = div(load, (Fraction(node.u_nom) ** 2, Fraction(0)))
    for eid in cfg.edges:
        edge = network.edge_by_id[eid]
        y = div((Fraction(1), Fraction(0)), exact(edge.z))
        for here, there in ((edge.n, edge.m), (edge.m, edge.n)):
            if here not in index:
                continue
            row = rows[index[here]]
            row[index[here]] = add(row[index[here]], y)
            if there in index:
                row[index[there]] = sub(row[index[there]], y)
            else:
                row[-1] = add(row[-1], mul(y, exact(complex(network.node_by_id[there].u_nom))))
    for col in range(len(msr)):
        pivot_row = next(r for r in range(col, len(msr)) if rows[r][col] != zero)
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        rows[col] = [div(x, rows[col][col]) for x in rows[col]]
        for r in range(len(msr)):
            if r != col and rows[r][col] != zero:
                factor = rows[r][col]
                rows[r] = [sub(x, mul(factor, p)) for x, p in zip(rows[r], rows[col])]
    return {nid: complex(float(rows[k][-1][0]), float(rows[k][-1][1])) for nid, k in index.items()}


def dense_solve(network, cfg):
    return solve_loadflow(assemble_system(network, cfg))


def assert_same_voltages(tree, dense, rel):
    assert tree.u.keys() == dense.u.keys()
    for nid, u in dense.u.items():
        assert abs(tree.u[nid] - u) <= rel * abs(u), nid


def singular_leaf_network(detune: float = 0.0) -> Network:
    """Node 1 hangs off the OS node alone and its load admittance is
    -(1 - detune)/z of its cable, so its balance row (Y + 1/z) U_1 = U_0 / z
    has the pivot detune/z: zero, or as small as the caller asks."""
    z = 0.01 + 0.02j
    cancelling = (-(1.0 - detune) / z).conjugate() * 10500.0**2
    return make_network(4, [(0, 1), (0, 2), (2, 3)], {1, 2, 3}, loads={1: cancelling})


@st.composite
def random_grids(draw):
    """A random 4-12-node grid, one or two OS nodes, and a random spanning tree.

    The active tree is a random parent per node; a few spare cables close
    loops; the configuration is a random-order Kruskal tree of all cables.
    Cables have a positive resistance and loads a non-negative real part,
    so every system stays regular.
    """
    n = draw(st.integers(4, 12), label="nodes")
    pairs = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    for _ in range(draw(st.integers(0, 4), label="spares")):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
        pairs.append((a, b))
    second_os = draw(st.one_of(st.none(), st.integers(1, n - 1)), label="second OS")
    nodes = []
    for nid in range(n):
        if nid == 0 or nid == second_os:
            u = 10500.0 if nid == 0 else draw(st.floats(10300.0, 10700.0))
            nodes.append(Node(nid, "OS", u, 0j, u, u))
            continue
        load = draw(st.one_of(
            st.just(0j),
            st.builds(complex, st.floats(0.0, 2e6), st.floats(-5e5, 5e5)),
        ))
        nodes.append(Node(nid, "MSR", 10500.0, load, 9800.0, 11000.0))
    edges = [
        Edge(
            eid,
            a,
            b,
            complex(draw(st.floats(0.01, 0.5)), draw(st.floats(0.0, 0.5))),
            draw(st.one_of(st.just(0.0), st.floats(1.0, 500.0))),
            eid <= n - 1,
        )
        for eid, (a, b) in enumerate(pairs, start=1)
    ]
    network = Network(nodes, edges)

    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    tree = set()
    for eid in draw(st.permutations([e.id for e in edges]), label="cable order"):
        edge = network.edge_by_id[eid]
        ra, rb = find(edge.n), find(edge.m)
        if ra != rb:
            parent[ra] = rb
            tree.add(eid)
    return network, Configuration.of(tree)


class TestTreeSolve:
    def test_every_fixture_tree_is_exact(self, sevenbus):
        # trees through the 1e-6 ohm spare (edge 4) are stiff: the dense LU is
        # off by up to 1.2e-10 there, the tree elimination only by rounding
        for tree in spanning_trees(sevenbus):
            cfg = Configuration(tree)
            solution = solve_tree(sevenbus, cfg)
            for nid, u in exact_solve(sevenbus, cfg).items():
                assert abs(solution.u[nid] - u) <= 1e-14 * abs(u), (sorted(tree), nid)
            assert_same_voltages(solution, dense_solve(sevenbus, cfg), 1e-9)

    def test_residual_is_float_noise_of_the_balance(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        solution = solve_tree(sevenbus, cfg)
        max_branch = max(abs(i) for i in check_compliance(sevenbus, cfg, solution).currents.values())
        assert 0.0 < solution.residual < 1e-9 * max_branch

    def test_non_tree_rejected(self, sevenbus):
        with pytest.raises(NotSpanningTreeError, match="spanning tree"):
            solve_tree(sevenbus, Configuration(sevenbus.active_ids - {2}))
        with pytest.raises(NotSpanningTreeError, match="spanning tree"):
            solve_tree(sevenbus, Configuration(sevenbus.active_ids - {1} | {4}))

    def test_unknown_edge_rejected(self, sevenbus):
        with pytest.raises(ValueError, match=r"unknown edge ids \[99\]") as caught:
            solve_tree(sevenbus, Configuration.of([99, 1, 2, 3, 4, 6]))
        assert not isinstance(caught.value, NotSpanningTreeError)

    @pytest.mark.parametrize("detune", [0.0, 1e-14])
    def test_singular_leaf_on_both_paths(self, detune):
        net = singular_leaf_network(detune)
        cfg = net.initial_configuration()
        with pytest.raises(SingularSystemError, match="node 1"):
            solve_tree(net, cfg)
        with pytest.raises(SingularSystemError):
            dense_solve(net, cfg)

    def test_small_regular_pivot_solves(self):
        # pivot 1e-9 of the row scale: above the guard, and exact on the tree
        net = singular_leaf_network(1e-9)
        cfg = net.initial_configuration()
        assert_same_voltages(solve_tree(net, cfg), dense_solve(net, cfg), 1e-5)

    @settings(max_examples=150, deadline=None)
    @given(random_grids())
    def test_matches_dense_reference(self, grid):
        network, cfg = grid
        tree = solve_tree(network, cfg)
        dense = dense_solve(network, cfg)
        assert_same_voltages(tree, dense, 1e-10)
        ours = check_compliance(network, cfg, tree)
        theirs = check_compliance(network, cfg, dense)
        assert ours.compliant == theirs.compliant
        assert [v[0] for v in ours.voltage_violations] == [v[0] for v in theirs.voltage_violations]
        assert [v[0] for v in ours.current_violations] == [v[0] for v in theirs.current_violations]


def outcome(call):
    """The report a call returns, or the type and message of its error."""
    try:
        report = call()
    except (ValueError, SingularSystemError) as exc:
        return type(exc), str(exc)
    return report, list(report.currents.items())


def verdict(call):
    """The verdict a call returns, or the type and message of its error."""
    try:
        return call()
    except (ValueError, SingularSystemError) as exc:
        return type(exc), str(exc)


def cancel_a_leaf(network, cfg, draw):
    """The grid with one MSR leaf's load set to cancel its only cable, so
    the sweep meets a zero pivot there; unchanged if no MSR leaf exists."""
    degree = {node.id: 0 for node in network.nodes}
    for eid in cfg.edges:
        edge = network.edge_by_id[eid]
        degree[edge.n] += 1
        degree[edge.m] += 1
    leaves = [nid for nid in network.msr_ids if degree[nid] == 1]
    if not leaves:
        return network
    leaf = draw(st.sampled_from(leaves), label="cancelled leaf")
    (cable,) = (
        network.edge_by_id[e] for e in cfg.edges if leaf in network.edge_by_id[e].endpoints
    )
    node = network.node_by_id[leaf]
    load = (-1.0 / cable.z).conjugate() * node.u_nom**2
    nodes = [Node(n.id, n.kind, n.u_nom, load, n.u_min, n.u_max) if n.id == leaf else n
             for n in network.nodes]
    return Network(nodes, network.edges)


class TestOraclePath:
    """The oracle's verdict is that of ``solve_tree`` followed by
    ``check_compliance``, with a non-tree or singular configuration read as
    non-compliant and the same errors otherwise."""

    @settings(max_examples=200, deadline=None)
    @given(
        random_grids(),
        st.sampled_from(["tree", "swap", "missing", "unknown", "singular"]),
        st.data(),
    )
    def test_oracle_report_equals_solve_then_check(self, grid, variant, data):
        network, cfg = grid
        if variant == "swap":  # a random cable in, a random tree cable out: a tree or not
            spare = sorted(e.id for e in network.edges if e.id not in cfg.edges)
            if spare:
                dropped = data.draw(st.sampled_from(sorted(cfg.edges)), label="dropped")
                cfg = Configuration(cfg.edges - {dropped} | {data.draw(st.sampled_from(spare))})
        elif variant == "missing":
            cfg = Configuration(cfg.edges - {min(cfg.edges)})
        elif variant == "unknown":
            cfg = Configuration(cfg.edges - {min(cfg.edges)} | {len(network.edges) + 1})
        elif variant == "singular":
            network = cancel_a_leaf(network, cfg, data.draw)
        oracle = ComplianceOracle(network)
        expected = outcome(lambda: check_compliance(network, cfg, solve_tree(network, cfg)))
        if isinstance(expected[0], ComplianceReport):
            wanted = expected[0].compliant
        elif expected[0] in (NotSpanningTreeError, SingularSystemError):
            wanted = False
        else:
            wanted = expected
        assert verdict(lambda: oracle.passes(cfg)) == wanted

    @pytest.mark.parametrize("detune", [0.0, 1e-14, 1e-9])
    def test_pivot_guard_on_the_oracle_path(self, detune):
        net = singular_leaf_network(detune)
        cfg = net.initial_configuration()
        expected = outcome(lambda: check_compliance(net, cfg, solve_tree(net, cfg)))
        assert (expected[0] is SingularSystemError) == (detune < 1e-12)
        singular = expected[0] is SingularSystemError
        assert ComplianceOracle(net).passes(cfg) == (not singular and expected[0].compliant)


class TestTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_bad_tolerance_rejected(self, sevenbus, tol):
        cfg = sevenbus.initial_configuration()
        solution = solve_tree(sevenbus, cfg)
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            check_compliance(sevenbus, cfg, solution, tol)

    def test_zero_tolerance_accepted(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        assert check_compliance(sevenbus, cfg, solve_tree(sevenbus, cfg), 0.0).compliant


class TestCompliance:
    def test_fixture_base_compliant(self, sevenbus):
        report = full_report(sevenbus, sevenbus.initial_configuration())
        assert report.compliant
        assert not report.voltage_violations
        assert not report.current_violations

    def test_swap_to_spare_loop_compliant(self, sevenbus):
        cfg = tree_config({1, 3, 4, 6, 7, 8})  # spare {3,6} in, {2,3} out
        assert compliant(sevenbus, cfg)

    def test_zero_rated_edge_violates_under_load(self, sevenbus):
        cfg = tree_config({1, 2, 3, 5, 7, 8})  # node 4 fed through the zero-rated spare
        report = full_report(sevenbus, cfg)
        assert not report.compliant
        assert [v[0] for v in report.current_violations] == [5]
        assert report.current_violations[0][1] > 0.1

    def test_kirchhoff_balance(self, sevenbus):
        cfg = sevenbus.initial_configuration()
        solution = solve_loadflow(assemble_system(sevenbus, cfg))
        report = check_compliance(sevenbus, cfg, solution)
        max_branch = max(abs(i) for i in report.currents.values())
        for node in sevenbus.nodes:
            if node.kind != "MSR":
                continue
            injection = solution.u[node.id] * admittance(node.load, node.u_nom)
            inflow = 0j
            for eid, current in report.currents.items():
                edge = sevenbus.edge_by_id[eid]
                if edge.n == node.id:
                    inflow += current
                elif edge.m == node.id:
                    inflow -= current
            assert abs(injection - inflow) < 1e-6 * max_branch

    def test_report_serializes(self, sevenbus):
        doc = full_report(sevenbus, sevenbus.initial_configuration()).as_dict()
        assert doc["compliant"] is True
        assert set(doc["currents"]) == {str(e) for e in sevenbus.active_ids}

    def test_equal_voltages_zero_currents(self):
        net = make_network(3, [(0, 1), (1, 2)], {1, 2}, loads={1: 0j, 2: 0j})
        report = full_report(net, net.initial_configuration())
        assert report.compliant
        assert all(abs(i) < 1e-9 for i in report.currents.values())

    def test_reads_the_network_without_the_sweep_constants(self, sevenbus):
        cfg = tree_config({1, 2, 3, 5, 7, 8})
        solution = solve_tree(sevenbus, cfg)
        with mock.patch.object(Admittances, "of", side_effect=AssertionError("rebuilt")):
            report = check_compliance(sevenbus, cfg, solution)
        assert report == full_report(sevenbus, cfg)


class TestProblemEdges:
    def test_zero_rated_edge_always_problem(self, sevenbus):
        assert 5 in problem_edges(sevenbus)

    def test_fixture_ratings_all_violable(self, sevenbus):
        # every rating is far below the worst in-band current, so all qualify
        assert problem_edges(sevenbus) == frozenset(e.id for e in sevenbus.edges)

    def test_generous_rating_excluded(self):
        net = make_network(2, [(0, 1)], {1}, i_max={1: 10.0**9})
        assert problem_edges(net) == frozenset()

    def test_hand_checked_inequality(self, sevenbus):
        # edge {2,7}: z = 0.5j so beta = 0, |gamma| = 2; bound = 0.1*(9800+10500)*2
        edge = sevenbus.edge_by_id[3]
        inv_z = 1 / edge.z
        spread = max(11000 - 10500, 10500 - 9800)
        bound = spread * abs(inv_z.real) + 0.1 * (9800 + 10500) * abs(inv_z.imag)
        assert bound == pytest.approx(4060.0)
        assert bound > edge.i_max  # hence it stays a problem edge

    def test_filter_soundness_on_fixture_trees(self, sevenbus):
        # with every edge in the problem set the filtered and full checks agree
        cfg = sevenbus.initial_configuration()
        report = full_report(sevenbus, cfg)
        filtered = problem_edges(sevenbus) & cfg.edges
        violating = {eid for eid, _, _ in report.current_violations}
        assert violating <= filtered


class TestOracleAccounting:
    def test_counts_each_call(self, sevenbus):
        oracle = ComplianceOracle(sevenbus)
        cfg = sevenbus.initial_configuration()
        oracle.passes(cfg)
        oracle.passes(cfg)
        assert oracle.calls == 2

    def test_failure_counts_and_reports_noncompliant(self, sevenbus):
        oracle = ComplianceOracle(sevenbus)
        broken = Configuration(sevenbus.active_ids - {2})
        assert not oracle.passes(broken)
        assert oracle.calls == 1

    def test_singular_system_reports_noncompliant(self):
        net = singular_leaf_network()
        oracle = ComplianceOracle(net)
        assert not oracle.passes(net.initial_configuration())
        assert oracle.calls == 1

    def test_unknown_edge_id_raises(self, sevenbus):
        oracle = ComplianceOracle(sevenbus)
        with pytest.raises(ValueError, match=r"unknown edge ids \[99\]"):
            oracle.passes(Configuration.of([99, 1, 2, 3, 4, 6]))


@st.composite
def branchy_grids(draw):
    """A random 3-12-node grid whose root OS node 0 heads 1-4 branches.

    Nodes 1..c hang off the root and every later node off an earlier non-root
    node, so the active tree has exactly c branches; 0-2 further OS nodes sit
    anywhere below the root, and 0-4 spare cables (to the root too) close
    loops.  Some cables are rated at zero, some loads are zero, and on some
    grids one MSR leaf's load cancels its cable, so that branch is singular.
    """
    n = draw(st.integers(3, 12), label="nodes")
    heads = draw(st.integers(1, min(4, n - 1)), label="branches")
    pairs = [(0, k) if k <= heads else (draw(st.integers(1, k - 1)), k) for k in range(1, n)]
    for _ in range(draw(st.integers(0, 4), label="spares")):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
        pairs.append((a, b))
    more_os = draw(st.sets(st.integers(1, n - 1), max_size=2), label="other OS")
    nodes = [Node(0, "OS", 10500.0, 0j, 10500.0, 10500.0)]
    for nid in range(1, n):
        if nid in more_os:
            u = draw(st.floats(10300.0, 10700.0))
            nodes.append(Node(nid, "OS", u, 0j, u, u))
            continue
        load = draw(st.one_of(
            st.just(0j),
            st.builds(complex, st.floats(0.0, 2e6), st.floats(-5e5, 5e5)),
        ))
        nodes.append(Node(nid, "MSR", 10500.0, load, 9800.0, 11000.0))
    edges = [
        Edge(
            eid,
            a,
            b,
            complex(draw(st.floats(0.01, 0.5)), draw(st.floats(0.0, 0.5))),
            draw(st.one_of(st.just(0.0), st.floats(1.0, 500.0))),
            eid <= n - 1,
        )
        for eid, (a, b) in enumerate(pairs, start=1)
    ]
    network = Network(nodes, edges)
    if draw(st.booleans(), label="singular branch"):
        network = cancel_a_leaf(network, network.initial_configuration(), draw)
    return network


class TestOracleVerdict:
    """``ComplianceOracle.passes``, which re-solves only the branches a
    configuration touches, against the full report of ``solve_tree`` and
    ``check_compliance``, with a non-tree or singular configuration read as
    non-compliant."""

    @staticmethod
    def reference(network, cfg):
        try:
            return check_compliance(network, cfg, solve_tree(network, cfg)).compliant
        except (NotSpanningTreeError, SingularSystemError):
            return False

    @settings(max_examples=150, deadline=None)
    @given(branchy_grids(), st.data())
    def test_passes_equals_reference(self, network, data):
        oracle = ComplianceOracle(network)
        base = network.initial_configuration()
        configs = [base]
        for k in (1, 2):
            if k <= len(network.inactive_ids):
                configs += [cfg for _, cfg in enumerate_reconfigurations(network, base, k)]
        ids = sorted(network.edge_by_id)
        tree_size = len(network.nodes) - 1
        for size in (tree_size, tree_size, data.draw(st.integers(0, len(ids)), label="size")):
            chosen = data.draw(st.lists(st.sampled_from(ids), min_size=size, max_size=size, unique=True))
            configs.append(Configuration.of(chosen))
        for calls, cfg in enumerate(configs, start=1):
            assert oracle.passes(cfg) == self.reference(network, cfg)
            assert oracle.calls == calls

        unknown = max(ids) + 1
        for cfg in (base.edges | {unknown}, base.edges - {min(base.edges)} | {unknown}):
            with pytest.raises(ValueError, match=rf"unknown edge ids \[{unknown}\]"):
                oracle.passes(Configuration(cfg))
        assert oracle.calls == len(configs) + 2

    @pytest.mark.parametrize("rating, passes", [(30.0, False), (60.0, True)])
    def test_deep_cable_overload_is_seen(self, rating, passes):
        """Moving node 6 from the branch 0-5-6 to the tail of 0-1-2-3-4 adds
        its load to every cable of the long branch.  Only the fourth one,
        (3, 4), is rated near that flow, so its verdict alone decides."""
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (4, 6)]
        net = make_network(7, pairs, {1, 2, 3, 4, 5, 6}, i_max={4: rating})
        oracle = ComplianceOracle(net)
        assert oracle.passes(net.initial_configuration())
        moved = Configuration.of([1, 2, 3, 4, 5, 7])
        report = full_report(net, moved)
        assert report.voltage_violations == ()
        assert [eid for eid, *_ in report.current_violations] == ([] if passes else [4])
        assert oracle.passes(moved) is passes
        assert oracle.screened == 0  # the walk, not the screen, sees cable 4


class TestOracleEarlyExit:
    """The oracle solves the new branches of a query largest first and stops
    at the first violation; each verdict equals the full report's.

    Branch A is 0-1-2 and branch B 0-3-4-5-6-7; tie 8 joins 2 and 7.
    Closing it and opening cable 7 moves node 7 into A, so the new A holds
    three nodes and the new B four.  A walks first (its head cable has the
    lower id), so only a largest-first solve sweeps B first.  A node draws
    about 19 A; the new heads carry 57.8 A (A) and 77.0 A (B), and their
    load floors alone prove 50.3 A and 67.1 A, so the screen answers a
    query whose rating lies below a floor without a sweep."""

    PAIRS = [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 7)]
    MOVED = Configuration.of([1, 2, 3, 4, 5, 6, 8])

    def grid(self, i_max, os_node=None):
        net = make_network(8, self.PAIRS, set(range(1, 8)), i_max=i_max)
        if os_node is None:
            return net
        nodes = [Node(n.id, "OS", 10499.0, 0j, 10499.0, 10499.0) if n.id == os_node else n for n in net.nodes]
        return Network(nodes, net.edges)

    @staticmethod
    def swept(oracle, cfg):
        """``oracle.passes(cfg)`` and each sweep's offsets by node id, in order."""
        sweeps, sweep = [], loadflow._sweep

        def recording(adm, order, *args):
            state = sweep(adm, order, *args)
            sweeps.append({adm.node_ids[v]: state[2][v] for v in order})
            return state

        with mock.patch.object(loadflow, "_sweep", recording):
            return oracle.passes(cfg), sweeps

    @pytest.mark.parametrize("i_max, violating, branches", [
        ({1: 50.0}, [1], []),  # A's floors exceed 50 A: screened, nothing swept
        ({1: 50.0, 3: 70.0}, [1, 3], []),
        ({1: 51.0}, [1], [{3, 4, 5, 6}, {1, 2, 7}]),  # only the smaller new branch violates
        ({1: 51.0, 3: 68.0}, [1, 3], [{3, 4, 5, 6}]),  # both do; the larger ends the query
    ])
    def test_first_violation_ends_the_query(self, i_max, violating, branches):
        net = self.grid(i_max)
        report = full_report(net, self.MOVED)
        assert report.voltage_violations == ()
        assert [eid for eid, *_ in report.current_violations] == violating
        oracle = ComplianceOracle(net)
        passes, sweeps = self.swept(oracle, self.MOVED)
        assert passes is False
        assert [set(offsets) for offsets in sweeps] == branches
        assert oracle.screened == (not branches)

    @pytest.mark.parametrize("factor", [0.999, 1.001])
    def test_second_os_node_in_a_touched_branch(self, factor):
        """OS node 5 feeds B's upper part, so nodes 3 and 4 carry nonzero
        offsets; B's head cable is rated within 0.1% of its current."""
        current = abs(full_report(self.grid({}, os_node=5), self.MOVED).currents[3])
        net = self.grid({3: current * factor}, os_node=5)
        oracle = ComplianceOracle(net)
        base = net.initial_configuration()
        for _, cfg in enumerate_reconfigurations(net, base, 1):
            assert oracle.passes(cfg) == full_report(net, cfg).compliant
        screened = oracle.screened
        passes, sweeps = self.swept(oracle, self.MOVED)
        assert oracle.screened == screened
        assert passes is (factor > 1) is full_report(net, self.MOVED).compliant
        offsets = sweeps[0]
        assert set(offsets) == {3, 4, 5, 6} and offsets[3] and offsets[4] and not offsets[6]


@st.composite
def stressed_grids(draw):
    """A random 4-14-node grid whose root OS node 0 heads 2-4 branches, with
    1-4 spare cables and no other OS node.  Loads reach 1.5 MW, a few of
    them negative, and impedances 2 + 2j ohm.  A base cable is rated 0.9-3
    times the load below it at nominal voltage, a spare up to 300 A, so the
    base tree mostly complies and switchovers fail by head overload, by
    under-voltage or by a hair, often enough for the screen to act."""
    n = draw(st.integers(4, 14), label="nodes")
    heads = draw(st.integers(2, min(4, n - 1)), label="branches")
    pairs = [(0, k) if k <= heads else (draw(st.integers(1, k - 1)), k) for k in range(1, n)]
    for _ in range(draw(st.integers(1, 4), label="spares")):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
        pairs.append((a, b))
    below = [0j] + [complex(draw(st.floats(-2e5, 1.5e6)), draw(st.floats(-3e5, 5e5))) for _ in range(1, n)]
    nodes = [Node(0, "OS", 10500.0, 0j, 10500.0, 10500.0)]
    nodes += [Node(nid, "MSR", 10500.0, below[nid], 9800.0, 11000.0) for nid in range(1, n)]
    for k in range(n - 1, 0, -1):  # each node's parent precedes it
        below[pairs[k - 1][0]] += below[k]
    edges = [
        Edge(eid, a, b, complex(draw(st.floats(1e-3, 2.0)), draw(st.floats(0.0, 2.0))),
             abs(below[b]) / 10500.0 * draw(st.floats(0.9, 3.0)) if eid < n else draw(st.floats(0.0, 300.0)),
             eid < n)
        for eid, (a, b) in enumerate(pairs, start=1)
    ]
    return Network(nodes, edges)


@pytest.fixture(scope="module")
def feeder_grid():
    """Builds the seed-1 feeder grid of ``benchmarks/feeders.py``, every MSR
    load rescaled to ``load_kw`` as ``scripts/ring_check.py`` does.
    ``benchmarks/`` is imported read-only: no bytecode is written there."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        mp.setattr(sys, "dont_write_bytecode", True)
        import feeders

    def build(count, length, ring, load_kw=None):
        doc = feeders.feeder_grid(count, length, 1, ring=ring)
        if load_kw is not None:
            for node in doc["nodes"]:
                if node["type"] == "MSR":
                    node["load"] = [part * load_kw * 1e3 / feeders.LOAD_W for part in node["load"]]
        return parse_network(json.dumps(doc))

    return build


class TestOracleScreen:
    """The screen answers False without a load flow, from load floors summed
    over the base tree.  It may act only on a switchover the full report of
    ``solve_tree`` and ``check_compliance`` finds non-compliant, and every
    verdict stays the report's."""

    @staticmethod
    def assert_sound(network, configs=()):
        """Every 1- and 2-switchover from the base tree, then ``configs``,
        through :meth:`ComplianceOracle.passes`; returns the oracle."""
        oracle = ComplianceOracle(network)
        base = network.initial_configuration()
        for k in (1, 2):
            if k <= len(network.inactive_ids):
                configs = [*(cfg for _, cfg in enumerate_reconfigurations(network, base, k)), *configs]
        for cfg in configs:
            screened = oracle.screened
            wanted = TestOracleVerdict.reference(network, cfg)
            assert oracle.passes(cfg) == wanted
            assert oracle.screened == screened or not wanted, sorted(cfg.edges)
        return oracle

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(branchy_grids(), grids_with_spares(), stressed_grids()), st.data())
    def test_screened_queries_fail_the_reference(self, network, data):
        ids = sorted(network.edge_by_id)
        size = len(network.nodes) - 1
        configs = [
            Configuration.of(data.draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n, unique=True)))
            for n in (size, size, data.draw(st.integers(0, len(ids)), label="size"))
        ]
        self.assert_sound(network, configs)

    @pytest.mark.parametrize("name", bundled_names())
    def test_bundled_networks(self, name):
        self.assert_sound(load_bundled(name))

    def test_feeder_grid(self, feeder_grid):
        assert self.assert_sound(feeder_grid(4, 25, ring=False)).screened > 0

    @pytest.mark.parametrize("k, grid, screened", [
        (1, (4, 25, False), 96),  # feeder-k1: 194 solves, 142 of them failing
        (2, (3, 12, True), 692),  # feeder-k2: 821 solves, 785 of them failing
        (2, (4, 50, True, 100.0), 129_525),  # 130,584 solves, failing by under-voltage
    ], ids=["feeder-k1", "feeder-k2", "ring-4x50-100kW"])
    def test_screened_on_the_benchmark_grids(self, feeder_grid, k, grid, screened):
        oracles = []
        init = ComplianceOracle.__init__

        def recording(self, *args):
            init(self, *args)
            oracles.append(self)

        with mock.patch.object(ComplianceOracle, "__init__", recording):
            check_n1(feeder_grid(*grid), k)
        (oracle,) = oracles
        assert oracle.screened == screened

    def test_negative_reactance_turns_the_screen_off(self):
        """One cable with x < 0 breaks the floors' sign argument, so no
        query of the grid is screened, while the same grid without it is."""
        net = TestOracleEarlyExit().grid({1: 50.0})
        assert self.assert_sound(net).screened > 0
        flipped = Network(net.nodes, [
            Edge(e.id, e.n, e.m, e.z.conjugate() if e.id == 5 else e.z, e.i_max, e.initially_active)
            for e in net.edges
        ])
        assert self.assert_sound(flipped).screened == 0

    def test_piece_holding_an_os_node_is_left_to_the_walk(self):
        """Branch A is 0-1-2-3 with OS node 3 at its tail, branch B 0-4-5.
        Closing tie 6 (2, 5) and opening cable 2 (1, 2) hangs the piece
        {2, 3} under node 5.  Its floors alone would overload B's 40 A head,
        but OS node 3 feeds B from the far end, so the switchover passes."""
        pairs = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (2, 5)]
        plain = make_network(6, pairs, {1, 2, 3, 4, 5}, i_max={4: 40.0})
        net = Network(
            [Node(3, "OS", 10500.0, 0j, 10500.0, 10500.0) if n.id == 3 else n for n in plain.nodes],
            plain.edges,
        )
        moved = Configuration.of([1, 3, 4, 5, 6])
        assert full_report(net, moved).compliant
        assert not full_report(plain, moved).compliant
        assert self.assert_sound(plain, [moved]).screened > 0
        oracle = self.assert_sound(net, [moved])
        assert oracle.screened == 0

    @pytest.mark.parametrize("load", [1.0 + 0.5j, 0j])
    def test_zero_rated_head_is_left_to_the_solve(self, load):
        """Cable 1 (0, 1) is rated at zero and node 1 draws nothing.  Closing
        tie 4 (1, 3) and opening cable 3 (2, 3) hangs node 3 under node 1, so
        cable 1 carries node 3's current: about 1e-4 A for a 1 W load, far
        above the floor ``tol``, and float noise for no load at all."""
        net = make_network(4, [(0, 1), (0, 2), (2, 3), (1, 3)], {1, 2, 3},
                           loads={1: 0j, 2: 0j, 3: load}, i_max={1: 0.0})
        moved = Configuration.of([1, 2, 4])
        assert full_report(net, moved).compliant is (load == 0)
        assert self.assert_sound(net, [moved]).screened == 0

    def test_zero_load_two_os_grid(self):
        """The currentless zero-rated cables of a zero-load grid with two OS
        nodes carry float noise only; their verdicts stay with the solve."""
        pairs = [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4), (1, 4)]
        zero = make_network(5, pairs, {1, 2, 3, 4}, loads=dict.fromkeys(range(5), 0j),
                            i_max=dict.fromkeys(range(1, 7), 0.0))
        net = Network(
            [Node(2, "OS", 10500.0, 0j, 10500.0, 10500.0) if n.id == 2 else n for n in zero.nodes],
            zero.edges,
        )
        assert self.assert_sound(net).screened == 0
