"""Self-tests of the benchmark's generator, verifier and tracer, at tiny sizes.

    python3 benchmarks/selftest.py

Kept out of the package's pytest suite on purpose: they test the
benchmark, not gridsec.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from gridsec import classical, network, qubo  # noqa: E402

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from feeders import feeder_grid, feeder_grid_json  # noqa: E402
from run import tail  # noqa: E402


def topology(doc):
    return [(e["id"], e["n"], e["m"], e["active"], e["i_max"]) for e in doc["edges"]]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_grid(self):
        self.assertEqual(feeder_grid_json(3, 4, 7), feeder_grid_json(3, 4, 7))

    def test_seed_moves_values_not_topology(self):
        a, b = feeder_grid(3, 4, 1, ring=True), feeder_grid(3, 4, 2, ring=True)
        self.assertEqual(topology(a), topology(b))
        self.assertNotEqual([n["load"] for n in a["nodes"]], [n["load"] for n in b["nodes"]])

    def test_shape_and_parse(self):
        for ring, pairs in ((False, 2), (True, 3)):
            grid = network.parse_network(feeder_grid_json(3, 4, 1, ring=ring))
            self.assertEqual(len(grid.nodes), 1 + 3 * 4)
            self.assertEqual(len(grid.active_ids), 3 * 4)
            self.assertEqual(len(grid.inactive_ids), 2 * pairs)

    def test_rejects_degenerate_shapes(self):
        for kwargs in ({"feeders": 1, "length": 4}, {"feeders": 3, "length": 1},
                       {"feeders": 2, "length": 4, "ring": True}):
            with self.assertRaises(ValueError):
                feeder_grid(seed=1, **kwargs)


class VerifierTest(unittest.TestCase):
    def setUp(self):
        self.text = feeder_grid_json(3, 4, 1, ring=True)
        self.report = classical.check_n1(network.parse_network(self.text), 2)
        self.grid = verify.Grid(json.loads(self.text))
        self.verdicts = {eid: (v.status, v.k, *workloads._witness(v))
                         for eid, v in self.report.per_edge.items()}

    def test_tiny_grid_has_both_secure_kinds_and_passes(self):
        statuses = {v[0] for v in self.verdicts.values()}
        self.assertTrue({verify.SECURE_K1, verify.SECURE_KN} <= statuses)
        self.assertEqual(verify.check_verdicts(self.grid, self.verdicts, 2), {})

    def test_corrupted_witness_counts_as_failed(self):
        eid = next(e for e, v in sorted(self.verdicts.items()) if v[0] == verify.SECURE_K1)
        status, k, activate, deactivate = self.verdicts[eid]
        # a tie whose cycle misses the failing edge leaves nodes stranded
        other = next(t for t in sorted(self.grid.inactive)
                     if not self.grid.is_spanning_tree(self.grid.active - set(deactivate) | {t}))
        self.verdicts[eid] = (status, k, (other,), deactivate)
        self.assertEqual(set(verify.check_verdicts(self.grid, self.verdicts, 2)), {eid})

        wl = workloads.FeederCheck("tiny", 3, 4, True, 2)
        report = self.report
        real = report.per_edge[eid]
        report.per_edge[eid] = classical.EdgeVerdict(
            real.status, real.k, network.Switchover.of([other], real.witness.deactivate))
        try:
            checked = wl.check(self.text, report, seed=workloads.DEFAULT_SEED + 1)
        finally:
            report.per_edge[eid] = real
        self.assertEqual(checked.failed, 1)
        self.assertTrue(checked.problems)

    def test_false_insecure_is_caught(self):
        eid = next(e for e, v in sorted(self.verdicts.items()) if v[0] == verify.SECURE_K1)
        self.verdicts[eid] = (verify.INSECURE, None, (), ())
        self.assertIn(eid, verify.check_verdicts(self.grid, self.verdicts, 2))

    def test_independent_load_flow_matches_library(self):
        from gridsec import loadflow

        tree = sorted(self.grid.active)
        ours = self.grid.voltages(tree)
        theirs = loadflow.solve_loadflow(
            loadflow.assemble_system(network.parse_network(self.text), network.Configuration.of(tree))).u
        for nid, value in ours.items():
            self.assertAlmostEqual(abs(value - theirs[nid]), 0.0, delta=1e-6)

    def test_qubo_energies_from_coefficients(self):
        rng = np.random.default_rng(3)
        coeffs = {(int(i), int(j)): float(rng.normal()) for i, j in rng.integers(0, 6, size=(12, 2))}
        q = qubo.Qubo(6, coeffs, offset=1.5)
        bits = rng.integers(0, 2, size=(20, 6))
        expected = [q.evaluate(row) for row in bits]
        got = verify.qubo_energies(q.n, q.coeffs, q.offset, bits)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


class TracerTest(unittest.TestCase):
    def test_missing_target_reports_zero_calls(self):
        tracer = spans.Tracer()
        tracer.patch("loadflow.gone", "gridsec.loadflow", "no_such_function")
        tracer.patch("nowhere.gone", "gridsec.no_such_module", "anything")
        self.assertEqual(tracer.missing, ["loadflow.gone", "nowhere.gone"])
        self.assertEqual(tracer.durations_ns("loadflow.gone"), [])

    def test_patch_sees_calls_through_other_modules_and_restores(self):
        original = network.is_spanning_tree
        tracer = spans.Tracer()
        tracer.patch("network.is_spanning_tree", "gridsec.network", "is_spanning_tree")
        try:
            classical.check_n1(network.parse_network(feeder_grid_json(3, 4, 1, ring=True)), 1)
        finally:
            tracer.restore()
        self.assertIs(network.is_spanning_tree, original)
        self.assertIs(classical.is_spanning_tree, original)
        self.assertGreater(len(tracer.durations_ns("network.is_spanning_tree")), 0)

    def test_self_time_subtracts_children(self):
        tracer = spans.Tracer()
        inner = tracer.wrap(lambda: sum(range(1000)), "inner")
        outer = tracer.wrap(lambda: inner() + inner(), "outer")
        outer()
        own = tracer.self_times_ns()
        (o,) = tracer.by_name("outer")
        children = sum(tracer.durations_ns("inner"))
        self.assertEqual(own[o], tracer.durations_ns("outer")[0] - children)


class TailTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(tail(list(range(1, 6))), (100.0, 5))
        self.assertEqual(tail(list(range(1, 21)))[0], 50.0)
        self.assertEqual(tail(list(range(1, 101)))[0], 90.0)
        self.assertEqual(tail(list(range(1, 1001))), (99.0, 990))


if __name__ == "__main__":
    unittest.main()
