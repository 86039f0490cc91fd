import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsec.anneal import (
    AnnealSchedule,
    EnergyHistogram,
    SampleSet,
    _couplings,
    _wavefronts,
    auto_beta_range,
    energy_histogram,
    post_process,
    simulated_annealing,
    steepest_descent,
)
from gridsec.n1qubo import build_n1_qubo, build_tree_qubo, decode_solution
from gridsec.qubo import Qubo, brute_force_minimize, one_hot

from conftest import make_network


def triangle_tree_qubo():
    net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
    return build_tree_qubo(net, levels=3)


# ---------------------------------------------------------------------------
# reference oracles: the plain sequential sweep and the one-row descent that
# the wavefront sampler and the batched descent must reproduce exactly
# ---------------------------------------------------------------------------

def reference_annealing(qubo: Qubo, schedule: AnnealSchedule) -> SampleSet:
    """Index-order Metropolis sweep, one variable at a time."""
    n, reads = qubo.n, schedule.reads
    rng = np.random.Generator(np.random.Philox(key=schedule.seed))
    diag, sym = _couplings(qubo)
    beta_lo, beta_hi = schedule.beta_range or auto_beta_range(qubo)
    num_betas = max(1, schedule.sweeps // schedule.sweeps_per_beta)
    states = rng.integers(0, 2, size=(reads, n)).astype(np.float64)
    field_ = states @ sym

    def flip(i, accept):
        column = states[:, i]
        flips = np.where(accept, 1.0 - 2.0 * column, 0.0)
        states[:, i] = column + flips
        field_[:] += np.outer(flips, sym[i])

    for beta in np.geomspace(beta_lo, beta_hi, num_betas):
        for _ in range(schedule.sweeps_per_beta):
            uniforms = rng.random((n, reads))
            for i in range(n):
                delta_e = (1.0 - 2.0 * states[:, i]) * (diag[i] + field_[:, i])
                flip(i, uniforms[i] < np.exp(np.minimum(0.0, -beta * delta_e)))
    changed = True
    while changed:
        changed = False
        for i in range(n):
            delta_e = (1.0 - 2.0 * states[:, i]) * (diag[i] + field_[:, i])
            if np.any(delta_e < 0.0):
                changed = True
                flip(i, delta_e < 0.0)
    return SampleSet.from_states(qubo, states)


def reference_descent(qubo: Qubo, bits) -> np.ndarray:
    """Steepest descent of one bitstring, lowest index on ties."""
    diag, sym = _couplings(qubo)
    state = np.asarray(bits, dtype=np.float64).copy()
    field_ = sym @ state
    while True:
        delta_e = (1.0 - 2.0 * state) * (diag + field_)
        best = int(np.argmin(delta_e))
        if delta_e[best] >= 0.0:
            return state.astype(np.uint8)
        flip = 1.0 - 2.0 * state[best]
        state[best] += flip
        field_ += flip * sym[best]


def expand(samples: SampleSet) -> np.ndarray:
    """One row per read (multiplicities unrolled)."""
    return np.repeat(samples.samples, samples.multiplicities, axis=0)


def reference_post_process(qubo: Qubo, samples: SampleSet) -> SampleSet:
    rows = expand(samples)
    return SampleSet.from_states(qubo, np.stack([reference_descent(qubo, row) for row in rows]))


def assert_same_samples(a: SampleSet, b: SampleSet) -> None:
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.energies.tobytes() == b.energies.tobytes()
    assert a.multiplicities.tobytes() == b.multiplicities.tobytes()


@st.composite
def integer_qubos(draw):
    """QUBOs with small-integer coefficients: every field sum is exact in any
    order, so the wavefront schedule must match the sequential sweep bit for bit."""
    n = draw(st.integers(1, 16))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = {(i, i): float(rng.integers(-4, 5)) for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                coeffs[(i, j)] = float(rng.integers(-4, 5))
    return Qubo(n, coeffs)


class TestWavefronts:
    @staticmethod
    def assert_fronts_valid(sym: np.ndarray) -> None:
        fronts = _wavefronts(sym)
        for i, j in zip(*np.nonzero(np.triu(sym != 0.0, k=1))):
            assert fronts[i] < fronts[j]
        for front in range(fronts.max() + 1):
            members = np.flatnonzero(fronts == front)
            assert not np.any(sym[np.ix_(members, members)])

    @settings(max_examples=60, deadline=None)
    @given(integer_qubos())
    def test_random_fronts_independent_and_ordered(self, qubo):
        self.assert_fronts_valid(_couplings(qubo)[1])

    def test_n1_qubo_fronts(self, sevenbus):
        qubo, _ = build_n1_qubo(sevenbus, failing_edge=2, levels=4)
        self.assert_fronts_valid(_couplings(qubo)[1])

    def test_chain_and_empty(self):
        chain = Qubo(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0})
        assert list(_wavefronts(_couplings(chain)[1])) == [0, 1, 2, 3]
        assert list(_wavefronts(_couplings(Qubo(3, {}))[1])) == [0, 0, 0]


class TestMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(
        integer_qubos(),
        st.integers(0, 2**63 - 1),
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(1, 5),
        st.sampled_from([None, (0.05, 3.0), (0.5, 0.5)]),
    )
    def test_integer_qubos_byte_identical(self, qubo, seed, reads, rungs, per_rung, betas):
        schedule = AnnealSchedule(
            seed=seed, reads=reads, sweeps=rungs * per_rung,
            sweeps_per_beta=per_rung, beta_range=betas,
        )
        samples = simulated_annealing(qubo, schedule)
        assert_same_samples(samples, reference_annealing(qubo, schedule))
        start = SampleSet.from_states(
            qubo, np.random.default_rng(seed).integers(0, 2, size=(reads, qubo.n))
        )
        assert_same_samples(post_process(qubo, start), reference_post_process(qubo, start))

    def test_descent_matches_on_float_qubo(self):
        """Batched descent keeps the one-row float ops, so it matches the
        reference bit for bit on any coefficients."""
        qubo, _ = triangle_tree_qubo()
        rng = np.random.default_rng(17)
        start = SampleSet.from_states(qubo, rng.integers(0, 2, size=(40, qubo.n)))
        assert_same_samples(post_process(qubo, start), reference_post_process(qubo, start))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_anneal_n1_float_qubo_matches_reference(self, sevenbus, seed):
        """On the float N-1 QUBO only energy-neutral ties may break otherwise
        than in the sequential sweep: after descent the histogram and the
        first energy are the reference's."""
        qubo, layout = build_n1_qubo(sevenbus, failing_edge=2, levels=4)
        schedule = AnnealSchedule(
            seed=seed, reads=50, sweeps=100, sweeps_per_beta=20, beta_range=(0.02, 5.0)
        )
        samples = post_process(qubo, simulated_annealing(qubo, schedule))
        reference = post_process(qubo, reference_annealing(qubo, schedule))
        assert samples.first[1] == reference.first[1]
        assert (
            energy_histogram(qubo, samples, layout).to_csv()
            == energy_histogram(qubo, reference, layout).to_csv()
        )

    def test_anneal_n1_default_seed_pinned(self, sevenbus):
        """The benchmark's anneal-n1 job at seed 1.  The histogram and first
        energy are the sequential sweep's; the samples digest pins the
        energy-neutral voltage bits as fields computed from the state set them."""
        qubo, layout = build_n1_qubo(sevenbus, failing_edge=2, levels=4)
        schedule = AnnealSchedule(
            seed=1, reads=50, sweeps=100, sweeps_per_beta=20, beta_range=(0.02, 5.0)
        )
        samples = post_process(qubo, simulated_annealing(qubo, schedule))
        digest = hashlib.sha256(samples.samples.tobytes() + samples.multiplicities.tobytes())
        assert digest.hexdigest() == (
            "1c9ef7eadcdb99eac907fa1b39e3285773471b50e6b821a7c108a9d4249a9624"
        )
        assert len(samples) == 50
        assert samples.first[1] == 19.055731935331835
        # the histogram CSV as the per-sample dict-loop decoder tagged it
        csv = energy_histogram(qubo, samples, layout).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "1fa6fb134086048eb749a9ffef6b80f9286be8075b34ed8629065b962bbc8fec"
        )

    @pytest.mark.parametrize("sweeps", [1, 7, 21, 40])
    def test_energy_neutral_bit_flips_every_sweep(self, sweeps):
        """Variable 1 has no terms, so every Metropolis proposal accepts it and
        the final descent, which needs dE < 0, never flips it: each read ends
        with its initial bit flipped once a sweep."""
        qubo = Qubo(3, {(0, 0): 1.0, (0, 2): -2.5, (2, 2): 0.75})
        reads, seed = 64, 0
        schedule = AnnealSchedule(seed=seed, reads=reads, sweeps=sweeps, sweeps_per_beta=1)
        samples = simulated_annealing(qubo, schedule)
        rng = np.random.Generator(np.random.Philox(key=seed))
        initial = rng.integers(0, 2, size=(reads, qubo.n))[:, 1]
        assert 2 * initial.sum() != reads  # the two parities give different counts
        ones = int(samples.samples[:, 1].astype(np.int64) @ samples.multiplicities)
        assert ones == int((initial ^ (sweeps % 2)).sum())


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(seed=1, reads=0)
        with pytest.raises(ValueError):
            AnnealSchedule(seed=1, sweeps=5, sweeps_per_beta=10)
        with pytest.raises(ValueError):
            AnnealSchedule(seed=1, beta_range=(1.0, 0.5))

    @pytest.mark.parametrize(
        "betas", [(0.1, np.inf), (np.inf, np.inf), (0.1, np.nan), (np.nan, 1.0)]
    )
    def test_non_finite_beta_rejected(self, betas):
        with pytest.raises(ValueError, match="beta range needs finite"):
            AnnealSchedule(seed=1, beta_range=betas)

    def test_sweeps_multiple_of_sweeps_per_beta(self):
        with pytest.raises(ValueError, match="got 45/20"):
            AnnealSchedule(seed=1, sweeps=45, sweeps_per_beta=20)
        assert AnnealSchedule(seed=1, sweeps=40, sweeps_per_beta=20).sweeps == 40

    def test_auto_beta_range_scales(self):
        q = Qubo(2, {(0, 0): 4.0, (0, 1): -2.0, (1, 1): 0.5})
        lo, hi = auto_beta_range(q)
        assert lo == pytest.approx(np.log(2) / 6.0)
        assert hi == pytest.approx(np.log(100) / 0.5)

    def test_auto_beta_range_degenerate(self):
        assert auto_beta_range(Qubo(3, {})) == (0.1, 1.0)


class TestSampler:
    def test_trivial_landscape(self):
        q = Qubo(6, {(i, i): 1.0 for i in range(6)})
        samples = simulated_annealing(q, AnnealSchedule(seed=3, reads=40, sweeps=200, sweeps_per_beta=5))
        at_zero = sum(m for _, e, m in samples if e == 0.0)
        assert at_zero >= 38  # all-zeros found in nearly every read

    def test_triangle_reaches_global_minimum(self):
        qubo, _ = triangle_tree_qubo()
        reference = brute_force_minimize(qubo)
        samples = simulated_annealing(
            qubo, AnnealSchedule(seed=7, reads=100, sweeps=1000, sweeps_per_beta=10)
        )
        assert samples.first[1] == reference.energy

    def test_seed_reproducibility(self):
        qubo, _ = triangle_tree_qubo()
        schedule = AnnealSchedule(seed=99, reads=20, sweeps=300, sweeps_per_beta=10)
        a = simulated_annealing(qubo, schedule)
        b = simulated_annealing(qubo, schedule)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.multiplicities, b.multiplicities)

    def test_different_seeds_differ(self):
        qubo, _ = triangle_tree_qubo()
        a = simulated_annealing(qubo, AnnealSchedule(seed=1, reads=20, sweeps=100, sweeps_per_beta=5))
        b = simulated_annealing(qubo, AnnealSchedule(seed=2, reads=20, sweeps=100, sweeps_per_beta=5))
        assert not (
            np.array_equal(a.samples, b.samples)
            and np.array_equal(a.multiplicities, b.multiplicities)
        )

    def test_overflowing_fields_rejected(self):
        # every coefficient is finite, but variable 0's flip bound is not
        q = Qubo(2, {(0, 0): 1e308, (0, 1): 1e308})
        schedule = AnnealSchedule(seed=1, reads=2, sweeps=10, sweeps_per_beta=10, beta_range=(0.1, 1.0))
        for sample in (lambda: simulated_annealing(q, schedule), lambda: steepest_descent(q, [0, 0])):
            with pytest.raises(ValueError, match="coefficients of QUBO variable 0 sum beyond the float range"):
                sample()

    def test_sampleset_sorted_and_totals(self):
        qubo, _ = triangle_tree_qubo()
        samples = simulated_annealing(
            qubo, AnnealSchedule(seed=5, reads=64, sweeps=200, sweeps_per_beta=5)
        )
        assert samples.total_reads == 64
        assert list(samples.energies) == sorted(samples.energies)
        energies = qubo.energies(samples.samples)
        assert np.allclose(energies, samples.energies)


class TestSampleSet:
    def test_order_is_energy_then_bytes(self):
        """Rows sort by energy, ties by their bytes, as a Python sort on
        (energy, bytes) orders them."""
        qubo = Qubo(6, {(0, 0): 1.0, (1, 1): 1.0, (2, 2): -1.0, (0, 3): 2.0, (4, 5): -1.0})
        rng = np.random.default_rng(3)
        for _ in range(20):
            samples = SampleSet.from_states(qubo, rng.integers(0, 2, size=(30, qubo.n)))
            keys = [(e, bits.tobytes()) for bits, e in zip(samples.samples, samples.energies)]
            assert keys == sorted(keys)
            assert len(set(samples.energies)) < len(samples)  # ties were exercised

    @given(
        width=st.integers(1, 70),
        reads=st.integers(0, 60),
        kind=st.sampled_from(("random", "few", "equal")),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_dedup_matches_unique_rows(self, width, reads, kind, seed):
        """Samples, energies and multiplicities are those of np.unique over
        whole rows, byte for byte, at widths off the packed byte boundary,
        for one variable, all-equal rows and no rows."""
        rng = np.random.default_rng(seed)
        qubo = Qubo(width, {(i, (i + 1) % width): float(rng.integers(-2, 3)) for i in range(width)})
        if kind == "random":
            states = rng.integers(0, 2, size=(reads, width))
        elif kind == "few":
            states = rng.integers(0, 2, size=(3, width))[rng.integers(0, 3, size=reads)]
        else:
            states = np.full((reads, width), seed % 2)
        samples = SampleSet.from_states(qubo, states > 0)
        if not reads:
            assert samples.samples.shape == (0, width) and samples.total_reads == 0
            return
        unique, counts = np.unique(states.astype(np.uint8), axis=0, return_counts=True)
        energies = qubo.energies(unique)
        order = np.argsort(energies, kind="stable")
        assert samples.samples.dtype == np.uint8
        assert samples.samples.tobytes() == unique[order].tobytes()
        assert samples.energies.tobytes() == energies[order].tobytes()
        assert samples.multiplicities.tobytes() == counts[order].tobytes()

    def test_sample_sets_compare_by_identity(self):
        """The fields are arrays, so value equality would raise; two sample
        sets over the same rows compare by identity and hash without
        touching them."""
        qubo = Qubo(3, {(0, 1): 1.0, (2, 2): -1.0})
        rows = np.array([[0, 1, 1], [1, 1, 0], [0, 1, 1]])
        first, second = (SampleSet.from_states(qubo, rows) for _ in range(2))
        assert first == first
        assert first != second
        assert len({first, second, first}) == 2


class TestSteepestDescent:
    def test_local_minimum_is_fixed_point(self):
        q = Qubo(3, {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0})
        state = steepest_descent(q, [0, 0, 0])
        assert list(state) == [0, 0, 0]

    def test_one_hot_from_empty(self):
        penalty, _ = one_hot([0, 1, 2])
        state = steepest_descent(penalty, [0, 0, 0])
        assert penalty.evaluate(state) == 0.0
        assert sum(state) == 1

    def test_never_increases_energy(self):
        qubo, _ = triangle_tree_qubo()
        rng = np.random.default_rng(11)
        for _ in range(50):
            start = rng.integers(0, 2, qubo.n)
            end = steepest_descent(qubo, start)
            assert qubo.evaluate(end) <= qubo.evaluate(start)

    def test_idempotent(self):
        qubo, _ = triangle_tree_qubo()
        rng = np.random.default_rng(13)
        for _ in range(20):
            start = rng.integers(0, 2, qubo.n)
            once = steepest_descent(qubo, start)
            twice = steepest_descent(qubo, once)
            assert np.array_equal(once, twice)

    def test_post_process_counts(self):
        """Descent never loses feasible samples on the tree QUBO."""
        qubo, layout = triangle_tree_qubo()
        samples = simulated_annealing(
            qubo, AnnealSchedule(seed=21, reads=60, sweeps=60, sweeps_per_beta=3)
        )
        descended = post_process(qubo, samples)
        assert descended.total_reads == samples.total_reads

        def feasible_count(sample_set):
            return sum(
                m for bits, _, m in sample_set if decode_solution(bits, layout).feasible
            )

        assert feasible_count(descended) >= feasible_count(samples)
        paired = zip(
            sorted(qubo.energies(expand(samples))),
            sorted(qubo.energies(expand(descended))),
        )
        # energy distribution is pointwise no worse after descent
        assert all(after <= before + 1e-12 for before, after in paired)


class TestHistogram:
    def test_counts_and_tags(self):
        qubo, layout = triangle_tree_qubo()
        samples = simulated_annealing(
            qubo, AnnealSchedule(seed=31, reads=80, sweeps=400, sweeps_per_beta=10)
        )
        histogram = energy_histogram(qubo, samples, layout)
        assert histogram.total == 80
        for energy, (feasible, infeasible) in histogram.bins.items():
            if feasible:
                # constraint-satisfying reads sit at even switch counts
                assert energy == pytest.approx(round(energy))
                assert round(energy) % 2 == 0

    def test_all_feasible_synthetic(self):
        qubo, layout = triangle_tree_qubo()
        # hand-build a sample set out of the three valid tree encodings
        from conftest import spanning_trees
        from gridsec.network import Configuration

        net = make_network(3, [(0, 1), (1, 2), (0, 2)], {1, 2})
        rows = np.stack(
            [
                layout.encode_tree(net, Configuration(tree), root=0)
                for tree in spanning_trees(net)
            ]
        )
        samples = SampleSet.from_states(qubo, rows)
        histogram = energy_histogram(qubo, samples, layout)
        assert all(infeasible == 0 for _, infeasible in histogram.bins.values())
        assert histogram.total == 3

    @pytest.mark.parametrize("case", ["anneal-n1", "triangle"])
    def test_feasibility_agrees_with_decoder(self, sevenbus, case):
        """Every distinct sample is tagged alike by the histogram's batched
        pass and by decode_solution: the anneal-n1 job at seeds 1-3 (all
        infeasible at this schedule) and the triangle tree QUBO, whose
        samples include feasible ones."""
        if case == "anneal-n1":
            qubo, layout = build_n1_qubo(sevenbus, failing_edge=2, levels=4)
            schedule = dict(reads=50, sweeps=100, sweeps_per_beta=20, beta_range=(0.02, 5.0))
        else:
            qubo, layout = triangle_tree_qubo()
            schedule = dict(reads=80, sweeps=400, sweeps_per_beta=10)
        tags = []
        for seed in (1, 2, 3):
            samples = simulated_annealing(qubo, AnnealSchedule(seed=seed, **schedule))
            samples = post_process(qubo, samples)
            for k, (bits, _, _) in enumerate(samples):
                single = SampleSet(samples.samples[k:k + 1], samples.energies[k:k + 1],
                                   np.ones(1, dtype=np.int64))
                (feasible, _), = energy_histogram(qubo, single, layout).bins.values()
                tags.append(bool(feasible))
                assert tags[-1] == decode_solution(bits, layout).feasible
        assert any(tags) == (case == "triangle")

    def test_empty_sample_set(self):
        qubo, layout = triangle_tree_qubo()
        empty = SampleSet.from_states(qubo, np.zeros((0, qubo.n)))
        histogram = energy_histogram(qubo, empty, layout)
        assert histogram.bins == {}
        assert histogram.total == 0

    def test_csv_round_shape(self):
        histogram = EnergyHistogram({0.0: (3, 0), 2.0: (1, 4)})
        lines = histogram.to_csv().strip().splitlines()
        assert lines[0] == "energy,feasible,infeasible"
        assert len(lines) == 3
