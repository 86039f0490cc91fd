import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsec.qubo import (
    PolyTerm,
    Qubo,
    QuboBuilder,
    VarAllocator,
    brute_force_minimize,
    default_reduction_weight,
    domain_wall,
    domain_wall_decode,
    domain_wall_level_terms,
    linear_equality_penalty,
    one_hot,
    pair_reduction_penalty,
    polynomial_to_qubo,
    reduce_polynomial,
)


def all_bitstrings(n):
    return itertools.product((0, 1), repeat=n)


def reference_evaluate(qubo, bits):
    """The dict-loop energy the dense path replaced: one term per key."""
    x = np.asarray(bits, dtype=np.float64)
    energy = qubo.offset
    for (i, j), q in qubo.coeffs.items():
        if i == j:
            energy += q * x[i]
        else:
            energy += q * x[i] * x[j]
    return float(energy)


@st.composite
def qubos_and_bits(draw):
    n = draw(st.integers(0, 24))
    keys = st.tuples(st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1)))
    value = st.floats(-1e6, 1e6, allow_nan=False)
    coeffs = draw(st.dictionaries(keys, value, max_size=80)) if n else {}
    qubo = Qubo(n, coeffs, offset=draw(value))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return qubo, bits


class TestEvaluate:
    def test_diagonal(self):
        q = Qubo(2, {(0, 0): 1.0, (1, 1): 2.0})
        assert q.evaluate([1, 1]) == 3.0

    def test_coupler(self):
        q = Qubo(2, {(0, 1): 5.0})
        assert q.evaluate([1, 1]) == 5.0
        assert q.evaluate([1, 0]) == 0.0

    def test_key_order_normalized(self):
        assert Qubo(2, {(1, 0): 5.0}) == Qubo(2, {(0, 1): 5.0})
        assert Qubo(2, {(1, 0): 2.0, (0, 1): 3.0}).evaluate([1, 1]) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Qubo(2, {}).evaluate([1])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        q = Qubo(5, {(i, j): float(rng.normal()) for i in range(5) for j in range(i, 5)}, offset=0.3)
        batch = rng.integers(0, 2, size=(20, 5))
        energies = q.energies(batch)
        for row, energy in zip(batch, energies):
            assert energy == pytest.approx(q.evaluate(row))

    @settings(max_examples=200, deadline=None)
    @given(qubos_and_bits())
    def test_dense_energy_matches_dict_loop(self, case):
        """Both summation orders agree to rounding of the total magnitude
        (every coefficient and the offset)."""
        qubo, bits = case
        scale = 1.0 + abs(qubo.offset) + sum(abs(q) for q in qubo.coeffs.values())
        assert abs(qubo.evaluate(bits) - reference_evaluate(qubo, bits)) <= 1e-12 * scale

    def test_dense_matrix_cached_read_only(self):
        q = Qubo(3, {(0, 0): 1.0, (2, 1): -2.0})
        dense = q.to_dense()
        assert q.to_dense() is dense
        assert dense[1, 2] == -2.0 and dense[2, 1] == 0.0
        with pytest.raises(ValueError):
            dense[0, 0] = 5.0

    def test_export_round_trip(self):
        q = Qubo(3, {(0, 0): 0.1, (0, 2): -2.5, (1, 2): 1 / 3}, offset=-0.75)
        text = q.dumps(labels=["a", "b", "c"])
        back, labels = Qubo.loads(text)
        assert back == q
        assert labels == {0: "a", 1: "b", 2: "c"}


class TestPenaltyBuilders:
    def test_linear_equality_examples(self):
        p = linear_equality_penalty([(0, 1.0), (1, 1.0)], 1.0)
        values = {bits: p.evaluate(bits) for bits in all_bitstrings(2)}
        assert values == {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}

        p2 = linear_equality_penalty([(0, 2.0)], 2.0)
        assert p2.evaluate([1]) == 0.0
        assert p2.evaluate([0]) == 4.0

    def test_one_hot_matches_equality_penalty(self):
        assert one_hot([0, 1, 2])[0] == linear_equality_penalty(
            [(0, 1.0), (1, 1.0), (2, 1.0)], 1.0
        )

    def test_one_hot_decoding(self):
        penalty, decode = one_hot([0, 1, 2])
        assert penalty.evaluate([1, 0, 0]) == 0.0 and decode([1, 0, 0]) == 0
        assert penalty.evaluate([0, 1, 0]) == 0.0 and decode([0, 1, 0]) == 1
        assert penalty.evaluate([0, 0, 0]) == 1.0 and decode([0, 0, 0]) is None
        assert penalty.evaluate([1, 1, 0]) == 1.0 and decode([1, 1, 0]) is None

    @given(st.integers(2, 6))
    def test_one_hot_zero_iff_single_bit(self, width):
        penalty, _ = one_hot(list(range(width)))
        for bits in all_bitstrings(width):
            value = penalty.evaluate(bits)
            assert value >= 0.0
            assert (value == 0.0) == (sum(bits) == 1)

    def test_domain_wall_examples(self):
        penalty, decode = domain_wall([0, 1, 2, 3])
        assert penalty.evaluate([0, 1, 1, 1]) == 0.0
        assert penalty.evaluate([1, 0, 1, 1]) == 1.0
        assert penalty.evaluate([1, 1, 1, 1]) == 0.0 and decode([1, 1, 1, 1]) == 0
        assert penalty.evaluate([0, 0, 0, 0]) == 0.0 and decode([0, 0, 0, 0]) == 4
        assert decode([1, 0, 1, 1]) is None

    @given(st.integers(1, 7))
    def test_domain_wall_zero_iff_monotone(self, width):
        penalty, _ = domain_wall(list(range(width)))
        for bits in all_bitstrings(width):
            value = penalty.evaluate(bits)
            monotone = all(a <= b for a, b in zip(bits, bits[1:]))
            assert value >= 0.0
            assert (value == 0.0) == monotone
            assert (domain_wall_decode(bits) is not None) == monotone

    @given(st.integers(1, 6))
    def test_domain_wall_level_indicator(self, width):
        variables = list(range(width))
        for bits in all_bitstrings(width):
            level = domain_wall_decode(bits)
            if level is None:
                continue
            for option in range(width + 1):
                terms, const = domain_wall_level_terms(variables, option)
                value = const + sum(c * bits[v] for v, c in terms.items())
                assert value == (1.0 if option == level else 0.0)

    def test_builder_square_merges_repeats(self):
        builder = QuboBuilder()
        builder.add_square({0: 1.0, 1: 2.0}, -1.0)
        q = builder.build()
        for bits in all_bitstrings(2):
            expected = (bits[0] + 2 * bits[1] - 1.0) ** 2
            assert q.evaluate(bits) == pytest.approx(expected)


class TestBuilder:
    @staticmethod
    def random_builder(seed, coeff=float):
        rng = np.random.default_rng(seed)
        builder = QuboBuilder()
        for _ in range(400):
            i, j = (int(v) for v in rng.integers(0, 30, size=2))
            builder.add(i, j, coeff(rng.normal()))
        builder.add(4, 2, 3)  # an int coefficient
        builder.add_square({7: 0.5, 3: -1.25, 40: 2.0}, -0.75)
        builder.add_product({1: 2.0, 5: -1.0}, 0.5, {5: 3.0, 9: 1.0}, -2.0)
        builder.add_qubo(pair_reduction_penalty(6, 8, 33), coeff(2.5))
        builder.add_offset(coeff(1.5))
        return builder

    @pytest.mark.parametrize("coeff", [float, np.float64], ids=["float", "numpy"])
    def test_build_matches_validating_constructor(self, coeff):
        for seed in range(5):
            builder = self.random_builder(seed, coeff)
            for size in (None, 60):
                built = builder.build(size)
                reference = Qubo(size or builder.n, dict(builder._coeffs), builder._offset)
                assert (built.n, built.offset) == (reference.n, reference.offset)
                assert list(built.coeffs.items()) == list(reference.coeffs.items())
                assert all(type(v) is float for v in built.coeffs.values())
                assert type(built.offset) is float
                assert built.dumps() == reference.dumps()

    def test_build_is_a_snapshot(self):
        builder = QuboBuilder()
        builder.add(0, 1, 1.0)
        built = builder.build()
        builder.add(0, 1, 1.0)
        builder.add(2, 2, 1.0)
        assert (built.n, built.coeffs) == (2, {(0, 1): 1.0})

    def test_negative_index_rejected_at_add(self):
        builder = QuboBuilder()
        builder.add(0, 1, 1.0)
        for i, j in ((-1, 2), (2, -1), (-3, -3)):
            with pytest.raises(ValueError, match="non-negative"):
                builder.add(i, j, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            builder.add_linear(-1, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            QuboBuilder(-1)
        assert (builder.n, builder.build().coeffs) == (2, {(0, 1): 1.0})

    def test_build_below_highest_variable_raises(self):
        builder = QuboBuilder(3)
        builder.add(7, 4, 1.0)
        with pytest.raises(ValueError, match="requested size 7 below highest variable 7"):
            builder.build(7)
        assert builder.build(8).n == 8
        assert builder.build().n == 8


class TestDegreeReduction:
    def test_pair_penalty_table(self):
        p = pair_reduction_penalty(0, 1, 2)
        assert p.evaluate([1, 1, 1]) == 0.0
        assert p.evaluate([1, 1, 0]) == 1.0
        assert p.evaluate([0, 0, 1]) == 3.0
        for bits in all_bitstrings(3):
            value = p.evaluate(bits)
            assert value >= 0.0
            assert (value == 0.0) == (bits[0] * bits[1] == bits[2])

    def test_single_term_reduction(self):
        alloc = VarAllocator(labels=["a", "b", "c"])
        term = PolyTerm((0, 1, 2), 2.5)
        quadratic, penalty, subs = reduce_polynomial([term], alloc)
        assert all(t.degree <= 2 for t in quadratic)
        assert len(subs) == 1
        weight = default_reduction_weight([term])
        builder = QuboBuilder(alloc.count)
        builder.add_qubo(polynomial_to_qubo(quadratic, alloc.count))
        builder.add_qubo(penalty, weight)
        reduced = builder.build()
        for bits in all_bitstrings(3):
            best = min(
                reduced.evaluate(list(bits) + list(aux))
                for aux in all_bitstrings(alloc.count - 3)
            )
            assert best == pytest.approx(term.evaluate(bits))
        # a term of degree below three passes through without an auxiliary bit
        low = PolyTerm((0, 1), 1.5)
        assert reduce_polynomial([low], alloc) == ([low], Qubo(alloc.count, {}), {})

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_polynomial_minima_preserved(self, data):
        n = data.draw(st.integers(3, 6), label="variables")
        n_terms = data.draw(st.integers(1, 5), label="terms")
        terms = []
        for k in range(n_terms):
            degree = data.draw(st.integers(1, min(4, n)), label=f"degree{k}")
            variables = tuple(
                sorted(
                    data.draw(
                        st.sets(st.integers(0, n - 1), min_size=degree, max_size=degree),
                        label=f"vars{k}",
                    )
                )
            )
            coeff = data.draw(
                st.floats(-5, 5, allow_nan=False, allow_infinity=False), label=f"coeff{k}"
            )
            terms.append(PolyTerm(variables, coeff))

        alloc = VarAllocator(labels=[f"x{i}" for i in range(n)])
        quadratic, penalty, _ = reduce_polynomial(terms, alloc)
        assert all(t.degree <= 2 for t in quadratic)
        weight = default_reduction_weight(terms)
        builder = QuboBuilder(alloc.count)
        builder.add_qubo(polynomial_to_qubo(quadratic, alloc.count))
        builder.add_qubo(penalty, weight)
        reduced = builder.build()
        n_aux = alloc.count - n
        for bits in all_bitstrings(n):
            original = sum(t.evaluate(bits) for t in terms)
            best = min(
                reduced.evaluate(list(bits) + list(aux)) for aux in all_bitstrings(n_aux)
            )
            assert best == pytest.approx(original, abs=1e-9)

    def test_shared_pair_reuses_aux(self):
        alloc = VarAllocator(labels=["a", "b", "c", "d"])
        terms = [PolyTerm((0, 1, 2), 1.0), PolyTerm((0, 1, 3), 1.0)]
        _, _, subs = reduce_polynomial(terms, alloc)
        assert len(subs) == 1  # the (0, 1) pair occurs twice and is shared


class TestBruteForce:
    def test_all_ones_diagonal(self):
        q = Qubo(4, {(i, i): 1.0 for i in range(4)})
        result = brute_force_minimize(q)
        assert result.argmin == (0, 0, 0, 0)
        assert result.energy == 0.0
        assert result.num_minima == 1

    def test_one_hot_has_three_minima(self):
        penalty, _ = one_hot([0, 1, 2])
        result = brute_force_minimize(penalty)
        assert result.energy == 0.0
        assert result.num_minima == 3
        assert result.argmin == (0, 0, 1)  # lexicographically smallest minimizer

    def test_guard(self):
        with pytest.raises(ValueError, match="26"):
            brute_force_minimize(Qubo(27, {}))

    def test_matches_exhaustive_reference(self):
        rng = np.random.default_rng(42)
        q = Qubo(
            8,
            {(i, j): float(rng.normal()) for i in range(8) for j in range(i, 8)},
            offset=float(rng.normal()),
        )
        energies = {bits: q.evaluate(bits) for bits in all_bitstrings(8)}
        best = min(energies.values())
        expected_argmin = min(b for b, e in energies.items() if e == best)
        result = brute_force_minimize(q, chunk_bits=5)  # force multiple chunks
        assert result.energy == pytest.approx(best, rel=1e-12)  # summation order differs
        assert result.argmin == expected_argmin
        assert result.num_minima == sum(1 for e in energies.values() if e == best)
