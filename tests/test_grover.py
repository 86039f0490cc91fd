import contextlib
import io
import itertools
import json
import math
import random
import tracemalloc
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsec import grover as grover_module
from gridsec.classical import enumerate_reconfigurations
from gridsec.cli import main
from gridsec.datasets import bundled_path, load_bundled
from gridsec.grover import (
    _sample,
    Oracle,
    SearchFailure,
    SearchSpace,
    SearchSpaceError,
    classical_scan,
    grover_search,
    index_reconfigurations,
    make_oracle,
    optimal_iterations,
    success_probability,
)
from gridsec.loadflow import ComplianceOracle
from gridsec.network import Switchover, apply_switchover, is_spanning_tree

from conftest import compliant, grover_iterate, uniform_state

BUNDLED_NETWORKS = ("demo_double_switch", "demo_single_switch", "sevenbus")
GROVER_CLI_CASES = json.loads(
    (Path(__file__).parent / "data" / "grover_cli_seed11.json").read_text()
)


class TestSearchSpace:
    def test_single_switch_demo(self, demo_k1):
        space = index_reconfigurations(demo_k1, failing_edge=2, k=1)
        assert space.size == 4
        base = demo_k1.initial_configuration()
        for i in range(space.size):
            assert space.switchover(i).deactivate == frozenset({2})
            assert is_spanning_tree(demo_k1, apply_switchover(base, space.switchover(i)))
        # canonical order puts the first spare cable at id 0
        assert space.switchover(0).activate == frozenset({6})

    def test_fixture_unique_candidate(self, sevenbus):
        space = index_reconfigurations(sevenbus, failing_edge=2, k=1)
        assert space.size == 1
        assert space.switchover(0).activate == frozenset({4})

    def test_failing_edge_must_be_active(self, sevenbus):
        with pytest.raises(ValueError, match="not an active edge"):
            index_reconfigurations(sevenbus, failing_edge=4, k=1)

    def test_k_out_of_range(self, sevenbus):
        with pytest.raises(ValueError):
            index_reconfigurations(sevenbus, failing_edge=2, k=5)

    def test_empty_space_rejected(self, sevenbus):
        # the leaf cable {1,7} closes no cycle with any spare
        with pytest.raises(SearchSpaceError):
            index_reconfigurations(sevenbus, failing_edge=1, k=1)

    def test_synthetic(self):
        space = SearchSpace.synthetic(10)
        assert space.size == 10
        assert space.switchover(9) == Switchover(frozenset(), frozenset())
        with pytest.raises(IndexError):
            space.switchover(10)
        with pytest.raises(SearchSpaceError):
            SearchSpace.synthetic(0)


@pytest.mark.parametrize("name", BUNDLED_NETWORKS)
def test_ids_follow_the_restricted_enumeration(name):
    """On every active edge of the bundled networks at k=1 and k=2, id i
    is entry i of the enumeration restricted to that edge, and the oracle
    marks exactly the ids whose applied switchover is compliant."""
    grid = load_bundled(name)
    base = grid.initial_configuration()
    searched = 0
    for k, edge in itertools.product((1, 2), sorted(grid.active_ids)):
        entries = enumerate_reconfigurations(grid, base, k, restrict_to=frozenset({edge}))
        if not entries:
            with pytest.raises(SearchSpaceError):
                index_reconfigurations(grid, edge, k)
            continue
        space = index_reconfigurations(grid, edge, k)
        assert space.size == len(entries)
        assert [space.switchover(i) for i in range(space.size)] == [s for s, _ in entries]
        expected = [
            i for i in range(space.size)
            if compliant(grid, apply_switchover(base, space.switchover(i)))
        ]
        assert make_oracle(grid, space).marked_ids().tolist() == expected
        searched += 1
    assert searched >= len(grid.active_ids)


class TestOracle:
    def test_loadflow_backed_marks(self, demo_k1):
        space = index_reconfigurations(demo_k1, failing_edge=2, k=1)
        oracle = make_oracle(demo_k1, space)
        assert list(oracle.marked_ids()) == [0]
        # the marked candidate really is compliant, the others really are not
        base = demo_k1.initial_configuration()
        for i in range(space.size):
            assert compliant(demo_k1, apply_switchover(base, space.switchover(i))) == (i == 0)

    def test_sevenbus_marks_match_tree_checked_predicate(self, sevenbus):
        """Marked sets at k=1 equal those of a predicate that checks the tree
        before the load flow, for every failing edge with candidates."""
        checker = ComplianceOracle(sevenbus)
        base = sevenbus.initial_configuration()
        searched = {}
        for edge in sorted(sevenbus.active_ids):
            try:
                space = index_reconfigurations(sevenbus, failing_edge=edge, k=1)
            except SearchSpaceError:
                continue
            configurations = [apply_switchover(base, space.switchover(i)) for i in range(space.size)]
            expected = [
                i
                for i, cfg in enumerate(configurations)
                if is_spanning_tree(sevenbus, cfg) and checker.passes(cfg)
            ]
            searched[edge] = list(make_oracle(sevenbus, space).marked_ids())
            assert searched[edge] == expected
        assert len(searched) >= 4
        assert searched[6] == []

    def test_double_switch_demo_marks_three(self, demo_k2):
        space = index_reconfigurations(demo_k2, failing_edge=4, k=2)
        oracle = make_oracle(demo_k2, space)
        marked = {int(i) for i in oracle.marked_ids()}
        base = demo_k2.initial_configuration()
        expected = {
            i
            for i in range(space.size)
            if compliant(demo_k2, apply_switchover(base, space.switchover(i)))
        }
        assert marked == expected
        assert len(marked) == 3
        activated = {frozenset(space.switchover(i).activate) for i in marked}
        assert activated == {frozenset({2, 3}), frozenset({2, 5}), frozenset({2, 6})}

    def test_query_accounting(self):
        oracle = Oracle.from_marked({1}, size=8)
        oracle.marked_ids()
        assert oracle.queries == 0  # marking is the oracle's internal definition
        grover_search(SearchSpace.synthetic(8), oracle, iterations=2, seed=0)
        assert oracle.queries == 2
        classical_scan(SearchSpace.synthetic(8), oracle)
        assert oracle.queries == 4

    def test_from_marked_rejects_ids_outside_the_space(self):
        for bad in ({-1}, {8}, {-1, 99}, {0, 8}):
            with pytest.raises(ValueError, match=r"marked ids must lie in \[0, 8\)"):
                Oracle.from_marked(bad, size=8)
        with pytest.raises(TypeError):
            Oracle.from_marked({1.5}, size=8)

    def test_from_marked_ids_sorted_and_unique(self):
        oracle = Oracle.from_marked([5, 0, 7, 5], size=8)
        assert oracle.marked_ids().tolist() == [0, 5, 7]

    def test_classical_scan_counts_per_candidate(self):
        oracle = Oracle.from_marked({5}, size=8)
        space = SearchSpace.synthetic(8)
        assert classical_scan(space, oracle) == 5
        assert oracle.queries == 6

    def test_classical_scan_miss(self):
        oracle = Oracle.from_marked(set(), size=4)
        assert classical_scan(SearchSpace.synthetic(4), oracle) is None
        assert oracle.queries == 4


class TestIterate:
    def test_four_states_one_marked_one_iteration(self):
        state = grover_iterate(uniform_state(4), {2})
        assert abs(state[2]) == pytest.approx(1.0)
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_all_marked_keeps_probabilities(self):
        state = grover_iterate(uniform_state(5), set(range(5)))
        assert np.allclose(state * state, 1.0 / 5.0)

    def test_none_marked_keeps_probabilities(self):
        state = grover_iterate(uniform_state(5), set())
        assert np.allclose(state * state, 1.0 / 5.0)

    def test_normalization_over_many_iterations(self):
        state = uniform_state(1000)
        marked = {3, 77, 500}
        for _ in range(1000):
            state = grover_iterate(state, marked)
            total = float(np.sum(state * state))
            assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("n,m,t", [(4, 1, 1), (16, 1, 3), (100, 7, 2), (37, 3, 5)])
    def test_matches_closed_form(self, n, m, t):
        marked = set(range(m))
        state = uniform_state(n)
        for _ in range(t):
            state = grover_iterate(state, marked)
        mass = float(sum(state[i] ** 2 for i in marked))
        assert mass == pytest.approx(success_probability(n, m, t), abs=1e-12)


class TestAnalytics:
    def test_probability_examples(self):
        assert success_probability(4, 1, 1) == pytest.approx(1.0)
        assert success_probability(7, 7, 0) == pytest.approx(1.0)

    def test_iteration_examples(self):
        assert optimal_iterations(4, 1) == 1
        assert optimal_iterations(9, 9) == 0
        assert optimal_iterations(1024, 1) == 25

    def test_bounds(self):
        with pytest.raises(ValueError):
            success_probability(4, 0, 1)
        with pytest.raises(ValueError):
            success_probability(4, 5, 1)
        with pytest.raises(ValueError):
            success_probability(4, 1, -1)
        with pytest.raises(ValueError):
            optimal_iterations(4, 0)

    def test_optimal_iteration_probability_is_high(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 4096))
            m = int(rng.integers(1, max(2, n // 4)))
            t = optimal_iterations(n, m)
            assert success_probability(n, m, t) > 0.5


class TestSearch:
    def test_fixed_iterations_deterministic_hit(self, demo_k1):
        space = index_reconfigurations(demo_k1, failing_edge=2, k=1)
        oracle = make_oracle(demo_k1, space)
        result = grover_search(space, oracle, iterations=1, seed=123)
        assert result.sampled_id == 0  # probability one at N=4, M=1
        assert result.switchover.activate == frozenset({6})
        assert result.queries == 1
        assert result.distribution[0] == pytest.approx(1.0)

    def test_zero_iterations_uniform(self, demo_k1):
        space = index_reconfigurations(demo_k1, failing_edge=2, k=1)
        oracle = make_oracle(demo_k1, space)
        result = grover_search(space, oracle, iterations=0, seed=7)
        assert np.allclose(result.distribution, 0.25)
        assert result.queries == 0

    def test_seed_reproducibility(self):
        space = SearchSpace.synthetic(64)
        for seed in (1, 2, 3):
            a = grover_search(space, Oracle.from_marked({17}, 64), seed=seed)
            b = grover_search(space, Oracle.from_marked({17}, 64), seed=seed)
            assert a.sampled_id == b.sampled_id
            assert a.queries == b.queries

    def test_unknown_count_finds_solution(self):
        space = SearchSpace.synthetic(256)
        hits = 0
        total_queries = 0
        for seed in range(30):
            oracle = Oracle.from_marked({seed % 256}, 256)
            result = grover_search(space, oracle, seed=seed)
            hits += result.sampled_id == seed % 256
            total_queries += result.queries
        assert hits == 30
        assert total_queries / 30 <= 4 * math.sqrt(256)

    def test_unknown_count_exhausts_on_empty(self):
        space = SearchSpace.synthetic(16)
        with pytest.raises(SearchFailure):
            grover_search(space, Oracle.from_marked(set(), 16), seed=0)

    def test_quadratic_vs_linear_queries(self):
        n = 1024
        space = SearchSpace.synthetic(n)
        rng = np.random.default_rng(0)
        grover_total = 0
        classical_total = 0
        runs = 40
        for seed in range(runs):
            target = int(rng.integers(0, n))
            grover_total += grover_search(
                space, Oracle.from_marked({target}, n), seed=seed
            ).queries
            baseline = Oracle.from_marked({target}, n)
            classical_scan(space, baseline)
            classical_total += baseline.queries
        assert grover_total / runs <= 4 * math.sqrt(n)
        assert classical_total / runs >= n / 2 * 0.8  # mean position of a random target


# ---------------------------------------------------------------------------
# the statevector search, kept as the reference for the two-amplitude one
# ---------------------------------------------------------------------------

def reference_search(n, marked, iterations, seed):
    """``(sampled_id, queries, rounds, iterations)`` and the final probability
    vector of the N-vector search: ``grover_iterate`` steps from
    ``uniform_state``, ``rng.choice`` on the squared amplitudes, and one query
    per step and per verified sample."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    members = frozenset(marked.tolist())
    queries = 0

    def evolve(t):
        nonlocal queries
        state = uniform_state(n)
        for _ in range(t):
            queries += 1
            state = grover_iterate(state, marked)
        return state

    def sample(state):
        probabilities = state * state
        return int(rng.choice(n, p=probabilities / probabilities.sum()))

    if iterations is not None:
        state = evolve(iterations)
        return (sample(state), queries, 1, iterations), state * state
    bound = 1.0
    ceiling = math.sqrt(n)
    budget = int(30.0 * math.sqrt(n)) + 30
    spent = rounds = 0
    while spent <= budget:
        rounds += 1
        t = int(rng.integers(0, max(1, math.ceil(bound))))
        state = evolve(t)
        spent += t
        sampled = sample(state)
        queries += 1
        if sampled in members:
            return (sampled, queries, rounds, t), state * state
        spent += 1
        bound = min(6.0 / 5.0 * bound, ceiling)
    raise SearchFailure


def exact_distribution(n, marked, t):
    """Probabilities after t steps from the closed form sin^2 / cos^2 of
    (2t+1) asin sqrt(M/N), in extended precision."""
    m = len(marked)
    probabilities = np.full(n, 1 / np.longdouble(n))
    if 0 < m < n:
        angle = (2 * t + 1) * np.arcsin(np.sqrt(np.longdouble(m) / n))
        probabilities[:] = np.cos(angle) ** 2 / (n - m)
        probabilities[marked] = np.sin(angle) ** 2 / m
    return probabilities


def reference_scan(n, marked):
    """Per-candidate scan: ``(first marked id or None, queries)``."""
    members = frozenset(marked.tolist())
    for candidate_id in range(n):
        if candidate_id in members:
            return candidate_id, candidate_id + 1
    return None, n


def bisect_sample(members, n, a, b, u):
    """The smallest id whose prefix probability exceeds u, or n: a bisection of
    every id, keyed by a prefix that bisects the marked ids."""
    pa, pb = a * a, b * b
    total = len(members) * pa + (n - len(members)) * pb

    def cumulative(i):
        below = bisect_right(members, i)
        return (below * pa + (i + 1 - below) * pb) / total

    return bisect_right(range(n), u, key=cumulative)


def amplitudes(n, m, t):
    a = b = 1.0 / math.sqrt(n)
    for _ in range(t):
        mean = ((n - m) * b - m * a) / n
        a, b = 2.0 * mean + a, 2.0 * mean - b
    return a, b


class TestSampleFromPrefix:
    """``_sample`` returns what the bisection of every id returns."""

    @staticmethod
    def uniforms(members, n, a, b, rng):
        """Random draws, the ends of [0, 1], and every prefix value of a few
        ids with its float neighbours, where ``>`` against ``>=`` tells."""
        us = [0.0, math.nextafter(1.0, 0.0), 1.0, *rng.random(40).tolist()]
        pa, pb = a * a, b * b
        total = len(members) * pa + (n - len(members)) * pb
        for i in {0, n - 1, *members[:3], *rng.integers(0, n, size=8).tolist()}:
            below = bisect_right(members, i)
            p = (below * pa + (i + 1 - below) * pb) / total
            us += [p, math.nextafter(p, 0.0), math.nextafter(p, 2.0)]
        return [u for u in us if 0.0 <= u <= 1.0]

    @pytest.mark.parametrize(
        "n, members, a, b",
        [
            (1, [0], 1.0, 0.0),
            (64, [17], *amplitudes(64, 1, 6)),
            (65536, [0], *amplitudes(65536, 1, 201)),
            (65536, [65535], *amplitudes(65536, 1, 3)),
            (50, list(range(50)), *amplitudes(50, 50, 4)),
            (100, [3, 40, 99], 0.5, 0.0),
            (100, [], 0.0, 0.1),
            (4096, [5, 6, 7, 3000], 0.4, 1e-12),
            (4096, [5, 6, 7, 3000], 0.4, 1e-170),
            (4096, list(range(0, 4096, 3)), *amplitudes(4096, 1366, 1)),
        ],
        ids=["n1", "m1", "m1-first", "m1-last", "m-n", "b0", "m0", "b-tiny", "b-subnormal", "m-third"],
    )
    def test_matches_bisect(self, n, members, a, b):
        rng = np.random.default_rng(n)
        for u in self.uniforms(members, n, a, b, rng):
            assert _sample(members, n, a, b, u) == bisect_sample(members, n, a, b, u), u

    @given(case=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_bisect_on_random_searches(self, case, seed):
        n, marked = case.draw(marked_sets())
        members = marked.tolist()
        t = case.draw(st.integers(0, 40))
        a, b = amplitudes(n, len(members), t)
        if len(members) * a * a + (n - len(members)) * b * b == 0.0:
            return
        rng = np.random.default_rng(seed)
        for u in self.uniforms(members, n, a, b, rng):
            assert _sample(members, n, a, b, u) == bisect_sample(members, n, a, b, u), u


@st.composite
def marked_sets(draw):
    n = draw(st.integers(1, 4096))
    kind = draw(st.sampled_from(("empty", "one", "some", "full")))
    if kind == "empty":
        marked = np.array([], dtype=np.int64)
    elif kind == "one":
        marked = np.array([draw(st.integers(0, n - 1))], dtype=np.int64)
    elif kind == "full":
        marked = np.arange(n, dtype=np.int64)
    else:
        density = draw(st.floats(0.0, 1.0))
        picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n)
        marked = np.flatnonzero(picks < density).astype(np.int64)
    return n, marked


class TestTwoAmplitudeMatchesStatevector:
    @given(
        case=marked_sets(),
        seed=st.integers(0, 2**32 - 1),
        iterations=st.integers(0, 64),
    )
    @settings(max_examples=150, deadline=None)
    def test_search_and_scan(self, case, seed, iterations):
        n, marked = case
        space = SearchSpace.synthetic(n)
        for fixed in (None, iterations):
            try:
                expected, probabilities = reference_search(n, marked, fixed, seed)
            except SearchFailure:
                with pytest.raises(SearchFailure):
                    grover_search(space, Oracle.from_marked(marked, n), iterations=fixed, seed=seed)
                continue
            result = grover_search(space, Oracle.from_marked(marked, n), iterations=fixed, seed=seed)
            assert (result.sampled_id, result.queries, result.rounds, result.iterations) == expected
            # the statevector's np.mean reflections drift from the exact values
            # by up to about 1.4e-14 at t near 60, so the probabilities are
            # held to the closed form instead
            exact = exact_distribution(n, marked, result.iterations)
            assert np.max(np.abs(result.distribution - exact)) <= 1e-14
            assert np.max(np.abs(probabilities - exact)) <= 1e-13

        baseline = Oracle.from_marked(marked, n)
        found = classical_scan(space, baseline)
        assert (found, baseline.queries) == reference_scan(n, marked)


# ---------------------------------------------------------------------------
# the search that reruns the recurrence every round and fills the distribution
# every time, kept as the reference for the one that steps once per search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EagerResult:
    sampled_id: int
    switchover: Switchover | None
    distribution: np.ndarray
    iterations: int
    queries: int
    rounds: int = 1


def eager_search(space, oracle, iterations=None, seed=0):
    """The two-amplitude search with the recurrence rerun from the uniform
    state for every round and the N-entry distribution built in every call."""
    n = space.size
    if n < 1:
        raise SearchSpaceError("cannot search an empty space")
    rng = np.random.Generator(np.random.Philox(key=seed))
    marked = oracle.marked_ids()
    members = marked.tolist()
    hits = frozenset(members)
    m = len(members)

    def amplify(t):
        oracle.queries += t
        a = b = 1.0 / math.sqrt(n)
        for _ in range(t):
            mean = ((n - m) * b - m * a) / n
            a, b = 2.0 * mean + a, 2.0 * mean - b
        return a, b

    def found(sampled, a, b, t, rounds=1):
        distribution = np.full(n, b * b)
        distribution[marked] = a * a
        return EagerResult(sampled, space.switchover(sampled), distribution, t, oracle.queries, rounds)

    if iterations is not None:
        if iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {iterations}")
        a, b = amplify(iterations)
        return found(_sample(members, n, a, b, rng.random()), a, b, iterations)

    bound = 1.0
    ceiling = math.sqrt(n)
    budget = int(30.0 * math.sqrt(n)) + 30
    spent = rounds = 0
    while spent <= budget:
        rounds += 1
        t = int(rng.integers(0, max(1, math.ceil(bound))))
        a, b = amplify(t)
        spent += t
        sampled = _sample(members, n, a, b, rng.random())
        oracle.queries += 1
        if sampled in hits:
            return found(sampled, a, b, t, rounds)
        spent += 1
        bound = min(6.0 / 5.0 * bound, ceiling)
    raise SearchFailure


def outcome(search, n, marked, iterations, seed):
    """Everything a search reports, down to the distribution's bytes, or the
    failure and the queries it charged."""
    oracle = Oracle.from_marked(marked, n)
    try:
        result = search(SearchSpace.synthetic(n), oracle, iterations=iterations, seed=seed)
    except SearchFailure:
        return "failure", oracle.queries
    return (
        result.sampled_id, result.switchover, result.queries, result.iterations, result.rounds,
        result.distribution.dtype, result.distribution.tobytes(), oracle.queries,
    )


def scaling_plans(seed, jobs=512, sizes=(64, 256, 1024, 4096, 16384, 65536)):
    """The grover-scaling benchmark's searches: per job, one ``(N, marked id,
    search seed)`` per N, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [[(n, rng.randrange(n), rng.randrange(2**31)) for n in sizes] for _ in range(jobs)]


class TestSearchMatchesEagerSearch:
    @given(
        case=marked_sets(),
        seed=st.integers(0, 2**32 - 1),
        iterations=st.integers(0, 80),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_output_bit_identical(self, case, seed, iterations):
        """Unknown-count and fixed schedules (0 included) on empty, single,
        random and full marked sets: same ids, counts and distribution bytes,
        and the same queries charged before a failure."""
        n, marked = case
        for fixed in (None, 0, iterations):
            assert outcome(grover_search, n, marked, fixed, seed) == outcome(
                eager_search, n, marked, fixed, seed
            )

    @pytest.mark.parametrize("plan_seed", [1, 5, 11])
    def test_grover_scaling_jobs_replay(self, plan_seed):
        """512 benchmark jobs: (N, target, sampled id, queries, scan result,
        scan queries) and the rounds and iterations equal the eager search's."""
        for job in scaling_plans(plan_seed):
            for n, target, search_seed in job:
                space = SearchSpace.synthetic(n)
                results = []
                for search in (grover_search, eager_search):
                    result = search(space, Oracle.from_marked({target}, n), seed=search_seed)
                    baseline = Oracle.from_marked({target}, n)
                    found = classical_scan(space, baseline)
                    results.append((n, target, result.sampled_id, result.queries, found,
                                    baseline.queries, result.rounds, result.iterations))
                assert results[0] == results[1]

    def test_amplitudes_stepped_at_most_ceil_sqrt_n_times(self, monkeypatch):
        """A search keeps one pair per step it has taken, and the schedule's
        bound never draws t past ceil(sqrt N) - 1."""
        stepped = []

        def counting(n, m):
            for pair in real(n, m):
                stepped[-1] += 1
                yield pair

        real = grover_module._amplitudes
        monkeypatch.setattr(grover_module, "_amplitudes", counting)
        for n in (1, 2, 7, 64, 1000, 65536):
            for seed in range(20):
                stepped.append(0)
                result = grover_search(SearchSpace.synthetic(n), Oracle.from_marked({n // 3}, n), seed=seed)
                assert result.iterations < stepped[-1] <= math.ceil(math.sqrt(n))
        # an unmarked space runs the schedule to its budget
        stepped.append(0)
        with pytest.raises(SearchFailure):
            grover_search(SearchSpace.synthetic(4096), Oracle.from_marked((), 4096), seed=0)
        assert stepped[-1] == 64

    def test_fixed_iterations_store_no_steps(self):
        """A fixed schedule steps the pair without keeping the steps: 200,000
        iterations allocate less than a list of 200,000 pairs would."""
        space, oracle = SearchSpace.synthetic(10), Oracle.from_marked({3}, 10)
        grover_search(space, oracle, iterations=10, seed=0)  # warm every code path
        tracemalloc.start()
        try:
            result = grover_search(space, oracle, iterations=200_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.iterations == 200_000
        assert peak < 100_000

    def test_distribution_built_on_first_read(self):
        result = grover_search(SearchSpace.synthetic(1024), Oracle.from_marked({5, 9}, 1024), seed=3)
        assert "distribution" not in vars(result)
        first = result.distribution
        assert "distribution" in vars(result)
        assert result.distribution is first
        assert first.dtype == np.float64 and first.shape == (1024,)

    def test_results_compare_by_identity(self):
        """``marked`` is an array, so value equality would raise; two results
        compare by identity and hash without touching it."""
        space = SearchSpace.synthetic(64)
        first, second = (grover_search(space, Oracle.from_marked({3, 5}, 64), seed=1) for _ in range(2))
        assert first == first
        assert first != second
        assert len({first, second, first}) == 2


class TestFromMarkedMatchesUnique:
    @given(
        ids=st.lists(st.integers(0, 99), max_size=30),
        kind=st.sampled_from(("list", "sorted", "set", "generator", "array")),
    )
    @settings(max_examples=300, deadline=None)
    def test_marked_ids_equal_np_unique(self, ids, kind):
        source = {
            "list": lambda: list(ids),
            "sorted": lambda: sorted(set(ids)),
            "set": lambda: set(ids),
            "generator": lambda: (i for i in ids),
            "array": lambda: np.array(ids, dtype=np.int32),
        }[kind]
        marked = Oracle.from_marked(source(), 100).marked_ids()
        expected = np.unique(np.array(list(source()), dtype=np.int64))
        assert marked.dtype == expected.dtype == np.int64
        assert marked.tobytes() == expected.tobytes()

    def test_cases(self):
        for ids, expected in [
            ([], []), ([4], [4]), ([0, 99], [0, 99]), ([5, 5], [5]), ([3, 1, 2], [1, 2, 3]),
            ([1, 2, 2, 3], [1, 2, 3]), (iter([7, 7, 1]), [1, 7]), (range(0, 100, 7), list(range(0, 100, 7))),
        ]:
            assert Oracle.from_marked(ids, 100).marked_ids().tolist() == expected

    def test_rejects_out_of_range_and_non_integers(self):
        for bad in ([100], [-1], [0, 100], [100, 0], [5, -1, 5], iter([3, 200])):
            with pytest.raises(ValueError, match=r"marked ids must lie in \[0, 100\)"):
                Oracle.from_marked(bad, size=100)
        for bad in ([1.5], [0, 1.5], iter([2, 1.5])):
            with pytest.raises(TypeError):
                Oracle.from_marked(bad, size=100)


def test_distribution_csv_unchanged(monkeypatch, tmp_path):
    """``gridsec grover --distribution-out`` writes the bytes and prints the
    lines the eager search gives, with and without ``--iterations``, on every
    network, failing edge and k of the pinned CLI transcripts."""
    cases = {(case["network"], case["failing_edge"], case["k"]) for case in GROVER_CLI_CASES}
    checked = 0
    for network, edge, k in sorted(cases):
        for extra in ([], ["--iterations", "1"], ["--iterations", "0"]):
            argv = [
                "grover", "--network", str(bundled_path(network)), "--failing-edge", str(edge),
                "--k", str(k), "--seed", "11", *extra,
            ]
            written = []
            path = tmp_path / "distribution.csv"
            for search in (grover_search, eager_search):
                monkeypatch.setattr(grover_module, "grover_search", search)
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main([*argv, "--distribution-out", str(path)])
                written.append((code, out.getvalue(), path.read_bytes() if path.exists() else None))
                if path.exists():
                    path.unlink()
            assert written[0] == written[1], argv
            checked += written[0][2] is not None
    assert checked >= 10


# ---------------------------------------------------------------------------
# CLI transcripts pinned against the statevector implementation
# ---------------------------------------------------------------------------



@pytest.mark.parametrize("network", sorted({case["network"] for case in GROVER_CLI_CASES}))
def test_grover_cli_output_unchanged(network):
    """``gridsec grover --seed 11`` on every active failing edge of the bundled
    networks, at k=1 and k=2, with and without ``--iterations 1``: exit code,
    stdout and stderr equal those the statevector simulator printed."""
    cases = [case for case in GROVER_CLI_CASES if case["network"] == network]
    assert cases
    for case in cases:
        argv = [
            "grover", "--network", str(bundled_path(network)),
            "--failing-edge", str(case["failing_edge"]), "--k", str(case["k"]), "--seed", "11",
        ]
        if case["iterations"] is not None:
            argv += ["--iterations", str(case["iterations"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue(), err.getvalue()) == (
            case["exit"], case["stdout"], case["stderr"]
        ), case
