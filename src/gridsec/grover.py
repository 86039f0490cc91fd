"""Desk-scale simulation of the amplitude-amplification search over indexed
reconfigurations.

Candidates are numbered 0..N-1.  From a uniform start, the phase flip of
marked ids and the reflection about the mean keep one amplitude ``a`` on
every marked id and one ``b`` on every unmarked id (the two-dimensional
invariant subspace of Boyer, Brassard, Hoyer & Tapp, 1998), so the search
evolves the exact pair ``(a, b)`` for any N and samples from closed-form
prefix sums.  A search steps the pair once, keeping at most ceil(sqrt N)
pairs for its rounds, and a result builds its distribution when it is read.

The candidates of one failing edge are the classical route's candidate
stream restricted to it, in :func:`~gridsec.classical.enumerate_reconfigurations`'
order, and the oracle marks them with the :meth:`ComplianceOracle.query` call
that step 2 makes.

Query accounting follows the grey-box convention: one amplification
iteration costs one oracle query, and every classical verification of a
sampled candidate costs one more.  The classical baseline pays one query
per candidate tested.  All of it is charged from the oracle's marked set,
read once per search and not itself counted.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .classical import _stream
from .loadflow import ComplianceOracle
from .network import Network, Switchover

__all__ = [
    "SearchSpaceError",
    "SearchFailure",
    "SearchSpace",
    "Oracle",
    "index_reconfigurations",
    "make_oracle",
    "success_probability",
    "optimal_iterations",
    "GroverResult",
    "grover_search",
    "classical_scan",
]


class SearchSpaceError(ValueError):
    """No candidates to search over."""


class SearchFailure(RuntimeError):
    """The unknown-count schedule exhausted its budget without a hit."""


@dataclass(frozen=True)
class SearchSpace:
    """Candidate ids for one failing edge, each an ``(activations,
    deactivations)`` pair of the candidate stream; :meth:`switchover` builds
    the id's :class:`Switchover` when asked.  A synthetic space holds no
    pairs: each of its ``size`` ids maps to the empty switchover."""

    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]
    size: int

    def switchover(self, candidate_id: int) -> Switchover:
        if self.pairs:
            return Switchover(*self.pairs[candidate_id])
        range(self.size)[candidate_id]  # the table's IndexError
        return _NO_SWITCHOVER

    @classmethod
    def synthetic(cls, size: int) -> SearchSpace:
        """Index-only space for query-complexity benchmarks."""
        if size < 1:
            raise SearchSpaceError("synthetic space needs size >= 1")
        return cls((), size)


_NO_SWITCHOVER = Switchover(frozenset(), frozenset())


def index_reconfigurations(network: Network, failing_edge: int, k: int) -> SearchSpace:
    """Candidates deactivating the failing edge, in canonical order."""
    if failing_edge not in network.active_ids:
        raise ValueError(f"failing edge {failing_edge} is not an active edge")
    stream = _stream(network, network.initial_configuration(), k, frozenset({failing_edge}))
    pairs = tuple(stream)
    if not pairs:
        raise SearchSpaceError(
            f"no {k}-switchover reconfiguration deactivates edge {failing_edge}"
        )
    return SearchSpace(pairs, len(pairs))


class Oracle:
    """The sorted ids of the marked candidates, with query accounting."""

    def __init__(self, marked: np.ndarray):
        self._marked = marked
        self.queries = 0

    @classmethod
    def from_marked(cls, marked_ids, size: int) -> Oracle:
        marked = np.fromiter(map(operator.index, marked_ids), dtype=np.int64)
        if marked.size > 1 and not (marked[1:] > marked[:-1]).all():
            marked = np.unique(marked)
        if marked.size and (marked[0] < 0 or marked[-1] >= size):
            raise ValueError(f"marked ids must lie in [0, {size})")
        return cls(marked)

    def marked_ids(self) -> np.ndarray:
        """Sorted ids the oracle marks; reading them is not counted as a query."""
        return self._marked


def make_oracle(network: Network, space: SearchSpace) -> Oracle:
    """Oracle marking every candidate the classical route passes: id i asks
    :meth:`ComplianceOracle.query` about its pair, the call step 2 makes.
    A synthetic space marks nothing."""
    if space.size < 1:
        raise SearchSpaceError("cannot build an oracle over an empty space")
    query = ComplianceOracle(network).query
    return Oracle.from_marked((i for i, pair in enumerate(space.pairs) if query(*pair)), space.size)


# ---------------------------------------------------------------------------
# amplitude dynamics
# ---------------------------------------------------------------------------

def success_probability(n: int, m: int, t: int) -> float:
    """Closed-form probability of sampling a marked id after t iterations."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= marked <= size, got {m} of {n}")
    if t < 0:
        raise ValueError(f"iterations must be >= 0, got {t}")
    theta = math.asin(math.sqrt(m / n))
    return math.sin((2 * t + 1) * theta) ** 2


def optimal_iterations(n: int, m: int) -> int:
    """round(pi / (4 asin(sqrt(m/n))) - 1/2), clamped to >= 0.

    With halves rounding up this simplifies to floor(pi / (4 theta)).
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= marked <= size, got {m} of {n}")
    theta = math.asin(math.sqrt(m / n))
    return max(0, int(math.floor(math.pi / (4.0 * theta))))


def _sample(members: list[int], n: int, a: float, b: float, u: float) -> int:
    """``rng.choice(n, p=...)``'s rule for the uniform ``u``: the smallest id
    whose prefix probability exceeds ``u`` (``n`` when none does), with the
    sorted ``members`` at amplitude ``a`` and the other ids at ``b``.

    With ``k`` marked ids up to id ``i`` the prefix is
    ``(k pa + (i + 1 - k) pb) / total``, monotone in ``i`` and linear between
    marked ids: bisect the marked ids for the segment, solve for ``i``, and
    confirm with the same float prefix, bisecting the segment if rounding
    put the solve off.
    """
    pa, pb = a * a, b * b
    m = len(members)
    total = m * pa + (n - m) * pb
    # the first marked id whose prefix exceeds u closes the segment, and every
    # id up to the marked id before it has a prefix of at most u
    k = bisect_right(range(m), u, key=lambda j: ((j + 1) * pa + (members[j] - j) * pb) / total)
    lo = members[k - 1] + 1 if k else 0
    hi = members[k] if k < m else n
    if pb == 0.0 or lo == hi:
        return hi  # the segment's unmarked ids add nothing to the prefix
    base = k * pa
    guess = (u * total - base) / pb + k
    i = lo if not guess >= lo else hi if guess >= hi else int(guess)  # NaN gives lo
    if (i > lo and (base + (i - k) * pb) / total > u) or (
        i < hi and (base + (i + 1 - k) * pb) / total <= u
    ):
        i = lo + bisect_right(range(lo, hi), u, key=lambda x: (base + (x + 1 - k) * pb) / total)
    return i


def _amplitudes(n: int, m: int):
    """Marked and unmarked amplitudes after 0, 1, 2, ... steps from uniform."""
    a = b = 1.0 / math.sqrt(n)
    while True:
        yield a, b
        mean = ((n - m) * b - m * a) / n
        a, b = 2.0 * mean + a, 2.0 * mean - b


@dataclass(frozen=True, eq=False)  # identity equality: ``marked`` is an array
class GroverResult:
    sampled_id: int
    switchover: Switchover | None
    iterations: int
    queries: int
    rounds: int
    amplitudes: tuple[float, float]  # marked, unmarked
    marked: np.ndarray
    size: int

    @cached_property
    def distribution(self) -> np.ndarray:
        """Probability of every id after the sampled round's steps."""
        a, b = self.amplitudes
        distribution = np.full(self.size, b * b)
        distribution[self.marked] = a * a
        return distribution


def grover_search(
    space: SearchSpace,
    oracle: Oracle,
    iterations: int | None = None,
    seed: int = 0,
) -> GroverResult:
    """Sample a candidate id from the amplified distribution.

    With ``iterations`` given, runs exactly that many amplification steps
    and samples once.  Without it, runs the unknown-count schedule: per
    round draw the iteration count uniformly below a bound that grows by
    6/5, sample, and verify classically until a marked id comes up.  The
    expected query overhead stays O(sqrt(N / M)).
    """
    n = space.size
    if n < 1:
        raise SearchSpaceError("cannot search an empty space")
    rng = np.random.Generator(np.random.Philox(key=seed))
    marked = oracle.marked_ids()
    members = marked.tolist()
    hits = frozenset(members)
    m = len(members)

    def found(sampled: int, a: float, b: float, t: int, rounds: int = 1) -> GroverResult:
        return GroverResult(sampled, space.switchover(sampled), t, oracle.queries, rounds, (a, b), marked, n)

    if iterations is not None:
        if iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {iterations}")
        oracle.queries += iterations
        a, b = next(islice(_amplitudes(n, m), iterations, None))
        return found(_sample(members, n, a, b, rng.random()), a, b, iterations)

    bound = 1.0
    ceiling = math.sqrt(n)
    budget = int(30.0 * math.sqrt(n)) + 30
    spent = rounds = 0
    steps = _amplitudes(n, m)
    pairs = []  # (a_t, b_t) for t up to the largest t drawn so far
    while spent <= budget:
        rounds += 1
        t = int(rng.integers(0, max(1, math.ceil(bound))))
        if t >= len(pairs):
            pairs += islice(steps, t + 1 - len(pairs))
        a, b = pairs[t]
        oracle.queries += t
        spent += t
        sampled = _sample(members, n, a, b, rng.random())
        oracle.queries += 1  # the classical verification, read off the marked set
        if sampled in hits:
            return found(sampled, a, b, t, rounds)
        spent += 1
        bound = min(6.0 / 5.0 * bound, ceiling)
    raise SearchFailure(
        f"no marked candidate found within {budget} amplification steps"
    )


def classical_scan(space: SearchSpace, oracle: Oracle) -> int | None:
    """Exhaustive baseline: test candidates in id order, one query each, so
    first marked id + 1 queries, or N on a miss, charged from the marked set."""
    marked = oracle.marked_ids()
    first = int(marked[0]) if marked.size and marked[0] < space.size else None
    oracle.queries += space.size if first is None else first + 1
    return first
