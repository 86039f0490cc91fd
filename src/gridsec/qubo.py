"""General QUBO machinery: representation, penalty builders, encodings,
degree reduction and an exact brute-force minimizer.

Conventions used throughout the package:

* A QUBO over ``n`` binary variables is stored as a sparse upper-triangular
  coefficient table ``{(i, j): q}`` with ``i <= j`` plus a constant offset.
  The energy of a bitstring ``x`` is

      E(x) = offset + sum_i Q[i,i] x_i + sum_{i<j} Q[i,j] x_i x_j ,

  computed for one bitstring or a batch from the same dense matrix.

* Discrete variables with option set ``{0, .., n_options-1}`` are encoded
  with ``n_options - 1`` domain-wall bits ``b_0 .. b_{n_options-2}``.  Valid
  encodings are the monotone strings ``0..01..1``; the decoded value is the
  position of the 0->1 wall, so the all-ones string decodes to 0 and the
  all-zeros string to ``n_options - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Qubo",
    "QuboBuilder",
    "PolyTerm",
    "VarAllocator",
    "BruteForceResult",
    "linear_equality_penalty",
    "one_hot",
    "domain_wall",
    "domain_wall_level_terms",
    "domain_wall_decode",
    "pair_reduction_penalty",
    "reduce_polynomial",
    "brute_force_minimize",
]

BRUTE_FORCE_LIMIT = 26


class Qubo:
    """Immutable sparse QUBO: upper-triangular coefficients plus offset."""

    __slots__ = ("n", "coeffs", "offset", "_dense")

    def __init__(self, n: int, coeffs: Mapping[tuple[int, int], float], offset: float = 0.0):
        if n < 0:
            raise ValueError(f"variable count must be non-negative, got {n}")
        normalized: dict[tuple[int, int], float] = {}
        for (i, j), q in coeffs.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"coefficient key ({i}, {j}) outside [0, {n})")
            key = (i, j) if i <= j else (j, i)
            normalized[key] = normalized.get(key, 0.0) + float(q)
        self.n = n
        self.coeffs = normalized
        self.offset = float(offset)
        self._dense: np.ndarray | None = None

    @classmethod
    def _trusted(cls, n: int, coeffs: dict[tuple[int, int], float], offset: float) -> Qubo:
        """A Qubo over coefficients already in normal form (ordered keys in
        [0, n), float values), skipping the constructor's checks."""
        qubo = cls.__new__(cls)
        qubo.n, qubo.coeffs, qubo.offset, qubo._dense = n, coeffs, offset, None
        return qubo

    def evaluate(self, bits: Sequence[int] | np.ndarray) -> float:
        """Energy of one bitstring: the one-row case of :meth:`energies`."""
        x = np.asarray(bits, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected {self.n} bits, got shape {x.shape}")
        return float(self.energies(x[None, :])[0])

    def energies(self, samples: np.ndarray) -> np.ndarray:
        """Vectorized energies for a (m, n) batch of bitstrings."""
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(f"expected shape (m, {self.n}), got {x.shape}")
        return ((x @ self.to_dense()) * x).sum(axis=1) + self.offset

    def to_dense(self) -> np.ndarray:
        """Upper-triangular dense matrix (diagonal carries linear terms),
        built on first use and shared read-only afterwards."""
        if self._dense is None:
            mat = np.zeros((self.n, self.n))
            for (i, j), q in self.coeffs.items():
                mat[i, j] = q
            mat.flags.writeable = False
            self._dense = mat
        return self._dense

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Qubo):
            return NotImplemented
        mine = {k: q for k, q in self.coeffs.items() if q != 0.0}
        theirs = {k: q for k, q in other.coeffs.items() if q != 0.0}
        return self.n == other.n and self.offset == other.offset and mine == theirs

    def __repr__(self) -> str:
        return f"Qubo(n={self.n}, terms={len(self.coeffs)}, offset={self.offset!r})"

    def dumps(self, labels: Sequence[str] | None = None) -> str:
        """Text export: one ``i j coeff`` line per term, header with n/offset.

        Round-trips losslessly through :meth:`loads` (floats via repr).
        """
        lines = [f"# n={self.n} offset={self.offset!r}"]
        if labels is not None:
            for i, label in enumerate(labels):
                lines.append(f"# var {i} {label}")
        for (i, j) in sorted(self.coeffs):
            q = self.coeffs[(i, j)]
            if q != 0.0:
                lines.append(f"{i} {j} {q!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> tuple[Qubo, dict[int, str]]:
        """Inverse of :meth:`dumps`.  Returns the QUBO and any variable labels."""
        n = None
        offset = 0.0
        labels: dict[int, str] = {}
        coeffs: dict[tuple[int, int], float] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("n="):
                    head, _, tail = body.partition(" ")
                    n = int(head[2:])
                    if tail.startswith("offset="):
                        offset = float(tail[len("offset="):])
                elif body.startswith("var "):
                    _, idx, label = body.split(" ", 2)
                    labels[int(idx)] = label
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'i j coeff', got {raw!r}")
            coeffs[(int(parts[0]), int(parts[1]))] = float(parts[2])
        if n is None:
            raise ValueError("missing '# n=...' header line")
        return cls(n, coeffs, offset), labels


class QuboBuilder:
    """Mutable accumulator used while assembling penalty terms."""

    def __init__(self, n: int = 0):
        if n < 0:
            raise ValueError(f"variable count must be non-negative, got {n}")
        self.n = n
        self._coeffs: dict[tuple[int, int], float] = {}
        self._offset = 0.0

    def add(self, i: int, j: int, coeff: float) -> None:
        if coeff == 0.0:
            return
        if i > j:
            i, j = j, i
        if i < 0:
            raise ValueError(f"variable index must be non-negative, got {i}")
        if j >= self.n:
            self.n = j + 1
        key = (i, j)
        self._coeffs[key] = self._coeffs.get(key, 0.0) + coeff

    def add_linear(self, var: int, coeff: float) -> None:
        self.add(var, var, coeff)

    def add_offset(self, value: float) -> None:
        self._offset += value

    def add_square(self, terms: Mapping[int, float], const: float = 0.0) -> None:
        """Add ``(sum_i a_i x_i + const)^2`` expanded with ``x^2 = x``."""
        items = [(v, a) for v, a in sorted(terms.items()) if a != 0.0]
        self.add_offset(const * const)
        add = self.add
        for idx, (v, a) in enumerate(items):
            add(v, v, a * a + 2.0 * const * a)
            for w, b in items[idx + 1:]:
                add(v, w, 2.0 * a * b)

    def add_product(
        self,
        terms_a: Mapping[int, float],
        const_a: float,
        terms_b: Mapping[int, float],
        const_b: float,
    ) -> None:
        """Add the product of two affine forms over bits."""
        self.add_offset(const_a * const_b)
        add = self.add
        for v, a in terms_a.items():
            add(v, v, a * const_b)
        for w, b in terms_b.items():
            add(w, w, b * const_a)
        for v, a in terms_a.items():
            for w, b in terms_b.items():
                add(v, w, a * b)

    def add_qubo(self, other: Qubo, weight: float = 1.0) -> None:
        if other.n > self.n:
            self.n = other.n
        # a Qubo's keys are already ordered and in [0, other.n)
        coeffs = self._coeffs
        for key, q in other.coeffs.items():
            value = weight * q
            if value != 0.0:
                coeffs[key] = coeffs.get(key, 0.0) + value
        self.add_offset(weight * other.offset)

    def build(self, n: int | None = None) -> Qubo:
        size = self.n if n is None else n
        if size < self.n:
            raise ValueError(f"requested size {size} below highest variable {self.n - 1}")
        coeffs = dict(self._coeffs)
        if any(type(q) is not float for q in coeffs.values()):
            # a caller added numpy scalars; dumps writes repr, so store floats
            coeffs = {key: float(q) for key, q in coeffs.items()}
        # every key is already ordered and in [0, self.n)
        return Qubo._trusted(size, coeffs, float(self._offset))


@dataclass(frozen=True)
class PolyTerm:
    """One monomial of a pseudo-Boolean polynomial."""

    variables: tuple[int, ...]
    coefficient: float

    def __post_init__(self):
        ordered = tuple(sorted(set(self.variables)))
        if ordered != self.variables:
            object.__setattr__(self, "variables", ordered)

    @property
    def degree(self) -> int:
        return len(self.variables)

    def evaluate(self, bits: Sequence[int]) -> float:
        value = self.coefficient
        for v in self.variables:
            value *= bits[v]
        return value


@dataclass
class VarAllocator:
    """Hands out fresh variable ids with human-readable labels."""

    labels: list[str] = field(default_factory=list)

    def new(self, label: str) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def new_block(self, count: int, label_fmt: str) -> tuple[int, ...]:
        return tuple(self.new(label_fmt.format(i)) for i in range(count))

    @property
    def count(self) -> int:
        return len(self.labels)


# ---------------------------------------------------------------------------
# penalty builders
# ---------------------------------------------------------------------------

def linear_equality_penalty(coeffs: Iterable[tuple[int, float]], b: float) -> Qubo:
    """Penalty ``(sum_i a_i x_i - b)^2`` for the constraint ``sum a_i x_i = b``."""
    builder = QuboBuilder()
    terms: dict[int, float] = {}
    for var, a in coeffs:
        terms[var] = terms.get(var, 0.0) + a
    builder.add_square(terms, -b)
    size = max(terms, default=-1) + 1  # zero-coefficient variables still count
    return builder.build(max(size, builder.n))


def one_hot(variables: Sequence[int]) -> tuple[Qubo, Callable[[Sequence[int]], int | None]]:
    """Exactly-one constraint over the given bits, plus a decoder.

    The decoder maps a full assignment to the selected option index, or
    ``None`` when the bits are infeasible (zero or several set).
    """
    if len(variables) < 1:
        raise ValueError("one_hot needs at least one variable")
    penalty = linear_equality_penalty([(v, 1.0) for v in variables], 1.0)
    vars_tuple = tuple(variables)

    def decode(assignment: Sequence[int]) -> int | None:
        set_bits = [k for k, v in enumerate(vars_tuple) if assignment[v]]
        if len(set_bits) != 1:
            return None
        return set_bits[0]

    return penalty, decode


def domain_wall(variables: Sequence[int]) -> tuple[Qubo, Callable[[Sequence[int]], int | None]]:
    """Domain-wall constraint over ``len(variables)`` bits encoding
    ``len(variables) + 1`` options.

    The penalty counts 1-0 substrings over adjacent bits, so it vanishes
    exactly on the monotone strings.  The decoder returns the wall position
    (all-ones -> 0, all-zeros -> last option) or ``None`` when non-monotone.
    """
    if len(variables) < 1:
        raise ValueError("domain_wall needs at least one variable (two options)")
    builder = QuboBuilder()
    vars_tuple = tuple(variables)
    for a, b in zip(vars_tuple, vars_tuple[1:]):
        # x_a * (1 - x_b)
        builder.add_linear(a, 1.0)
        builder.add(a, b, -1.0)
    penalty = builder.build(max(vars_tuple) + 1)

    def decode(assignment: Sequence[int]) -> int | None:
        return domain_wall_decode([assignment[v] for v in vars_tuple])

    return penalty, decode


def domain_wall_decode(bits: Sequence[int]) -> int | None:
    """Wall position of a monotone bit sequence, ``None`` if non-monotone."""
    level = None
    previous = 0
    for idx, bit in enumerate(bits):
        if bit and not previous:
            if level is not None:
                return None
            level = idx
        elif not bit and previous:
            return None
        previous = bit
    return len(bits) if level is None and not previous else (0 if level is None else level)


def domain_wall_level_terms(
    variables: Sequence[int], option: int
) -> tuple[dict[int, float], float]:
    """Indicator of one option of a domain-wall variable as an affine form.

    With bits ``b_0 .. b_{n-2}`` framed by ``b_{-1} = 0`` and ``b_{n-1} = 1``,
    the indicator of option ``i`` is ``b_i - b_{i-1}``.  Returns the bit
    coefficients and the constant contributed by the frames.
    """
    n_options = len(variables) + 1
    if not (0 <= option < n_options):
        raise ValueError(f"option {option} outside [0, {n_options})")
    terms: dict[int, float] = {}
    const = 0.0
    if option < n_options - 1:
        terms[variables[option]] = terms.get(variables[option], 0.0) + 1.0
    else:
        const += 1.0
    if option >= 1:
        v = variables[option - 1]
        terms[v] = terms.get(v, 0.0) - 1.0
    return terms, const


# ---------------------------------------------------------------------------
# degree reduction
# ---------------------------------------------------------------------------

def pair_reduction_penalty(x: int, y: int, z: int) -> Qubo:
    """Consistency penalty forcing ``z = x * y``:  ``xy - 2z(x+y) + 3z``."""
    builder = QuboBuilder()
    builder.add(x, y, 1.0)
    builder.add(x, z, -2.0)
    builder.add(y, z, -2.0)
    builder.add_linear(z, 3.0)
    return builder.build()


def reduce_polynomial(
    terms: Sequence[PolyTerm], alloc: VarAllocator
) -> tuple[list[PolyTerm], Qubo, dict[tuple[int, int], int]]:
    """Reduce a pseudo-Boolean polynomial to degree <= 2.

    Repeatedly substitutes the variable pair occurring most often across the
    remaining high-degree terms (ties broken by smallest pair) with a fresh
    auxiliary variable plus the pairwise consistency penalty.  The penalty is
    returned unweighted; minima are preserved for any weight exceeding
    ``1 + sum(|coefficients|)``.
    """
    work = [(list(t.variables), t.coefficient) for t in terms]
    penalty_builder = QuboBuilder(alloc.count)
    substitutions: dict[tuple[int, int], int] = {}

    while True:
        pair_counts: dict[tuple[int, int], int] = {}
        for variables, _ in work:
            if len(variables) < 3:
                continue
            for a_idx in range(len(variables)):
                for b_idx in range(a_idx + 1, len(variables)):
                    pair = (variables[a_idx], variables[b_idx])
                    pair_counts[pair] = pair_counts.get(pair, 0) + 1
        if not pair_counts:
            break
        best = max(pair_counts.items(), key=lambda kv: (kv[1], (-kv[0][0], -kv[0][1])))[0]
        if best in substitutions:
            z = substitutions[best]
        else:
            z = alloc.new(f"aux[z={best[0]}*{best[1]}]")
            substitutions[best] = z
            penalty_builder.add_qubo(pair_reduction_penalty(best[0], best[1], z))
        x, y = best
        for variables, _ in work:
            if len(variables) >= 3 and x in variables and y in variables:
                variables.remove(x)
                variables.remove(y)
                variables.append(z)
                variables.sort()

    reduced = [PolyTerm(tuple(v), c) for v, c in work]
    return reduced, penalty_builder.build(alloc.count), substitutions


def default_reduction_weight(terms: Sequence[PolyTerm]) -> float:
    """Aux-penalty weight guaranteeing minima preservation."""
    return 1.0 + sum(abs(t.coefficient) for t in terms)


def polynomial_to_qubo(terms: Sequence[PolyTerm], n: int) -> Qubo:
    """Assemble degree <= 2 terms into a Qubo (raises on higher degree)."""
    builder = QuboBuilder(n)
    for term in terms:
        if term.degree == 0:
            builder.add_offset(term.coefficient)
        elif term.degree == 1:
            builder.add_linear(term.variables[0], term.coefficient)
        elif term.degree == 2:
            builder.add(term.variables[0], term.variables[1], term.coefficient)
        else:
            raise ValueError(f"term of degree {term.degree} is not quadratic")
    return builder.build(n)


# ---------------------------------------------------------------------------
# exact minimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BruteForceResult:
    argmin: tuple[int, ...]
    energy: float
    num_minima: int


def brute_force_minimize(qubo: Qubo, chunk_bits: int = 19) -> BruteForceResult:
    """Exhaustive scan over all 2^n assignments.

    The reported argmin is the lexicographically smallest minimizer (bit 0
    is the most significant position of the enumeration).  Guarded at
    ``n <= 26``; refuse larger problems instead of silently grinding.
    """
    n = qubo.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} variables, got {n}"
        )
    if n == 0:
        return BruteForceResult((), qubo.offset, 1)

    upper = qubo.to_dense()
    total = 1 << n
    chunk = min(total, 1 << chunk_bits)
    # bit 0 = most significant so ascending integers scan in lexicographic order
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)

    best_energy = math.inf
    best_index = -1
    count = 0
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        codes = np.arange(start, stop, dtype=np.uint64)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        energies = ((bits @ upper) * bits).sum(axis=1) + qubo.offset
        local_min = energies.min()
        if local_min < best_energy:
            best_energy = local_min
            best_index = start + int(np.argmax(energies == local_min))
            count = int(np.count_nonzero(energies == local_min))
        elif local_min == best_energy:
            count += int(np.count_nonzero(energies == local_min))
    argmin = tuple(int((best_index >> int(s)) & 1) for s in shifts)
    return BruteForceResult(argmin, float(best_energy), count)
