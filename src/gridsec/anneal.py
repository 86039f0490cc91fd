"""Simulated annealing for QUBOs, steepest-descent post-processing, and
feasibility-tagged energy histograms.

The sampler runs independent reads in parallel: one sweep proposes a
single-bit Metropolis flip for every variable in index order, with the
inverse temperature climbing a geometric ladder (``sweeps_per_beta``
sweeps per rung).  All randomness flows from one Philox counter-based
generator (numpy implementation), so a fixed seed reproduces the sample
set bit for bit; cross-language ports can match streams against
Philox4x64-10.

The index-order sweep runs as a wavefront schedule.  A variable's front is
one more than the highest front of any coupled variable with a lower
index, so no two variables of a front are coupled and every coupled pair
keeps its order.  A whole front is proposed and applied at once, from the
current spins s = 1 - 2x in one matrix product, so a flip writes nothing
but its own spin, and the zero-temperature final pass reuses the fronts.

Flipping variable ``i`` changes the energy by ``dE_i = s_i (c_i + (R s)_i)``,
and Metropolis accepts when ``u < exp(-beta dE_i)``.  For ``u`` in [0, 1)
that is ``dE_i < t_i`` with the threshold ``t_i = -ln(u) / beta`` (``u = 0``
gives ``t = inf``, which accepts), that is ``s_i e_i < 0`` for
``e_i = (c_i - s_i t_i) + (R s)_i``: the new spin is the sign of ``e_i``.
A variable is proposed once a sweep, so its spin when its front comes up
is its spin at the sweep's start.  The bias ``c - s t`` is therefore built
for the whole sweep at once, and a front is one product, one add and one
``copysign``, with no ``exp``.

A front's blocks are small (a 219-variable QUBO has 73 fronts), so much of
what a call costs is numpy's fixed dispatch, not arithmetic.  The product
is ``np.dot`` rather than ``np.matmul``: both hand the same C-contiguous
blocks to BLAS and give the same bytes, but the ``matmul`` gufunc's
dispatch costs two to five times ``dot``'s on blocks this small.
``copysign`` takes a preallocated block of ones instead of the scalar
``1.0`` for the same reason.

Variable ``i`` still takes its threshold from row ``i`` of the sweep's
``(n, reads)`` block of uniforms, so the Philox consumption order is the
sequential sweep's: one ``(reads, n)`` integer block for the initial
states, then one ``(n, reads)`` block of doubles per sweep.  A front
therefore makes the sequential sweep's accept decisions up to rounding: a
decision can differ only where ``dE`` lies within rounding of its
threshold, a window of about an ulp of the energy scale, so with
small-integer coefficients (whose field sums are exact) the chain is the
sequential one in practice.  An exactly energy-neutral bit (``dE = 0``)
flips on every sweep, as in the sequential sweep, unless its ``t`` is
below half an ulp of ``c``, which has a probability of about 1e-14 a
proposal.  The final pass keeps the strict ``dE < 0``, so a tie never
flips there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qubo import Qubo

__all__ = [
    "AnnealSchedule",
    "SampleSet",
    "EnergyHistogram",
    "auto_beta_range",
    "simulated_annealing",
    "steepest_descent",
    "post_process",
    "energy_histogram",
]


@dataclass(frozen=True)
class AnnealSchedule:
    seed: int
    reads: int = 100
    sweeps: int = 10_000
    sweeps_per_beta: int = 20
    beta_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.reads < 1:
            raise ValueError(f"reads must be >= 1, got {self.reads}")
        spb = self.sweeps_per_beta
        if not 1 <= spb <= self.sweeps or self.sweeps % spb:
            raise ValueError(
                f"need sweeps a multiple of sweeps_per_beta >= 1, got {self.sweeps}/{spb}"
            )
        if self.beta_range is not None:
            lo, hi = self.beta_range
            if not (0 < lo <= hi < math.inf):
                raise ValueError(f"beta range needs finite 0 < min <= max, got {self.beta_range}")


@dataclass(frozen=True, eq=False)  # identity equality: the fields are arrays
class SampleSet:
    """Aggregated samples, ascending by energy, then by bytes.

    The energy is the float :meth:`Qubo.energies` returns.  Two bitstrings
    of equal exact energy can read one ulp apart, so the byte order decides
    only between samples whose float energies are equal.
    """

    samples: np.ndarray
    energies: np.ndarray
    multiplicities: np.ndarray

    @classmethod
    def from_states(cls, qubo: Qubo, states: np.ndarray) -> SampleSet:
        states = np.ascontiguousarray(states.astype(np.uint8))
        if states.size:
            packed = np.packbits(states, axis=1)  # big-endian: sorts as the rows do
            keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
            _, first, counts = np.unique(keys, return_index=True, return_counts=True)
            unique = states[first]
        else:
            unique = states.reshape(0, qubo.n)
            counts = np.zeros(0, dtype=np.int64)
        energies = qubo.energies(unique) if len(unique) else np.zeros(0)
        # the unique rows come in byte order, so a stable sort keeps it on ties
        order = np.argsort(energies, kind="stable")
        return cls(
            samples=unique[order],
            energies=energies[order],
            multiplicities=counts[order],
        )

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        for bits, energy, mult in zip(self.samples, self.energies, self.multiplicities):
            yield bits, float(energy), int(mult)

    @property
    def total_reads(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def first(self) -> tuple[np.ndarray, float]:
        if not len(self.samples):
            raise ValueError("empty sample set")
        return self.samples[0], float(self.energies[0])


def auto_beta_range(qubo: Qubo) -> tuple[float, float]:
    """Hot end accepts the largest possible flip half the time; cold end
    freezes the smallest coefficient magnitude (the finest energy
    granularity a single flip can produce) down to 1%."""
    upper = np.abs(qubo.to_dense())
    bounds = upper.sum(axis=0) + upper.sum(axis=1) - np.diag(upper)
    nonzero_bounds = bounds[bounds > 0]
    coeffs = upper[upper > 0]
    if nonzero_bounds.size == 0 or coeffs.size == 0:
        return (0.1, 1.0)
    d_max = float(nonzero_bounds.max())
    d_min = float(coeffs.min())
    return (math.log(2.0) / d_max, math.log(100.0) / d_min)


def _couplings(qubo: Qubo) -> tuple[np.ndarray, np.ndarray]:
    """Linear coefficients and the symmetric, zero-diagonal coupling matrix.
    Raises ``ValueError`` when a variable's single-flip bound, the sum of
    its |Q|, is beyond the float range, as every field would overflow."""
    upper = qubo.to_dense()
    with np.errstate(over="ignore"):
        overflows = ~np.isfinite(np.abs(upper).sum(axis=0) + np.abs(upper).sum(axis=1))
    if overflows.any():
        raise ValueError(f"the coefficients of QUBO variable {overflows.argmax()} sum beyond the float range")
    diag = np.diag(upper).copy()
    sym = upper + upper.T
    np.fill_diagonal(sym, 0.0)
    return diag, sym


def _wavefronts(sym: np.ndarray) -> np.ndarray:
    """Front of every variable: one more than the highest front of any
    coupled variable with a lower index (0 when there is none).

    No two variables of a front are coupled, and every coupled pair
    i < j has front(i) < front(j).
    """
    coupled = sym != 0.0
    fronts = np.zeros(len(sym), dtype=np.int64)
    for j in range(1, len(sym)):
        lower = fronts[:j][coupled[:j, j]]
        if lower.size:
            fronts[j] = lower.max() + 1
    return fronts


def simulated_annealing(qubo: Qubo, schedule: AnnealSchedule) -> SampleSet:
    """Single-bit-flip Metropolis annealing, reads vectorized as columns and
    variables swept front by front (see the module docstring)."""
    if qubo.n < 1:
        raise ValueError("QUBO needs at least one variable")
    n = qubo.n
    reads = schedule.reads
    rng = np.random.Generator(np.random.Philox(key=schedule.seed))

    diag, sym = _couplings(qubo)
    beta_lo, beta_hi = schedule.beta_range or auto_beta_range(qubo)
    betas = np.geomspace(beta_lo, beta_hi, schedule.sweeps // schedule.sweeps_per_beta)
    states = rng.integers(0, 2, size=(reads, n))

    # With spins s = 1 - 2x, flipping i changes the energy by s_i (c_i + R_i s),
    # c = diag + rowsum(sym) / 2 and R = -sym / 2.  Permute once so every front
    # is a contiguous block of rows of the (variable, read) spins, and cut its
    # rows of R to the contiguous range of columns they couple to.  Each plan
    # entry holds views into the buffers, so a front allocates nothing.
    fronts = _wavefronts(sym)
    order = np.argsort(fronts, kind="stable")
    cuts = np.searchsorted(fronts[order], np.arange(fronts.max() + 2))
    spins = np.ascontiguousarray(1.0 - 2.0 * states[:, order].T)
    linear = (diag + 0.5 * sym.sum(axis=1))[order, None]
    sym = sym[np.ix_(order, order)]
    uniforms, bias, energy = (np.empty((n, reads)) for _ in range(3))
    ones = np.ones((n, reads))
    plan = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        coupled = np.flatnonzero((sym[lo:hi] != 0.0).any(axis=0))
        a, b = (coupled[0], coupled[-1] + 1) if coupled.size else (lo, lo)
        plan.append((-0.5 * sym[lo:hi, a:b], spins[a:b], energy[lo:hi], bias[lo:hi], spins[lo:hi], ones[lo:hi]))

    # the new spin is the sign of e = (c - s t) + R s with t = -ln(u) / beta,
    # the bias c - s t built once a sweep (see the module docstring); u = 0
    # gives t = inf, which accepts
    dot, add, copysign = np.dot, np.add, np.copysign
    with np.errstate(divide="ignore"):
        for beta in betas:
            for _ in range(schedule.sweeps_per_beta):
                rng.random(out=uniforms)
                np.log(uniforms, out=uniforms)
                # the indices are in range; "clip" lets take write into out unbuffered
                np.take(uniforms, order, axis=0, out=bias, mode="clip")
                bias *= spins
                bias *= 1.0 / beta
                bias += linear
                for couplings, columns, e, b, s, one in plan:
                    dot(couplings, columns, out=e)
                    add(e, b, out=e)
                    copysign(one, e, out=s)

    # final descent pass: zero-temperature sweeps until every read is
    # single-flip stable, so no returned sample sits above its own local floor;
    # an exact tie dE = 0 must not flip here, hence the strict mask
    np.copyto(bias, linear)
    changed = True
    while changed:
        changed = False
        for couplings, columns, e, b, s, _ in plan:
            dot(couplings, columns, out=e)
            add(e, b, out=e)
            e *= s
            accept = e < 0.0
            if accept.any():
                changed = True
                np.negative(s, out=s, where=accept)
    return SampleSet.from_states(qubo, spins[np.argsort(order)].T < 0.0)


def _descend(qubo: Qubo, states: np.ndarray) -> np.ndarray:
    """Steepest descent of every row at once; rows stop independently."""
    diag, sym = _couplings(qubo)
    states = np.array(states, dtype=np.float64)
    # one matrix-vector product per row, as a lone row's descent computes it
    field_ = np.array([sym @ row for row in states])
    active = np.arange(len(states))
    while active.size:
        delta_e = (1.0 - 2.0 * states[active]) * (diag + field_[active])
        best = np.argmin(delta_e, axis=1)
        improving = delta_e[np.arange(active.size), best] < 0.0
        active, best = active[improving], best[improving]
        flip = 1.0 - 2.0 * states[active, best]
        states[active, best] += flip
        field_[active] += flip[:, None] * sym[best]
    return states.astype(np.uint8)


def steepest_descent(qubo: Qubo, bits) -> np.ndarray:
    """Greedy single-bit descent: always flip the best-improving bit.

    Ties break on the lowest index; stops at the first local minimum, so
    applying it twice changes nothing.
    """
    state = np.asarray(bits, dtype=np.float64)
    if state.shape != (qubo.n,):
        raise ValueError(f"expected {qubo.n} bits, got shape {state.shape}")
    return _descend(qubo, state[None, :])[0]


def post_process(qubo: Qubo, samples: SampleSet) -> SampleSet:
    """Steepest descent applied to every read of a sample set, batched
    over the distinct samples (descent is deterministic)."""
    if not len(samples):
        return samples
    descended = _descend(qubo, samples.samples)
    return SampleSet.from_states(qubo, np.repeat(descended, samples.multiplicities, axis=0))


@dataclass(frozen=True)
class EnergyHistogram:
    """Per-energy counts split by constraint feasibility."""

    bins: dict[float, tuple[int, int]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(f + i for f, i in self.bins.values())

    def to_csv(self) -> str:
        lines = ["energy,feasible,infeasible"]
        for energy in sorted(self.bins):
            feasible, infeasible = self.bins[energy]
            lines.append(f"{energy!r},{feasible},{infeasible}")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {
            "bins": [
                {"energy": e, "feasible": f, "infeasible": i}
                for e, (f, i) in sorted(self.bins.items())
            ]
        }


def energy_histogram(qubo: Qubo, samples: SampleSet, layout) -> EnergyHistogram:
    """Bin every sample by energy, tagged by ``layout.feasible``, the
    feasibility rule of the QUBO's layout."""
    feasible = layout.feasible(samples.samples)
    bins: dict[float, list[int]] = {}
    for (_, energy, multiplicity), ok in zip(samples, feasible):
        slot = bins.setdefault(round(energy, 9), [0, 0])
        slot[0 if ok else 1] += multiplicity
    return EnergyHistogram({k: (f, i) for k, (f, i) in bins.items()})
