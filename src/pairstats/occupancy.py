"""Exact occupancy statistics for N particles over M single-particle states.

Three ways of weighting an occupancy vector (n_1, ..., n_M) with sum N:

* distinguishable particles, every assignment equally likely
  (multinomial weights),
* indistinguishable particles, every occupancy vector equally likely
  (one configuration each),
* indistinguishable particles with at most one per state.

All probabilities are exact rationals (`fractions.Fraction`); nothing in
this module touches floating point except the pair-family helpers that
serve measured data.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import BudgetExceededError

DEFAULT_ENUMERATION_BUDGET = 10_000_000

FD_LABEL = "FD"
INTERMEDIATE_FERMI_LABEL = "intermediate-fermi"
MB_LABEL = "MB"
INTERMEDIATE_BOSE_LABEL = "intermediate-bose"
BE_LABEL = "BE"
SUPER_BUNCHED_LABEL = "super-bunched"


@dataclass(frozen=True)
class OccupancyVector:
    """Occupation numbers for M states; immutable and usable as a dict key."""

    counts: tuple[int, ...]

    def __init__(self, counts: Iterable[int]):
        object.__setattr__(self, "counts", tuple(int(c) for c in counts))
        if len(self.counts) < 1:
            raise ValueError("need at least one state")
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative occupation in {self.counts}")

    @property
    def num_states(self) -> int:
        return len(self.counts)

    @property
    def num_particles(self) -> int:
        return sum(self.counts)


def _as_occupancy(occ) -> OccupancyVector:
    if isinstance(occ, OccupancyVector):
        return occ
    return OccupancyVector(occ)


def mb_probability(occ) -> Fraction:
    """Probability of an occupancy vector for distinguishable particles.

    Each of the M^N assignments of particles to states is equally likely,
    so a vector collects its multinomial share:

        p = N! / (M^N * prod_i n_i!)

    Parameters
    ----------
    occ : OccupancyVector or iterable of int

    Returns
    -------
    Fraction
        Exact probability.
    """
    occ = _as_occupancy(occ)
    weight = math.factorial(occ.num_particles)
    for n in occ.counts:
        weight //= math.factorial(n)
    return Fraction(weight, occ.num_states**occ.num_particles)


def be_probability(num_particles: int, num_states: int) -> Fraction:
    """Probability of any single occupancy vector when all vectors are equally likely.

    There are C(N + M - 1, N) occupancy vectors, hence

        p = N! (M-1)! / (N + M - 1)!

    for every one of them.
    """
    if num_states < 1:
        raise ValueError("need at least one state")
    if num_particles < 0:
        raise ValueError("negative particle number")
    return Fraction(
        math.factorial(num_particles) * math.factorial(num_states - 1),
        math.factorial(num_particles + num_states - 1),
    )


def fd_probability(occ) -> Fraction:
    """Probability of an occupancy vector under single-occupancy exclusion.

    Vectors with any n_i > 1 are forbidden; the C(M, N) admissible ones
    share the probability uniformly.  For N > M every vector is forbidden
    and the result is 0.
    """
    occ = _as_occupancy(occ)
    if any(n > 1 for n in occ.counts):
        return Fraction(0)
    return Fraction(1, math.comb(occ.num_states, occ.num_particles))


def occupancy_vectors(num_particles: int, num_states: int) -> Iterator[OccupancyVector]:
    """Yield every occupancy vector of N particles over M states.

    Order is lexicographically descending, starting at (N, 0, ..., 0).
    """
    if num_states < 1:
        raise ValueError("need at least one state")
    if num_particles < 0:
        raise ValueError("negative particle number")

    def compositions(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining, -1, -1):
            for rest in compositions(remaining - first, slots - 1):
                yield (first,) + rest

    for counts in compositions(num_particles, num_states):
        yield OccupancyVector(counts)


def enumerate_mb_oracle(
    num_particles: int,
    num_states: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> dict[OccupancyVector, Fraction]:
    """Tally all M^N particle-to-state assignments explicitly.

    Independent check of `mb_probability`: walks every assignment, counts
    occupancy vectors, divides by M^N exactly.

    Raises
    ------
    BudgetExceededError
        If M^N exceeds `budget` assignments.
    """
    if num_states < 1:
        raise ValueError("need at least one state")
    if num_particles < 0:
        raise ValueError("negative particle number")
    total = num_states**num_particles
    if total > budget:
        raise BudgetExceededError(
            f"{num_states}^{num_particles} = {total} assignments "
            f"exceed the enumeration budget {budget}"
        )
    tally: Counter[tuple[int, ...]] = Counter()
    for assignment in itertools.product(range(num_states), repeat=num_particles):
        occ = [0] * num_states
        for state in assignment:
            occ[state] += 1
        tally[tuple(occ)] += 1
    return {
        OccupancyVector(counts): Fraction(hits, total) for counts, hits in tally.items()
    }


@dataclass(frozen=True)
class PairFamily:
    """One-parameter family of two-particle, two-state distributions.

    p20 = p02 = a and p11 = 1 - 2a, with a in [0, 1/2].  a = 1/4 is the
    distinguishable-particle point, a = 1/3 the uniform-configuration
    point, a = 0 the exclusion point.
    """

    a: float
    p20: float
    p02: float
    p11: float


def pair_family(a: float) -> PairFamily:
    """Build the symmetric pair distribution with side probability a."""
    a = float(a)
    if not 0.0 <= a <= 0.5:
        raise ValueError(f"pair parameter a = {a} outside [0, 1/2]")
    return PairFamily(a=a, p20=a, p02=a, p11=1.0 - (a + a))


def classify_pair(a: float, tol: float = 1e-6) -> str:
    """Name the statistics regime of a measured pair parameter.

    Compares a to the three reference points 0, 1/4 and 1/3 within tol
    and otherwise reports the interval it falls in.  Values above
    1/3 + tol are bunched beyond the uniform-configuration point and are
    labelled "super-bunched".
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = min(max(float(a), 0.0), 0.5)
    if a <= tol:
        return FD_LABEL
    if abs(a - 0.25) <= tol:
        return MB_LABEL
    if abs(a - 1.0 / 3.0) <= tol:
        return BE_LABEL
    if a < 0.25:
        return INTERMEDIATE_FERMI_LABEL
    if a < 1.0 / 3.0:
        return INTERMEDIATE_BOSE_LABEL
    return SUPER_BUNCHED_LABEL
