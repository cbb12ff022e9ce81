"""Exact counting layer: frozen values first, then the enumeration oracle.

Every expected probability below was worked out by hand as a Fraction
before the implementation existed; none of them came from running the
code under test.
"""

from fractions import Fraction

import pytest

from pairstats.errors import BudgetExceededError
from pairstats.occupancy import (
    BE_LABEL,
    FD_LABEL,
    INTERMEDIATE_BOSE_LABEL,
    INTERMEDIATE_FERMI_LABEL,
    MB_LABEL,
    SUPER_BUNCHED_LABEL,
    OccupancyVector,
    be_probability,
    classify_pair,
    enumerate_mb_oracle,
    fd_probability,
    mb_probability,
    occupancy_vectors,
    pair_family,
)


def full_distribution(kind, num_particles, num_states):
    out = {}
    for occ in occupancy_vectors(num_particles, num_states):
        if kind == "mb":
            out[occ] = mb_probability(occ)
        elif kind == "be":
            out[occ] = be_probability(num_particles, num_states)
        else:
            out[occ] = fd_probability(occ)
    return out


class TestOccupancyVector:
    def test_counts_are_normalized_tuple(self):
        occ = OccupancyVector([2, 0, 1])
        assert occ.counts == (2, 0, 1)
        assert occ.num_states == 3
        assert occ.num_particles == 3

    def test_hashable_and_comparable(self):
        assert OccupancyVector((1, 1)) == OccupancyVector([1, 1])
        assert len({OccupancyVector((2, 0)), OccupancyVector((2, 0))}) == 1

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            OccupancyVector((1, -1))
        with pytest.raises(ValueError):
            OccupancyVector(())


class TestFrozenValues:
    """Hand-computed reference points for the three weightings."""

    def test_two_particles_two_states_mb(self):
        assert mb_probability((2, 0)) == Fraction(1, 4)
        assert mb_probability((0, 2)) == Fraction(1, 4)
        assert mb_probability((1, 1)) == Fraction(1, 2)

    def test_two_particles_two_states_be(self):
        # 3 occupancy vectors, uniform
        assert be_probability(2, 2) == Fraction(1, 3)

    def test_two_particles_two_states_fd(self):
        assert fd_probability((2, 0)) == Fraction(0)
        assert fd_probability((0, 2)) == Fraction(0)
        assert fd_probability((1, 1)) == Fraction(1)

    def test_three_particles_two_states_mb(self):
        # 2^3 = 8 assignments: (3,0) once, (2,1) three times
        assert mb_probability((3, 0)) == Fraction(1, 8)
        assert mb_probability((2, 1)) == Fraction(3, 8)
        assert mb_probability((1, 2)) == Fraction(3, 8)
        assert mb_probability((0, 3)) == Fraction(1, 8)

    def test_three_particles_two_states_be(self):
        # C(4, 3) = 4 vectors
        assert be_probability(3, 2) == Fraction(1, 4)

    def test_two_particles_three_states_fd(self):
        # C(3, 2) = 3 admissible pairs
        assert fd_probability((1, 1, 0)) == Fraction(1, 3)
        assert fd_probability((1, 0, 1)) == Fraction(1, 3)
        assert fd_probability((2, 0, 0)) == Fraction(0)

    def test_four_particles_four_states(self):
        # C(7, 4) = 35 vectors; 4!/4^4 = 24/256
        assert be_probability(4, 4) == Fraction(1, 35)
        assert mb_probability((1, 1, 1, 1)) == Fraction(3, 32)
        assert mb_probability((2, 2, 0, 0)) == Fraction(3, 128)
        assert mb_probability((4, 0, 0, 0)) == Fraction(1, 256)

    def test_single_state_edge(self):
        assert mb_probability((5,)) == Fraction(1)
        assert be_probability(5, 1) == Fraction(1)
        assert fd_probability((1,)) == Fraction(1)
        assert fd_probability((2,)) == Fraction(0)

    def test_zero_particles(self):
        assert mb_probability((0, 0)) == Fraction(1)
        assert be_probability(0, 3) == Fraction(1)
        assert fd_probability((0, 0, 0)) == Fraction(1)


class TestDistributionsSumToOne:
    @pytest.mark.parametrize("num_particles", [1, 2, 3, 4])
    @pytest.mark.parametrize("num_states", [1, 2, 3, 4])
    def test_mb_and_be_normalized(self, num_particles, num_states):
        for kind in ("mb", "be"):
            dist = full_distribution(kind, num_particles, num_states)
            assert sum(dist.values()) == Fraction(1)

    @pytest.mark.parametrize("num_particles", [1, 2, 3, 4])
    @pytest.mark.parametrize("num_states", [1, 2, 3, 4])
    def test_fd_normalized_when_feasible(self, num_particles, num_states):
        dist = full_distribution("fd", num_particles, num_states)
        expected = Fraction(1) if num_particles <= num_states else Fraction(0)
        assert sum(dist.values()) == expected


class TestOccupancyVectorsIterator:
    @pytest.mark.parametrize(
        "num_particles,num_states,count",
        [(2, 2, 3), (3, 2, 4), (2, 3, 6), (4, 4, 35), (0, 3, 1)],
    )
    def test_counts_vectors(self, num_particles, num_states, count):
        vectors = list(occupancy_vectors(num_particles, num_states))
        assert len(vectors) == count
        assert len(set(vectors)) == count
        assert all(v.num_particles == num_particles for v in vectors)

    def test_order_starts_fully_stacked(self):
        vectors = list(occupancy_vectors(3, 3))
        assert vectors[0] == OccupancyVector((3, 0, 0))
        assert vectors[-1] == OccupancyVector((0, 0, 3))
        tuples = [v.counts for v in vectors]
        assert tuples == sorted(tuples, reverse=True)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(occupancy_vectors(2, 0))
        with pytest.raises(ValueError):
            list(occupancy_vectors(-1, 2))


class TestEnumerationOracle:
    """Brute-force tally over all M^N assignments must match the formula."""

    @pytest.mark.parametrize("num_particles", [1, 2, 3, 4])
    @pytest.mark.parametrize("num_states", [1, 2, 3, 4])
    def test_matches_mb_probability_exactly(self, num_particles, num_states):
        oracle = enumerate_mb_oracle(num_particles, num_states)
        formula = full_distribution("mb", num_particles, num_states)
        assert oracle == formula

    def test_budget_is_enforced(self):
        with pytest.raises(BudgetExceededError):
            enumerate_mb_oracle(10, 10, budget=100)

    def test_budget_boundary_is_inclusive(self):
        # 2^2 = 4 assignments fit a budget of exactly 4
        oracle = enumerate_mb_oracle(2, 2, budget=4)
        assert sum(oracle.values()) == Fraction(1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_mb_oracle(2, 0)
        with pytest.raises(ValueError):
            enumerate_mb_oracle(-1, 2)


class TestPairFamily:
    def test_distinguishable_point(self):
        fam = pair_family(0.25)
        assert fam.p20 == 0.25
        assert fam.p02 == 0.25
        assert fam.p11 == 0.5

    def test_exclusion_point(self):
        fam = pair_family(0.0)
        assert (fam.p20, fam.p02, fam.p11) == (0.0, 0.0, 1.0)

    def test_probabilities_sum_to_one(self):
        for a in (0.0, 0.1, 0.25, 1.0 / 3.0, 0.5):
            fam = pair_family(a)
            assert fam.p20 + fam.p02 + fam.p11 == pytest.approx(1.0, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pair_family(-0.01)
        with pytest.raises(ValueError):
            pair_family(0.51)


class TestClassifyPair:
    def test_reference_anchors(self):
        assert classify_pair(0.0) == FD_LABEL
        assert classify_pair(0.25) == MB_LABEL
        assert classify_pair(1.0 / 3.0) == BE_LABEL

    def test_tolerance_windows(self):
        assert classify_pair(0.25 + 5e-7) == MB_LABEL
        assert classify_pair(0.25 + 2e-6) == INTERMEDIATE_BOSE_LABEL
        assert classify_pair(0.25 - 2e-6) == INTERMEDIATE_FERMI_LABEL
        assert classify_pair(1e-3, tol=1e-2) == FD_LABEL

    def test_intervals(self):
        assert classify_pair(0.12) == INTERMEDIATE_FERMI_LABEL
        assert classify_pair(0.30) == INTERMEDIATE_BOSE_LABEL
        assert classify_pair(0.40) == SUPER_BUNCHED_LABEL

    def test_clamps_measured_noise(self):
        # slightly negative or > 1/2 inputs come from floating-point
        # measurement error and should land on the nearest endpoint
        assert classify_pair(-1e-9) == FD_LABEL
        assert classify_pair(0.5 + 1e-9) == SUPER_BUNCHED_LABEL

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            classify_pair(0.25, tol=0.0)
