"""Symmetrized pairs against a hand-solvable two-lobe family.

Take two orthonormal bumps u_L and u_R with disjoint supports on
opposite sides of the boundary and build

    psi_A = (u_L + u_R) / sqrt(2)
    psi_B = (u_L e^{i alpha} + u_R e^{-i alpha}) / sqrt(2).

Everything is then exact by hand: s = cos(alpha), the half-line
overlaps are e^{+-i alpha} / 2, all side masses are 1/2, and

    symmetric:      p20 = p02 = 1 / (2 (1 + cos^2 alpha))
                    p11 = 2 cos^2 alpha / (2 (1 + cos^2 alpha))
    antisymmetric:  p20 = p02 = 0,  p11 = 1   (alpha not a multiple of pi)

which pins the uniform point (1/3, 1/3, 1/3) at alpha = pi/4, full
bunching (1/2, 1/2, 0) at alpha = pi/2, and the exclusion point
(0, 0, 1) for the antisymmetric sign.  None of these numbers came from
the code under test.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest

from pairstats.errors import (
    BudgetExceededError,
    ConsistencyError,
    PauliDegeneracyError,
)
from pairstats.grid import Grid1D, Wavefunction, WavepacketSpec, make_gaussian
from pairstats.twoparticle import (
    _ORACLE_BLOCK,
    _joint_stats,
    BOSON,
    FERMION,
    dump_joint_density_csv,
    joint_probabilities,
    make_pair,
    outgoing_probabilities,
    quadrant_quadrature_oracle,
)


@pytest.fixture()
def grid():
    return Grid1D(half_width=8.0, points=256)


def bump(grid, center, width):
    x = grid.x
    inside = np.abs(x - center) < width / 2.0
    values = np.where(inside, np.cos(np.pi * (x - center) / width) ** 2, 0.0).astype(complex)
    return Wavefunction(grid, values / np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx))


def two_lobe_pair(grid, alpha, sign):
    u_l = bump(grid, -3.0, 4.0)
    u_r = bump(grid, 3.0, 4.0)
    root2 = math.sqrt(2.0)
    psi_a = Wavefunction(grid, (u_l.values + u_r.values) / root2)
    psi_b = Wavefunction(
        grid,
        (u_l.values * np.exp(1j * alpha) + u_r.values * np.exp(-1j * alpha)) / root2,
    )
    return make_pair(psi_a, psi_b, sign)


def symmetric_reference(alpha):
    nc2 = 1.0 / (2.0 * (1.0 + math.cos(alpha) ** 2))
    return nc2, nc2, 2.0 * math.cos(alpha) ** 2 * nc2


class TestMakePair:
    def test_overlap_and_normalization_constant(self, grid):
        pair = two_lobe_pair(grid, math.pi / 3.0, BOSON)
        assert pair.s == pytest.approx(0.5, abs=1e-13)
        assert pair.norm_const == pytest.approx(
            1.0 / math.sqrt(2.0 * 1.25), rel=1e-13
        )

    def test_rejects_bad_sign(self, grid):
        psi = bump(grid, -3.0, 4.0)
        with pytest.raises(ValueError):
            make_pair(psi, psi, 2)

    def test_rejects_unnormalized_packet(self, grid):
        psi = bump(grid, -3.0, 4.0)
        loud = Wavefunction(grid, 1.1 * psi.values)
        with pytest.raises(ConsistencyError, match="not unit-normalized"):
            make_pair(psi, loud, BOSON)

    @pytest.mark.parametrize("sign", [BOSON, FERMION])
    def test_rejects_a_packet_with_a_nan_sample(self, grid, sign):
        # NaN fails the norm check: a boson pair is not read as a = nan,
        # and a fermion pair is not taken for a degenerate one
        psi = bump(grid, -3.0, 4.0)
        spoiled = np.array(bump(grid, 3.0, 4.0).values)
        spoiled[grid.points // 2] = np.nan
        with pytest.raises(ConsistencyError, match="packet B is not unit-normalized"):
            make_pair(psi, Wavefunction(grid, spoiled), sign)

    def test_fermion_pauli_guard(self, grid):
        psi = bump(grid, -3.0, 4.0)
        phased = Wavefunction(grid, psi.values * np.exp(0.7j))
        with pytest.raises(PauliDegeneracyError):
            make_pair(psi, phased, FERMION)
        # bosons are free to coincide
        assert make_pair(psi, phased, BOSON).norm_const == pytest.approx(0.5, rel=1e-9)


class TestTwoLobeExactPoints:
    def test_uniform_point_at_quarter_pi(self, grid):
        stats = joint_probabilities(two_lobe_pair(grid, math.pi / 4.0, BOSON))
        third = 1.0 / 3.0
        assert stats.p20 == pytest.approx(third, abs=1e-13)
        assert stats.p02 == pytest.approx(third, abs=1e-13)
        assert stats.p11 == pytest.approx(third, abs=1e-13)
        assert stats.a == pytest.approx(third, abs=1e-13)

    def test_full_bunching_at_half_pi(self, grid):
        stats = joint_probabilities(two_lobe_pair(grid, math.pi / 2.0, BOSON))
        assert stats.p20 == pytest.approx(0.5, abs=1e-13)
        assert stats.p02 == pytest.approx(0.5, abs=1e-13)
        assert stats.p11 == pytest.approx(0.0, abs=1e-13)
        assert abs(stats.s) < 1e-13

    @pytest.mark.parametrize("alpha", [math.pi / 4.0, math.pi / 3.0, math.pi / 2.0])
    def test_antisymmetric_pair_always_splits(self, grid, alpha):
        stats = joint_probabilities(two_lobe_pair(grid, alpha, FERMION))
        assert stats.p20 == pytest.approx(0.0, abs=1e-13)
        assert stats.p02 == pytest.approx(0.0, abs=1e-13)
        assert stats.p11 == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, math.pi / 3.0, 1.2, 2.0])
    def test_symmetric_family_curve(self, grid, alpha):
        stats = joint_probabilities(two_lobe_pair(grid, alpha, BOSON))
        p20, p02, p11 = symmetric_reference(alpha)
        assert stats.p20 == pytest.approx(p20, abs=1e-13)
        assert stats.p02 == pytest.approx(p02, abs=1e-13)
        assert stats.p11 == pytest.approx(p11, abs=1e-13)

    def test_half_line_overlaps_carry_the_phase(self, grid):
        alpha = math.pi / 3.0
        stats = joint_probabilities(two_lobe_pair(grid, alpha, BOSON))
        assert stats.i_plus == pytest.approx(
            0.5 * complex(math.cos(alpha), -math.sin(alpha)), abs=1e-13
        )
        assert stats.i_minus == pytest.approx(
            0.5 * complex(math.cos(alpha), math.sin(alpha)), abs=1e-13
        )
        assert stats.i_plus + stats.i_minus == pytest.approx(stats.s, abs=1e-13)

    def test_side_masses_are_half(self, grid):
        stats = joint_probabilities(two_lobe_pair(grid, 1.1, BOSON))
        for mass in (stats.t_a, stats.r_a, stats.t_b, stats.r_b):
            assert mass == pytest.approx(0.5, abs=1e-13)
        assert stats.sum_check == pytest.approx(1.0, abs=1e-13)


def two_carrier_pair(alpha, sign, centers=(0.0, 0.0)):
    """The two-lobe family with its lobes in momentum: psi_A and psi_B are
    built as above from u_R and u_L, Gaussians at carriers +8 and -8 (centred
    at `centers`), whose spectra overlap by exp(-128)."""
    g = Grid1D(half_width=32.0, points=1024)
    u_r, u_l = (make_gaussian(g, WavepacketSpec(c, k0, 1.0)) for c, k0 in zip(centers, (8.0, -8.0)))
    root2 = math.sqrt(2.0)
    psi_a = Wavefunction(g, (u_l.values + u_r.values) / root2)
    psi_b = Wavefunction(
        g, (u_l.values * np.exp(1j * alpha) + u_r.values * np.exp(-1j * alpha)) / root2)
    return make_pair(psi_a, psi_b, sign)


class TestOutgoingProbabilities:
    @pytest.mark.parametrize("alpha", [math.pi / 4.0, math.pi / 2.0, 1.1])
    def test_two_carrier_family(self, alpha):
        stats = outgoing_probabilities(two_carrier_pair(alpha, BOSON))
        for got, want in zip((stats.p20, stats.p02, stats.p11), symmetric_reference(alpha)):
            assert got == pytest.approx(want, abs=1e-12)
        assert (stats.t_a, stats.r_a) == pytest.approx((0.5, 0.5), abs=1e-12)
        assert stats.i_plus == pytest.approx(0.5 * np.exp(-1j * alpha), abs=1e-12)
        assert stats.i_minus == pytest.approx(0.5 * np.exp(1j * alpha), abs=1e-12)
        fermion = outgoing_probabilities(two_carrier_pair(alpha, FERMION))
        assert (fermion.p20, fermion.p02, fermion.p11) == pytest.approx((0.0, 0.0, 1.0),
                                                                        abs=1e-12)

    @pytest.mark.parametrize("sign", [BOSON, FERMION])
    def test_agrees_with_the_position_split_once_the_lobes_move_apart(self, sign):
        # the right-mover 10 sigma right of the split, the left-mover 10 left
        pair = two_carrier_pair(0.9, sign, centers=(10.0, -10.0))
        fast, split = outgoing_probabilities(pair), joint_probabilities(pair)
        for name in ("p20", "p02", "p11", "t_a", "r_b"):
            assert getattr(fast, name) == pytest.approx(getattr(split, name), abs=1e-12)

    @pytest.mark.parametrize("sign", [BOSON, FERMION])
    @pytest.mark.parametrize("name, check", [("i_plus", "do not partition"),
                                             ("t_a", "sum rule violated")])
    def test_a_nan_side_fails_its_check(self, sign, name, check):
        pair = two_carrier_pair(1.1, sign)
        stats = outgoing_probabilities(pair)
        sides = {side: getattr(stats, side)
                 for side in ("t_a", "r_a", "t_b", "r_b", "i_plus", "i_minus")}
        sides[name] = np.nan
        with pytest.raises(ConsistencyError, match=check):
            _joint_stats(pair, **sides)

    def test_a_lobe_heading_back_counts_where_it_ends(self):
        # centred right of the split but moving left: it ends on the left
        lone = make_gaussian(Grid1D(half_width=32.0, points=1024), WavepacketSpec(10.0, -8.0, 1.0))
        pair = make_pair(lone, lone, BOSON)
        stats = outgoing_probabilities(pair)
        assert (stats.t_a, stats.r_a) == pytest.approx((0.0, 1.0), abs=1e-12)
        assert joint_probabilities(pair).t_a == pytest.approx(1.0, abs=1e-12)


def dumped_density(pair):
    """The G x G joint density as `dump_joint_density_csv` writes it at full resolution."""
    g = pair.psi_a.grid
    buf = io.StringIO()
    dump_joint_density_csv(pair, buf, max_points=g.points)
    buf.seek(0)
    cells = np.loadtxt(buf, delimiter=",", skiprows=1)
    cells = cells.reshape(g.points, g.points, 3)
    np.testing.assert_array_equal(cells[:, 0, 0], g.x)
    np.testing.assert_array_equal(cells[0, :, 1], g.x)
    return cells[:, :, 2]


class TestJointDensity:
    def test_exchange_symmetry(self, grid):
        for sign in (BOSON, FERMION):
            dens = dumped_density(two_lobe_pair(grid, 1.0, sign))
            np.testing.assert_allclose(dens, dens.T, atol=1e-15)
            assert np.all(dens >= -1e-15)

    def test_fermion_diagonal_vanishes(self, grid):
        dens = dumped_density(two_lobe_pair(grid, 1.0, FERMION))
        assert np.max(np.abs(np.diag(dens))) < 1e-13

    def test_normalization_by_direct_sum(self, grid):
        for sign in (BOSON, FERMION):
            dens = dumped_density(two_lobe_pair(grid, 0.9, sign))
            total = float(np.sum(dens)) * grid.dx**2
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_the_symmetrized_product(self, grid):
        # |C (psi_A(x1) psi_B(x2) + sign psi_B(x1) psi_A(x2))|^2, not the factorized sum
        for sign in (BOSON, FERMION):
            pair = offset_carrier_pair(grid.points, grid.half_width, sign)
            va, vb = pair.psi_a.values, pair.psi_b.values
            amp = pair.norm_const * (np.outer(va, vb) + sign * np.outer(vb, va))
            np.testing.assert_allclose(dumped_density(pair), np.abs(amp) ** 2,
                                       rtol=1e-11, atol=1e-15)

    def test_quadrant_sums_match_joint_probabilities(self, grid):
        for sign in (BOSON, FERMION):
            pair = offset_carrier_pair(grid.points, grid.half_width, sign)
            dens = dumped_density(pair)
            i0 = grid.split_index
            stats = joint_probabilities(pair)
            dx2 = grid.dx**2
            assert float(np.sum(dens[:i0, :i0])) * dx2 == pytest.approx(stats.p20, abs=1e-10)
            assert float(np.sum(dens[i0:, i0:])) * dx2 == pytest.approx(stats.p02, abs=1e-10)
            mixed = float(np.sum(dens[:i0, i0:]) + np.sum(dens[i0:, :i0])) * dx2
            assert mixed == pytest.approx(stats.p11, abs=1e-10)


class TestFactorizedAgainstQuadrature:
    """The O(G) factorized path must reproduce the O(G^2) quadrature."""

    @pytest.mark.parametrize("sign", [BOSON, FERMION])
    @pytest.mark.parametrize("separation", [1.0, 3.0])
    def test_gaussian_pairs(self, sign, separation):
        g = Grid1D(half_width=32.0, points=1024)
        psi_a = make_gaussian(g, WavepacketSpec(-4.0, 8.0, 1.0))
        psi_b = make_gaussian(g, WavepacketSpec(-4.0 - separation, 8.0, 1.0))
        pair = make_pair(psi_a, psi_b, sign)
        fast = joint_probabilities(pair)
        slow = quadrant_quadrature_oracle(pair)
        assert fast.p20 == pytest.approx(slow.p20, abs=1e-12)
        assert fast.p02 == pytest.approx(slow.p02, abs=1e-12)
        assert fast.p11 == pytest.approx(slow.p11, abs=1e-12)
        assert fast.a == pytest.approx(slow.a, abs=1e-12)

    def test_carrier_offset_gives_complex_overlap(self):
        g = Grid1D(half_width=32.0, points=1024)
        psi_a = make_gaussian(g, WavepacketSpec(-2.0, 8.0, 1.0))
        psi_b = make_gaussian(g, WavepacketSpec(-3.0, 8.5, 1.0))
        pair = make_pair(psi_a, psi_b, BOSON)
        assert abs(pair.s.imag) > 1e-3  # the phase actually matters here
        fast = joint_probabilities(pair)
        slow = quadrant_quadrature_oracle(pair)
        for name in ("p20", "p02", "p11"):
            assert getattr(fast, name) == pytest.approx(
                getattr(slow, name), abs=1e-12
            )

    def test_two_lobe_pairs(self, grid):
        for sign in (BOSON, FERMION):
            pair = two_lobe_pair(grid, 0.8, sign)
            fast = joint_probabilities(pair)
            slow = quadrant_quadrature_oracle(pair)
            assert fast.p20 == pytest.approx(slow.p20, abs=1e-12)
            assert fast.p02 == pytest.approx(slow.p02, abs=1e-12)
            assert fast.p11 == pytest.approx(slow.p11, abs=1e-12)

    def test_oracle_refuses_large_grids(self):
        g = Grid1D(half_width=64.0, points=8192)
        psi_a = make_gaussian(g, WavepacketSpec(-4.0, 8.0, 1.0))
        psi_b = make_gaussian(g, WavepacketSpec(-6.0, 8.0, 1.0))
        pair = make_pair(psi_a, psi_b, BOSON)
        with pytest.raises(BudgetExceededError):
            quadrant_quadrature_oracle(pair)


def full_square_quadrants(pair):
    """(p20, p02, p11) from |Psi|^2 on every sample of the G x G square, split at x = 0."""
    g = pair.psi_a.grid
    va, vb = pair.psi_a.values, pair.psi_b.values
    psi = pair.norm_const * (np.outer(va, vb) + pair.sign * np.outer(vb, va))
    dens = np.abs(psi) ** 2 * g.dx**2
    i0 = int(np.sum(g.x < 0.0))
    return (
        dens[:i0, :i0].sum(),
        dens[i0:, i0:].sum(),
        dens[:i0, i0:].sum() + dens[i0:, :i0].sum(),
    )


def offset_carrier_pair(points, half_width, sign):
    """Two Gaussians with different carriers, sampled without resolution checks."""
    g = Grid1D(half_width=half_width, points=points)
    x = g.x
    a = np.exp(-0.5 * (x + 1.0) ** 2 + 2.0j * x)
    b = np.exp(-0.5 * ((x - 0.5) / 1.2) ** 2 + 2.5j * x)
    psi_a, psi_b = (Wavefunction(g, v / np.sqrt(np.sum(np.abs(v) ** 2) * g.dx)) for v in (a, b))
    return make_pair(psi_a, psi_b, sign)


class TestOracleAgainstTheFullSquare:
    """The triangle's bookkeeping, against a sum over every sample."""

    # rows go in blocks of min(_ORACLE_BLOCK, G/2), so the split at x = 0,
    # row G/2, is always a block edge
    @pytest.mark.parametrize("sign", [BOSON, FERMION])
    @pytest.mark.parametrize("points, half_width, height", [
        (2, 2.0, 1),     # two one-row blocks, one a side
        (4, 2.0, 2),
        (8, 2.0, 4),
        (16, 8.0, 8),    # two full blocks
        (256, 8.0, 8),   # 32 blocks, the split on the edge of the 17th
    ])
    def test_quadrants_match(self, sign, points, half_width, height):
        pair = offset_carrier_pair(points, half_width, sign)
        assert abs(pair.s.imag) > 1e-3
        assert min(_ORACLE_BLOCK, pair.psi_a.grid.split_index) == height
        oracle = quadrant_quadrature_oracle(pair)
        p20, p02, p11 = full_square_quadrants(pair)
        assert abs(oracle.p20 - p20) <= 1e-14
        assert abs(oracle.p02 - p02) <= 1e-14
        assert abs(oracle.p11 - p11) <= 1e-14

    def test_memory_stays_a_few_blocks_at_the_size_limit(self):
        # the density of the whole 4096 x 4096 square alone would take
        # 134 MB; one 8-row block, built in place, takes 24 B x 8 x 4096
        pair = offset_carrier_pair(4096, 64.0, BOSON)
        tracemalloc.start()
        try:
            quadrant_quadrature_oracle(pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6


class TestDensityDump:
    def test_csv_shape_and_symmetry(self, grid):
        pair = two_lobe_pair(grid, 1.0, BOSON)
        buf = io.StringIO()
        dump_joint_density_csv(pair, buf, max_points=64)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x1,x2,density"
        assert len(lines) == 1 + 64 * 64
        cells = {}
        for line in lines[1:]:
            x1, x2, dens = line.split(",")
            cells[(x1, x2)] = dens
            assert float(dens) >= 0.0
        # downsampled matrix keeps the exchange symmetry
        assert cells[("-3", "3")] == cells[("3", "-3")]

    def test_strided_dump_samples_the_full_one(self, grid):
        # 100 points per axis on 256 samples: stride ceil(256 / 100) = 3, so 86 per axis
        pair = two_lobe_pair(grid, 1.0, FERMION)
        full, strided = io.StringIO(), io.StringIO()
        dump_joint_density_csv(pair, full, max_points=grid.points)
        dump_joint_density_csv(pair, strided, max_points=100)
        full_rows = full.getvalue().splitlines()[1:]
        kept = [row for n, row in enumerate(full_rows)
                if (n // grid.points) % 3 == 0 and (n % grid.points) % 3 == 0]
        lines = strided.getvalue().splitlines()
        assert lines[0] == "x1,x2,density"
        assert len(kept) == 86 * 86
        assert lines[1:] == kept

    def test_memory_stays_one_row_at_full_resolution(self, grid):
        # the whole 256 x 256 square, built at once, would hold 0.5 MB of
        # density and three times that while it is built; one row is 2 kB
        class Discard:
            def write(self, text):
                pass

        pair = two_lobe_pair(grid, 1.0, BOSON)
        tracemalloc.start()
        try:
            dump_joint_density_csv(pair, Discard(), max_points=grid.points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
