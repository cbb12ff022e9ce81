"""Grid, packets and the position split at x = 0.

The anchor here is the closed-form overlap of two equal-width Gaussian
packets,

    |<A|B>| = exp(-d^2 / (8 sigma^2) - sigma^2 dk^2 / 2),

with d the center separation and dk the carrier difference.  It is
computed independently below and the discrete inner product has to hit
it to near machine precision for well-contained packets.
"""

import io
import math

import numpy as np
import pytest

from pairstats.errors import ConfigurationError, GridMismatchError
from pairstats.grid import (
    Grid1D,
    Wavefunction,
    WavepacketSpec,
    dump_wavefunction_csv,
    inner_product,
    make_gaussian,
    position_std,
    side_moments,
)
from pairstats.twoparticle import BOSON, joint_probabilities, make_pair


def gaussian_overlap_magnitude(d, dk, sigma):
    return math.exp(-(d**2) / (8.0 * sigma**2) - (sigma**2) * dk**2 / 2.0)


@pytest.fixture()
def grid():
    return Grid1D(half_width=32.0, points=1024)


class TestGrid1D:
    def test_spacing_and_axes(self, grid):
        assert grid.dx == pytest.approx(0.0625)
        assert grid.x[0] == -32.0
        assert grid.x[-1] == pytest.approx(32.0 - grid.dx)
        assert grid.x.shape == (1024,)
        assert grid.k_max == pytest.approx(np.pi / grid.dx)

    def test_zero_is_a_sample(self, grid):
        # symmetric power-of-two grids always carry x = 0 exactly
        assert grid.x[grid.points // 2] == 0.0

    def test_axes_are_read_only(self, grid):
        with pytest.raises(ValueError):
            grid.x[0] = 1.0
        with pytest.raises(ValueError):
            grid.k[0] = 1.0

    @pytest.mark.parametrize("half_width", [0.1, 3.0, 64.7, 1e3])
    @pytest.mark.parametrize("points", [2, 16, 4096, 2**20])
    def test_split_index_is_the_sample_at_zero(self, half_width, points):
        # dx = 2L/G is exact for a power-of-two G, so x_{G/2} = 0 exactly
        g = Grid1D(half_width=half_width, points=points)
        assert g.split_index == points // 2
        assert g.x[points // 2] == 0.0
        assert np.searchsorted(g.x, 0.0) == g.split_index

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            Grid1D(half_width=0.0, points=64)
        with pytest.raises(ConfigurationError):
            Grid1D(half_width=8.0, points=96)
        with pytest.raises(ConfigurationError):
            Grid1D(half_width=8.0, points=1)

    def test_rejects_grids_over_the_memory_cap(self):
        # checked before any array is built: 2**21 points would need 32 MiB each
        with pytest.raises(ConfigurationError, match=r"points must be <= 1048576 .*got 2097152"):
            Grid1D(half_width=8.0, points=2**21)
        assert Grid1D(half_width=8.0, points=2**20).points == 2**20


class TestWavefunction:
    def test_values_are_read_only(self, grid):
        psi = make_gaussian(grid, WavepacketSpec(0.0, 2.0, 1.0))
        with pytest.raises(ValueError):
            psi.values[0] = 1.0

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(GridMismatchError):
            Wavefunction(grid, np.zeros(100))


class TestWavepacketSpec:
    def test_margins_accept_contained_packet(self, grid):
        WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0).validate_on(grid)

    def test_support_margin(self, grid):
        # |x0| + 6 sigma = 30 + 6 > 32
        with pytest.raises(ConfigurationError, match="support margin"):
            WavepacketSpec(center=-30.0, wavenumber=8.0, sigma=1.0).validate_on(grid)

    def test_nyquist_margin(self, grid):
        # k_max = pi / 0.0625 ~ 50.27, so k0 = 49 + 3 fails
        with pytest.raises(ConfigurationError, match="Nyquist margin"):
            WavepacketSpec(center=0.0, wavenumber=49.0, sigma=1.0).validate_on(grid)

    def test_sigma_must_be_positive(self, grid):
        with pytest.raises(ConfigurationError):
            WavepacketSpec(center=0.0, wavenumber=8.0, sigma=0.0).validate_on(grid)


class TestMakeGaussian:
    def test_unit_norm_by_construction(self, grid):
        psi = make_gaussian(grid, WavepacketSpec(-5.0, 8.0, 1.0))
        assert psi.norm_sq() == pytest.approx(1.0, abs=1e-14)
        assert psi.t == 0.0

    def test_moments(self, grid):
        spec = WavepacketSpec(center=-5.0, wavenumber=8.0, sigma=1.5)
        psi = make_gaussian(grid, spec)
        mean = np.sum(grid.x * np.abs(psi.values) ** 2) * grid.dx
        assert mean == pytest.approx(-5.0, abs=1e-10)
        assert position_std(psi) == pytest.approx(1.5, abs=1e-8)
        spectrum = np.abs(np.fft.fft(psi.values)) ** 2
        assert np.sum(grid.k * spectrum) / np.sum(spectrum) == pytest.approx(8.0, abs=1e-10)

    def test_validates_spec(self, grid):
        with pytest.raises(ConfigurationError):
            make_gaussian(grid, WavepacketSpec(-31.0, 8.0, 1.0))


class TestInnerProduct:
    def test_self_overlap_is_norm(self, grid):
        psi = make_gaussian(grid, WavepacketSpec(-4.0, 8.0, 1.0))
        ip = inner_product(psi, psi)
        assert ip.real == pytest.approx(psi.norm_sq(), abs=1e-14)
        assert ip.imag == pytest.approx(0.0, abs=1e-14)

    def test_conjugate_symmetry(self, grid):
        a = make_gaussian(grid, WavepacketSpec(-4.0, 8.0, 1.0))
        b = make_gaussian(grid, WavepacketSpec(-6.5, 8.0, 1.0))
        assert inner_product(a, b) == pytest.approx(
            inner_product(b, a).conjugate(), abs=1e-15
        )

    @pytest.mark.parametrize("d", [0.5, 1.0, 2.0, 3.0, 6.0])
    def test_matches_closed_form_separation(self, grid, d):
        a = make_gaussian(grid, WavepacketSpec(-4.0, 8.0, 1.0))
        b = make_gaussian(grid, WavepacketSpec(-4.0 - d, 8.0, 1.0))
        expected = gaussian_overlap_magnitude(d, 0.0, 1.0)
        assert abs(inner_product(a, b)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("dk", [0.25, 0.5, 1.0, 2.0])
    def test_matches_closed_form_carrier_offset(self, grid, dk):
        a = make_gaussian(grid, WavepacketSpec(-4.0, 8.0, 1.0))
        b = make_gaussian(grid, WavepacketSpec(-4.0, 8.0 + dk, 1.0))
        expected = gaussian_overlap_magnitude(0.0, dk, 1.0)
        assert abs(inner_product(a, b)) == pytest.approx(expected, rel=1e-12)

    def test_grid_mismatch_rejected(self, grid):
        other = Grid1D(half_width=32.0, points=512)
        a = make_gaussian(grid, WavepacketSpec(-4.0, 8.0, 1.0))
        b = make_gaussian(other, WavepacketSpec(-4.0, 8.0, 1.0))
        with pytest.raises(GridMismatchError):
            inner_product(a, b)

    def test_time_mismatch_rejected(self, grid):
        a = make_gaussian(grid, WavepacketSpec(-4.0, 8.0, 1.0))
        late = Wavefunction(grid, a.values, t=1.0)
        with pytest.raises(GridMismatchError):
            inner_product(a, late)


class TestPositionSplit:
    """The halves at x = 0 that `joint_probabilities` feeds the quadrant formula."""

    def test_sides_partition_full_overlap(self, grid):
        a = make_gaussian(grid, WavepacketSpec(-4.0, 8.0, 1.0))
        b = make_gaussian(grid, WavepacketSpec(-6.0, 8.0, 1.0))
        stats = joint_probabilities(make_pair(a, b, BOSON))
        assert stats.i_minus + stats.i_plus == pytest.approx(inner_product(a, b), abs=1e-15)

    def test_probability_sides_partition_norm(self, grid):
        psi = make_gaussian(grid, WavepacketSpec(-1.0, 8.0, 1.0))
        stats = joint_probabilities(make_pair(psi, psi, BOSON))
        assert stats.r_a + stats.t_a == pytest.approx(psi.norm_sq(), abs=1e-14)
        assert stats.r_a > stats.t_a

    def test_far_packet_sits_on_one_side(self, grid):
        psi = make_gaussian(grid, WavepacketSpec(-10.0, 8.0, 1.0))
        stats = joint_probabilities(make_pair(psi, psi, BOSON))
        assert stats.r_a == pytest.approx(1.0, abs=1e-12)
        assert stats.t_a == pytest.approx(0.0, abs=1e-12)

    def test_side_name_checked(self, grid):
        psi = make_gaussian(grid, WavepacketSpec(-10.0, 8.0, 1.0))
        with pytest.raises(ValueError):
            side_moments(psi, "down")


class TestSideMoments:
    def test_conditional_moments_of_contained_packet(self, grid):
        # tail mass beyond x = 0 for sigma = 1.5 at -10 is ~1.5e-11
        psi = make_gaussian(grid, WavepacketSpec(-10.0, 8.0, 1.5))
        mass, mean, std = side_moments(psi, "negative")
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(-10.0, abs=1e-8)
        assert std == pytest.approx(1.5, abs=1e-7)

    def test_empty_side_reports_nan_moments(self, grid):
        psi = make_gaussian(grid, WavepacketSpec(-10.0, 8.0, 1.0))
        hollowed = np.array(psi.values)
        hollowed[grid.split_index :] = 0.0
        mass, mean, std = side_moments(Wavefunction(grid, hollowed), "positive")
        assert mass == 0.0
        assert math.isnan(mean)
        assert math.isnan(std)

    def test_masses_partition_norm(self, grid):
        psi = make_gaussian(grid, WavepacketSpec(-1.0, 8.0, 1.0))
        m_neg = side_moments(psi, "negative")[0]
        m_pos = side_moments(psi, "positive")[0]
        assert m_neg + m_pos == pytest.approx(1.0, abs=1e-14)


class TestDumpCsv:
    def test_format_and_roundtrip(self):
        g = Grid1D(half_width=4.0, points=32)
        psi = make_gaussian(g, WavepacketSpec(0.0, 1.0, 0.5))
        buf = io.StringIO()
        dump_wavefunction_csv(psi, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,re,im,abs2"
        assert len(lines) == 33
        for line in lines[1:]:
            x, re, im, abs2 = (float(c) for c in line.split(","))
            assert abs2 == pytest.approx(re**2 + im**2, rel=1e-10, abs=1e-300)
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs[0] == -4.0
        assert xs == sorted(xs)
