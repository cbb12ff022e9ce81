"""Split-operator propagation against independent physics oracles.

Two oracles drive this file, both worked out before the implementation:

* free Gaussian spreading, sigma(t) = sigma sqrt(1 + (t / 2 sigma^2)^2),
  with the center drifting at the carrier velocity;
* a transfer-matrix transmission for the rectangular barrier, built from
  the wave-matching conditions with complex arithmetic, which is a
  different route than the closed sinh/sin form inside the library.

The frozen decimals below were produced by the transfer-matrix snippet,
never by the code under test.
"""

import math
import re
import signal

import numpy as np
import pytest

from pairstats import propagator
from pairstats.errors import (
    BoundaryContaminationError,
    CalibrationError,
    ConfigurationError,
    StabilityError,
)
from pairstats.grid import (
    Grid1D,
    WavepacketSpec,
    Wavefunction,
    make_gaussian,
    position_std,
)
from pairstats.propagator import (
    _analytic_seed,
    BarrierPotential,
    PropagationParams,
    analytic_plane_transmission,
    barrier_region_amplitude,
    calibrate_barrier,
    calibration_bracket,
    evolve,
    evolve_until_measured,
    expected_packet_transmission,
    measurement_ready,
    simulated_transmission,
)


def transfer_matrix_transmission(k, v0, w):
    """Independent oracle: match plane waves across the barrier."""
    q = np.sqrt(complex(k * k - 2.0 * v0))
    if q == 0:
        return 1.0 / (1.0 + v0 * w * w / 2.0)
    m = np.cos(q * w) - 1j * (k * k + q * q) / (2.0 * k * q) * np.sin(q * w)
    return float(1.0 / abs(m) ** 2)


def free_width(sigma, t):
    return sigma * math.sqrt(1.0 + (t / (2.0 * sigma**2)) ** 2)


@pytest.fixture()
def grid():
    return Grid1D(half_width=32.0, points=1024)


FREE = BarrierPotential(height=0.0, width=1.0)


class TestBarrierPotential:
    def test_support_and_sampling_half_open(self):
        g = Grid1D(half_width=8.0, points=128)  # dx = 0.125
        barrier = BarrierPotential(height=5.0, width=1.0)
        assert barrier.support == (-0.5, 0.5)
        v = barrier.sample(g)
        i_lo, i_hi = g.split_index - 4, g.split_index + 4  # 0.5 / dx samples either side of x = 0
        assert v[i_lo] == 5.0  # left edge sample belongs to the barrier
        assert v[i_lo - 1] == 0.0
        assert v[i_hi] == 0.0  # right edge sample does not
        assert v[i_hi - 1] == 5.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            BarrierPotential(height=-1.0, width=1.0)
        with pytest.raises(ConfigurationError):
            BarrierPotential(height=1.0, width=0.0)

    def test_validate_on_grid(self, grid):
        with pytest.raises(ConfigurationError, match="box edges"):
            BarrierPotential(height=1.0, width=64.0).validate_on(grid)
        # dx = 0.0625 needs width >= 0.5 for eight samples across
        with pytest.raises(ConfigurationError, match="too coarse"):
            BarrierPotential(height=1.0, width=0.25).validate_on(grid)
        BarrierPotential(height=1.0, width=0.5).validate_on(grid)


class TestPropagationParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            PropagationParams(dt=0.0, steps=10)
        with pytest.raises(ConfigurationError):
            PropagationParams(dt=1e-3, steps=-1)

    def test_stability_bound(self, grid):
        # k_max^2 / 2 ~ 1263, so dt = 2.6e-3 puts the phase past pi
        with pytest.raises(StabilityError):
            PropagationParams(dt=2.6e-3, steps=1).validate_on(grid)
        PropagationParams(dt=2.4e-3, steps=1).validate_on(grid)


class TestFreeEvolution:
    def test_spreading_matches_analytic_law(self, grid):
        spec = WavepacketSpec(center=-12.0, wavenumber=2.0, sigma=1.0)
        psi = make_gaussian(grid, spec)
        result = evolve(psi, FREE, PropagationParams(dt=1e-3, steps=2000))
        out = result.psi
        assert out.t == pytest.approx(2.0)
        mean = np.sum(out.grid.x * np.abs(out.values) ** 2) * out.grid.dx
        assert mean == pytest.approx(-12.0 + 2.0 * 2.0, abs=1e-8)
        expected = free_width(1.0, 2.0)  # sqrt(2)
        assert position_std(out) == pytest.approx(expected, rel=1e-8)

    def test_wide_packet_spreads_slower(self, grid):
        spec = WavepacketSpec(center=-12.0, wavenumber=2.0, sigma=2.0)
        psi = make_gaussian(grid, spec)
        out = evolve(psi, FREE, PropagationParams(dt=1e-3, steps=2000)).psi
        assert position_std(out) == pytest.approx(free_width(2.0, 2.0), rel=1e-8)

    def test_norm_is_conserved(self, grid):
        spec = WavepacketSpec(center=-12.0, wavenumber=2.0, sigma=1.0)
        psi = make_gaussian(grid, spec)
        out = evolve(psi, FREE, PropagationParams(dt=1e-3, steps=2000)).psi
        assert abs(out.norm_sq() - psi.norm_sq()) < 1e-11

    def test_contained_run_reports_small_edge_amplitude(self, grid):
        psi = make_gaussian(grid, WavepacketSpec(-12.0, 2.0, 1.0))
        result = evolve(psi, FREE, PropagationParams(dt=1e-3, steps=500))
        assert result.max_edge_amplitude < 1e-12

    def test_boundary_contamination_detected(self):
        g = Grid1D(half_width=16.0, points=512)
        psi = make_gaussian(g, WavepacketSpec(-8.0, 8.0, 1.0))
        # carrier velocity 8 reaches the right edge near t = 3
        with pytest.raises(BoundaryContaminationError):
            evolve(psi, FREE, PropagationParams(dt=1e-3, steps=4000))

    def test_contamination_counts_steps_since_launch(self):
        g = Grid1D(half_width=16.0, points=512)
        psi = make_gaussian(g, WavepacketSpec(-8.0, 8.0, 1.0))
        with pytest.raises(BoundaryContaminationError) as whole:
            evolve(psi, FREE, PropagationParams(dt=1e-3, steps=4000))
        # the same flight in 500-step chunks fails in a later chunk
        with pytest.raises(BoundaryContaminationError) as chunked:
            while True:
                psi = evolve(psi, FREE, PropagationParams(dt=1e-3, steps=500)).psi
        assert psi.t > 0.5
        assert str(chunked.value) == str(whole.value)


def plain_strang(psi, barrier, params):
    """One packet, one step at a time, each step's FFTs on fresh arrays.

    Returns the final values and the peak edge amplitude after any step.
    """
    half_potential = np.exp(-0.5j * params.dt * barrier.sample(psi.grid))
    kinetic = np.exp(-0.5j * params.dt * psi.grid.k**2)
    values = np.array(psi.values)
    peak = 0.0
    for _ in range(params.steps):
        values *= half_potential
        values = np.fft.ifft(kinetic * np.fft.fft(values))
        values *= half_potential
        peak = max(peak, abs(values[0]), abs(values[-1]))
    return values, peak


class TestStepKernel:
    @pytest.mark.parametrize("spec, barrier", [
        (WavepacketSpec(-8.0, 8.0, 1.0), BarrierPotential(20.0, 0.5)),
        (WavepacketSpec(-8.0, 8.0, 1.0), BarrierPotential(32.0, 0.5)),
        (WavepacketSpec(-4.0, 6.0, 0.8), BarrierPotential(0.0, 0.5)),
    ])
    def test_flight_matches_plain_strang_bit_for_bit(self, spec, barrier):
        g = Grid1D(half_width=16.0, points=512)
        params = PropagationParams(dt=1e-3, steps=1500)
        psi = make_gaussian(g, spec)
        result = evolve(psi, barrier, params)
        values, peak_edge = plain_strang(psi, barrier, params)
        assert np.array_equal(result.psi.values, values)
        assert result.psi.t == psi.t + params.steps * params.dt
        assert result.max_edge_amplitude == peak_edge

    @pytest.mark.parametrize("barrier", [
        BarrierPotential(20.0, 0.5),
        BarrierPotential(30.0, 1.5),
        BarrierPotential(0.0, 1.0),
    ])
    def test_barrier_phases_on_the_covered_span_match_the_full_array_product(self, barrier):
        # the kernel multiplies the half-potential phases over the samples the
        # barrier covers; the full-array product multiplies the rest by exactly 1
        g = Grid1D(half_width=16.0, points=512)
        params = PropagationParams(dt=1e-3, steps=1000)
        psi = make_gaussian(g, WavepacketSpec(-3.0, 6.0, 1.0))
        # sharp barriers scatter fast modes onto the edges; only the phases count here
        got = evolve(psi, barrier, params, 1.0)
        assert got.psi.values.tobytes() == plain_strang(psi, barrier, params)[0].tobytes()

    def test_edge_error_mid_chunk_counts_the_steps_since_launch(self):
        # heads for the right edge from t = 0.25 and reaches it mid-chunk
        g = Grid1D(half_width=16.0, points=512)
        params = PropagationParams(dt=1e-3, steps=1500)
        barrier = BarrierPotential(25.0, 0.5)
        launched_late = Wavefunction(g, make_gaussian(g, WavepacketSpec(6.0, 8.0, 1.0)).values,
                                     t=0.25)
        with pytest.raises(BoundaryContaminationError) as caught:
            evolve(launched_late, barrier, params)
        steps = int(str(caught.value).split(" steps")[0].rsplit(" ", 1)[1])
        # the same packet one plain step at a time first crosses the gate at that step
        one_step = PropagationParams(dt=params.dt, steps=1)
        values, taken = launched_late.values, 0
        while max(abs(values[0]), abs(values[-1])) <= 1e-6:
            values, _ = plain_strang(Wavefunction(g, values), barrier, one_step)
            taken += 1
        assert steps == 250 + taken
        assert 250 < steps < 250 + params.steps


class TestPlaneTransmission:
    def test_no_barrier_is_transparent(self):
        assert analytic_plane_transmission(3.0, BarrierPotential(0.0, 1.0)) == 1.0

    def test_frozen_tunneling_value(self):
        # transfer-matrix snippet: k=2, V0=8, w=0.5
        barrier = BarrierPotential(8.0, 0.5)
        assert analytic_plane_transmission(2.0, barrier) == pytest.approx(
            0.0909668503958455, rel=1e-12
        )

    def test_frozen_crossover_value(self):
        # E = V0 = 8 with w = 0.5 gives exactly 1 / (1 + V0 w^2 / 2) = 1/2
        barrier = BarrierPotential(8.0, 0.5)
        assert analytic_plane_transmission(4.0, barrier) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_frozen_over_barrier_value(self):
        barrier = BarrierPotential(8.0, 0.5)
        assert analytic_plane_transmission(6.0, barrier) == pytest.approx(
            0.947849394078268, rel=1e-12
        )

    def test_branches_meet_continuously(self):
        barrier = BarrierPotential(8.0, 0.5)
        k_star = math.sqrt(2.0 * 8.0)
        below = analytic_plane_transmission(k_star * (1.0 - 1e-9), barrier)
        above = analytic_plane_transmission(k_star * (1.0 + 1e-9), barrier)
        assert abs(below - above) < 1e-7

    def test_over_barrier_resonance(self):
        # q w = pi at k = sqrt(pi^2 + 2 V0) for w = 1
        barrier = BarrierPotential(4.0, 1.0)
        k_res = math.sqrt(math.pi**2 + 8.0)
        assert analytic_plane_transmission(k_res, barrier) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_deep_tunneling_underflows_to_zero(self):
        assert analytic_plane_transmission(1.0, BarrierPotential(1e6, 1.0)) == 0.0

    def test_rejects_nonpositive_wavenumber(self):
        with pytest.raises(ValueError):
            analytic_plane_transmission(0.0, BarrierPotential(8.0, 0.5))

    @pytest.mark.parametrize("v0,w", [(8.0, 0.5), (4.0, 1.0), (26.787825, 0.5), (50.0, 2.0)])
    def test_matches_transfer_matrix_everywhere(self, v0, w):
        for k in np.linspace(0.2, 14.0, 139):
            expected = transfer_matrix_transmission(float(k), v0, w)
            got = analytic_plane_transmission(float(k), BarrierPotential(v0, w))
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-300)


class TestPacketTransmission:
    def test_transparent_barrier(self):
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        value = expected_packet_transmission(spec, BarrierPotential(0.0, 0.5))
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_quadrature(self):
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        barrier = BarrierPotential(26.787825, 0.5)
        sigma_k = 0.5 / spec.sigma
        k = np.linspace(spec.wavenumber - 10 * sigma_k, spec.wavenumber + 10 * sigma_k, 40001)
        weight = spec.sigma * math.sqrt(2.0 / math.pi) * np.exp(
            -2.0 * spec.sigma**2 * (k - spec.wavenumber) ** 2
        )
        t_k = np.array([transfer_matrix_transmission(kk, 26.787825, 0.5) for kk in k])
        oracle = float(np.trapezoid(weight * t_k, k))
        value = expected_packet_transmission(spec, barrier)
        assert value == pytest.approx(oracle, rel=1e-7)

    def test_monotone_in_height(self):
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        values = [
            expected_packet_transmission(spec, BarrierPotential(v0, 0.5))
            for v0 in (10.0, 20.0, 30.0, 40.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigurationError):
            expected_packet_transmission(
                WavepacketSpec(0.0, 8.0, -1.0), BarrierPotential(8.0, 0.5)
            )

    @pytest.mark.parametrize("width", [0.5, 1.0])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_fixed_rule_matches_a_fine_transfer_matrix_trapezoid(self, width, sigma):
        # 2,001 nodes against 40,001 on the same range, oracle T(k) from plane-wave matching
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=sigma)
        sigma_k = 0.5 / sigma
        k = np.linspace(max(8.0 - 12 * sigma_k, 1e-12), 8.0 + 12 * sigma_k, 40001)
        weight = sigma * math.sqrt(2.0 / math.pi) * np.exp(-2.0 * sigma**2 * (k - 8.0) ** 2)
        for v0 in (10.0, 20.0, 26.79, 28.67, 32.0, 45.0):
            t_k = np.array([transfer_matrix_transmission(float(kk), v0, width) for kk in k])
            oracle = float(np.trapezoid(weight * t_k, k))
            value = expected_packet_transmission(spec, BarrierPotential(v0, width))
            assert abs(value - oracle) <= 1e-13, (v0, value, oracle)

    @pytest.mark.parametrize("width, seed", [
        (0.5, 26.808769019326554),
        (1.0, 28.692813823549685),
    ])
    def test_analytic_seed_is_pinned_to_the_bit(self, width, seed):
        # calibration flies heights derived from this seed, so an ulp here moves result files
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        got = _analytic_seed(
            lambda v0: expected_packet_transmission(spec, BarrierPotential(v0, width)), 0.5, 64.0
        )
        assert got == seed


class TestMeasurementReadiness:
    # the packets below move left, away from the barrier, unless a test
    # says otherwise: nothing of them is inbound

    def test_far_packet_is_ready_only_once_it_moves_away(self, grid):
        barrier = BarrierPotential(8.0, 0.5)
        leaving = make_gaussian(grid, WavepacketSpec(-10.0, -8.0, 1.0))
        assert barrier_region_amplitude(leaving, barrier) < 1e-10
        assert measurement_ready(leaving, barrier)
        # the same packet moving in has yet to scatter
        assert not measurement_ready(make_gaussian(grid, WavepacketSpec(-10.0, 8.0, 1.0)), barrier)

    @pytest.mark.parametrize("sigma, k0, center", [
        # the corners of sigma in [0.5, 2], k0 in [4, 12] and a launch from
        # 6 sigma left of the barrier to just over 6 sigma from the box edge
        *[(sigma, k0, center)
          for sigma, centers in ((0.5, (-3.25, -60.5)), (2.0, (-12.25, -51.5)))
          for k0 in (4.0, 12.0) for center in centers],
        (1.0, 4.0, -32.1),
    ])
    def test_approaching_packet_is_never_ready(self, sigma, k0, center):
        # on the small_scenario box (G = 2048, L = 64): its lobe far from the
        # barrier and all of it still to scatter
        psi = make_gaussian(Grid1D(half_width=64.0, points=2048),
                            WavepacketSpec(center, k0, sigma))
        assert not measurement_ready(psi, BarrierPotential(26.787825, 0.5))

    @pytest.mark.parametrize("launch", [15.0, -15.0])
    def test_quiet_packet_heading_for_the_barrier_is_not_ready(self, launch):
        # on either side, far from the barrier and quiet on it, but heading
        # for it: only the inbound test holds it back; heading away from
        # it, the same packet is ready
        barrier = BarrierPotential(26.787825, 0.5)
        grid = Grid1D(half_width=64.0, points=2048)
        towards, away = (make_gaussian(grid, WavepacketSpec(launch, k0, 1.0))
                         for k0 in (math.copysign(8.0, -launch), math.copysign(8.0, launch)))
        assert barrier_region_amplitude(towards, barrier) < 1e-6
        assert measurement_ready(away, barrier)
        assert not measurement_ready(towards, barrier)

    def test_amplitude_in_barrier_blocks_measurement(self, grid):
        psi = make_gaussian(grid, WavepacketSpec(-10.0, -8.0, 1.0))
        barrier = BarrierPotential(8.0, 22.0)  # support reaches the packet
        assert barrier_region_amplitude(psi, barrier) > 1e-3
        assert not measurement_ready(psi, barrier)

    def test_threshold_is_configurable(self, grid):
        psi = make_gaussian(grid, WavepacketSpec(-7.0, -8.0, 1.0))
        barrier = BarrierPotential(8.0, 4.0)
        amp = barrier_region_amplitude(psi, barrier)
        assert not measurement_ready(psi, barrier, barrier_amplitude_max=amp / 2.0)
        assert measurement_ready(psi, barrier, barrier_amplitude_max=amp * 2.0)


class TestSimulatedTransmission:
    def test_mostly_transmitting_barrier(self, grid):
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        barrier = BarrierPotential(8.0, 0.5)
        t_sim, t_meas = simulated_transmission(
            grid, spec, barrier,
            dt=5e-4, max_steps=10_000, check_every=100,
        )
        assert t_meas > 1.25  # flight time to the barrier alone
        expected = expected_packet_transmission(spec, barrier)
        assert t_sim == pytest.approx(expected, abs=0.01)

    def test_result_is_a_probability_split(self, grid):
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        barrier = BarrierPotential(30.0, 0.5)
        t_sim, _ = simulated_transmission(
            grid, spec, barrier,
            dt=5e-4, max_steps=10_000, check_every=100,
        )
        assert 0.0 < t_sim < 1.0

    def test_packet_moving_away_is_refused_at_launch(self, grid, monkeypatch):
        # it is ready to measure before it flies, with nothing to scatter:
        # the flight refuses it before any step rather than measure it at once
        spec = WavepacketSpec(center=-10.0, wavenumber=-8.0, sigma=1.0)
        barrier = BarrierPotential(8.0, 0.5)
        calls = []
        monkeypatch.setattr(propagator, "evolve", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigurationError, match="packet launched at -10 with wavenumber -8 is "
                                                     "ready before it flies: nothing to scatter"):
            simulated_transmission(
                grid, spec, barrier,
                dt=5e-4, max_steps=400, check_every=100,
            )
        assert calls == []

    def test_split_off_the_barrier_centre_is_refused(self, grid, monkeypatch):
        # boundary stays a positional slot; the split is the barrier's centre x = 0
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        calls = []
        monkeypatch.setattr(propagator, "evolve", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigurationError, match="the split is the barrier centre x = 0, not 2.0"):
            simulated_transmission(grid, spec, BarrierPotential(8.0, 0.5), 5e-4, 400, 100, 2.0)
        assert calls == []

    def test_edge_limit_reaches_the_flight(self, grid):
        # the launch's Gaussian tail on the edges already exceeds 1e-300:
        # no free flight, and the first stepped chunk raises
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        with pytest.raises(BoundaryContaminationError, match="exceeded 1e-300 after 1 steps"):
            simulated_transmission(grid, spec, BarrierPotential(8.0, 0.5),
                                   5e-4, 400, 100, None, 1e-300)

    def test_never_arriving_packet_times_out(self, grid):
        # approaching, but 400 steps take it 1.6 of the 10 to the barrier
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        barrier = BarrierPotential(8.0, 0.5)
        with pytest.raises(CalibrationError, match="not met") as caught:
            simulated_transmission(
                grid, spec, barrier,
                dt=5e-4, max_steps=400, check_every=100,
            )
        # the error says how far the packet got: it never reached the
        # barrier, and never the box edges
        found = re.search(r"the packet: barrier amplitude (\S+) at the last chunk, "
                          r"peak edge amplitude (\S+)$", str(caught.value))
        assert found
        on_barrier, edge = map(float, found.groups())
        assert on_barrier < 1e-3
        assert edge <= 1e-6


FAR_BOX = Grid1D(half_width=64.0, points=2048)
FAR_BARRIER = BarrierPotential(26.787825, 0.5)
FAR_RUN = dict(dt=5e-4, max_steps=12_000, check_every=200)


def stepped_flight(grid, spec, barrier, dt, max_steps, check_every, barrier_amplitude_max):
    """(T, t_meas) of a packet stepped from launch in plain chunked `evolve` calls.

    Measured at the first chunk that passes `measurement_ready` once the
    packet has reached 1e-3 on the barrier at some chunk: a gate that
    remembers the flight, which the stateless test has to agree with.
    """
    psi = make_gaussian(grid, spec)
    visited = False
    for _ in range(max_steps // check_every):
        psi = evolve(psi, barrier, PropagationParams(dt, check_every)).psi
        visited = visited or barrier_region_amplitude(psi, barrier) >= 1e-3
        if visited and measurement_ready(psi, barrier, barrier_amplitude_max):
            positive = psi.values[grid.split_index:]  # x >= 0
            return float(np.sum(np.abs(positive) ** 2) * grid.dx), psi.t
    raise AssertionError("the stepped flight was never measured")


class TestFreeFlightBeforeTheBarrier:
    @pytest.mark.parametrize("barrier, gate", [
        (FAR_BARRIER, propagator.DEFAULT_BARRIER_AMPLITUDE_MAX),
        # the width-1.0 barrier at the committed configs' gate: its resonance
        # makes the free flight's error largest (2.3e-9 here, 3.2e-9 launched at -19)
        (BarrierPotential(28.67, 1.0), 1e-3),
    ], ids=["width-0.5", "width-1.0"])
    def test_driver_matches_a_flight_stepped_from_launch(self, barrier, gate):
        # free flight leaves out the barrier's phases on the up to
        # FREE_FLIGHT_AMPLITUDE_MAX that reaches the barrier before the
        # first stepped chunk: T moves, within the error budget
        spec = WavepacketSpec(center=-20.0, wavenumber=8.0, sigma=1.0)
        run = dict(FAR_RUN, barrier_amplitude_max=gate)
        t_sim, t_meas = simulated_transmission(FAR_BOX, spec, barrier, **run)
        t_ref, t_meas_ref = stepped_flight(FAR_BOX, spec, barrier, **run)
        assert t_meas == t_meas_ref
        assert abs(t_sim - t_ref) <= propagator.TOL_A

    @pytest.mark.parametrize("center, first_stepped", [
        (-20.0, 1.3),  # at most 5e-7 on the barrier until t = 1.3
        (-7.0, 0.0),  # about 7e-6 on the barrier at launch: stepped from the start
    ])
    def test_steps_begin_at_the_first_chunk_that_reaches_the_barrier(
        self, monkeypatch, center, first_stepped
    ):
        spec = WavepacketSpec(center=center, wavenumber=8.0, sigma=1.0)
        launch_amplitude = barrier_region_amplitude(make_gaussian(FAR_BOX, spec), FAR_BARRIER)
        assert (launch_amplitude > propagator.FREE_FLIGHT_AMPLITUDE_MAX) == (first_stepped == 0.0)
        starts = []
        real = propagator.evolve

        def spy(psi, *args, **kwargs):
            starts.append(psi.t)
            return real(psi, *args, **kwargs)

        monkeypatch.setattr(propagator, "evolve", spy)
        _, t_meas = simulated_transmission(FAR_BOX, spec, FAR_BARRIER, **FAR_RUN)
        chunk_t = FAR_RUN["dt"] * FAR_RUN["check_every"]
        assert starts[0] == pytest.approx(first_stepped, abs=1e-12)
        assert len(starts) == round((t_meas - first_stepped) / chunk_t)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_offset_entry_covers_every_admitted_offset(self, sigma):
        # compose_b multiplies A's spectrum, and so A's free-flight error, by
        # at most FREE_FLIGHT_AMPLITUDE_MAX / OFFSET_FREE_FLIGHT_AMPLITUDE_MAX
        # at every offset COMPOSE_LOSS_MAX admits, out to the band's edge
        spec = WavepacketSpec(center=-20.0, wavenumber=8.0, sigma=sigma)
        flat = Wavefunction(FAR_BOX, np.fft.ifft(np.ones(FAR_BOX.points)))
        bound = propagator.FREE_FLIGHT_AMPLITUDE_MAX / propagator.OFFSET_FREE_FLIGHT_AMPLITUDE_MAX
        admitted = []
        for offset in np.linspace(-1.6, 1.6, 321):
            dk = offset / sigma
            if propagator.composition_loss(FAR_BOX, spec, dk) <= propagator.COMPOSE_LOSS_MAX:
                gain = np.abs(np.fft.fft(propagator.compose_b(flat, spec, 0.0, dk).values)).max()
                assert gain <= bound, offset
                admitted.append(abs(offset))
        assert 1.45 < max(admitted) < 1.6

    def test_free_chunks_take_the_launch_readiness(self, monkeypatch):
        # the launch is tested once, before the first chunk; then only stepped chunks are
        spec = WavepacketSpec(center=-20.0, wavenumber=8.0, sigma=1.0)
        tested, starts = [], []
        real_test, real_evolve = propagator.unready_reason, propagator.evolve
        monkeypatch.setattr(propagator, "unready_reason",
                            lambda psi, *args: tested.append(psi.t) or real_test(psi, *args))
        monkeypatch.setattr(propagator, "evolve",
                            lambda psi, *args: starts.append(psi.t) or real_evolve(psi, *args))
        chunks = []
        for psi, ready, _, _ in evolve_until_measured(
            make_gaussian(FAR_BOX, spec), FAR_BARRIER, **FAR_RUN, barrier_amplitude_max=1e-6,
        ):
            chunks.append(psi.t)
            if ready:
                break
        free = [t for t in chunks if t <= starts[0]]
        assert len(free) == 13  # t = 0.1 to 1.3, as above
        assert tested == [0.0] + chunks[len(free):]

    def test_edge_error_after_a_free_flight_reads_as_a_stepped_flight(self):
        # half the launch heads slowly for the barrier, which keeps every
        # chunk unready; the other half, flown free with it, runs left into
        # the box edge in the chunk after t = 1.1, which is then stepped
        # from its start
        grid = Grid1D(half_width=64.0, points=2048)
        barrier = BarrierPotential(26.787825, 0.5)
        values = sum(make_gaussian(grid, WavepacketSpec(center, k0, 1.0)).values
                     for center, k0 in ((-30.0, 4.0), (-20.0, -32.0)))
        launch = Wavefunction(grid, values / np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx))
        run = dict(dt=5e-4, max_steps=12_000, check_every=200)
        readies = []
        with pytest.raises(BoundaryContaminationError) as driven:
            for _, ready, _, _ in evolve_until_measured(
                launch, barrier, **run, barrier_amplitude_max=1e-6,
            ):
                readies.append(ready)
        assert len(readies) == 11 and not any(readies)
        psi = launch
        with pytest.raises(BoundaryContaminationError) as stepped:
            while True:
                psi = evolve(psi, barrier, PropagationParams(run["dt"], run["check_every"])).psi
        assert psi.t > 1.0
        assert str(driven.value) == str(stepped.value)

    def test_bad_step_or_barrier_fails_before_any_free_flight(self):
        # a budget of one chunk, flown free at either step size: checks left to the steps never run
        spec = WavepacketSpec(center=-20.0, wavenumber=8.0, sigma=1.0)
        free_budget = dict(FAR_RUN, max_steps=200)
        with pytest.raises(StabilityError):
            simulated_transmission(FAR_BOX, spec, FAR_BARRIER, **dict(free_budget, dt=2.6e-3))
        with pytest.raises(ConfigurationError, match="box edges"):
            simulated_transmission(FAR_BOX, spec, BarrierPotential(26.787825, 128.0),
                                   **free_budget)


class TestCalibration:
    def test_small_grid_calibration_hits_target(self, grid):
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        result = calibrate_barrier(
            grid, spec, width=0.5, target=0.5, tol=0.01,
            dt=5e-4, max_steps=12_000, check_every=200,
        )
        assert abs(result.transmission - 0.5) <= 0.01
        assert result.barrier.width == 0.5
        assert result.iterations == len(result.history)
        assert result.measurement_time > 0.0
        heights = [h for h, _ in result.history]
        assert result.barrier.height in heights

    def test_rejects_bad_target_and_tol(self, grid):
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        with pytest.raises(ConfigurationError):
            calibrate_barrier(grid, spec, width=0.5, target=0.0, tol=0.005)
        with pytest.raises(ConfigurationError):
            calibrate_barrier(grid, spec, width=0.5, target=0.5, tol=0.0)
        with pytest.raises(ConfigurationError, match="max_iterations"):
            calibrate_barrier(grid, spec, width=0.5, target=0.5, tol=0.005, max_iterations=0)

    def test_each_run_tests_its_launch_once(self, monkeypatch):
        # the benchmark's seed-0 calibrate_thick: one run, whose launch the
        # flight tests before its first chunk, and nothing else does
        tested = []
        real = propagator.unready_reason
        monkeypatch.setattr(propagator, "unready_reason",
                            lambda psi, *args: tested.append(psi.t) or real(psi, *args))
        result = calibrate_barrier(
            Grid1D(half_width=64.0, points=4096), WavepacketSpec(-20.0, 8.0, 1.0), width=1.0,
            target=0.5, tol=0.005, dt=5e-4, max_steps=60_000, barrier_amplitude_max=1e-3,
        )
        assert result.iterations == 1
        assert tested.count(0.0) == 1

    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_budget_exhaustion_reports_history(self, grid, max_iterations):
        # no run lands within 1e-9, so the budget alone ends the search
        spec = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
        with pytest.raises(CalibrationError) as caught:
            calibrate_barrier(
                grid, spec, width=0.5, target=0.5, tol=1e-9,
                dt=5e-4, max_steps=12_000, check_every=200,
                max_iterations=max_iterations,
            )
        assert len(caught.value.history) == max_iterations
        assert f"within {max_iterations} runs" in str(caught.value)


def eighty_halvings(transmission, target, v_hi):
    """The analytic seed as first written: always 80 halvings of [0, v_hi]."""
    v_lo = 0.0
    while transmission(v_hi) > target and v_hi < 1e6:
        v_hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (v_lo + v_hi)
        if transmission(mid) > target:
            v_lo = mid
        else:
            v_hi = mid
    return 0.5 * (v_lo + v_hi)


CAL_SPEC = WavepacketSpec(center=-10.0, wavenumber=8.0, sigma=1.0)
CAL_RUN = dict(dt=5e-4, max_steps=12_000, check_every=200)
CAL_TARGET, CAL_TOL = 0.5, 0.005
# near the simulated root of CAL_SPEC on a width-0.5 barrier, 1024-point grid
CAL_ROOT = 26.6


def reference_calibration(grid, width):
    """Calibration as a plain bisection that runs every height it visits.

    Same seed, bracket, widening factors and bisection as
    calibrate_barrier; returns (height, T, t_meas, runs made).
    """
    seed = eighty_halvings(
        lambda v0: propagator.expected_packet_transmission(CAL_SPEC, BarrierPotential(v0, width)),
        CAL_TARGET, max(CAL_SPEC.wavenumber**2, 1.0),
    )
    runs = []

    def simulate(v0):
        runs.append(v0)
        assert len(runs) <= 40
        return simulated_transmission(grid, CAL_SPEC, BarrierPotential(v0, width), **CAL_RUN)

    def within(t):
        return abs(t - CAL_TARGET) <= CAL_TOL

    lo = 0.75 * seed
    t_lo, m_lo = simulate(lo)
    if within(t_lo):
        return lo, t_lo, m_lo, len(runs)
    while t_lo < CAL_TARGET:
        assert lo > 0.0
        lo = 0.0 if lo < 0.05 * seed else 0.5 * lo
        t_lo, m_lo = simulate(lo)
        if within(t_lo):
            return lo, t_lo, m_lo, len(runs)
    hi = 1.3 * seed
    t_hi, m_hi = simulate(hi)
    if within(t_hi):
        return hi, t_hi, m_hi, len(runs)
    while t_hi > CAL_TARGET:
        lo = hi
        hi *= 1.6
        t_hi, m_hi = simulate(hi)
        if within(t_hi):
            return hi, t_hi, m_hi, len(runs)
    while True:
        assert hi - lo > 1e-12 * hi
        mid = 0.5 * (lo + hi)
        t_mid, m_mid = simulate(mid)
        if within(t_mid):
            return mid, t_mid, m_mid, len(runs)
        if t_mid > CAL_TARGET:
            lo = mid
        else:
            hi = mid


def falling_through(root):
    """A stand-in analytic curve that crosses 1/2 at `root`."""
    return lambda spec, barrier: 1.0 / (1.0 + (barrier.height / root) ** 4)


# (height, T) of every run cases (a)-(d) make, in run order
PINNED_HISTORY = {
    None: (
        (26.787824668530206, 0.4911577732423778),
        (26.639633511255287, 0.5000207237680626),
    ),
    CAL_ROOT / 1.2: (
        (22.149348958333334, 0.7628384024710883),
        (27.971062736978208, 0.422268681534097),
        (26.642320162623214, 0.4998596908818248),
    ),
    CAL_ROOT / 0.6: (
        (44.29869791666667, 0.02686586990392065),
        (23.3394205931752, 0.6978830884028633),
        (29.520314932581968, 0.33937957901463545),
        (26.75108722667831, 0.49335117038416987),
        (26.631505925866787, 0.5005079517581742),
    ),
    CAL_ROOT / 1.5: (
        (17.71947916666667, 0.9319249293729684),
        (25.37298273092584, 0.5768215818753634),
        (27.028709873005475, 0.47684353552501163),
        (26.64521781504423, 0.4996860249627677),
    ),
}


def plateau(slope):
    """A stand-in analytic curve within CAL_TOL of 1/2 all over [16, 40], with `slope` there."""
    def curve(spec, barrier):
        v0 = barrier.height
        return 1.0 if v0 < 16.0 else 0.0 if v0 > 40.0 else 0.5 + slope * (v0 - 28.0)
    return curve


def assert_bracketed_runs_stay_inside(history):
    """Once the runs made hold both ends of a bracket, every later run lies inside it."""
    for n in range(1, len(history)):
        lo, hi = calibration_bracket(history[:n], CAL_TARGET)
        if lo is not None and hi is not None:
            assert lo < history[n][0] < hi


def spy_on_flights(monkeypatch):
    """Record the barrier heights of every driver call calibration makes."""
    calls = []
    real = propagator.evolve_until_measured

    def driver(psi, barrier, *args, **kwargs):
        calls.append(barrier.height)
        return real(psi, barrier, *args, **kwargs)

    monkeypatch.setattr(propagator, "evolve_until_measured", driver)
    return calls


class TestCalibrationRunsOnlyWhatItNeeds:
    def test_seed_stops_halving_once_the_midpoint_stops_moving(self):
        def barrier_curve(v0):
            return expected_packet_transmission(CAL_SPEC, BarrierPotential(v0, 1.0))

        calls = []

        def counted(v0):
            calls.append(v0)
            return barrier_curve(v0)

        seed = _analytic_seed(counted, 0.5, 64.0)
        assert seed == eighty_halvings(barrier_curve, 0.5, 64.0)
        # one look at v_hi, then 54 halvings of [0, 64] reach the float
        # spacing of a seed in [16, 32); the old loop always made 81 calls
        assert 16.0 <= seed < 32.0
        assert len(calls) == 55

    @pytest.mark.parametrize("analytic_root", [
        None,               # (a) the real analytic curve: one Newton step
        CAL_ROOT / 1.2,     # (b) root 17 % low: the first step brackets it
        CAL_ROOT / 0.6,     # (c) root 67 % high: the first run lands far above it
        CAL_ROOT / 1.5,     # (d) root 33 % low: two steps before it is bracketed
    ])
    def test_fewer_runs_than_a_bisection_that_runs_every_point(
        self, grid, monkeypatch, analytic_root
    ):
        if analytic_root is not None:
            monkeypatch.setattr(propagator, "expected_packet_transmission",
                                falling_through(analytic_root))
        *_, reference_runs = reference_calibration(grid, 0.5)
        result = calibrate_barrier(grid, CAL_SPEC, width=0.5, target=CAL_TARGET, tol=CAL_TOL,
                                   **CAL_RUN)
        assert abs(result.transmission - CAL_TARGET) <= CAL_TOL
        assert result.iterations == len(result.history) < reference_runs
        assert_bracketed_runs_stay_inside(result.history)

    @pytest.mark.parametrize("analytic_root", list(PINNED_HISTORY))
    def test_history_is_the_one_at_a_time_record(self, grid, monkeypatch, analytic_root):
        if analytic_root is not None:
            monkeypatch.setattr(propagator, "expected_packet_transmission",
                                falling_through(analytic_root))
        result = calibrate_barrier(grid, CAL_SPEC, width=0.5, target=CAL_TARGET, tol=CAL_TOL,
                                   **CAL_RUN)
        pinned = PINNED_HISTORY[analytic_root]
        assert [h for h, _ in result.history] == pytest.approx([h for h, _ in pinned], rel=1e-12)
        assert [t for _, t in result.history] == pytest.approx([t for _, t in pinned], abs=1e-12)
        assert result.history[-1] == (result.barrier.height, result.transmission)

    def test_an_accepted_prediction_costs_one_flight_of_one_packet(self, grid, monkeypatch):
        # a curve crossing at the simulated root puts its finest midpoint within tol
        monkeypatch.setattr(propagator, "expected_packet_transmission", falling_through(CAL_ROOT))
        calls = spy_on_flights(monkeypatch)
        result = calibrate_barrier(grid, CAL_SPEC, width=0.5, target=CAL_TARGET, tol=CAL_TOL,
                                   **CAL_RUN)
        assert calls == [result.barrier.height]
        assert result.iterations == 1
        assert result.history == ((result.barrier.height, result.transmission),)

    @pytest.mark.parametrize("slope", [0.0, 1e-4], ids=["flat", "rising"])
    def test_a_slope_that_does_not_fall_widens_the_bracket(self, grid, monkeypatch, slope):
        monkeypatch.setattr(propagator, "expected_packet_transmission", plateau(slope))
        run = dict(target=CAL_TARGET, tol=CAL_TOL, **CAL_RUN)
        result = calibrate_barrier(grid, CAL_SPEC, width=0.5, max_iterations=8, **run)
        assert abs(result.transmission - CAL_TARGET) <= CAL_TOL
        (first, t_first), (second, _) = result.history[:2]
        # no Newton step: the second run is at the widened end of the bracket
        assert second == (1.6 * first if t_first > CAL_TARGET else 0.5 * first)
        assert_bracketed_runs_stay_inside(result.history)
        budget = result.iterations - 1
        with pytest.raises(CalibrationError, match=f"within {budget} runs") as caught:
            calibrate_barrier(grid, CAL_SPEC, width=0.5, max_iterations=budget, **run)
        assert tuple(caught.value.history) == result.history[:-1]

    def test_a_step_that_leaves_the_bracket_bisects_it(self, grid, monkeypatch):
        # a stand-in simulated curve 30 times steeper than the analytic one at
        # its root: Newton and secant steps overshoot, or stall on its plateau
        def steep(grid, spec, barrier, **_):
            return 0.5 - 0.5 * math.tanh(4.0 * (barrier.height - CAL_ROOT)), 1.0

        monkeypatch.setattr(propagator, "simulated_transmission", steep)
        result = calibrate_barrier(grid, CAL_SPEC, width=0.5, target=CAL_TARGET, tol=CAL_TOL,
                                   **CAL_RUN)
        assert abs(result.transmission - CAL_TARGET) <= CAL_TOL
        assert_bracketed_runs_stay_inside(result.history)
        bisected = []
        for n, (v0, _) in enumerate(result.history):
            lo, hi = calibration_bracket(result.history[:n], CAL_TARGET)
            bisected.append(lo is not None and hi is not None and v0 == 0.5 * (lo + hi))
        assert any(bisected)


@pytest.fixture()
def hang_guard():
    """Fail, instead of hanging the suite, a test still running after 5 s."""
    def expire(*_):
        raise AssertionError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestChunksThatNeverEnd:
    @pytest.mark.parametrize("bad, name", [
        (dict(check_every=0), "check_every"),
        (dict(check_every=-200), "check_every"),
        (dict(max_steps=0), "max_steps"),
    ])
    def test_every_entry_point_refuses_them_at_once(self, grid, hang_guard, bad, name):
        run = dict(CAL_RUN, **bad)
        barrier = BarrierPotential(26.6, 0.5)
        with pytest.raises(ConfigurationError, match=name):
            next(evolve_until_measured(
                make_gaussian(grid, CAL_SPEC), barrier,
                barrier_amplitude_max=1e-6, **run,
            ))
        with pytest.raises(ConfigurationError, match=name):
            simulated_transmission(grid, CAL_SPEC, barrier, **run)
        with pytest.raises(ConfigurationError, match=name):
            calibrate_barrier(grid, CAL_SPEC, width=0.5, target=CAL_TARGET, tol=CAL_TOL, **run)
