"""Split-operator propagation over a rectangular barrier.

Second-order Strang splitting per step dt:

    psi <- exp(-i V dt/2) F^-1 exp(-i k^2 dt/2) F exp(-i V dt/2) psi

Every factor is a pure phase, so the discrete norm is conserved to
rounding no matter the step size; dt still has to keep the largest
kinetic phase under pi per step or the fastest modes alias.

The barrier sits at the origin and is sampled sharply, no smoothing: a
grid sample x_j carries V0 when it falls in [-width/2, width/2), so a
barrier whose edges sit on grid points covers exactly width/dx samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    BoundaryContaminationError,
    CalibrationError,
    ConfigurationError,
    StabilityError,
)
from .grid import Grid1D, WavepacketSpec, Wavefunction, make_gaussian, momentum_split

EDGE_AMPLITUDE_MAX = 1e-6  # on either box-edge sample, past which the periodic box wraps
INBOUND_MASS_MAX = 1e-4  # mass moving towards the barrier below which a packet has scattered
CHECK_EVERY = 200  # steps per chunk of a flight, each ending in a readiness test

# error budget in a = (p20 + p02)/2 that sets both ends of a flight's stepped
# stretch, far below the grid's own error in a (1.2e-5 at width 0.5, 5.9e-4
# at width 1.0)
TOL_A = 5e-9

# amplitude on the barrier support up to which evolve_until_measured flies a
# packet free, the barrier's phases left out: that moves T and a by up to
# ~0.01 x amplitude (a width-1.0 barrier's resonance; 1e-4 x at width 0.5),
# so TOL_A / 0.01 = 5e-7
FREE_FLIGHT_AMPLITUDE_MAX = TOL_A / 0.01

# the default measurement gate on the barrier amplitude: a packet read out
# with amplitude alpha still on the barrier, and a B composed from it, move
# a by up to ~2.5 alpha^2 (close packets on a width-1.0 barrier's draining
# resonance), so sqrt(TOL_A / 2.5) ~ 4.5e-5
DEFAULT_BARRIER_AMPLITUDE_MAX = math.sqrt(TOL_A / 2.5)


@dataclass(frozen=True)
class BarrierPotential:
    """Rectangular barrier of height v0 over [-width/2, width/2)."""

    height: float
    width: float

    def __post_init__(self):
        if self.height < 0:
            raise ConfigurationError(f"barrier height must be >= 0, got {self.height}")
        if not self.width > 0:
            raise ConfigurationError(f"barrier width must be positive, got {self.width}")

    @property
    def support(self) -> tuple[float, float]:
        half = 0.5 * self.width
        return -half, half

    def validate_on(self, grid: Grid1D) -> None:
        lo, hi = self.support
        if lo <= -grid.half_width or hi >= grid.half_width:
            raise ConfigurationError(
                f"barrier support [{lo}, {hi}) reaches the box edges"
            )
        if grid.dx > self.width / 8.0:
            raise ConfigurationError(
                f"dx = {grid.dx} too coarse for a sharp edge: need dx <= width/8 = {self.width / 8.0}"
            )

    def sample_mask(self, grid: Grid1D) -> np.ndarray:
        lo, hi = self.support
        return (grid.x >= lo) & (grid.x < hi)

    def sample(self, grid: Grid1D) -> np.ndarray:
        """Potential values on the grid."""
        return np.where(self.sample_mask(grid), self.height, 0.0)


@dataclass(frozen=True)
class PropagationParams:
    """Step size and step count for one evolution stretch."""

    dt: float
    steps: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {self.steps}")

    def validate_on(self, grid: Grid1D) -> None:
        phase = 0.5 * self.dt * grid.k_max**2
        if not phase < np.pi:
            raise StabilityError(
                f"kinetic phase per step dt*k_max^2/2 = {phase:.3g} must stay below pi; "
                f"reduce dt below {2.0 * np.pi / grid.k_max**2:.3g}"
            )


@dataclass(frozen=True)
class EvolutionResult:
    """Final state plus the largest box-edge amplitude seen along the way."""

    psi: Wavefunction
    max_edge_amplitude: float


@lru_cache(maxsize=16)
def _phase_factors(grid: Grid1D, barrier: BarrierPotential, dt: float):
    """(span of the barrier's samples, half-potential phases over it, kinetic phases)."""
    covered = np.flatnonzero(barrier.sample_mask(grid))
    span = slice(covered[0], covered[-1] + 1)
    half_potential = np.exp(-0.5j * dt * barrier.sample(grid)[span])
    kinetic = np.exp(-0.5j * dt * grid.k**2)
    half_potential.setflags(write=False)
    kinetic.setflags(write=False)
    return span, half_potential, kinetic


def evolve(
    psi: Wavefunction,
    barrier: BarrierPotential,
    params: PropagationParams,
    edge_amplitude_max: float = EDGE_AMPLITUDE_MAX,
) -> EvolutionResult:
    """Run `params.steps` Strang steps, watching the box edges.

    The packet is transformed in place, one FFT call per direction and
    step.  The half-potential phases are applied only over the span of
    samples the barrier covers: outside it every factor is exactly 1.

    Raises BoundaryContaminationError as soon as the amplitude at either
    edge sample exceeds `edge_amplitude_max`; with the periodic box that
    means the scenario outgrew the grid.  The error counts the steps
    since t = 0, taken at this `dt`.
    """
    grid = psi.grid
    params.validate_on(grid)
    barrier.validate_on(grid)
    span, half_potential, kinetic = _phase_factors(grid, barrier, params.dt)
    values = np.array(psi.values)
    max_edge = 0.0
    for n in range(params.steps):
        values[span] *= half_potential
        np.fft.fft(values, out=values)
        np.multiply(kinetic, values, out=values)
        np.fft.ifft(values, out=values)
        values[span] *= half_potential
        edge = max(abs(values[0]), abs(values[-1]))
        max_edge = max(max_edge, edge)
        if edge > edge_amplitude_max:
            raise BoundaryContaminationError(
                f"edge amplitude {edge:.3g} exceeded {edge_amplitude_max:.3g} "
                f"after {round(psi.t / params.dt) + n + 1} steps "
                f"(t = {psi.t + (n + 1) * params.dt:.6g})"
            )
    psi = Wavefunction(grid, values, t=psi.t + params.steps * params.dt)
    return EvolutionResult(psi=psi, max_edge_amplitude=float(max_edge))


def analytic_plane_transmission(
    k: float | np.ndarray, barrier: BarrierPotential
) -> float | np.ndarray:
    """Transmission probability of a plane wave with wavenumber k > 0.

    Standard rectangular-barrier result at E = k^2/2 (hbar = m = 1):

        E < V0:  T = 1 / (1 + V0^2 sinh^2(kappa w) / (4 E (V0 - E)))
        E > V0:  T = 1 / (1 + V0^2 sin^2(q w) / (4 E (E - V0)))

    with kappa = sqrt(2(V0 - E)) and q = sqrt(2(E - V0)); both branches
    meet continuously at E = V0 where T = 1 / (1 + V0 w^2 / 2).  Takes
    a float, giving a float, or an array of k, giving T elementwise.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(k > 0):
        raise ValueError(f"need k > 0, got {k.min() if k.ndim else k}")
    v0 = barrier.height
    w = barrier.width
    energy = 0.5 * k * k
    u = 2.0 * (v0 - energy)
    root = np.sqrt(np.abs(u)) * w
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # h(u) = sinh^2(sqrt(u) w)/u continued through u = 0; series keeps it smooth
        h = np.where(
            np.abs(u) * w * w < 1e-8,
            w * w * (1.0 + u * w * w / 3.0),
            np.where(u > 0, np.sinh(root) ** 2 / u, -(np.sin(root) ** 2) / u),
        )
        transmission = 1.0 / (1.0 + v0 * v0 * h / (2.0 * energy))
    transmission = np.where((u > 0) & (root > 350.0), 0.0, transmission)
    if v0 == 0.0:
        transmission = np.ones_like(k)
    return float(transmission) if transmission.ndim == 0 else transmission


def expected_packet_transmission(
    spec: WavepacketSpec, barrier: BarrierPotential
) -> float:
    """Momentum-averaged analytic transmission of a Gaussian packet.

    Integrates T(k) against the packet's momentum density

        |phi(k)|^2 = sigma sqrt(2/pi) exp(-2 sigma^2 (k - k0)^2)

    by the trapezoid rule on 2,001 equally spaced nodes over k0 +- 12
    sigma_k.  T is analytic in k (sinh^2(sqrt(u) w)/u is entire in u, so
    E = V0 is no kink) and the weight decays fast, so the sum converges
    geometrically: for k0 in [4, 8], sigma in [0.5, 2] and widths <= 1 it
    is within 1.3e-14 of an 8,001-node sum (2e-9 at width 2, sigma 0.5).
    Modes with k <= 0 are treated as not transmitted; their weight is
    negligible for the packets this toolkit accepts (k0 sigma of order 8
    puts k = 0 sixteen standard deviations out).
    """
    sigma = spec.sigma
    k0 = spec.wavenumber
    if not sigma > 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    sigma_k = 0.5 / sigma
    lo = max(k0 - 12.0 * sigma_k, 1e-12)
    hi = k0 + 12.0 * sigma_k
    if hi <= lo:
        raise ConfigurationError("packet momentum support is entirely non-positive")
    k = np.linspace(lo, hi, 2001)
    weight = sigma * math.sqrt(2.0 / math.pi) * np.exp(-2.0 * sigma**2 * (k - k0) ** 2)
    return float(np.trapezoid(weight * analytic_plane_transmission(k, barrier), k))


def unready_reason(
    psi: Wavefunction,
    barrier: BarrierPotential,
    barrier_amplitude_max: float = DEFAULT_BARRIER_AMPLITUDE_MAX,
) -> str | None:
    """The readiness test the packet fails, in words; None once it has scattered.

    Two tests, the cheaper first: at most `barrier_amplitude_max` on the
    barrier support, and less than INBOUND_MASS_MAX moving towards the
    barrier (right-moving left of x = 0 or left-moving right of it, one
    FFT pair).  Past both, its momentum sign says where it ends.
    """
    amplitude = barrier_region_amplitude(psi, barrier)
    if amplitude > barrier_amplitude_max:
        return f"amplitude {amplitude:.3g} on the barrier, over {barrier_amplitude_max:.3g}"
    right = np.fft.ifft(np.fft.fft(psi.values) * (psi.grid.k > 0))
    i0 = psi.grid.split_index
    inbound = (np.sum(np.abs(right[:i0]) ** 2)
               + np.sum(np.abs(psi.values[i0:] - right[i0:]) ** 2)) * psi.grid.dx
    if not inbound < INBOUND_MASS_MAX:
        return f"mass {inbound:.3g} still moving towards the barrier"
    return None


def measurement_ready(
    psi: Wavefunction,
    barrier: BarrierPotential,
    barrier_amplitude_max: float = DEFAULT_BARRIER_AMPLITUDE_MAX,
) -> bool:
    """True once the packet has scattered (`unready_reason` finds no test it fails)."""
    return unready_reason(psi, barrier, barrier_amplitude_max) is None


def barrier_region_amplitude(psi: Wavefunction, barrier: BarrierPotential) -> float:
    """Largest |psi| over the barrier support samples."""
    mask = barrier.sample_mask(psi.grid)
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(psi.values[mask])))


def edge_amplitude(psi: Wavefunction) -> float:
    """Larger |psi| of the two box-edge samples."""
    return float(max(abs(psi.values[0]), abs(psi.values[-1])))


# at a wavenumber offset, the amplitude a composed B may still hold on the
# barrier when its row is read: the ratio amplifies A's residual there, and
# a gate of 5e-5 lets that residual reach the box edges (invalid rows)
COMPOSED_B_AMPLITUDE_MAX = 1e-6

# at a wavenumber offset, B is composed only where A's launch spectrum is at
# least this fraction of its peak: further out the ratio of launch spectra
# blows A's rounding noise up into B (B's norm reaches 5e14 at d = 0,
# dk = 0.25 without a cut).  1e-12 and 1e-8 both gave larger errors in a.
COMPOSE_SPECTRUM_CUT = 1e-10

# largest share of B's launch norm the cut may drop: rows then stay within
# 1e-10 of a B evolved for real (measured up to |dk| = 1.5 at sigma = 1,
# where the loss is 2.5e-11).  Beyond it the error follows the loss up
# (3.4e-10 at |dk| = 1.7), and a slow B waits on A's amplified low-|k|
# remnant at the barrier.
COMPOSE_LOSS_MAX = 3e-11

# free-flight entry of a packet A that B is composed from at dk != 0: the
# ratio multiplies A's free-flight error by up to its peak
# exp(2 r s - s^2), r = sqrt(ln(1 / COMPOSE_SPECTRUM_CUT)), s = sigma |dk|,
# which is below 2.5e5 at every offset COMPOSE_LOSS_MAX admits (s < 1.53).
# One flat entry for all offsets, so a row's flight never depends on the
# other rows of its sweep.
OFFSET_FREE_FLIGHT_AMPLITUDE_MAX = FREE_FLIGHT_AMPLITUDE_MAX / 2.5e5


def _below_cut(k: np.ndarray, spec_a: WavepacketSpec) -> np.ndarray:
    """Where A's launch spectrum falls below COMPOSE_SPECTRUM_CUT of its peak."""
    return np.exp(-(spec_a.sigma * (k - spec_a.wavenumber)) ** 2) < COMPOSE_SPECTRUM_CUT


def compose_b(
    psi_a: Wavefunction, spec_a: WavepacketSpec, separation: float, wavenumber_offset: float
) -> Wavefunction:
    """Packet B, launched `separation` d behind A at `wavenumber_offset` dk above it, composed from A.

    `psi_a` is packet A, launched as `spec_a`; B has A's width sigma.
    The barrier's S-matrix is diagonal in |k|, so at every |k| both
    packets keep the ratio of their launch spectra (make_gaussian's
    Gaussians):

        B(+-|k|, t) = exp(-sigma^2 [(|k| - k_B)^2 - (|k| - k_A)^2]
                          + i [(|k| - k_B) d + dk x_A]) A(+-|k|, t).

    At dk = 0 that is a shift: B's right-moving part (incident packet,
    then transmitted lobe) is A's moved back by d, its left-moving part
    (reflected lobe) A's moved forward by d.  At dk != 0 the ratio is 0
    wherever A's launch spectrum is below COMPOSE_SPECTRUM_CUT of its
    peak; `composition_loss` is the share of B's launch norm that drops.
    Exact once A has left the barrier: amplitude still on it is carried
    as if it flew free (at dk != 0 amplified by the ratio), so compose
    B only from an A below DEFAULT_BARRIER_AMPLITUDE_MAX there.  With
    d = dk = 0, B is A.
    """
    if separation == 0.0 and wavenumber_offset == 0.0:
        return psi_a
    k = np.abs(psi_a.grid.k)
    k_a = spec_a.wavenumber
    k_b = k_a + wavenumber_offset
    ratio = np.exp(-spec_a.sigma**2 * ((k - k_b) ** 2 - (k - k_a) ** 2)
                   + 1j * ((k - k_b) * separation + wavenumber_offset * spec_a.center))
    if wavenumber_offset != 0.0:
        ratio[_below_cut(k, spec_a)] = 0.0
    return Wavefunction(psi_a.grid, np.fft.ifft(np.fft.fft(psi_a.values) * ratio), psi_a.t)


def composition_loss(grid: Grid1D, spec_a: WavepacketSpec, wavenumber_offset: float) -> float:
    """Share of B's launch norm that `compose_b` drops on `grid`.

    B's momentum density exp(-2 sigma^2 (k - k_B)^2) summed where A's
    launch spectrum falls below the cut, over its sum on the whole
    grid.  0 at dk = 0, which cuts nothing.
    """
    if wavenumber_offset == 0.0:
        return 0.0
    k = grid.k
    density = np.exp(-2.0 * (spec_a.sigma * (k - spec_a.wavenumber - wavenumber_offset)) ** 2)
    return float(np.sum(density[_below_cut(k, spec_a)]) / np.sum(density))


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated barrier plus the record of the runs made.

    `history` holds one (height, transmission) pair per full run, in run
    order, and `iterations` is its length.  The accepted height is the
    last of them, the only run that landed within tol of the target:
    its transmission and measurement time come from that run.
    `calibration_bracket` reads the bracket the runs made off `history`.
    """

    barrier: BarrierPotential
    transmission: float
    iterations: int
    history: tuple[tuple[float, float], ...]
    measurement_time: float


def calibration_bracket(
    history: Sequence[tuple[float, float]], target: float
) -> tuple[float | None, float | None]:
    """(highest height run above target, lowest height run at or below it).

    With T falling in height the root lies between them; a side no run
    has reached is None.
    """
    above = [v0 for v0, t in history if t > target]
    below = [v0 for v0, t in history if t <= target]
    return max(above, default=None), min(below, default=None)


def _flies_free(psi: Wavefunction, barrier: BarrierPotential,
                free_flight_amplitude_max: float, edge_amplitude_max: float) -> bool:
    """True while the packet stays within both amplitude limits, on its barrier and on the edges."""
    return (barrier_region_amplitude(psi, barrier) <= free_flight_amplitude_max
            and edge_amplitude(psi) <= edge_amplitude_max)


def evolve_until_measured(
    psi: Wavefunction,
    barrier: BarrierPotential,
    *,
    dt: float,
    max_steps: int,
    check_every: int = CHECK_EVERY,
    barrier_amplitude_max: float,
    edge_amplitude_max: float = EDGE_AMPLITUDE_MAX,
    free_flight_amplitude_max: float = FREE_FLIGHT_AMPLITUDE_MAX,
) -> Iterator[tuple[Wavefunction, bool, int, float]]:
    """Evolve one packet over `barrier`, yielding it after every chunk.

    The packet flies in chunks of `check_every` steps.  Launched with at
    most `free_flight_amplitude_max` on the barrier support and at most
    `edge_amplitude_max` on the box edges, it first flies free: each
    chunk it is the launch state under the exact kinetic phase
    exp(-i k^2 t/2) (one inverse FFT), for as long as the chunk's end
    passes both tests.  That leaves out the barrier's phases on what
    reaches the barrier before then, which at the default entry moves
    T and a by up to TOL_A, not by rounding only.  The first chunk that
    fails a test is stepped from its start by `evolve`, and so is every
    chunk after it: an edge crossing is raised by the steps, with their
    step count.
    `check_every` and `max_steps` must be at least 1 (chunks of 0 steps
    would never end the loop); they, the step size and the barrier are
    checked at the first `next`, before anything flies.  So is the
    launch: a packet that already passes `measurement_ready` has nothing
    to scatter, a ConfigurationError.

    The packet is ready when it passes `measurement_ready` at
    `barrier_amplitude_max`, a test of the chunk's state alone; a free
    chunk is as unready as the launch, tested once.  After each
    chunk it yields `(psi, ready, steps_done, leakage)`: the packet's
    state, its ready flag, the steps taken since launch and its peak edge
    amplitude so far (at the chunk ends of the free flight, at every
    step after it).  It stops once `max_steps` run out; the caller
    measures the state it wants and stops asking.
    """
    for name, value in (("check_every", check_every), ("max_steps", max_steps)):
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")
    grid = psi.grid
    PropagationParams(dt=dt, steps=check_every).validate_on(grid)
    barrier.validate_on(grid)
    if measurement_ready(psi, barrier, barrier_amplitude_max):
        density = np.abs(psi.values) ** 2
        spectrum = np.abs(np.fft.fft(psi.values)) ** 2
        raise ConfigurationError(
            f"packet launched at {np.sum(grid.x * density) / np.sum(density):.6g} with wavenumber "
            f"{np.sum(grid.k * spectrum) / np.sum(spectrum):.6g} is ready before it flies: "
            f"nothing to scatter")
    leakage = 0.0
    # the launch spectrum while the packet flies free, None once it is stepped;
    # free flight turns no mass around, so every free chunk keeps the launch's
    # answer: not ready
    free = (np.fft.fft(psi.values)
            if _flies_free(psi, barrier, free_flight_amplitude_max, edge_amplitude_max) else None)
    ready = False
    steps_done = 0
    while steps_done < max_steps:
        params = PropagationParams(dt=dt, steps=min(check_every, max_steps - steps_done))
        steps_done += params.steps
        if free is not None:
            flown = Wavefunction(grid, np.fft.ifft(
                free * np.exp(-0.5j * dt * steps_done * grid.k**2)
            ), t=psi.t + params.steps * params.dt)
            if _flies_free(flown, barrier, free_flight_amplitude_max, edge_amplitude_max):
                psi = flown
                leakage = max(leakage, edge_amplitude(flown))
            else:
                free = None
        if free is None:
            result = evolve(psi, barrier, params, edge_amplitude_max)
            psi = result.psi
            leakage = max(leakage, result.max_edge_amplitude)
            ready = measurement_ready(psi, barrier, barrier_amplitude_max)
        yield psi, ready, steps_done, leakage


def flight_progress(psi: Wavefunction, barrier: BarrierPotential, leakage: float) -> str:
    """How far a flight got, for its timeout message.

    `psi` is the packet at the last chunk and `leakage` its peak edge
    amplitude so far: a packet that never arrived holds nothing on the
    barrier, one still draining holds its resonance there.  Also read
    on packet B composed from A at that chunk.
    """
    return (f"barrier amplitude {barrier_region_amplitude(psi, barrier):.3g} at the last chunk, "
            f"peak edge amplitude {leakage:.3g}")


def simulated_transmission(
    grid: Grid1D,
    spec: WavepacketSpec,
    barrier: BarrierPotential,
    dt: float,
    max_steps: int,
    check_every: int = CHECK_EVERY,
    boundary: float | None = None,
    edge_amplitude_max: float = EDGE_AMPLITUDE_MAX,
    barrier_amplitude_max: float = DEFAULT_BARRIER_AMPLITUDE_MAX,
) -> tuple[float, float]:
    """Fly the packet until it has scattered off the barrier; return (T, t_meas).

    T is the packet's probability at k > 0 (`grid.momentum_split`) at
    the first ready chunk of `evolve_until_measured`, its edges held to
    `edge_amplitude_max`.  `boundary` is kept for positional callers:
    one other than None or 0.0, the barrier's centre, is a
    ConfigurationError.  Raises the flight's errors: its refusal of a
    launch that is ready before any step, its edge error, or a
    CalibrationError when `max_steps` run out, which says how far the
    packet got (`flight_progress`).
    """
    if boundary not in (None, 0.0):
        raise ConfigurationError(f"the split is the barrier centre x = 0, not {boundary}")
    psi = make_gaussian(grid, spec)
    for psi, ready, _, leakage in evolve_until_measured(
        psi, barrier, dt=dt, max_steps=max_steps, check_every=check_every,
        barrier_amplitude_max=barrier_amplitude_max, edge_amplitude_max=edge_amplitude_max,
    ):
        if ready:
            spectrum = np.fft.fft(psi.values)
            return momentum_split(spectrum, spectrum, grid)[0].real, psi.t
    raise CalibrationError(
        f"measurement criterion not met within {max_steps} steps "
        f"(t = {max_steps * dt:.6g}) for barrier height {barrier.height:.6g}; "
        f"the packet: {flight_progress(psi, barrier, leakage)}"
    )


def _analytic_seed(transmission: Callable[[float], float], target: float, v_hi: float) -> float:
    """Height where a transmission curve falling in height crosses `target`.

    Doubles `v_hi` (up to 1e6) until it transmits at or below target,
    then bisects [0, v_hi]: at most 80 halvings, stopping early once the
    midpoint lands on a bracket end, after which no halving moves it.
    """
    v_lo = 0.0
    while transmission(v_hi) > target and v_hi < 1e6:
        v_hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (v_lo + v_hi)
        if mid == v_lo or mid == v_hi:
            break
        if transmission(mid) > target:
            v_lo = mid
        else:
            v_hi = mid
    return 0.5 * (v_lo + v_hi)


def calibrate_barrier(
    grid: Grid1D,
    spec: WavepacketSpec,
    width: float,
    target: float,
    tol: float,
    max_iterations: int = 40,
    **flight,
) -> CalibrationResult:
    """Find the barrier height whose simulated transmission hits `target`.

    Transmission is measured from a full split-operator run of the packet
    in `spec`, not from the analytic formula: `simulated_transmission`
    with the flight settings in `flight` (`dt`, `max_steps`, optionally
    `check_every` and `barrier_amplitude_max`).  The search
    accepts the first run with |T - target| <= tol.  The first run is at the first
    midpoint within tol of a bisection of [0.75, 1.3] x seed on the
    analytic momentum-averaged curve, seed being that curve's root (or
    at its last midpoint, after `max_iterations` halvings).
    Every later height is a Newton step from the last run, safeguarded
    as `rtsafe` (Numerical Recipes, 9.4): the first step takes the
    analytic curve's slope dT/dV at the first run, each later one the
    secant through the last two runs.  The runs made give a bracket
    (`calibration_bracket`).  Once it has both ends, a step that leaves
    it, or a slope that does not fall, gives way to its midpoint.  While
    it has one end, the search looks no further than the widened end:
    1.6 x the highest height run when every run transmits above target,
    half the lowest (0 once below 0.05 x seed) when every run transmits
    below it.  A step past that end, or a slope that does not fall,
    runs the widened end itself.  `history` lists the runs made, in
    the order made; the error on failure carries the same record.
    `max_iterations` caps the runs: a run that would make `history`
    longer raises CalibrationError instead, so
    `len(history) <= max_iterations` always holds.
    """
    if not 0.0 < target <= 1.0:
        raise ConfigurationError(f"target transmission must be in (0, 1], got {target}")
    if not tol > 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    if max_iterations < 1:
        raise ConfigurationError(f"max_iterations must be at least 1, got {max_iterations}")
    spec.validate_on(grid)

    def analytic(v0: float) -> float:
        return expected_packet_transmission(spec, BarrierPotential(v0, width))

    seed = _analytic_seed(analytic, target, max(spec.wavenumber**2, 1.0))
    lo, hi = max(0.75 * seed, 0.0), (1.3 * seed if seed > 0 else 1.0)
    for _ in range(max_iterations):
        v0 = 0.5 * (lo + hi)
        t_analytic = analytic(v0)
        if abs(t_analytic - target) <= tol:
            break
        if t_analytic > target:
            lo = v0
        else:
            hi = v0

    history: list[tuple[float, float]] = []
    while True:
        if len(history) >= max_iterations:
            best = min(history, key=lambda vt: abs(vt[1] - target))
            raise CalibrationError(
                f"run budget {max_iterations} spent: no convergence to "
                f"|T - {target}| <= {tol} within {len(history)} runs; "
                f"best |T - target| = {abs(best[1] - target):.4g} at height {best[0]:.6g}",
                history,
            )
        transmission, t_meas = simulated_transmission(
            grid, spec, BarrierPotential(v0, width), **flight
        )
        history.append((v0, transmission))
        if abs(transmission - target) <= tol:
            return CalibrationResult(
                barrier=BarrierPotential(v0, width),
                transmission=transmission,
                iterations=len(history),
                history=tuple(history),
                measurement_time=t_meas,
            )
        if len(history) == 1:  # central difference over +-0.01 % of the height
            slope = (analytic(1.0001 * v0) - analytic(0.9999 * v0)) / (2e-4 * v0)
        else:
            v_last, t_last = history[-2]
            slope = (transmission - t_last) / (v0 - v_last)
        step = v0 + (target - transmission) / slope if slope < 0 else math.nan
        lo, hi = calibration_bracket(history, target)
        if lo is None:  # every run transmits below target: widen downwards
            if hi == 0.0:
                raise CalibrationError(
                    f"even with no barrier the run transmits {transmission:.4g} < target {target}",
                    history,
                )
            lo = fallback = 0.0 if hi < 0.05 * seed else 0.5 * hi
        elif hi is None:  # every run transmits above target: widen upwards
            hi = fallback = 1.6 * lo
        elif hi - lo <= 1e-12 * max(1.0, hi):
            raise CalibrationError(
                f"bracket collapsed at height {hi:.6g} without reaching tol {tol}; "
                f"best |T - target| = {min(abs(t - target) for _, t in history):.4g}",
                history,
            )
        else:
            fallback = 0.5 * (lo + hi)
        v0 = step if lo < step < hi else fallback
