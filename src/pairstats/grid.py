"""Uniform 1D grid, wavefunctions and Gaussian packets.

Natural units: hbar = 1, m = 1.

The box is [-L, L) sampled at G points (G a power of two for the FFT),
dx = 2L/G, x_j = -L + j*dx.  Propagation treats the box as periodic, so
every scenario has to keep amplitude away from the edges; the helpers
here only integrate, they do not police that.

Packets are minimum-uncertainty Gaussians

    psi(x) = (2 pi sigma^2)^(-1/4) exp(-(x - x0)^2 / (4 sigma^2)) exp(i k0 x)

with sigma the standard deviation of |psi|^2, renormalized on the grid
so the discrete norm is exactly 1.

A position split is at x = 0, where the barrier sits: sample G/2,
since x_{G/2} = -L + (G/2)(2L/G) = 0 exactly for a power-of-two G.
The sample at x = 0 belongs to the positive side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Literal

import numpy as np

from .errors import ConfigurationError, GridMismatchError

Side = Literal["negative", "positive"]

# 16 MiB per complex128 array; a run holds several such arrays per packet
MAX_POINTS = 2**20

_SIDES = ("negative", "positive")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-half_width, half_width) with a power-of-two point count."""

    half_width: float
    points: int

    def __post_init__(self):
        if not self.half_width > 0:
            raise ConfigurationError(f"half_width must be positive, got {self.half_width}")
        p = self.points
        if p < 2 or (p & (p - 1)) != 0:
            raise ConfigurationError(
                f"points must be a power of two >= 2 for the spectral step, got {p}"
            )
        if p > MAX_POINTS:
            raise ConfigurationError(
                f"points must be <= {MAX_POINTS} (16 MiB per complex array), got {p}"
            )

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.points

    @cached_property
    def x(self) -> np.ndarray:
        x = -self.half_width + self.dx * np.arange(self.points)
        x.setflags(write=False)
        return x

    @cached_property
    def k(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)
        k.setflags(write=False)
        return k

    @property
    def k_max(self) -> float:
        """Largest resolved wavenumber magnitude, pi/dx."""
        return np.pi / self.dx

    @property
    def split_index(self) -> int:
        """First sample index on the positive side: x = 0 is sample G/2."""
        return self.points // 2


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """Complex amplitudes on a grid at a fixed time; values are read-only."""

    grid: Grid1D
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        values = np.array(self.values, dtype=np.complex128)
        if values.shape != (self.grid.points,):
            raise GridMismatchError(
                f"values shape {values.shape} does not match grid with {self.grid.points} points"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def norm_sq(self) -> float:
        """Discrete norm squared, sum |psi_j|^2 dx."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx)


@dataclass(frozen=True)
class WavepacketSpec:
    """Center, carrier wavenumber and width of a Gaussian packet."""

    center: float
    wavenumber: float
    sigma: float

    def validate_on(self, grid: Grid1D) -> None:
        """Check the packet fits the grid in position and momentum.

        Support margin: |x0| + 6 sigma < L keeps the tails off the edges.
        Nyquist margin: k0 + 3/sigma < pi/dx keeps the spectrum resolved.
        """
        if not self.sigma > 0:
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")
        support = abs(self.center) + 6.0 * self.sigma
        if not support < grid.half_width:
            raise ConfigurationError(
                f"support margin violated: |x0| + 6 sigma = {support} "
                f"not below half_width = {grid.half_width}"
            )
        k_need = self.wavenumber + 3.0 / self.sigma
        if not k_need < grid.k_max:
            raise ConfigurationError(
                f"Nyquist margin violated: k0 + 3/sigma = {k_need} "
                f"not below pi/dx = {grid.k_max}"
            )


def make_gaussian(grid: Grid1D, spec: WavepacketSpec) -> Wavefunction:
    """Build the Gaussian packet for `spec` at t = 0, discretely normalized."""
    spec.validate_on(grid)
    x = grid.x
    envelope = (2.0 * np.pi * spec.sigma**2) ** (-0.25) * np.exp(
        -((x - spec.center) ** 2) / (4.0 * spec.sigma**2)
    )
    values = envelope * np.exp(1j * spec.wavenumber * x)
    values = values / np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx)
    return Wavefunction(grid, values, t=0.0)


def _check_comparable(psi: Wavefunction, phi: Wavefunction) -> None:
    if psi.grid != phi.grid:
        raise GridMismatchError("wavefunctions live on different grids")
    if abs(psi.t - phi.t) > 1e-9 * max(1.0, abs(psi.t), abs(phi.t)):
        raise GridMismatchError(
            f"wavefunctions are at different times: {psi.t} vs {phi.t}"
        )


def _check_side(side: str) -> None:
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")


def inner_product(psi: Wavefunction, phi: Wavefunction) -> complex:
    """<psi|phi> by the grid rectangle rule."""
    _check_comparable(psi, phi)
    return complex(np.sum(np.conj(psi.values) * phi.values) * psi.grid.dx)


def momentum_split(psi_hat: np.ndarray, phi_hat: np.ndarray, grid: Grid1D) -> tuple[complex, complex]:
    """The k > 0 and k <= 0 parts of <psi|phi> from the packets' FFTs, weighted dx/G (Parseval).

    The two add back to `inner_product` to rounding precision.
    """
    weighted = np.conj(psi_hat) * phi_hat * (grid.dx / grid.points)
    right = grid.k > 0
    return complex(np.sum(weighted[right])), complex(np.sum(weighted[~right]))


def position_std(psi: Wavefunction) -> float:
    """Standard deviation of |psi|^2, assuming unit norm."""
    dens = np.abs(psi.values) ** 2 * psi.grid.dx
    mean = float(np.sum(psi.grid.x * dens))
    var = float(np.sum((psi.grid.x - mean) ** 2 * dens))
    return float(np.sqrt(max(var, 0.0)))


def side_moments(psi: Wavefunction, side: Side) -> tuple[float, float, float]:
    """(mass, mean, std) of |psi|^2 restricted to one side of x = 0.

    Mean and std are conditional on the side; both are nan when the side
    carries no mass.
    """
    _check_side(side)
    dens = np.abs(psi.values) ** 2 * psi.grid.dx
    i0 = psi.grid.split_index
    sl = slice(i0, None) if side == "positive" else slice(None, i0)
    part = dens[sl]
    xs = psi.grid.x[sl]
    mass = float(np.sum(part))
    if mass <= 0.0:
        return 0.0, float("nan"), float("nan")
    mean = float(np.sum(xs * part) / mass)
    var = float(np.sum((xs - mean) ** 2 * part) / mass)
    return mass, mean, float(np.sqrt(max(var, 0.0)))


def dump_wavefunction_csv(psi: Wavefunction, out: IO[str]) -> None:
    """Write x, re, im, abs2 rows with 12 significant digits."""
    out.write("x,re,im,abs2\n")
    v = psi.values
    for j in range(psi.grid.points):
        out.write(
            f"{psi.grid.x[j]:.12g},{v[j].real:.12g},{v[j].imag:.12g},"
            f"{(v[j].real ** 2 + v[j].imag ** 2):.12g}\n"
        )
