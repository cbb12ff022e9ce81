"""Symmetrized pairs of single-particle packets and their side statistics.

The pair state built from packets A and B is

    Psi(x1, x2) = C [psi_A(x1) psi_B(x2) + sign psi_B(x1) psi_A(x2)]

with sign +1 (symmetric) or -1 (antisymmetric) and the exact constant

    C = 1 / sqrt(2 (1 + sign |s|^2)),    s = <psi_A|psi_B>.

The familiar 1/sqrt(2) is the s = 0 limit of this.

Integrating |Psi|^2 over the four side quadrants never needs a 2D
quadrature: with T_X, R_X the single-particle side masses and I_+/- the
one-sided overlaps of conj(psi_A) psi_B,

    p02 = C^2 (2 T_A T_B + sign 2 |I_+|^2)          both positive
    p20 = C^2 (2 R_A R_B + sign 2 |I_-|^2)          both negative
    p11 = C^2 (2 T_A R_B + 2 R_A T_B + sign 4 Re(I_+ conj(I_-)))

and I_+ + I_- = s by the shared split: the momentum sign in
`outgoing_probabilities`, x = 0 (sample G/2) in `joint_probabilities`,
whose T, R and I_+/- halve the factors the direct 2D integration sums.
That integration is kept as an oracle to guard the factorized path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BudgetExceededError,
    ConsistencyError,
    PauliDegeneracyError,
)
from .grid import Wavefunction, inner_product, momentum_split

BOSON = 1
FERMION = -1

PAULI_GUARD = 1e-9
SUM_RULE_TOL = 1e-6
PARTITION_TOL = 1e-12
_NORM_TOL = 1e-6
_ORACLE_MAX_POINTS = 4096
_ORACLE_BLOCK = 8


@dataclass(frozen=True, eq=False)
class SymmetrizedPair:
    """Two packets, an exchange sign, and the derived normalization."""

    psi_a: Wavefunction
    psi_b: Wavefunction
    sign: int
    s: complex
    norm_const: float


@dataclass(frozen=True)
class JointStats:
    """Side-quadrant probabilities and the overlap diagnostics behind them."""

    p20: float
    p02: float
    p11: float
    a: float
    s: complex
    i_plus: complex
    i_minus: complex
    t_a: float
    r_a: float
    t_b: float
    r_b: float
    sum_check: float


def make_pair(psi_a: Wavefunction, psi_b: Wavefunction, sign: int) -> SymmetrizedPair:
    """Symmetrize two unit-normalized packets on the same grid and time.

    Raises ConsistencyError unless each norm squared is within 1e-6 of 1
    (NaN is not), and PauliDegeneracyError for the antisymmetric sign when
    1 - |s|^2 <= 1e-9: the pair state vanishes and no statistics exist.
    """
    if sign not in (BOSON, FERMION):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    for name, psi in (("A", psi_a), ("B", psi_b)):
        drift = abs(psi.norm_sq() - 1.0)
        if not drift <= _NORM_TOL:
            raise ConsistencyError(
                f"packet {name} is not unit-normalized (|norm^2 - 1| = {drift:.3g})"
            )
    s = inner_product(psi_a, psi_b)
    overlap_sq = abs(s) ** 2
    if sign == FERMION and not (1.0 - overlap_sq) > PAULI_GUARD:
        raise PauliDegeneracyError(
            f"antisymmetric pair degenerate: 1 - |s|^2 = {1.0 - overlap_sq:.3g} "
            f"is within the exclusion guard {PAULI_GUARD}"
        )
    norm_const = 1.0 / np.sqrt(2.0 * (1.0 + sign * overlap_sq))
    return SymmetrizedPair(psi_a=psi_a, psi_b=psi_b, sign=sign, s=s, norm_const=float(norm_const))


def _density_factors(pair: SymmetrizedPair):
    """The one-particle factors |psi_A|^2, |psi_B|^2 and conj(psi_A) psi_B."""
    va, vb = pair.psi_a.values, pair.psi_b.values
    return np.abs(va) ** 2, np.abs(vb) ** 2, np.conj(va) * vb


def _density(pair: SymmetrizedPair, factors, i1, i2):
    """|Psi(x1, x2)|^2 at sample indices i1, i2: indices, index arrays or slices, broadcast.

    The cross term couples the two coordinates through
    c(x) = conj(psi_A(x)) psi_B(x):

        |Psi|^2 = C^2 [ dA(x1) dB(x2) + dB(x1) dA(x2)
                        + sign 2 Re(c(x1) conj(c(x2))) ]

    evaluated in that order, in place, so a block of n values holds at
    most 24 n bytes at once.
    """
    da, db, cross = factors
    dens = da[i1] * db[i2]
    dens += db[i1] * da[i2]
    interference = (cross[i1] * np.conj(cross[i2])).real
    interference *= pair.sign * 2.0
    dens += interference
    dens *= pair.norm_const**2
    return dens


def _joint_stats(pair: SymmetrizedPair, t_a, r_a, t_b, r_b, i_plus, i_minus) -> JointStats:
    """The quadrant formula from one split's sides; checks partition and sum rule (NaN fails)."""
    if not abs((i_plus + i_minus) - pair.s) <= PARTITION_TOL:
        raise ConsistencyError(
            f"one-sided overlaps do not partition the full overlap: "
            f"|I+ + I- - s| = {abs(i_plus + i_minus - pair.s):.3g}"
        )
    sign = pair.sign
    nc2 = pair.norm_const**2
    p02 = nc2 * (2.0 * t_a * t_b + sign * 2.0 * abs(i_plus) ** 2)
    p20 = nc2 * (2.0 * r_a * r_b + sign * 2.0 * abs(i_minus) ** 2)
    p11 = nc2 * (
        2.0 * t_a * r_b
        + 2.0 * r_a * t_b
        + sign * 4.0 * (i_plus * np.conj(i_minus)).real
    )
    sum_check = (p20 + p02) + p11
    if not abs(sum_check - 1.0) <= SUM_RULE_TOL:
        raise ConsistencyError(
            f"quadrant sum rule violated: p20 + p02 + p11 = {sum_check!r}"
        )
    return JointStats(p20, p02, p11, 0.5 * (p20 + p02), pair.s, i_plus, i_minus,
                      t_a, r_a, t_b, r_b, sum_check)


def joint_probabilities(pair: SymmetrizedPair) -> JointStats:
    """Quadrant probabilities split in position at x = 0, from the factorized 1D integrals.

    T, R and I+/- are the halves, x >= 0 and x < 0, of the factors
    `quadrant_quadrature_oracle` sums.  Agrees with
    `outgoing_probabilities` once both packets' lobes have left the
    barrier behind them, which the caller vouches for.
    """
    grid = pair.psi_a.grid
    i0 = grid.split_index
    da, db, cross = _density_factors(pair)
    halves = (np.s_[i0:], np.s_[:i0])
    return _joint_stats(pair, *(float(np.sum(f[h]) * grid.dx) for f in (da, db) for h in halves),
                        *(complex(np.sum(cross[h]) * grid.dx) for h in halves))


def outgoing_probabilities(pair: SymmetrizedPair) -> JointStats:
    """Quadrant probabilities split by momentum sign: k > 0 transmitted, k <= 0 reflected.

    A scattered packet ends on the side its momentum points to, and free
    flight changes no spectral sum: this is the position split at
    t -> infinity, read at any time after the scattering.
    """
    grid = pair.psi_a.grid
    hat_a = np.fft.fft(pair.psi_a.values)
    hat_b = hat_a if pair.psi_b is pair.psi_a else np.fft.fft(pair.psi_b.values)
    t_a, r_a = momentum_split(hat_a, hat_a, grid)
    t_b, r_b = momentum_split(hat_b, hat_b, grid)
    return _joint_stats(pair, t_a.real, r_a.real, t_b.real, r_b.real,
                        *momentum_split(hat_a, hat_b, grid))


def check_oracle_budget(points: int) -> None:
    """Refuse a 2D quadrature over more than `_ORACLE_MAX_POINTS` grid points per axis."""
    if points > _ORACLE_MAX_POINTS:
        raise BudgetExceededError(
            f"2D quadrature oracle limited to {_ORACLE_MAX_POINTS} grid points, got {points}"
        )


def quadrant_quadrature_oracle(pair: SymmetrizedPair) -> JointStats:
    """Quadrant probabilities, split at x = 0, by direct 2D summation of the joint density.

    Guards the factorized path in `joint_probabilities`, whose side masses
    and overlaps it reports, so it sums |Psi|^2 sample by sample.
    |Psi(x1, x2)|^2 = |Psi(x2, x1)|^2 for either sign, and a swap keeps
    each quadrant class (both negative, both positive, mixed), so only
    the upper triangle is evaluated: rows in blocks of
    min(`_ORACLE_BLOCK`, G/2), so no block straddles x = 0, and columns
    from the block's first row on.  The block's diagonal square counts
    once and the columns beyond it twice.  That is O(G^2 / 2) work and
    at most `_ORACLE_BLOCK` x G density values at a time, 24 bytes each
    while a block is built: at G = 4096 a 1.0 MB traced peak and
    0.08-0.10 s (2-core x86-64 host).  Refuses grids beyond `_ORACLE_MAX_POINTS`.
    """
    grid = pair.psi_a.grid
    check_oracle_budget(grid.points)
    i0 = grid.split_index
    height = min(_ORACLE_BLOCK, i0)
    w2 = grid.dx * grid.dx
    factors = _density_factors(pair)
    p_nn = 0.0  # x1 < 0, x2 < 0
    p_pp = 0.0
    p_mixed = 0.0
    for start in range(0, grid.points, height):
        stop = start + height
        # rows start..stop-1 against columns start..G-1
        block = _density(pair, factors, np.s_[start:stop, None], np.s_[start:])
        square, beyond = float(np.sum(block[:, :height])), block[:, height:]
        if stop <= i0:
            p_nn += square + 2.0 * float(np.sum(beyond[:, : i0 - stop]))
            p_mixed += 2.0 * float(np.sum(beyond[:, i0 - stop :]))
        else:
            p_pp += square + 2.0 * float(np.sum(beyond))
        del block, beyond  # one block alive at a time
    p20, p02, p11 = p_nn * w2, p_pp * w2, p_mixed * w2
    return replace(joint_probabilities(pair), p20=p20, p02=p02, p11=p11,
                   a=0.5 * (p20 + p02), sum_check=(p20 + p02) + p11)


def dump_joint_density_csv(pair: SymmetrizedPair, out, max_points: int = 256) -> None:
    """Write x1, x2, density rows, downsampled to at most max_points per axis.

    Streams one row of the downsampled square at a time, so the dump
    holds O(max_points) density values whatever max_points is.
    """
    grid = pair.psi_a.grid
    stride = max(1, -(-grid.points // max_points))
    idx = np.arange(0, grid.points, stride)
    xs = grid.x[idx]
    factors = _density_factors(pair)
    out.write("x1,x2,density\n")
    for i, x1 in zip(idx, xs):
        for x2, dens in zip(xs, _density(pair, factors, i, idx)):
            out.write(f"{x1:.12g},{x2:.12g},{dens:.12g}\n")
