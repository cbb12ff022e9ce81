"""Scenario orchestration: configs, single runs, sweeps and reports.

A scenario launches two Gaussian packets at a rectangular barrier,
evolves them under the same Hamiltonian until both have visited and
cleared the barrier, symmetrizes, and integrates the four side
quadrants.  Packet B is packet A displaced by `separation` away from
the barrier and optionally boosted by `wavenumber_offset`.

Everything is deterministic: identical configs produce byte-identical
CSV/JSON outputs, with any number of sweep workers.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import IO, Optional

from . import __version__
from .errors import (
    ConfigurationError,
    MeasurementTimeoutError,
    PairStatsError,
    PauliDegeneracyError,
)
from .grid import Grid1D, WavepacketSpec, Wavefunction, inner_product, make_gaussian
from .occupancy import be_probability, classify_pair, fd_probability, mb_probability
from .propagator import (
    BARRIER_ACTIVATION_AMPLITUDE,
    BarrierPotential,
    CalibrationResult,
    PropagationParams,
    barrier_region_amplitude,
    calibrate_barrier,
    evolve,
    measurement_ready,
)
from .twoparticle import BOSON, FERMION, PAULI_GUARD, SymmetrizedPair, joint_probabilities, make_pair

# classification tolerance for report labels; looser than the exact-point
# default so a calibrated MB-limit row still reads "MB"
CLASSIFY_TOL = 0.005

SWEEP_PARAMETERS = ("separation_d", "wavenumber_dk", "phase_k0d")

CSV_COLUMNS = (
    "param",
    "p20",
    "p02",
    "p11",
    "a",
    "s_abs",
    "i_plus_abs",
    "i_minus_abs",
    "t_a",
    "t_b",
    "label",
    "norm_drift",
    "leakage",
    "t_meas",
    "valid",
)

_SIGN_NAMES = {BOSON: "boson", FERMION: "fermion"}
_SIGN_VALUES = {"boson": BOSON, "fermion": FERMION}


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete recipe for one two-packet barrier run."""

    # grid
    grid_half_width: float
    grid_points: int
    # packet A
    packet_center: float
    packet_wavenumber: float
    packet_sigma: float
    # packet B relative to A; B starts separation further from the barrier
    separation: float = 0.0
    wavenumber_offset: float = 0.0
    sign: int = BOSON
    # barrier; height None means "calibrate to calibration_target"
    barrier_width: float = 0.5
    barrier_height: Optional[float] = None
    barrier_center: float = 0.0
    calibration_target: float = 0.5
    calibration_tol: float = 0.005
    # evolution
    dt: float = 5e-4
    max_steps: int = 60_000
    check_every: int = 200
    # measurement
    boundary: float = 0.0
    barrier_amplitude_max: float = 1e-6
    edge_amplitude_max: float = 1e-6
    lobe_sigmas: float = 5.0
    norm_drift_max: float = 1e-8
    # extra measurement times t_meas * (1 + f), recorded per row as stability_a
    stability_fractions: tuple[float, ...] = ()

    def grid(self) -> Grid1D:
        return Grid1D(half_width=self.grid_half_width, points=self.grid_points)

    def spec_a(self) -> WavepacketSpec:
        return WavepacketSpec(
            center=self.packet_center,
            wavenumber=self.packet_wavenumber,
            sigma=self.packet_sigma,
        )

    def spec_b(self) -> WavepacketSpec:
        return WavepacketSpec(
            center=self.packet_center - self.separation,
            wavenumber=self.packet_wavenumber + self.wavenumber_offset,
            sigma=self.packet_sigma,
        )

    def barrier(self) -> Optional[BarrierPotential]:
        if self.barrier_height is None:
            return None
        return BarrierPotential(
            height=self.barrier_height,
            width=self.barrier_width,
            center=self.barrier_center,
        )

    def identical_packets(self) -> bool:
        return self.separation == 0.0 and self.wavenumber_offset == 0.0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise ConfigurationError(f"{f.name} must be finite, got {value}")
        grid = self.grid()
        self.spec_a().validate_on(grid)
        self.spec_b().validate_on(grid)
        if self.sign not in (BOSON, FERMION):
            raise ConfigurationError(f"sign must be +1 or -1, got {self.sign}")
        if self.separation < 0:
            raise ConfigurationError(f"separation must be >= 0, got {self.separation}")
        probe = self.barrier() or BarrierPotential(0.0, self.barrier_width, self.barrier_center)
        probe.validate_on(grid)
        PropagationParams(dt=self.dt, steps=max(self.check_every, 1)).validate_on(grid)
        if self.check_every < 1:
            raise ConfigurationError(f"check_every must be >= 1, got {self.check_every}")
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0.0 < self.calibration_target <= 1.0:
            raise ConfigurationError(
                f"calibration target must be in (0, 1], got {self.calibration_target}"
            )
        if not self.calibration_tol > 0:
            raise ConfigurationError("calibration tol must be positive")
        fr = self.stability_fractions
        if any(f <= 0 for f in fr) or list(fr) != sorted(fr) or len(set(fr)) != len(fr):
            raise ConfigurationError(
                f"stability fractions must be strictly increasing and positive, got {fr}"
            )


@dataclass(frozen=True)
class SweepConfig:
    """A base scenario plus one swept parameter."""

    base: ScenarioConfig
    parameter: str
    values: tuple[float, ...]

    def validate(self) -> None:
        self.base.validate()
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigurationError(
                f"unknown sweep parameter {self.parameter!r}; pick one of {SWEEP_PARAMETERS}"
            )
        if not self.values:
            raise ConfigurationError("sweep needs at least one value")
        if self.parameter == "phase_k0d" and not self.base.packet_wavenumber > 0:
            raise ConfigurationError("phase_k0d sweep needs a positive carrier wavenumber")
        if self.parameter in ("separation_d", "phase_k0d") and any(v < 0 for v in self.values):
            raise ConfigurationError("separations must be >= 0")


def apply_sweep_parameter(base: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    """Return the scenario for one sweep point."""
    if parameter == "separation_d":
        return replace(base, separation=float(value))
    if parameter == "wavenumber_dk":
        return replace(base, wavenumber_offset=float(value))
    if parameter == "phase_k0d":
        return replace(base, separation=float(value) / base.packet_wavenumber)
    raise ConfigurationError(f"unknown sweep parameter {parameter!r}")


@dataclass(frozen=True)
class ResultRow:
    """One measured scenario, or the recorded failure of one."""

    param: float
    p20: float = float("nan")
    p02: float = float("nan")
    p11: float = float("nan")
    a: float = float("nan")
    s_abs: float = float("nan")
    i_plus_abs: float = float("nan")
    i_minus_abs: float = float("nan")
    t_a: float = float("nan")
    t_b: float = float("nan")
    label: str = "error"
    norm_drift: float = float("nan")
    leakage: float = float("nan")
    t_meas: float = float("nan")
    valid: bool = False
    error: Optional[str] = None
    barrier_height: float = float("nan")
    stability_a: tuple[float, ...] = ()

    def to_csv_line(self) -> str:
        cells = [
            f"{self.param:.12g}",
            f"{self.p20:.12g}",
            f"{self.p02:.12g}",
            f"{self.p11:.12g}",
            f"{self.a:.12g}",
            f"{self.s_abs:.12g}",
            f"{self.i_plus_abs:.12g}",
            f"{self.i_minus_abs:.12g}",
            f"{self.t_a:.12g}",
            f"{self.t_b:.12g}",
            self.label,
            f"{self.norm_drift:.12g}",
            f"{self.leakage:.12g}",
            f"{self.t_meas:.12g}",
            "true" if self.valid else "false",
        ]
        return ",".join(cells)

    def to_dict(self) -> dict:
        return {
            "param": self.param,
            "p20": self.p20,
            "p02": self.p02,
            "p11": self.p11,
            "a": self.a,
            "s_abs": self.s_abs,
            "i_plus_abs": self.i_plus_abs,
            "i_minus_abs": self.i_minus_abs,
            "t_a": self.t_a,
            "t_b": self.t_b,
            "label": self.label,
            "norm_drift": self.norm_drift,
            "leakage": self.leakage,
            "t_meas": self.t_meas,
            "valid": self.valid,
            "error": self.error,
            "barrier_height": self.barrier_height,
            "stability_a": list(self.stability_a),
        }


def default_scenario() -> ScenarioConfig:
    """The stock two-boson run: well separated packets, calibrated barrier.

    Carrier k0 sigma = 8 keeps the packet deep in the quadratic-dispersion
    regime; separation 20 sigma puts the pair in the distinguishable limit.
    """
    return ScenarioConfig(
        grid_half_width=128.0,
        grid_points=8192,
        packet_center=-40.0,
        packet_wavenumber=8.0,
        packet_sigma=1.0,
        separation=20.0,
        wavenumber_offset=0.0,
        sign=BOSON,
        barrier_width=0.5,
        barrier_height=None,
        barrier_center=0.0,
    )


def resolve_barrier(
    config: ScenarioConfig,
) -> tuple[ScenarioConfig, Optional[CalibrationResult]]:
    """Fill in the barrier height, calibrating against packet A if requested."""
    config.validate()
    if config.barrier_height is not None:
        return config, None
    calibration = calibrate_barrier(
        config.grid(),
        config.spec_a(),
        config.barrier_width,
        target=config.calibration_target,
        tol=config.calibration_tol,
        center=config.barrier_center,
        dt=config.dt,
        max_steps=config.max_steps,
        check_every=config.check_every,
        boundary=config.boundary,
        edge_amplitude_max=config.edge_amplitude_max,
        barrier_amplitude_max=config.barrier_amplitude_max,
        lobe_sigmas=config.lobe_sigmas,
    )
    resolved = replace(config, barrier_height=calibration.barrier.height)
    return resolved, calibration


def _advance(packets, barrier: BarrierPotential, steps: int, config: ScenarioConfig):
    """Evolve each packet `steps` Strang steps; return them and the peak edge amplitude."""
    params = PropagationParams(dt=config.dt, steps=steps)
    results = [evolve(psi, barrier, params, config.edge_amplitude_max) for psi in packets]
    return tuple(r.psi for r in results), max(r.max_edge_amplitude for r in results)


def _distinct_packets(psi_a: Wavefunction, psi_b: Wavefunction) -> tuple[Wavefunction, ...]:
    # identical packets share one array and are evolved once
    return (psi_a,) if psi_b is psi_a else (psi_a, psi_b)


def evolve_pair_to_measurement(config: ScenarioConfig, barrier: BarrierPotential):
    """March both packets in lockstep until both have visited and cleared."""
    grid = config.grid()
    psi_a = make_gaussian(grid, config.spec_a())
    psi_b = psi_a if config.identical_packets() else make_gaussian(grid, config.spec_b())

    if config.sign == FERMION:
        s0 = inner_product(psi_a, psi_b)
        if not (1.0 - abs(s0) ** 2) > PAULI_GUARD:
            raise PauliDegeneracyError(
                f"antisymmetric pair degenerate at launch: 1 - |s|^2 = "
                f"{1.0 - abs(s0) ** 2:.3g} within the exclusion guard {PAULI_GUARD}"
            )

    packets = _distinct_packets(psi_a, psi_b)
    visited = [False] * len(packets)
    steps_done = 0
    leakage = 0.0
    while steps_done < config.max_steps:
        chunk = min(config.check_every, config.max_steps - steps_done)
        packets, edge = _advance(packets, barrier, chunk, config)
        leakage = max(leakage, edge)
        steps_done += chunk
        visited = [
            seen or barrier_region_amplitude(psi, barrier) >= BARRIER_ACTIVATION_AMPLITUDE
            for seen, psi in zip(visited, packets)
        ]
        if all(visited) and all(
            measurement_ready(
                psi, barrier, config.boundary,
                config.barrier_amplitude_max, config.lobe_sigmas,
            )
            for psi in packets
        ):
            return packets[0], packets[-1], steps_done, leakage
    raise MeasurementTimeoutError(
        f"packets did not clear the barrier within {config.max_steps} steps "
        f"(t = {config.max_steps * config.dt:.6g})"
    )


def run_resolved(config: ScenarioConfig, param_value: float) -> tuple[ResultRow, SymmetrizedPair]:
    """Run one fully resolved scenario; raises on failure.

    Returns the row and the pair it measured, at the measurement time
    (before any stability extension).
    """
    barrier = config.barrier()
    if barrier is None:
        raise ConfigurationError("scenario has no barrier height; resolve_barrier first")
    psi_a, psi_b, steps_done, leakage = evolve_pair_to_measurement(config, barrier)
    pair = make_pair(psi_a, psi_b, config.sign)
    stats = joint_probabilities(
        pair, config.boundary, barrier=barrier,
        barrier_amplitude_max=config.barrier_amplitude_max,
        lobe_sigmas=config.lobe_sigmas,
    )

    stability: list[float] = []
    packets = _distinct_packets(psi_a, psi_b)
    prev_extra = 0
    for fraction in config.stability_fractions:
        extra = int(round(fraction * steps_done))
        if extra > prev_extra:
            packets, edge = _advance(packets, barrier, extra - prev_extra, config)
            leakage = max(leakage, edge)
            prev_extra = extra
        later = joint_probabilities(
            make_pair(packets[0], packets[-1], config.sign), config.boundary, barrier=barrier,
            barrier_amplitude_max=config.barrier_amplitude_max,
            lobe_sigmas=config.lobe_sigmas,
        )
        stability.append(float(later.a))

    norm_drift = float(
        max(abs(pair.psi_a.norm_sq() - 1.0), abs(pair.psi_b.norm_sq() - 1.0))
    )
    leakage = float(leakage)
    valid = bool(
        norm_drift <= config.norm_drift_max
        and leakage <= config.edge_amplitude_max
        and abs(stats.sum_check - 1.0) <= 1e-6
    )
    row = ResultRow(
        param=float(param_value),
        p20=float(stats.p20),
        p02=float(stats.p02),
        p11=float(stats.p11),
        a=float(stats.a),
        s_abs=float(abs(stats.s)),
        i_plus_abs=float(abs(stats.i_plus)),
        i_minus_abs=float(abs(stats.i_minus)),
        t_a=float(stats.t_a),
        t_b=float(stats.t_b),
        label=classify_pair(stats.a, CLASSIFY_TOL),
        norm_drift=norm_drift,
        leakage=leakage,
        t_meas=steps_done * config.dt,
        valid=valid,
        error=None,
        barrier_height=float(barrier.height),
        stability_a=tuple(stability),
    )
    return row, pair


def run_scenario(config: ScenarioConfig) -> ResultRow:
    """Resolve the barrier if needed, run, and measure one scenario.

    The row's `param` is the packet separation.  Errors propagate; use
    `sweep` for recorded-per-row error handling.
    """
    resolved, _ = resolve_barrier(config)
    return run_resolved(resolved, param_value=resolved.separation)[0]


def _sweep_task(task: tuple[ScenarioConfig, str, float]) -> ResultRow:
    base, parameter, value = task
    try:
        cfg = apply_sweep_parameter(base, parameter, value)
        cfg.validate()
        return run_resolved(cfg, param_value=value)[0]
    except PairStatsError as err:
        return ResultRow(
            param=float(value),
            error=f"{type(err).__name__}: {err}",
            barrier_height=base.barrier_height if base.barrier_height is not None else float("nan"),
        )


def sweep(config: SweepConfig, workers: int = 1) -> list[ResultRow]:
    """Run every sweep value against a shared, once-resolved barrier.

    Rows come back in the order of `config.values`.  A failing value
    produces an invalid row carrying the error text; the sweep goes on.
    Any `workers` count gives output identical to the serial run; it is
    capped at the number of values and of CPUs.
    """
    config.validate()
    base, _ = resolve_barrier(config.base)
    tasks = [(base, config.parameter, float(v)) for v in config.values]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_sweep_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_task, tasks, chunksize=1))


@dataclass(frozen=True)
class CountingReport:
    """A measured row against the exact two-particle counting references."""

    label: str
    measured: tuple[float, float, float]
    a: float
    references: dict
    distances: dict
    nearest: str

    def lines(self) -> list[str]:
        out = [
            f"measured   p20={self.measured[0]:.6f} p02={self.measured[1]:.6f} "
            f"p11={self.measured[2]:.6f}   a={self.a:.6f}  [{self.label}]"
        ]
        for name in ("MB", "BE", "FD"):
            ref = self.references[name]
            out.append(
                f"{name:^9}  p20={ref[0]:.6f} p02={ref[1]:.6f} p11={ref[2]:.6f}   "
                f"max|diff|={self.distances[name]:.6f}"
            )
        out.append(f"nearest reference: {self.nearest}")
        return out


def compare_with_counting(row: ResultRow) -> CountingReport:
    """Set a measured row against the exact N=2, M=2 counting points."""
    if row.error is not None or math.isnan(row.a):
        raise ValueError("cannot compare an errored row against counting references")
    references = {
        "MB": (
            float(mb_probability((2, 0))),
            float(mb_probability((0, 2))),
            float(mb_probability((1, 1))),
        ),
        "BE": (
            float(be_probability(2, 2)),
            float(be_probability(2, 2)),
            float(be_probability(2, 2)),
        ),
        "FD": (
            float(fd_probability((2, 0))),
            float(fd_probability((0, 2))),
            float(fd_probability((1, 1))),
        ),
    }
    measured = (row.p20, row.p02, row.p11)
    distances = {
        name: max(abs(m - r) for m, r in zip(measured, ref))
        for name, ref in references.items()
    }
    nearest = min(distances, key=distances.get)
    return CountingReport(
        label=classify_pair(row.a, CLASSIFY_TOL),
        measured=measured,
        a=row.a,
        references=references,
        distances=distances,
        nearest=nearest,
    )


def rows_to_csv(rows: list[ResultRow], out: IO[str]) -> None:
    """Write the fixed-column CSV for a list of rows."""
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        out.write(row.to_csv_line() + "\n")


def config_to_dict(config: ScenarioConfig) -> dict:
    """Nested dict mirroring the config-file sections."""
    return {
        "grid": {
            "half_width": config.grid_half_width,
            "points": config.grid_points,
        },
        "packet": {
            "center": config.packet_center,
            "wavenumber": config.packet_wavenumber,
            "sigma": config.packet_sigma,
        },
        "pair": {
            "separation": config.separation,
            "wavenumber_offset": config.wavenumber_offset,
            "sign": _SIGN_NAMES[config.sign],
        },
        "barrier": {
            "width": config.barrier_width,
            "height": "calibrate" if config.barrier_height is None else config.barrier_height,
            "center": config.barrier_center,
            "target": config.calibration_target,
            "tol": config.calibration_tol,
        },
        "evolution": {
            "dt": config.dt,
            "max_steps": config.max_steps,
            "check_every": config.check_every,
        },
        "measurement": {
            "boundary": config.boundary,
            "barrier_amplitude_max": config.barrier_amplitude_max,
            "edge_amplitude_max": config.edge_amplitude_max,
            "lobe_sigmas": config.lobe_sigmas,
            "norm_drift_max": config.norm_drift_max,
            "stability_fractions": list(config.stability_fractions),
        },
    }


def config_from_dict(data: dict) -> ScenarioConfig:
    """Inverse of `config_to_dict`; rejects unknown sections and keys."""

    def take(section: dict, name: str, key: str, convert, default=None, required=False):
        if key not in section:
            if required:
                raise ConfigurationError(f"missing key {key!r} in section [{name}]")
            return default
        return convert(section.pop(key))

    data = {k: dict(v) for k, v in dict(data).items()}
    known = {"grid", "packet", "pair", "barrier", "evolution", "measurement"}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    grid = data.get("grid", {})
    packet = data.get("packet", {})
    pair = data.get("pair", {})
    barrier = data.get("barrier", {})
    evolution = data.get("evolution", {})
    measurement = data.get("measurement", {})

    def parse_sign(value) -> int:
        if isinstance(value, str):
            if value not in _SIGN_VALUES:
                raise ConfigurationError(
                    f"sign must be 'boson' or 'fermion', got {value!r}"
                )
            return _SIGN_VALUES[value]
        if value in (BOSON, FERMION):
            return int(value)
        raise ConfigurationError(f"sign must be 'boson' or 'fermion', got {value!r}")

    def parse_height(value):
        if value is None or (isinstance(value, str) and value.strip() == "calibrate"):
            return None
        return float(value)

    def parse_fractions(value):
        if isinstance(value, str):
            parts = [p for p in value.replace(",", " ").split() if p]
            return tuple(float(p) for p in parts)
        return tuple(float(p) for p in value)

    config = ScenarioConfig(
        grid_half_width=take(grid, "grid", "half_width", float, required=True),
        grid_points=take(grid, "grid", "points", int, required=True),
        packet_center=take(packet, "packet", "center", float, required=True),
        packet_wavenumber=take(packet, "packet", "wavenumber", float, required=True),
        packet_sigma=take(packet, "packet", "sigma", float, required=True),
        separation=take(pair, "pair", "separation", float, default=0.0),
        wavenumber_offset=take(pair, "pair", "wavenumber_offset", float, default=0.0),
        sign=take(pair, "pair", "sign", parse_sign, default=BOSON),
        barrier_width=take(barrier, "barrier", "width", float, required=True),
        barrier_height=take(barrier, "barrier", "height", parse_height, default=None),
        barrier_center=take(barrier, "barrier", "center", float, default=0.0),
        calibration_target=take(barrier, "barrier", "target", float, default=0.5),
        calibration_tol=take(barrier, "barrier", "tol", float, default=0.005),
        dt=take(evolution, "evolution", "dt", float, default=5e-4),
        max_steps=take(evolution, "evolution", "max_steps", int, default=60_000),
        check_every=take(evolution, "evolution", "check_every", int, default=200),
        boundary=take(measurement, "measurement", "boundary", float, default=0.0),
        barrier_amplitude_max=take(
            measurement, "measurement", "barrier_amplitude_max", float, default=1e-6
        ),
        edge_amplitude_max=take(
            measurement, "measurement", "edge_amplitude_max", float, default=1e-6
        ),
        lobe_sigmas=take(measurement, "measurement", "lobe_sigmas", float, default=5.0),
        norm_drift_max=take(
            measurement, "measurement", "norm_drift_max", float, default=1e-8
        ),
        stability_fractions=take(
            measurement, "measurement", "stability_fractions", parse_fractions, default=()
        ),
    )
    for name, section in (
        ("grid", grid),
        ("packet", packet),
        ("pair", pair),
        ("barrier", barrier),
        ("evolution", evolution),
        ("measurement", measurement),
    ):
        if section:
            raise ConfigurationError(
                f"unknown keys in section [{name}]: {sorted(section)}"
            )
    return config


def summary_dict(
    kind: str,
    config: ScenarioConfig,
    rows: list[ResultRow],
    calibration: Optional[CalibrationResult] = None,
    sweep_info: Optional[dict] = None,
) -> dict:
    """JSON-ready summary: version, echoed config, rows, calibration record."""
    summary = {
        "toolkit_version": __version__,
        "kind": kind,
        "config": config_to_dict(config),
        "rows": [row.to_dict() for row in rows],
    }
    if sweep_info is not None:
        summary["sweep"] = dict(sweep_info)
    if calibration is not None:
        summary["calibration"] = calibration_record(config, calibration)
    return summary


def calibration_record(config: ScenarioConfig, calibration: CalibrationResult) -> dict:
    """The "calibration" block of the run, sweep and calibrate JSON files."""
    return {
        "height": calibration.barrier.height,
        "transmission": calibration.transmission,
        "target": config.calibration_target,
        "tol": config.calibration_tol,
        "iterations": calibration.iterations,
        "history": [list(pair) for pair in calibration.history],
        "measurement_time": calibration.measurement_time,
    }


def write_summary_json(summary: dict, out: IO[str]) -> None:
    json.dump(summary, out, indent=2, sort_keys=True)
    out.write("\n")
