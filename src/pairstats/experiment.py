"""Scenario orchestration: configs, single runs, sweeps and reports.

A scenario launches two Gaussian packets at a rectangular barrier,
follows them until both have cleared it, symmetrizes, and integrates
the four side quadrants.  Packet B is packet A displaced by
`separation` away from the barrier and optionally boosted by
`wavenumber_offset`; it is never evolved itself, but composed from
packet A's spectrum, so every scenario and every sweep flies one packet,
and a sweep measures each pair as that flight hands it out.

Everything is deterministic: identical configs produce byte-identical
CSV/JSON outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import IO, Iterator, Optional

from . import __version__
from .errors import (
    ConfigurationError,
    MeasurementTimeoutError,
    PairStatsError,
    PrematureMeasurementError,
)
from .grid import Grid1D, WavepacketSpec, Wavefunction, make_gaussian
from .occupancy import be_probability, classify_pair, fd_probability, mb_probability
from .propagator import (
    COMPOSE_BARRIER_AMPLITUDE_MAX,
    COMPOSE_LOSS_MAX,
    COMPOSE_SPECTRUM_CUT,
    DEFAULT_BARRIER_AMPLITUDE_MAX,
    EDGE_AMPLITUDE_MAX,
    BarrierPotential,
    CalibrationResult,
    PropagationParams,
    barrier_region_amplitude,
    calibrate_barrier,
    compose_b,
    composition_loss,
    edge_amplitude,
    evolve,
    evolve_until_measured,
    flight_progress,
    measurement_ready,
    unready_reason,
)
from .twoparticle import BOSON, FERMION, SymmetrizedPair, joint_probabilities, make_pair

# classification tolerance for report labels; looser than the exact-point
# default so a calibrated MB-limit row still reads "MB"
CLASSIFY_TOL = 0.005

NORM_DRIFT_MAX = 1e-8  # largest drift of either packet's norm from 1 in a valid row

SWEEP_PARAMETERS = ("separation_d", "wavenumber_dk")

_SIGN_NAMES = {BOSON: "boson", FERMION: "fermion"}
_SIGN_VALUES = {"boson": BOSON, "fermion": FERMION}


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete recipe for one two-packet barrier run, split at `barrier_center` to measure."""

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
    barrier_amplitude_max: float = DEFAULT_BARRIER_AMPLITUDE_MAX
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

    def loop_settings(self) -> dict:
        """Step size, step budget and measurement gate, as keywords of the propagator's loops."""
        return {name: getattr(self, name)
                for name in ("dt", "max_steps", "check_every", "barrier_amplitude_max")}

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
        dropped = composition_loss(grid, self.spec_a(), self.wavenumber_offset)
        if dropped > COMPOSE_LOSS_MAX:
            raise ConfigurationError(
                f"wavenumber offset {self.wavenumber_offset} out of band: packet B is composed "
                f"from A's spectrum where it is at least {COMPOSE_SPECTRUM_CUT} of its peak, "
                f"which drops {dropped:.3g} of B's launch norm, over the limit {COMPOSE_LOSS_MAX}"
            )
        probe = self.barrier() or BarrierPotential(0.0, self.barrier_width, self.barrier_center)
        probe.validate_on(grid)
        if not (self.packet_wavenumber > 0 and self.packet_center < probe.support[0]):
            raise ConfigurationError(
                f"packet A must start left of the barrier at {probe.support[0]} with a positive carrier "
                f"wavenumber, got center {self.packet_center}, wavenumber {self.packet_wavenumber}")
        PropagationParams(dt=self.dt, steps=max(self.check_every, 1)).validate_on(grid)
        if self.check_every < 1:
            raise ConfigurationError(f"check_every must be >= 1, got {self.check_every}")
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")
        if not self.barrier_amplitude_max > 0:
            raise ConfigurationError(
                f"barrier_amplitude_max must be positive, got {self.barrier_amplitude_max}")
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
        if not all(math.isfinite(v) for v in self.values):
            raise ConfigurationError(f"sweep values must be finite, got {self.values}")
        if self.parameter == "separation_d" and any(v < 0 for v in self.values):
            raise ConfigurationError("separations must be >= 0")


def apply_sweep_parameter(base: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    """Return the scenario for one sweep point."""
    if parameter == "separation_d":
        return replace(base, separation=float(value))
    if parameter == "wavenumber_dk":
        return replace(base, wavenumber_offset=float(value))
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
        return ",".join(_csv_cell(getattr(self, name)) for name in CSV_COLUMNS)

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["stability_a"] = list(self.stability_a)
        return data


_ROW_FIELDS = tuple(f.name for f in fields(ResultRow))
# the CSV carries the measured fields; error, height and stability go to JSON only
CSV_COLUMNS = _ROW_FIELDS[: _ROW_FIELDS.index("valid") + 1]


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else f"{value:.12g}"


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
    )


def resolve_barrier(
    config: ScenarioConfig,
) -> tuple[ScenarioConfig, Optional[CalibrationResult]]:
    """Fill in the barrier height, calibrating against packet A if requested."""
    config.validate()
    if config.barrier_height is not None:
        return config, None
    calibration = calibrate_barrier(
        config.grid(), config.spec_a(), config.barrier_width,
        target=config.calibration_target, tol=config.calibration_tol,
        center=config.barrier_center, **config.loop_settings(),
    )
    resolved = replace(config, barrier_height=calibration.barrier.height)
    return resolved, calibration


def evolve_pair_to_measurement(
    configs: list[ScenarioConfig], barrier: BarrierPotential
) -> Iterator[tuple]:
    """Follow packet A to each config's measurement; yield `(i, outcome)` per config.

    The configs differ only in packet B, and only A is evolved: config
    i's B is composed from A by `compose_b`.  It is taken at the first
    chunk where A is ready and, unless B is A, holds at most
    COMPOSE_BARRIER_AMPLITUDE_MAX on the barrier, and where B is
    `measurement_ready` too: the outcome is
    `(psi_a, psi_b, steps_done, leakage)` at that chunk, yielded there,
    the leakage being A's peak edge amplitude so far and B's at launch.
    A PairStatsError is the outcome of the configs it concerns, yielded
    when it arises: a launch check (`validate`, `make_pair`) ends one
    before the flight, an edge error of A or the timeout all still
    running.  Each timeout says how far A got (`flight_progress`) and,
    when B is not A and A has drained off the barrier, how far B got,
    composed at that last chunk.  The flight stops at the chunk that
    takes the last config, and does not start when every config failed
    at launch.
    """
    config = configs[0]
    spec_a = config.spec_a()
    psi_a = make_gaussian(config.grid(), spec_a)
    running: dict[int, float] = {}  # config -> B's launch edge amplitude
    for i, cfg in enumerate(configs):
        try:
            cfg.validate()
            psi_b = compose_b(psi_a, spec_a, cfg.separation, cfg.wavenumber_offset)
            make_pair(psi_a, psi_b, cfg.sign)
        except PairStatsError as err:
            yield i, err
        else:
            running[i] = edge_amplitude(psi_b)

    if not running:
        return
    try:
        for psi_a, ready, steps_done, leakage in evolve_until_measured(
                psi_a, barrier, **config.loop_settings()):
            if not ready:
                continue
            drained = barrier_region_amplitude(psi_a, barrier) <= COMPOSE_BARRIER_AMPLITUDE_MAX
            for i, launch_edge in list(running.items()):
                cfg = configs[i]
                if not (drained or cfg.identical_packets()):
                    continue
                psi_b = compose_b(psi_a, spec_a, cfg.separation, cfg.wavenumber_offset)
                if measurement_ready(psi_b, barrier, cfg.barrier_amplitude_max):
                    del running[i]
                    yield i, (psi_a, psi_b, steps_done, max(leakage, launch_edge))
            if not running:
                return
    except PairStatsError as err:
        for i in running:
            yield i, err
        return
    # the timeout
    drained = barrier_region_amplitude(psi_a, barrier) <= COMPOSE_BARRIER_AMPLITUDE_MAX
    progress_a = f"packet A: {flight_progress(psi_a, barrier, leakage)}"
    for i, launch_edge in running.items():
        cfg = configs[i]
        progress = progress_a
        if drained and not cfg.identical_packets():
            psi_b = compose_b(psi_a, spec_a, cfg.separation, cfg.wavenumber_offset)
            b_leakage = max(launch_edge, edge_amplitude(psi_b))
            progress += f"; packet B: {flight_progress(psi_b, barrier, b_leakage)}"
        yield i, MeasurementTimeoutError(
            f"packets did not clear the barrier within {config.max_steps} steps "
            f"(t = {config.max_steps * config.dt:.6g}); {progress}"
        )


def _measure(
    config: ScenarioConfig, barrier: BarrierPotential, param_value: float,
    psi_a: Wavefunction, psi_b: Wavefunction, steps_done: int, leakage: float,
) -> tuple[ResultRow, SymmetrizedPair]:
    """Measure one pair at its measurement time, then at the stability times.

    The pair comes from `evolve_pair_to_measurement`, ready to measure,
    and is split at the barrier's centre.  For a stability time A is
    evolved on and B composed from it again; both packets must still
    pass the readiness tests, which a pair yet to scatter fails: the
    PrematureMeasurementError names the test failed (`unready_reason`).
    The extension counts against `max_steps`: a pair whose last
    stability time lies beyond it is refused before any extension step.
    At a wavenumber offset B does not keep pace with A, so B's own edge
    amplitude at these times, where the composition is exact, joins the
    leakage (mid-flight, while A is on the barrier, the composed B is
    not B and is not read).  A valid row keeps NORM_DRIFT_MAX,
    EDGE_AMPLITUDE_MAX and the quadrant sum rule.
    """
    total = steps_done + int(round(max(config.stability_fractions, default=0.0) * steps_done))
    if total > config.max_steps:
        raise MeasurementTimeoutError(
            f"stability extension would end at {total} steps, beyond max_steps "
            f"{config.max_steps} (measured at {steps_done} steps)"
        )

    def b_edge(psi: Wavefunction) -> float:
        return edge_amplitude(psi) if config.wavenumber_offset else 0.0

    leakage = max(leakage, b_edge(psi_b))
    pair = make_pair(psi_a, psi_b, config.sign)
    stats = joint_probabilities(pair, barrier.center)

    stability: list[float] = []
    later_a, later_b = psi_a, psi_b
    prev_extra = 0
    for fraction in config.stability_fractions:
        extra = int(round(fraction * steps_done))
        if extra > prev_extra:
            params = PropagationParams(dt=config.dt, steps=extra - prev_extra)
            result = evolve(later_a, barrier, params)
            later_a = result.psi
            later_b = compose_b(later_a, config.spec_a(), config.separation,
                                config.wavenumber_offset)
            leakage = max(leakage, result.max_edge_amplitude, b_edge(later_b))
            prev_extra = extra
            for name, psi in zip("AB", (later_a, later_b)):
                if not measurement_ready(psi, barrier, config.barrier_amplitude_max):
                    reason = unready_reason(psi, barrier, config.barrier_amplitude_max)
                    raise PrematureMeasurementError(
                        f"packet {name} is not ready at t = {psi.t:.6g}: {reason}; "
                        f"measuring now would split lobes still interacting"
                    )
        later = joint_probabilities(make_pair(later_a, later_b, config.sign), barrier.center)
        stability.append(float(later.a))

    norm_drift = float(
        max(abs(pair.psi_a.norm_sq() - 1.0), abs(pair.psi_b.norm_sq() - 1.0))
    )
    leakage = float(leakage)
    valid = bool(
        norm_drift <= NORM_DRIFT_MAX
        and leakage <= EDGE_AMPLITUDE_MAX
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


def run_resolved(config: ScenarioConfig, param_value: float) -> tuple[ResultRow, SymmetrizedPair]:
    """Run one fully resolved scenario; raises on failure.

    Flies the pair to its measurement with `evolve_pair_to_measurement`,
    then measures the one pair it yields with `_measure`: an error of
    either is raised.  Returns the row and the pair it measured, at the
    measurement time (before any stability extension).
    """
    barrier = config.barrier()
    if barrier is None:
        raise ConfigurationError("scenario has no barrier height; resolve_barrier first")
    ((_, outcome),) = evolve_pair_to_measurement([config], barrier)
    if isinstance(outcome, PairStatsError):
        raise outcome
    return _measure(config, barrier, param_value, *outcome)


def run_scenario(config: ScenarioConfig) -> ResultRow:
    """Resolve the barrier if needed, run, and measure one scenario.

    The row's `param` is the packet separation.  Errors propagate; use
    `sweep` for recorded-per-row error handling.
    """
    resolved, _ = resolve_barrier(config)
    return run_resolved(resolved, param_value=resolved.separation)[0]


def sweep(config: SweepConfig) -> list[ResultRow]:
    """Run every sweep value against a shared, once-resolved barrier.

    Rows come back in the order of `config.values`.  A failing value
    produces an invalid row carrying the error text; the sweep goes on.
    All values are flown in one `evolve_pair_to_measurement` call,
    which flies packet A alone and composes each value's B from it;
    each pair is measured as it is yielded, and dropped, so the sweep
    holds one pair at a time.  An error of that measurement is its
    row's error.
    """
    config.validate()
    base, _ = resolve_barrier(config.base)
    barrier = base.barrier()
    values = [float(v) for v in config.values]
    configs = [apply_sweep_parameter(base, config.parameter, v) for v in values]
    rows = [None] * len(values)
    for i, outcome in evolve_pair_to_measurement(configs, barrier):
        try:
            if isinstance(outcome, PairStatsError):
                raise outcome
            rows[i] = _measure(configs[i], barrier, values[i], *outcome)[0]
        except PairStatsError as err:
            rows[i] = ResultRow(param=values[i], error=f"{type(err).__name__}: {err}",
                                barrier_height=base.barrier_height)
        del outcome  # drop the pair before A flies on to the next one
    return rows


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


# (section, key, required) of each ScenarioConfig field in config files;
# a key left out of a file takes the field's default
_CONFIG_KEYS = {
    "grid_half_width": ("grid", "half_width", True),
    "grid_points": ("grid", "points", True),
    "packet_center": ("packet", "center", True),
    "packet_wavenumber": ("packet", "wavenumber", True),
    "packet_sigma": ("packet", "sigma", True),
    "separation": ("pair", "separation", False),
    "wavenumber_offset": ("pair", "wavenumber_offset", False),
    "sign": ("pair", "sign", False),
    "barrier_width": ("barrier", "width", True),
    "barrier_height": ("barrier", "height", False),
    "barrier_center": ("barrier", "center", False),
    "calibration_target": ("barrier", "target", False),
    "calibration_tol": ("barrier", "tol", False),
    "dt": ("evolution", "dt", False),
    "max_steps": ("evolution", "max_steps", False),
    "check_every": ("evolution", "check_every", False),
    "barrier_amplitude_max": ("measurement", "barrier_amplitude_max", False),
    "stability_fractions": ("measurement", "stability_fractions", False),
}
_CONFIG_SECTIONS = tuple(dict.fromkeys(section for section, _, _ in _CONFIG_KEYS.values()))


def _parse_sign(value) -> int:
    if isinstance(value, str) and value in _SIGN_VALUES:
        return _SIGN_VALUES[value]
    if not isinstance(value, str) and value in (BOSON, FERMION):
        return int(value)
    raise ConfigurationError(f"sign must be 'boson' or 'fermion', got {value!r}")


def _parse_height(value) -> Optional[float]:
    if value is None or (isinstance(value, str) and value.strip() == "calibrate"):
        return None
    return float(value)


def _parse_fractions(value) -> tuple[float, ...]:
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    return tuple(float(p) for p in value)


_FROM_FILE = {"sign": _parse_sign, "barrier_height": _parse_height,
              "stability_fractions": _parse_fractions}
_TO_FILE = {"sign": _SIGN_NAMES.__getitem__, "stability_fractions": list,
            "barrier_height": lambda height: "calibrate" if height is None else height}


def config_to_dict(config: ScenarioConfig) -> dict:
    """Nested dict mirroring the config-file sections."""
    data: dict = {section: {} for section in _CONFIG_SECTIONS}
    for f in fields(config):
        section, key, _ = _CONFIG_KEYS[f.name]
        value = getattr(config, f.name)
        data[section][key] = _TO_FILE[f.name](value) if f.name in _TO_FILE else value
    return data


def config_from_dict(data: dict) -> ScenarioConfig:
    """Inverse of `config_to_dict`; rejects unknown sections and keys."""
    data = {k: dict(v) for k, v in dict(data).items()}
    unknown = set(data) - set(_CONFIG_SECTIONS)
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    values = {}
    for f in fields(ScenarioConfig):
        section, key, required = _CONFIG_KEYS[f.name]
        given = data.get(section, {})
        if key in given:
            raw = given.pop(key)
            try:
                values[f.name] = _FROM_FILE.get(f.name, int if f.type == "int" else float)(raw)
            except (TypeError, ValueError):
                raise ConfigurationError(f"[{section}] {key}: cannot parse {raw!r}") from None
        elif required:
            raise ConfigurationError(f"missing key {key!r} in section [{section}]")
    for section in _CONFIG_SECTIONS:
        if data.get(section):
            raise ConfigurationError(
                f"unknown keys in section [{section}]: {sorted(data[section])}"
            )
    return ScenarioConfig(**values)


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
