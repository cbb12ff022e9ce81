"""Command line front end.

Subcommands: occupancy (exact counting tables), calibrate (tune the
barrier to a target transmission), run (one two-packet scenario),
sweep (scan separation or boost), density (CSV dumps for
plotting).  Scenario knobs come from an INI-style config file: `[grid]`
half_width and points, `[packet]` center, wavenumber and sigma, and
`[barrier]` width are required, every other key has a default, and
unknown sections or keys are rejected.

Exit codes: 0 success, 1 any other runtime failure, 2 bad usage or
config, 3 calibration failure, 4 degenerate antisymmetric state, 5 sweep
with no valid rows.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .errors import (
    BudgetExceededError,
    CalibrationError,
    ConfigurationError,
    PairStatsError,
    PauliDegeneracyError,
)
from .experiment import (
    ResultRow,
    ScenarioConfig,
    SweepConfig,
    calibration_record,
    compare_with_counting,
    config_from_dict,
    config_to_dict,
    default_scenario,
    evolve_pair_to_measurement,
    resolve_barrier,
    rows_to_csv,
    run_resolved,
    summary_dict,
    sweep,
    write_summary_json,
)
from .grid import dump_wavefunction_csv, make_gaussian
from .occupancy import (
    DEFAULT_ENUMERATION_BUDGET,
    be_probability,
    enumerate_mb_oracle,
    fd_probability,
    mb_probability,
    occupancy_vectors,
)
from .propagator import calibration_bracket, simulated_transmission
from .twoparticle import (
    check_oracle_budget,
    dump_joint_density_csv,
    make_pair,
    quadrant_quadrature_oracle,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CALIBRATION = 3
EXIT_DEGENERATE = 4
EXIT_ALL_INVALID = 5

_STATS_CHOICES = ("mb", "be", "fd", "all")
_DENSITY_CHOICES = ("single_a", "single_b", "joint")


def _load_config_file(path: str) -> tuple[ScenarioConfig, Optional[dict]]:
    """Parse an INI scenario file into a config plus optional sweep block."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError as err:
        raise ConfigurationError(f"cannot read config file {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigurationError(f"malformed config file {path}: {err}") from err
    if parser.defaults():
        raise ConfigurationError("config files may not use a [DEFAULT] section")
    data = {name: dict(parser.items(name)) for name in parser.sections()}
    sweep_section = data.pop("sweep", None)
    config = config_from_dict(data)
    if sweep_section is None:
        return config, None
    if "parameter" not in sweep_section or "values" not in sweep_section:
        raise ConfigurationError("[sweep] needs both 'parameter' and 'values'")
    parameter = sweep_section.pop("parameter").strip()
    raw_values = sweep_section.pop("values")
    if sweep_section:
        raise ConfigurationError(
            f"unknown keys in section [sweep]: {sorted(sweep_section)}"
        )
    try:
        values = tuple(
            float(tok) for tok in raw_values.replace(",", " ").split() if tok
        )
    except ValueError as err:
        raise ConfigurationError(f"bad sweep values: {err}") from err
    return config, {"parameter": parameter, "values": values}


def _scenario_from_args(args) -> tuple[ScenarioConfig, Optional[dict]]:
    if args.config is None:
        return default_scenario(), None
    return _load_config_file(args.config)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigurationError(f"cannot use {out} as the output directory: {err}") from err
    return out


def _say(args, text: str) -> None:
    if args.verbose:
        print(text, file=sys.stderr)


def _say_calibration_runs(args, history, target: float) -> None:
    """One line per full calibration run, in run order, then the bracket the runs so far make."""
    for n, (v0, t) in enumerate(history, 1):
        _say(args, f"  height {v0:.10g} -> T = {t:.8f}")
        ends = ("-" if end is None else f"{end:.10g}"
                for end in calibration_bracket(history[:n], target))
        _say(args, "    bracket [{}, {}]".format(*ends))


def _resolve_barrier(args, config: ScenarioConfig):
    """`resolve_barrier`, listing the calibration runs made under --verbose, also when it fails."""
    try:
        resolved, calibration = resolve_barrier(config)
    except CalibrationError as err:
        _say_calibration_runs(args, err.history, config.calibration_target)
        raise
    if calibration is not None:
        _say_calibration_runs(args, calibration.history, config.calibration_target)
    return resolved, calibration


def _row_headline(row: ResultRow) -> str:
    if row.error is not None:
        return f"param={row.param:.6g}  error: {row.error}"
    return (
        f"param={row.param:.6g}  p20={row.p20:.6f} p02={row.p02:.6f} "
        f"p11={row.p11:.6f}  a={row.a:.6f}  [{row.label}]"
        f"{'' if row.valid else '  INVALID'}"
    )


def _fraction_cell(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def cmd_occupancy(args) -> int:
    n, m = args.particles, args.states
    if n < 0 or m < 1:
        raise ConfigurationError(f"need N >= 0 and M >= 1, got N={n} M={m}")
    rows = math.comb(n + m - 1, n)
    if rows > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"N={n} M={m} has {rows} occupancy vectors, over the table budget "
            f"{DEFAULT_ENUMERATION_BUDGET}"
        )
    # the enumeration's budget is checked before any table is printed
    tallies = enumerate_mb_oracle(n, m) if args.oracle else None
    kinds = ("mb", "be", "fd") if args.stats == "all" else (args.stats,)
    for kind in kinds:
        print(f"N={n} M={m} statistics={kind}")
        print(f"{'vector':<18}{'exact':>12}  decimal")
        total = Fraction(0)
        for vec in occupancy_vectors(n, m):
            if kind == "mb":
                p = mb_probability(vec)
            elif kind == "be":
                p = be_probability(n, m)
            else:
                p = fd_probability(vec)
            total += p
            cell = ",".join(str(c) for c in vec.counts)
            print(f"{cell:<18}{_fraction_cell(p):>12}  {float(p):.12g}")
        print(f"{'total':<18}{_fraction_cell(total):>12}  {float(total):.12g}")
        print()
    if args.oracle:
        exact = {vec: mb_probability(vec) for vec in occupancy_vectors(n, m)}
        if tallies != exact:
            print("oracle: MISMATCH between mb table and enumeration", file=sys.stderr)
            return 1
        print(f"oracle: mb table matches exact enumeration of {m}**{n} assignments")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    config, _ = _scenario_from_args(args)
    config.validate()
    out = _out_dir(args) / "calibration.json"
    if config.barrier_height is None:
        _say(args, f"calibrating barrier width {config.barrier_width} "
                   f"to T = {config.calibration_target} +- {config.calibration_tol}")
        resolved, calibration = _resolve_barrier(args, config)
        transmission = calibration.transmission
        t_meas = calibration.measurement_time
    else:
        _say(args, f"height fixed at {config.barrier_height}; measuring transmission")
        resolved, calibration = config, None
        transmission, t_meas = simulated_transmission(
            config.grid(), config.spec_a(), config.barrier(), **config.loop_settings()
        )
    report = {
        "toolkit_version": __version__,
        "kind": "calibration",
        "config": config_to_dict(resolved),
        "transmission": transmission,
        "measurement_time": t_meas,
    }
    if calibration is not None:
        report["calibration"] = calibration_record(config, calibration)
    with open(out, "w", encoding="utf-8") as handle:
        write_summary_json(report, handle)
    print(
        f"barrier height {resolved.barrier_height:.10g} transmits "
        f"{transmission:.6f} (measured at t = {t_meas:.6g}); wrote {out}"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    config, _ = _scenario_from_args(args)
    if args.oracle:
        check_oracle_budget(config.grid_points)
    config.validate()
    out = _out_dir(args)
    resolved, calibration = _resolve_barrier(args, config)
    if calibration is not None:
        _say(args, f"calibrated barrier height {resolved.barrier_height:.10g} "
                   f"(T = {calibration.transmission:.6f})")
    row, pair = run_resolved(resolved, param_value=resolved.separation)
    with open(out / "run.csv", "w", encoding="utf-8", newline="") as handle:
        rows_to_csv([row], handle)
    summary = summary_dict("run", resolved, [row], calibration=calibration)
    with open(out / "run.json", "w", encoding="utf-8") as handle:
        write_summary_json(summary, handle)
    print(_row_headline(row))
    for line in compare_with_counting(row).lines():
        print(line)
    if args.oracle:
        quad = quadrant_quadrature_oracle(pair, resolved.barrier_center)
        delta = max(
            abs(quad.p20 - row.p20), abs(quad.p02 - row.p02), abs(quad.p11 - row.p11)
        )
        print(f"oracle: 2d quadrature max|diff| = {delta:.3e}")
    print(f"wrote {out / 'run.csv'} and {out / 'run.json'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.parallel < 1:
        raise ConfigurationError(f"--parallel must be >= 1, got {args.parallel}")
    if args.config is None:
        raise ConfigurationError("sweep needs --config with a [sweep] section")
    base, sweep_block = _load_config_file(args.config)
    if sweep_block is None:
        raise ConfigurationError(f"config file {args.config} has no [sweep] section")
    sweep_config = SweepConfig(base=base, **sweep_block)
    sweep_config.validate()
    out = _out_dir(args)
    resolved_base, calibration = _resolve_barrier(args, base)
    if calibration is not None:
        _say(args, f"calibrated barrier height {resolved_base.barrier_height:.10g} "
                   f"(T = {calibration.transmission:.6f})")
    rows = sweep(replace(sweep_config, base=resolved_base))
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as handle:
        rows_to_csv(rows, handle)
    summary = summary_dict(
        "sweep",
        resolved_base,
        rows,
        calibration=calibration,
        sweep_info={
            "parameter": sweep_config.parameter,
            "values": list(sweep_config.values),
        },
    )
    with open(out / "sweep.json", "w", encoding="utf-8") as handle:
        write_summary_json(summary, handle)
    for row in rows:
        _say(args, _row_headline(row))
    n_valid = sum(1 for row in rows if row.valid)
    print(
        f"{len(rows)} rows ({n_valid} valid) over {sweep_config.parameter}; "
        f"wrote {out / 'sweep.csv'} and {out / 'sweep.json'}"
    )
    if n_valid == 0:
        print("no valid rows in sweep", file=sys.stderr)
        return EXIT_ALL_INVALID
    return EXIT_OK


def cmd_density(args) -> int:
    if args.max_points < 1:
        raise ConfigurationError(f"--max-points must be >= 1, got {args.max_points}")
    config, _ = _scenario_from_args(args)
    config.validate()
    out = _out_dir(args)
    path = out / f"density_{args.which}.csv"
    if args.evolved:
        resolved, _ = _resolve_barrier(args, config)
        ((_, outcome),) = evolve_pair_to_measurement([resolved], resolved.barrier())
        if isinstance(outcome, PairStatsError):
            raise outcome
        psi_a, psi_b, *_ = outcome
    else:
        grid = config.grid()
        psi_a = make_gaussian(grid, config.spec_a())
        psi_b = (
            psi_a
            if config.identical_packets()
            else make_gaussian(grid, config.spec_b())
        )
    if args.which == "single_a":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            dump_wavefunction_csv(psi_a, handle)
    elif args.which == "single_b":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            dump_wavefunction_csv(psi_b, handle)
    else:
        pair = make_pair(psi_a, psi_b, config.sign)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            dump_joint_density_csv(pair, handle, max_points=args.max_points)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairstats",
        description="Two-packet barrier scattering and exact occupancy counting.",
    )
    parser.add_argument("--version", action="version", version=f"pairstats {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", metavar="PATH", default=None,
                           help="INI scenario file (defaults to the stock scenario)")
        p.add_argument("--out", metavar="DIR", default=".",
                       help="output directory (created if missing)")
        p.add_argument("--verbose", action="store_true",
                       help="progress detail on stderr")

    p_occ = sub.add_parser("occupancy", help="exact counting tables")
    p_occ.add_argument("particles", type=int, metavar="N")
    p_occ.add_argument("states", type=int, metavar="M")
    p_occ.add_argument("--stats", choices=_STATS_CHOICES, default="all")
    p_occ.add_argument("--oracle", action="store_true",
                       help="cross-check mb against brute-force enumeration")
    p_occ.set_defaults(func=cmd_occupancy)

    p_cal = sub.add_parser("calibrate", help="tune barrier height to target transmission")
    add_common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_run = sub.add_parser("run", help="run one two-packet scenario")
    add_common(p_run)
    p_run.add_argument("--oracle", action="store_true",
                       help="also check quadrants against 2d quadrature")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="scan one parameter over a value list")
    add_common(p_sweep)
    p_sweep.add_argument("--parallel", type=int, default=1, metavar="N",
                         help="accepted for compatibility; changes nothing, "
                              "every sweep runs in one process")
    p_sweep.set_defaults(func=cmd_sweep)

    p_den = sub.add_parser("density", help="dump densities as CSV for plotting")
    p_den.add_argument("which", choices=_DENSITY_CHOICES)
    add_common(p_den)
    p_den.add_argument("--evolved", action="store_true",
                       help="dump the post-scattering state instead of the launch state")
    p_den.add_argument("--max-points", type=int, default=256, dest="max_points",
                       help="joint dump resolution per axis")
    p_den.set_defaults(func=cmd_density)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PauliDegeneracyError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except CalibrationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CALIBRATION
    except (ConfigurationError, BudgetExceededError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except PairStatsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
