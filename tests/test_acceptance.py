"""Full-size acceptance runs: one test per shipping criterion.

Each test appends exactly one PASS/FAIL line to the report printed at
the end of the session, then asserts.  Expensive calibrations are
session fixtures shared by every criterion that uses the same scenario;
a guard checks field-by-field that the configurations really do share
the calibration-relevant scenario before a height is reused.

Budget on one core is roughly four to five minutes, dominated by the
three calibrations and the two committed separation sweeps.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from pairstats.cli import EXIT_OK, _load_config_file, main
from pairstats.experiment import (
    ScenarioConfig,
    SweepConfig,
    resolve_barrier,
    run_resolved,
    sweep,
)
from pairstats.grid import Grid1D, WavepacketSpec, make_gaussian, position_std
from pairstats.occupancy import (
    be_probability,
    enumerate_mb_oracle,
    fd_probability,
    mb_probability,
    occupancy_vectors,
)
from pairstats.propagator import (
    BarrierPotential,
    PropagationParams,
    evolve,
    expected_packet_transmission,
    simulated_transmission,
)
from pairstats.twoparticle import (
    BOSON,
    FERMION,
    joint_probabilities,
    quadrant_quadrature_oracle,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# everything the calibrated height depends on; separation, exchange sign
# and stability read-outs are excluded on purpose
CALIBRATION_FIELDS = (
    "grid_half_width",
    "grid_points",
    "packet_center",
    "packet_wavenumber",
    "packet_sigma",
    "barrier_width",
    "calibration_target",
    "calibration_tol",
    "dt",
    "max_steps",
    "barrier_amplitude_max",
)


def calibration_view(config) -> dict:
    return {field: getattr(config, field) for field in CALIBRATION_FIELDS}


def load_config(name: str):
    config, sweep_block = _load_config_file(str(CONFIG_DIR / name))
    return config, sweep_block


def record(report, number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'}  {detail}"
    report.append(line)
    assert ok, line


def sum_rule_ok(rows) -> bool:
    # joint_probabilities refuses to emit a row beyond 1e-6 already;
    # this re-checks the emitted numbers end to end
    return all(abs((r.p20 + r.p02) + r.p11 - 1.0) <= 1e-6 for r in rows)


@pytest.fixture(scope="session")
def default_calibration():
    """Thin-barrier calibration of the stock scenario (mb_limit.ini)."""
    config, _ = load_config("mb_limit.ini")
    start = time.perf_counter()
    resolved, calibration = resolve_barrier(config)
    return resolved, calibration, time.perf_counter() - start


@pytest.fixture(scope="session")
def thick_calibration():
    """Thick-barrier calibration shared by the sweeps and intermediates."""
    config, _ = load_config("sweep_boson.ini")
    start = time.perf_counter()
    resolved, calibration = resolve_barrier(config)
    return resolved, calibration, time.perf_counter() - start


@pytest.fixture(scope="session")
def tight_calibration():
    """Tight-tolerance calibration for the identical-packet scenario."""
    config, _ = load_config("identical_boson.ini")
    start = time.perf_counter()
    resolved, calibration = resolve_barrier(config)
    return resolved, calibration, time.perf_counter() - start


def test_criterion_1_exact_counting(acceptance_report):
    start = time.perf_counter()
    pair_points_ok = (
        mb_probability((2, 0)) == Fraction(1, 4)
        and mb_probability((0, 2)) == Fraction(1, 4)
        and mb_probability((1, 1)) == Fraction(1, 2)
        and be_probability(2, 2) == Fraction(1, 3)
        and fd_probability((2, 0)) == Fraction(0)
        and fd_probability((0, 2)) == Fraction(0)
        and fd_probability((1, 1)) == Fraction(1)
    )
    oracle_ok = True
    for n in range(1, 5):
        for m in range(1, 5):
            formula = {v: mb_probability(v) for v in occupancy_vectors(n, m)}
            if enumerate_mb_oracle(n, m) != formula:
                oracle_ok = False
    elapsed = time.perf_counter() - start
    record(
        acceptance_report,
        1,
        pair_points_ok and oracle_ok and elapsed < 1.0,
        f"exact pair points and enumeration oracle for N,M <= 4 ({elapsed:.2f} s)",
    )


def test_criterion_2_propagator_oracles(acceptance_report):
    # spreading plus norm conservation, one run, G = 8192
    start = time.perf_counter()
    grid = Grid1D(half_width=128.0, points=8192)
    psi = make_gaussian(grid, WavepacketSpec(center=0.0, wavenumber=0.0, sigma=1.0))
    free = BarrierPotential(height=0.0, width=1.0)
    dt = 5e-4
    checkpoints = (2000, 4000, 6000, 8000, 10000, 11400)
    max_rel = 0.0
    done = 0
    for steps in checkpoints:
        psi = evolve(psi, free, PropagationParams(dt=dt, steps=steps - done)).psi
        done = steps
        t = done * dt
        expected = math.sqrt(1.0 + (t / 2.0) ** 2)
        max_rel = max(max_rel, abs(position_std(psi) - expected) / expected)
    final_width = math.sqrt(1.0 + (done * dt / 2.0) ** 2)
    drift = abs(psi.norm_sq() - 1.0)
    spread_elapsed = time.perf_counter() - start

    # packet transmission against the momentum-averaged analytic value,
    # on the fine grid where the sharp-edge sampling bias is ~0.2%
    start = time.perf_counter()
    fine = Grid1D(half_width=64.0, points=8192)
    spec = WavepacketSpec(center=-20.0, wavenumber=8.0, sigma=1.0)  # k0 sigma = 8
    barrier = BarrierPotential(height=33.0, width=0.5)
    t_sim, _ = simulated_transmission(
        fine, spec, barrier,
        dt=1e-4, max_steps=60_000, check_every=500,
    )
    t_ref = expected_packet_transmission(spec, barrier)
    t_dev = abs(t_sim - t_ref) / t_ref
    trans_elapsed = time.perf_counter() - start

    ok = (
        final_width >= 3.0
        and max_rel <= 1e-6
        and done >= 10_000
        and drift < 1e-10
        and t_dev <= 0.02
        and spread_elapsed < 30.0
        and trans_elapsed < 30.0
    )
    record(
        acceptance_report,
        2,
        ok,
        f"spreading rel err {max_rel:.2e} to {final_width:.2f} sigma, norm drift "
        f"{drift:.2e} over {done} steps, transmission dev {t_dev:.3%} "
        f"({spread_elapsed:.1f} s + {trans_elapsed:.1f} s)",
    )


def test_criterion_3_calibration(acceptance_report, default_calibration):
    resolved, calibration, elapsed = default_calibration
    miss = abs(calibration.transmission - 0.5)
    record(
        acceptance_report,
        3,
        miss <= 0.005 and elapsed < 120.0,
        f"|T - 1/2| = {miss:.2e} after {calibration.iterations} runs "
        f"({elapsed:.0f} s)",
    )


def test_criterion_4_distinguishable_limit(acceptance_report, default_calibration):
    resolved, _, _ = default_calibration
    boson_config, _ = load_config("mb_limit.ini")
    fermion_config, _ = load_config("mb_limit_fermion.ini")
    assert calibration_view(boson_config) == calibration_view(resolved)
    assert calibration_view(fermion_config) == calibration_view(resolved)

    worst = 0.0
    rows = []
    for config in (boson_config, fermion_config):
        ready = replace(config, barrier_height=resolved.barrier_height)
        row, _ = run_resolved(ready, param_value=ready.separation)
        rows.append(row)
        worst = max(
            worst,
            abs(row.p20 - 0.25),
            abs(row.p02 - 0.25),
            abs(row.p11 - 0.5),
        )
    ok = worst <= 0.01 and all(r.valid for r in rows) and sum_rule_ok(rows)
    record(
        acceptance_report,
        4,
        ok,
        f"20-sigma separation: max deviation from (1/4, 1/4, 1/2) is "
        f"{worst:.2e} over boson and fermion",
    )


def test_criterion_5_consistency_oracles(acceptance_report):
    grid_points = 4096
    config_base = dict(
        grid_half_width=64.0,
        packet_center=-20.0,
        packet_wavenumber=8.0,
        packet_sigma=1.0,
    )
    worst = 0.0
    rows = []
    for sign in (BOSON, FERMION):
        config = ScenarioConfig(
            grid_points=grid_points,
            separation=2.0,
            sign=sign,
            barrier_width=0.5,
            barrier_height=26.787825,
            max_steps=16_000,
            **config_base,
        )
        row, pair = run_resolved(config, param_value=2.0)
        rows.append(row)
        fast = joint_probabilities(pair)
        slow = quadrant_quadrature_oracle(pair)
        worst = max(
            worst,
            abs(fast.p20 - slow.p20),
            abs(fast.p02 - slow.p02),
            abs(fast.p11 - slow.p11),
        )
    ok = worst <= 1e-10 and sum_rule_ok(rows)
    record(
        acceptance_report,
        5,
        ok,
        f"factorized vs 2d quadrature max|diff| = {worst:.2e} at G = {grid_points}; "
        f"sum rule within 1e-6 on every row",
    )


def test_criterion_6_sign_inequalities(acceptance_report, thick_calibration):
    resolved, _, _ = thick_calibration
    results = {}
    for name in ("sweep_boson.ini", "sweep_fermion.ini"):
        base, sweep_block = load_config(name)
        assert sweep_block is not None
        assert calibration_view(base) == calibration_view(resolved)
        ready = replace(base, barrier_height=resolved.barrier_height)
        rows = sweep(
            SweepConfig(
                base=ready,
                parameter=sweep_block["parameter"],
                values=sweep_block["values"],
            )
        )
        results[name] = rows

    boson_rows = results["sweep_boson.ini"]
    fermion_rows = results["sweep_fermion.ini"]
    all_rows = boson_rows + fermion_rows
    clean = all(r.error is None and r.valid for r in all_rows) and sum_rule_ok(all_rows)
    boson_min = min(r.a for r in boson_rows)
    fermion_max = max(r.a for r in fermion_rows)
    ok = clean and boson_min >= 0.25 - 1e-4 and fermion_max <= 0.25 + 1e-4
    record(
        acceptance_report,
        6,
        ok,
        f"boson min a = {boson_min:.6f} >= 1/4 - 1e-4, fermion max a = "
        f"{fermion_max:.6f} <= 1/4 + 1e-4 over {len(all_rows)} committed sweep rows",
    )


def test_criterion_7_intermediate_regimes(acceptance_report, thick_calibration):
    resolved, _, _ = thick_calibration
    bose_config, _ = load_config("intermediate_bose.ini")
    fermi_config, _ = load_config("intermediate_fermi.ini")
    assert calibration_view(bose_config) == calibration_view(resolved)
    assert calibration_view(fermi_config) == calibration_view(resolved)

    bose_row, _ = run_resolved(
        replace(bose_config, barrier_height=resolved.barrier_height),
        param_value=bose_config.separation,
    )
    fermi_row, _ = run_resolved(
        replace(fermi_config, barrier_height=resolved.barrier_height),
        param_value=fermi_config.separation,
    )
    rows = [bose_row, fermi_row]
    stability_note = ""
    if bose_row.stability_a:
        stability_note = (
            f"; a drifts {abs(bose_row.stability_a[0] - bose_row.a):.1e} "
            f"under 1.5x longer evolution"
        )
    ok = (
        0.26 < bose_row.a < 0.33
        and 0.0 < fermi_row.a < 0.24
        and all(r.valid for r in rows)
        and sum_rule_ok(rows)
    )
    record(
        acceptance_report,
        7,
        ok,
        f"committed boson a = {bose_row.a:.6f} in (0.26, 0.33), fermion a = "
        f"{fermi_row.a:.6f} in (0, 0.24){stability_note}",
    )


def test_criterion_8_identical_packets(acceptance_report, tight_calibration):
    resolved, calibration, _ = tight_calibration
    row, _ = run_resolved(resolved, param_value=0.0)
    worst = max(abs(row.p20 - 0.25), abs(row.p02 - 0.25), abs(row.p11 - 0.5))
    # the full-overlap pair factorizes, so a sits above 1/4 by exactly
    # the squared calibration miss, nowhere near the uniform point 1/3
    predicted_excess = (calibration.transmission - 0.5) ** 2
    ok = worst <= 0.001 and row.valid and sum_rule_ok([row])
    record(
        acceptance_report,
        8,
        ok,
        f"identical-packet boson gives product statistics within {worst:.1e} "
        f"of (1/4, 1/4, 1/2); a - 1/4 = {row.a - 0.25:.1e} vs (T - 1/2)^2 = "
        f"{predicted_excess:.1e}; the uniform point 1/3 is not reproduced",
    )


def test_criterion_9_determinism(acceptance_report, tmp_path):
    run_dirs = [tmp_path / f"run{i}" for i in (1, 2)]
    for out in run_dirs:
        code = main(["run", "--config", str(CONFIG_DIR / "quick_run.ini"),
                     "--out", str(out)])
        assert code == EXIT_OK
    run_same = all(
        (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes()
        for name in ("run.csv", "run.json")
    )

    sweep_dirs = [tmp_path / f"sweep{i}" for i in (1, 2, 3)]
    for out, parallel in zip(sweep_dirs, ("1", "1", "3")):
        code = main(["sweep", "--config", str(CONFIG_DIR / "quick_sweep.ini"),
                     "--out", str(out), "--parallel", parallel])
        assert code == EXIT_OK
    sweep_same = all(
        (sweep_dirs[0] / name).read_bytes() == (other / name).read_bytes()
        for name in ("sweep.csv", "sweep.json")
        for other in sweep_dirs[1:]
    )
    record(
        acceptance_report,
        9,
        run_same and sweep_same,
        "reruns byte-identical for run and sweep; parallel sweep matches serial",
    )
