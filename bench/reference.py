"""One-off reference pass over the committed configs (not a workload, not gated).

Runs every `configs/*.ini` once through the CLI (`sweep` when the file
has a [sweep] section, `run` otherwise) plus `calibrate` on
intermediate_bose, one invocation at a time, and writes
`bench/reference.json`: each command's wall time and the (a, p11,
t_meas) fingerprint of every row.  It also times one Strang step at
G = 4096 in-process.  It takes about half an hour on two cores:

    python3 bench/reference.py

With `--pin` it instead runs each benchmark workload once on the
default seed, untraced and traced, and writes `bench/baseline.json`:
the fingerprint and the traced layer counts that the benchmark checks
on that seed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

from checks import RESULT_FILES
from harness import BENCH_DIR, OUT_ROOT, REPO_ROOT, median, run_cli, use_source_tree
from workloads import DEFAULT_SEED, GENERATORS, build

PINNED_COUNTS = (
    "experiment.evolve_pair_to_measurement.calls",
    "experiment.run_resolved.calls",
    "propagator.calibrate_barrier.runs",
    "propagator.evolve.calls",
    "propagator.evolve.steps",
    "twoparticle.quadrant_quadrature_oracle.calls",
)

CALIBRATE_CONFIGS = ("intermediate_bose",)
STEP_REPEATS = 5
STEP_CHUNK = 2000


def commands() -> list[tuple[str, list[str]]]:
    out = []
    for path in sorted((REPO_ROOT / "configs").glob("*.ini")):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read(path, encoding="utf-8")
        sub = "sweep" if parser.has_section("sweep") else "run"
        out.append((f"{sub} {path.stem}", [sub, "--config", str(path.relative_to(REPO_ROOT))]))
    for stem in CALIBRATE_CONFIGS:
        out.append((f"calibrate {stem}", ["calibrate", "--config", f"configs/{stem}.ini"]))
    return out


def row_fingerprint(row: dict) -> dict:
    return {key: row[key] for key in ("param", "a", "p11", "t_meas", "valid")}


def step_microseconds() -> dict:
    """Median cost of one Strang step and of a bare FFT pair at G = 4096."""
    use_source_tree()
    import numpy as np
    from pairstats.grid import Grid1D, WavepacketSpec, make_gaussian
    from pairstats.propagator import BarrierPotential, PropagationParams, evolve

    grid = Grid1D(half_width=64.0, points=4096)
    psi = make_gaussian(grid, WavepacketSpec(center=-20.0, wavenumber=8.0, sigma=1.0))
    barrier = BarrierPotential(height=26.787825, width=0.5)
    params = PropagationParams(dt=5e-4, steps=STEP_CHUNK)
    evolve(psi, barrier, params)
    step, fft = [], []
    for _ in range(STEP_REPEATS):
        start = time.perf_counter()
        evolve(psi, barrier, params)
        step.append((time.perf_counter() - start) / STEP_CHUNK * 1e6)
        values = psi.values.copy()
        start = time.perf_counter()
        for _ in range(STEP_CHUNK):
            values = np.fft.ifft(np.fft.fft(values))
        fft.append((time.perf_counter() - start) / STEP_CHUNK * 1e6)
    return {"grid_points": 4096, "step_us": median(step), "fft_pair_us": median(fft)}


def pin_workloads(work: Path) -> dict:
    """Default-seed fingerprint and traced layer counts of every workload.

    Each workload gets one round of the benchmark's own traced
    measurement (an untraced and a traced serial run, both checked); the
    fingerprint comes from the traced run's result file.
    """
    from run import measure_traced

    pins = {}
    for name in GENERATORS:
        workload = build(name, DEFAULT_SEED)
        run_dir = work / name
        run_dir.mkdir(parents=True)
        config = run_dir / "input.ini"
        config.write_text(workload.ini, encoding="utf-8")
        metrics, outcome, _, _ = measure_traced(workload, config, run_dir, 0.0, None)
        if outcome.problems:
            raise RuntimeError(f"{name}: {outcome.problems}")
        result = run_dir / "traced" / RESULT_FILES[workload.subcommand]
        data = json.loads(result.read_text(encoding="utf-8"))
        if "rows" in data:
            entry = {"rows": [row_fingerprint(r) for r in data["rows"]]}
        else:
            entry = {"transmission": data["calibration"]["transmission"],
                     "barrier_height": data["calibration"]["height"],
                     "measurement_time": data["calibration"]["measurement_time"]}
        entry["counts"] = {key: metrics[key] for key in PINNED_COUNTS}
        pins[name] = entry
        print(f"{name:<16} pinned {entry['counts']}", flush=True)
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true",
                        help="pin the workloads' default-seed fingerprint in bench/baseline.json")
    args = parser.parse_args(argv)
    if args.pin:
        work = OUT_ROOT / "pin"
        shutil.rmtree(work, ignore_errors=True)
        pins = {"seed": DEFAULT_SEED, "workloads": pin_workloads(work)}
        out = BENCH_DIR / "baseline.json"
        out.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
        shutil.rmtree(work, ignore_errors=True)
        print(f"wrote {out}")
        return 0
    out = BENCH_DIR / "reference.json"
    work = OUT_ROOT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    entries = []
    for label, cli_argv in commands():
        out_dir = work / label.replace(" ", "-")
        inv = run_cli([*cli_argv, "--out", str(out_dir)], out_dir)
        entry = {"command": label, "returncode": inv.returncode,
                 "wall_s": round(inv.wall_s, 3), "cpu_s": round(inv.cpu_s, 3)}
        results = [out_dir / name for name in RESULT_FILES.values()]
        found = [p for p in results if p.is_file()]
        if found:
            data = json.loads(found[0].read_text(encoding="utf-8"))
            if "rows" in data:
                entry["rows"] = [row_fingerprint(r) for r in data["rows"]]
            else:
                entry["transmission"] = data["transmission"]
                entry["measurement_time"] = data["measurement_time"]
            if "calibration" in data:
                entry["barrier_height"] = data["calibration"]["height"]
                entry["calibration_runs"] = data["calibration"]["iterations"]
        entries.append(entry)
        print(f"{label:<32} exit {inv.returncode}  {inv.wall_s:8.2f} s", flush=True)
    report = {
        "measured": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "step": step_microseconds(),
        "commands": entries,
    }
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(f"step {report['step']['step_us']:.1f} us, fft pair "
          f"{report['step']['fft_pair_us']:.1f} us; wrote {out}")
    return 0 if all(e["returncode"] == 0 for e in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
