"""pairstats benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload pair_run --seed 0 --seconds 38 --trace 0

With `--trace 0` it writes the workload's INI file from the seed, then
runs `pairstats` on it as a CLI subprocess back to back, each preceded
by a set-up probe, until the next one would overrun `--seconds`.  Every
invocation's outputs are checked.  It prints each end-to-end metric
with its unit and samples, then, as the last line, one JSON object with
the medians.  A run holds fewer than eleven samples of each metric, so
no tail percentile is reported.  `failed_frac` (failed / attempted
operations) is printed too and carried by the JSON's `attempted` and
`failed` fields.

With `--trace 1` it alternates an untraced serial invocation with a
traced in-process one (`layertrace.py`) and reports the per-layer
metrics instead; their times are medians over the traced runs.  Their
counts must repeat exactly across the traced runs and, on the default
seed, equal the counts pinned in `baseline.json`.

Outputs go to `.bench_out/` and are removed at the end, apart from the
last traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

from checks import Outcome, check_outputs
from harness import BENCH_DIR, OUT_ROOT, median, run_cli, spawn
from layertrace import calls_within, coverage, layer_totals, spans_from_json
from workloads import BOX, DEFAULT_SEED, GENERATORS, Workload, build

MIN_SETUP_PROBES = 7
FFT_PAIR_REPEATS = 2000
# bytes one Strang step streams: three phase multiplies (read, read,
# write) and two FFTs (read, write) over G complex128 values
STEP_BYTES_PER_POINT = (3 * 3 + 2 * 2) * 16
# evolve copies its input once per call (read, write)
EVOLVE_BYTES_PER_POINT = 2 * 16

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric -> unit; counts must repeat exactly across traced runs.
# A function that some workload bypasses reports its time as `.share`, its
# share of cli.main.s, so that it reads 0 there without being a zero time.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main.s": "s",
    "experiment.config_from_dict.s": "s",
    "experiment.resolve_barrier.s": "s",
    "experiment.sweep.share": "ratio",
    "experiment.run_resolved.calls": "count",
    "experiment.run_resolved.share": "ratio",
    "experiment.evolve_pair_to_measurement.calls": "count",
    "experiment.evolve_pair_to_measurement.share": "ratio",
    "propagator.evolve.calls": "count",
    "propagator.evolve.s": "s",
    "propagator.evolve.self_s": "s",
    "propagator.evolve.steps": "count",
    "propagator.step_us": "us",
    "propagator.simulated_transmission.calls": "count",
    "propagator.calibrate_barrier.share": "ratio",
    "propagator.calibrate_barrier.runs": "count",
    "propagator.calibration.useful_ratio": "ratio",
    "propagator.expected_packet_transmission.calls": "count",
    "propagator.expected_packet_transmission.share": "ratio",
    "propagator.measurement_ready.calls": "count",
    "propagator.measurement_ready.s": "s",
    "propagator.barrier_region_amplitude.calls": "count",
    "propagator.barrier_region_amplitude.s": "s",
    "grid.side_moments.calls": "count",
    "grid.side_moments.s": "s",
    "twoparticle.make_pair.calls": "count",
    "twoparticle.make_pair.share": "ratio",
    "twoparticle.joint_probabilities.calls": "count",
    "twoparticle.joint_probabilities.share": "ratio",
    "twoparticle.quadrant_quadrature_oracle.calls": "count",
    "twoparticle.quadrant_quadrature_oracle.share": "ratio",
    "grid.make_gaussian.calls": "count",
    "grid.make_gaussian.s": "s",
    "occupancy.classify_pair.calls": "count",
    "occupancy.classify_pair.share": "ratio",
    "propagator.fft.count": "count",
    "propagator.fft.gflop": "GFLOP",
    "propagator.bytes_moved_gb": "GB",
    "host.fft_pair_us": "us",
    "trace.coverage": "ratio",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}
COUNT_UNITS = ("count", "GFLOP", "GB")
# derived from the step count and array sizes, not measured; bytes ignore caches
COMPUTED = ("propagator.fft.count", "propagator.fft.gflop", "propagator.bytes_moved_gb")


def load_pins() -> dict:
    return json.loads((BENCH_DIR / "baseline.json").read_text(encoding="utf-8"))["workloads"]


def host_fft_pair_us() -> float:
    """Median time of a bare numpy FFT pair at the workloads' G: a host speed reference."""
    import numpy as np

    values = np.exp(1j * np.linspace(0.0, 50.0, BOX["points"]))
    times = []
    for _ in range(FFT_PAIR_REPEATS):
        start = time.perf_counter()
        np.fft.ifft(np.fft.fft(values))
        times.append(time.perf_counter() - start)
    return median(times) * 1e6


def setup_probe(config: Path, log_dir: Path) -> float:
    probe = spawn([str(BENCH_DIR / "setup_probe.py"), str(config)], log_dir)
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe exited {probe.returncode}: {probe.stderr.strip()}")
    return probe.wall_s


def measure(workload: Workload, config: Path, run_dir: Path, seconds: float, pinned) -> tuple:
    """Back-to-back invocations with tracing off; returns (samples, outcome)."""
    setup_probe(config, run_dir / "warmup")  # fills the bytecode and file caches
    samples = {name: [] for name, _ in END_TO_END}
    outcome = Outcome(0)
    start = time.perf_counter()
    while True:
        samples["setup_s"].append(setup_probe(config, run_dir / "probe"))
        out = run_dir / f"inv{len(samples['wall_s'])}"
        inv = run_cli(workload.cli_argv(config, out), out)
        outcome.add(check_outputs(workload, inv.returncode, out, inv.stdout, pinned))
        shutil.rmtree(out)
        samples["wall_s"].append(inv.wall_s)
        samples["cpu_s"].append(inv.cpu_s)
        samples["peak_rss_mb"].append(inv.peak_rss_mb)
        next_one = median(samples["wall_s"]) + median(samples["setup_s"])
        if time.perf_counter() - start + next_one > seconds:
            break
    while len(samples["setup_s"]) < MIN_SETUP_PROBES:
        samples["setup_s"].append(setup_probe(config, run_dir / "probe"))
    return samples, outcome


def layer_metrics(record: dict, untraced_wall: float) -> dict:
    """Per-layer numbers of one traced run (host.fft_pair_us is added later)."""
    spans = spans_from_json(record["spans"])
    totals = layer_totals(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    main_s = totals["cli.main"]["s"]
    out = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in zero:
            out[name] = totals.get(layer, zero)[stat]
        elif stat == "share":
            out[name] = totals.get(layer, zero)["s"] / main_s
    steps = record["counters"].get("propagator.evolve.steps", 0)
    runs = calls_within(spans, "propagator.simulated_transmission", "propagator.calibrate_barrier")
    points = BOX["points"]
    traced_wall = record["import_s"] + main_s
    out.update({
        "cli.import_s": record["import_s"],
        "propagator.evolve.steps": steps,
        "propagator.step_us": out["propagator.evolve.self_s"] / steps * 1e6 if steps else 0.0,
        "propagator.calibrate_barrier.runs": runs,
        "propagator.calibration.useful_ratio": 1.0 / runs if runs else 0.0,
        "propagator.fft.count": 2 * steps,
        "propagator.fft.gflop": 2 * steps * 5 * points * math.log2(points) / 1e9,
        "propagator.bytes_moved_gb": (
            steps * STEP_BYTES_PER_POINT + out["propagator.evolve.calls"] * EVOLVE_BYTES_PER_POINT
        ) * points / 1e9,
        "trace.coverage": coverage(spans),
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    return out


def count_problems(metrics: dict, pinned) -> list[str]:
    """Traced counts that differ from those pinned for the default seed."""
    if pinned is None:
        return []
    return [f"{name} = {metrics[name]}, pinned {want}"
            for name, want in pinned["counts"].items() if metrics[name] != want]


def measure_traced(workload: Workload, config: Path, run_dir: Path, seconds: float, pinned) -> tuple:
    """Alternate untraced and traced serial runs.

    Returns the per-layer metrics, the outcome, the number of traced runs
    and the last traced run's record.
    """
    runs = []
    outcome = Outcome(0)
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        out = run_dir / "untraced"
        inv = run_cli(workload.cli_argv(config, out, serial=True), out)
        outcome.add(check_outputs(workload, inv.returncode, out, inv.stdout, pinned))
        shutil.rmtree(out)
        out = run_dir / "traced"
        spans_path = run_dir / "spans.json"
        child = spawn(
            [str(BENCH_DIR / "layertrace.py"), str(spans_path), "--",
             *workload.cli_argv(config, out, serial=True)],
            out,
        )
        if child.returncode != 0:
            raise RuntimeError(f"traced run exited {child.returncode}: {child.stderr.strip()}")
        record = json.loads(spans_path.read_text(encoding="utf-8"))
        outcome.add(check_outputs(workload, record["returncode"], out, record["stdout"], pinned))
        runs.append(layer_metrics(record, inv.wall_s))
        outcome.problems += count_problems(runs[-1], pinned)
        if time.perf_counter() - start + (time.perf_counter() - began) > seconds:
            break
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "host.fft_pair_us":
            continue
        values = [r[name] for r in runs]
        if unit in COUNT_UNITS and len(set(values)) > 1:
            outcome.problems.append(f"{name} did not repeat across traced runs: {values}")
        metrics[name] = values[0] if unit in COUNT_UNITS else median(values)
    return metrics, outcome, len(runs), record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = build(args.workload, args.seed)
    pinned = load_pins()[workload.name] if args.seed == DEFAULT_SEED else None
    run_dir = OUT_ROOT / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "input.ini"
    config.write_text(workload.ini, encoding="utf-8")
    try:
        fft_us = host_fft_pair_us()
        if args.trace:
            metrics, outcome, n, record = measure_traced(workload, config, run_dir, args.seconds, pinned)
            metrics["host.fft_pair_us"] = fft_us
            spans_out = OUT_ROOT / f"trace-{workload.name}-seed{args.seed}.json"
            spans_out.write_text(json.dumps(record) + "\n", encoding="utf-8")
            print(f"{workload.name} seed {args.seed}: {n} traced runs (serial); spans in {spans_out}")
            for name, unit in PER_LAYER.items():
                label = "  (computed)" if name in COMPUTED else ""
                print(f"  {name:<46} {metrics[name]:>14.6g} {unit}{label}")
            report = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            samples, outcome = measure(workload, config, run_dir, args.seconds, pinned)
            print(f"{workload.name} seed {args.seed}: closed loop, 1 client; "
                  f"host.fft_pair_us {fft_us:.2f} us (reference only)")
            for name, unit in END_TO_END:
                values = samples[name]
                print(f"  {name:<12} median {median(values):10.4f} {unit:<3} n={len(values)}  "
                      f"samples {' '.join(f'{v:.4f}' for v in values)}")
            report = {name: {"value": median(samples[name]), "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed_frac = outcome.failed / outcome.attempted
    print(f"  failed_frac  {failed_frac:.4f} ratio  ({outcome.failed} of {outcome.attempted} operations)")
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
