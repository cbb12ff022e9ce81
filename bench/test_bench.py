"""Tests of the benchmark itself: generator, wrappers, checks and span math."""

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import workloads
from checks import check_outputs
from layertrace import Span, Tracer, calls_within, coverage, installed, layer_totals, union_length

BENCH_DIR = Path(__file__).resolve().parent


# --- seeded generator -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_generator_is_deterministic_per_seed(name, seed):
    assert workloads.build(name, seed) == workloads.build(name, seed)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_seeds_give_different_inputs(name):
    texts = {workloads.build(name, seed).ini for seed in range(1, 6)}
    assert len(texts) == 5


def test_default_seed_is_the_unjittered_scenario():
    seed = workloads.DEFAULT_SEED
    assert workloads.build("pair_run", seed).params == (1.5,)
    assert workloads.build("sep_sweep", seed).params == (0.0, 1.0, 2.0, 3.0, 4.5, 6.0)
    for name in workloads.GENERATORS:
        assert "center = -20.0\n" in workloads.build(name, seed).ini


@pytest.mark.parametrize("seed", range(1, 30))
def test_jitter_stays_in_range(seed):
    import configparser

    for name in workloads.GENERATORS:
        workload = workloads.build(name, seed)
        ini = configparser.ConfigParser()
        ini.read_string(workload.ini)
        assert -21.0 <= ini.getfloat("packet", "center") <= -19.0
    (d,) = workloads.build("pair_run", seed).params
    assert 1.0 <= d <= 2.0
    values = workloads.build("sep_sweep", seed).params
    assert values[0] == 0.0 and len(values) == 6
    assert all(0.5 <= v <= 6.0 for v in values[1:]) and list(values) == sorted(values)


def test_generated_config_loads_in_pairstats(tmp_path):
    from pairstats.cli import _load_config_file

    for name in workloads.GENERATORS:
        path = tmp_path / f"{name}.ini"
        path.write_text(workloads.build(name, 3).ini)
        config, sweep = _load_config_file(str(path))
        config.validate()
        assert (sweep is not None) == (name == "sep_sweep")


# --- wrappers -----------------------------------------------------------------

def _pairstats_modules():
    import pairstats.cli  # noqa: F401

    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("pairstats.") and mod is not None}


def test_wrappers_reach_every_importer_and_restore_originals():
    modules = _pairstats_modules()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    original = modules["propagator"].evolve
    with installed(Tracer(), modules):
        assert modules["propagator"].evolve is not original
        assert modules["experiment"].evolve is modules["propagator"].evolve
        assert modules["experiment"].make_gaussian is modules["grid"].make_gaussian
    for name, mod in modules.items():
        assert all(vars(mod)[k] is v for k, v in before[name].items()), name


def test_wrappers_restore_after_an_exception():
    modules = _pairstats_modules()
    original = modules["cli"].main
    with pytest.raises(RuntimeError):
        with installed(Tracer(), modules):
            raise RuntimeError("boom")
    assert modules["cli"].main is original


def test_traced_calls_record_nested_spans_and_step_counts():
    modules = _pairstats_modules()
    grid_mod, prop = modules["grid"], modules["propagator"]
    grid = grid_mod.Grid1D(half_width=32.0, points=1024)
    spec = grid_mod.WavepacketSpec(center=-6.0, wavenumber=6.0, sigma=1.0)
    barrier = prop.BarrierPotential(height=25.0, width=0.5)
    tracer = Tracer()
    with installed(tracer, modules):
        prop.simulated_transmission(grid, spec, barrier, 1e-3, 20000, 100, 0.0, 1e-4)
    names = [s.name for s in tracer.spans]
    assert names[0] == "propagator.simulated_transmission"
    assert names[1] == "grid.make_gaussian"
    evolves = [s for s in tracer.spans if s.name == "propagator.evolve"]
    assert evolves and all(s.parent == 0 for s in evolves)
    assert tracer.counters["propagator.evolve.steps"] == 100 * len(evolves)
    assert all(s.end >= s.start for s in tracer.spans)


# --- span math ----------------------------------------------------------------

def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == pytest.approx(4.0)


def _spans():
    return [
        Span("cli.main", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),      # overlaps a
        Span("a", 8.0, 9.0, 0),
        Span("a", 1.5, 2.5, 1),      # a inside a: counted once in s
        Span("c", 2.0, 2.2, 4),
    ]


def test_coverage_is_union_of_direct_children():
    assert coverage(_spans()) == pytest.approx((6.0 - 1.0 + 1.0) / 10.0)
    assert coverage([Span("other", 0.0, 1.0, -1)]) == 0.0


def test_layer_totals_self_time_and_nesting():
    totals = layer_totals(_spans())
    assert totals["cli.main"]["self_s"] == pytest.approx(10.0 - 6.0)
    assert totals["a"]["calls"] == 3
    assert totals["a"]["s"] == pytest.approx(3.0 + 1.0)
    assert totals["a"]["self_s"] == pytest.approx((3.0 - 1.0) + 1.0 + (1.0 - 0.2))
    assert totals["c"]["self_s"] == pytest.approx(0.2)


def test_calls_within_follows_the_parent_chain():
    assert calls_within(_spans(), "c", "a") == 1
    assert calls_within(_spans(), "a", "a") == 1
    assert calls_within(_spans(), "b", "a") == 0


# --- output checks ------------------------------------------------------------

ORACLE_OK = "oracle: 2d quadrature max|diff| = 1.110e-16\n"


def _write_run(out_dir, workload, **changes):
    from pairstats.cli import _load_config_file
    from pairstats.experiment import ResultRow, summary_dict, write_summary_json

    config_path = out_dir / "input.ini"
    config_path.write_text(workload.ini)
    config, _ = _load_config_file(str(config_path))
    rows = []
    for param in workload.params:
        fields = dict(param=param, p20=0.2, p02=0.22, p11=0.58, a=0.21, valid=True)
        fields.update(changes)
        rows.append(ResultRow(**fields))
    kind = "sweep" if workload.subcommand == "sweep" else "run"
    with open(out_dir / f"{kind}.json", "w") as handle:
        write_summary_json(summary_dict(kind, config, rows), handle)


@pytest.fixture
def good_run(tmp_path):
    workload = workloads.build("pair_run", 5)
    out = tmp_path / "good"
    out.mkdir()
    _write_run(out, workload)
    return workload, out


def test_good_run_passes(good_run):
    workload, out = good_run
    outcome = check_outputs(workload, 0, out, ORACLE_OK)
    assert (outcome.attempted, outcome.failed, outcome.problems) == (1, 0, [])


@pytest.mark.parametrize("field, value, message", [
    ("p11", 0.5, "sum rule"),
    ("valid", False, "valid"),
    ("a", 0.26, "above 1/4"),
    ("param", 9.0, "expected"),
])
def test_corrupted_copy_is_flagged(good_run, field, value, message):
    workload, good = good_run
    bad = good.parent / "bad"
    shutil.copytree(good, bad)
    data = json.loads((bad / "run.json").read_text())
    data["rows"][0][field] = value
    (bad / "run.json").write_text(json.dumps(data))
    outcome = check_outputs(workload, 0, bad, ORACLE_OK)
    assert outcome.failed == 1 and message in " ".join(outcome.problems)
    assert check_outputs(workload, 0, good, ORACLE_OK).failed == 0


def test_truncated_file_exit_code_and_oracle_are_flagged(good_run):
    workload, good = good_run
    assert check_outputs(workload, 0, good, "oracle: 2d quadrature max|diff| = 3.0e-9\n").failed == 1
    assert check_outputs(workload, 0, good, "").failed == 1
    assert check_outputs(workload, 4, good, ORACLE_OK).failed == 1
    text = (good / "run.json").read_text()
    (good / "run.json").write_text(text[: len(text) // 2])
    assert check_outputs(workload, 0, good, ORACLE_OK).failed == 1


def test_boson_bound_and_missing_sweep_rows(tmp_path):
    workload = workloads.build("sep_sweep", 2)
    _write_run(tmp_path, workload, p20=0.26, p02=0.26, p11=0.48, a=0.26)
    assert check_outputs(workload, 0, tmp_path, "").failed == 0
    _write_run(tmp_path, workload, a=0.2)
    assert check_outputs(workload, 0, tmp_path, "").failed == 6
    short = replace(workload, params=workload.params + (7.0,))
    _write_run(tmp_path, workload, p20=0.26, p02=0.26, p11=0.48, a=0.26)
    outcome = check_outputs(short, 0, tmp_path, "")
    assert (outcome.attempted, outcome.failed) == (7, 1)


def test_fingerprint_drift_is_flagged_on_the_default_seed(good_run):
    workload, good = good_run
    pinned = {"rows": [{"a": 0.21, "p11": 0.58}]}
    assert check_outputs(workload, 0, good, ORACLE_OK, pinned).failed == 0
    pinned = {"rows": [{"a": 0.21 + 2e-8, "p11": 0.58}]}
    assert check_outputs(workload, 0, good, ORACLE_OK, pinned).failed == 1


def test_calibration_checks(tmp_path):
    workload = workloads.build("calibrate_thick", 1)
    record = {"calibration": {"transmission": 0.5031, "height": 28.0}}
    (tmp_path / "calibration.json").write_text(json.dumps(record))
    assert check_outputs(workload, 0, tmp_path, "").failed == 0
    pinned = {"transmission": 0.5031, "barrier_height": 28.0}
    assert check_outputs(workload, 0, tmp_path, "", pinned).failed == 0
    record["calibration"]["transmission"] = 0.5051
    (tmp_path / "calibration.json").write_text(json.dumps(record))
    assert "misses" in " ".join(check_outputs(workload, 0, tmp_path, "").problems)


def test_pinned_baseline_matches_the_default_workloads():
    import run

    pins = json.loads((BENCH_DIR / "baseline.json").read_text())
    assert pins["seed"] == workloads.DEFAULT_SEED
    for name, pin in pins["workloads"].items():
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        if "rows" in pin:
            assert tuple(r["param"] for r in pin["rows"]) == workload.params
        assert set(pin["counts"]) <= set(run.PER_LAYER)
    assert pins["workloads"]["calibrate_thick"]["counts"]["propagator.calibrate_barrier.runs"] == 8
    assert pins["workloads"]["pair_run"]["counts"]["experiment.evolve_pair_to_measurement.calls"] == 2


def test_traced_counts_are_checked_against_the_pins():
    import run

    pinned = {"counts": {"propagator.evolve.steps": 91200, "propagator.calibrate_barrier.runs": 8}}
    metrics = {"propagator.evolve.steps": 91200, "propagator.calibrate_barrier.runs": 8}
    assert run.count_problems(metrics, pinned) == []
    metrics["propagator.calibrate_barrier.runs"] = 9
    assert run.count_problems(metrics, pinned) == ["propagator.calibrate_barrier.runs = 9, pinned 8"]
    assert run.count_problems(metrics, None) == []


def test_benchmark_file_lists_what_run_reports():
    import run

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
