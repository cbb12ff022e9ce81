"""The demos' scenarios keep room in their step budgets."""

import importlib.util
from pathlib import Path

from pairstats.experiment import resolve_barrier, run_resolved

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def load_demo(name: str):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_width_one_demo_reads_out_well_inside_its_step_budget():
    # pair_interference and separation_sweep share this box and budget;
    # a read-out on the budget's last chunk would time out at any later one
    base = load_demo("pair_interference").BASE
    assert load_demo("separation_sweep").BASE == base
    budget = base.max_steps * base.dt
    resolved, calibration = resolve_barrier(base)
    assert calibration.measurement_time <= 0.8 * budget
    row, _ = run_resolved(resolved, param_value=resolved.separation)
    assert row.valid and row.t_meas <= 0.8 * budget
