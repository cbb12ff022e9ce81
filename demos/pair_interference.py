"""Two packets meet on a 50/50 barrier.

Calibrates the barrier height once, then runs the same scenario for
both exchange signs at two separations and sets each outcome against
the exact counting tables.  About ten seconds on one core.

Every read-out, the calibration run's too, comes at t = 6.0; the step
budget of 16,000 steps (t = 8.0) leaves room past it.  Packet A still
reaches the edge of this L = 64 box at t = 6.316, so a read-out later
than that fails on the edge; a box that lets the scattered lobes leave
the grid (ROADMAP item 10) removes that limit.
"""

import dataclasses

from pairstats.experiment import (
    ScenarioConfig,
    compare_with_counting,
    resolve_barrier,
    run_resolved,
)
from pairstats.twoparticle import BOSON, FERMION

BASE = ScenarioConfig(
    grid_half_width=64.0,
    grid_points=2048,
    packet_center=-10.0,
    packet_wavenumber=8.0,
    packet_sigma=1.0,
    barrier_width=1.0,
    barrier_height=None,
    dt=5e-4,
    max_steps=16_000,
)

NAMES = {BOSON: "boson", FERMION: "fermion"}


def show(config):
    row, _ = run_resolved(config, param_value=config.separation)
    print(f"{NAMES[config.sign]}, separation d = {config.separation:g}, "
          f"measured at t = {row.t_meas:g}")
    for line in compare_with_counting(row).lines():
        print("  " + line)
    print()


def main():
    resolved, calibration = resolve_barrier(BASE)
    print(f"calibrated barrier: height {resolved.barrier_height:.6f}, "
          f"T = {calibration.transmission:.6f} "
          f"after {calibration.iterations} runs")
    print()
    for separation in (3.0, 1.0):
        for sign in (BOSON, FERMION):
            show(dataclasses.replace(resolved, separation=separation, sign=sign))
    # identical packets: the boson pair lands on the distinguishable point
    show(dataclasses.replace(resolved, separation=0.0, sign=BOSON))


if __name__ == "__main__":
    main()
