"""How the side statistics move with initial packet separation.

Sweeps the separation for both exchange signs over one calibrated
barrier.  Bosons never drop below the distinguishable point a = 1/4
and fermions never rise above it; both tails approach 1/4 as the
packets decohere.  About six seconds on one core.

Every read-out, the calibration run's too, comes at t = 6.0; the step
budget of 16,000 steps (t = 8.0) leaves room past it.  Packet A still
reaches the edge of this L = 64 box at t = 6.316, so a read-out later
than that fails on the edge; a box that lets the scattered lobes leave
the grid (ROADMAP item 10) removes that limit.
"""

import dataclasses

from pairstats.experiment import ScenarioConfig, SweepConfig, resolve_barrier, sweep
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

SEPARATIONS = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0)


def main():
    resolved, calibration = resolve_barrier(BASE)
    print(f"barrier height {resolved.barrier_height:.6f} "
          f"(T = {calibration.transmission:.6f})")
    for sign, name in ((BOSON, "boson"), (FERMION, "fermion")):
        rows = sweep(
            SweepConfig(
                base=dataclasses.replace(resolved, sign=sign),
                parameter="separation_d",
                values=SEPARATIONS,
            )
        )
        print()
        print(f"{name}:")
        print(f"{'d':>6}  {'a':>9}  {'p11':>9}  {'|s|':>9}  label")
        for row in rows:
            print(f"{row.param:>6.2f}  {row.a:>9.6f}  {row.p11:>9.6f}  "
                  f"{row.s_abs:>9.6f}  {row.label}")


if __name__ == "__main__":
    main()
