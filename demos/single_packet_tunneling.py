"""One wavepacket against a rectangular barrier.

Checks the split-operator propagator against two closed forms: free
Gaussian spreading and the momentum-averaged plane-wave transmission.
Takes a few seconds on one core.
"""

import numpy as np

from pairstats.grid import Grid1D, WavepacketSpec, make_gaussian, position_std
from pairstats.propagator import (
    BarrierPotential,
    PropagationParams,
    analytic_plane_transmission,
    evolve,
    expected_packet_transmission,
    simulated_transmission,
)


def spreading_check():
    grid = Grid1D(64.0, 2048)
    sigma = 1.0
    psi = make_gaussian(grid, WavepacketSpec(0.0, 0.0, sigma))
    result = evolve(psi, BarrierPotential(0.0, 1.0), PropagationParams(dt=5e-4, steps=6000))
    psi = result.psi
    width = position_std(psi)
    expected = sigma * np.sqrt(1.0 + (psi.t / (2.0 * sigma**2)) ** 2)
    print(f"free spreading at t = {psi.t:g}:")
    print(f"  measured sigma {width:.9f}, closed form {expected:.9f}")
    print(f"  relative error {abs(width - expected) / expected:.2e}")
    print()


def transmission_check():
    grid = Grid1D(64.0, 4096)
    spec = WavepacketSpec(center=-20.0, wavenumber=8.0, sigma=1.0)
    barrier = BarrierPotential(height=26.787825, width=0.5)

    print(f"packet k0 = {spec.wavenumber}, sigma = {spec.sigma}")
    print(f"barrier height {barrier.height}, width {barrier.width}")
    plane = analytic_plane_transmission(spec.wavenumber, barrier)
    averaged = expected_packet_transmission(spec, barrier)
    print(f"  plane wave at k0:          T = {plane:.6f}")
    print(f"  averaged over the packet:  T = {averaged:.6f}")

    transmission, t_meas = simulated_transmission(
        grid,
        spec,
        barrier,
        dt=2e-4,
        max_steps=40_000,
        check_every=200,
    )
    dev = abs(transmission - averaged) / averaged
    print(f"  simulated on the grid:     T = {transmission:.6f}")
    print(f"  measured at t = {t_meas:g}, deviation {dev:.2%} "
          "(the residual shrinks as dx**2)")


def main():
    spreading_check()
    transmission_check()


if __name__ == "__main__":
    main()
