"""Quantum statistics of a tunneling pair, from counting to simulation.

Three layers:
  occupancy     exact rational probabilities for distributing N particles
                over M states under MB, BE, and FD counting
  grid/propagator/twoparticle
                split-operator Schrodinger evolution of Gaussian packets
                against a rectangular barrier, and the symmetrized
                two-particle side statistics (p20, p02, p11)
  experiment/cli
                reproducible scenarios, calibration, sweeps, reports

The bridge quantity is a = (p20 + p02) / 2: 0 for the exclusion limit,
1/4 for distinguishable packets, 1/3 for full bosonic bunching.
"""

__version__ = "0.1.0"


def _load_numpy_with_one_blas_thread() -> None:
    """Import numpy with OpenBLAS capped at one thread, unless the user chose.

    pairstats makes no BLAS call (FFTs and elementwise arithmetic only), so
    an OpenBLAS worker thread would only spin.  OpenBLAS reads its thread
    count once, at numpy's import, from the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS that is set: when none is and
    numpy is not loaded yet, numpy loads with OPENBLAS_NUM_THREADS=1, for
    the whole process, and the variable goes again so no child process
    inherits it.
    """
    import os
    import sys

    chosen = any(name in os.environ
                 for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    if "numpy" in sys.modules or chosen:
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_with_one_blas_thread()

from .errors import (
    BoundaryContaminationError,
    BudgetExceededError,
    CalibrationError,
    ConfigurationError,
    ConsistencyError,
    GridMismatchError,
    MeasurementTimeoutError,
    PairStatsError,
    PauliDegeneracyError,
    PrematureMeasurementError,
    StabilityError,
)
from .occupancy import (
    OccupancyVector,
    PairFamily,
    be_probability,
    classify_pair,
    enumerate_mb_oracle,
    fd_probability,
    mb_probability,
    occupancy_vectors,
    pair_family,
)
from .grid import (
    Grid1D,
    Wavefunction,
    WavepacketSpec,
    inner_product,
    make_gaussian,
    position_std,
    side_moments,
)
from .propagator import (
    BarrierPotential,
    CalibrationResult,
    PropagationParams,
    analytic_plane_transmission,
    calibrate_barrier,
    evolve,
    expected_packet_transmission,
    measurement_ready,
    simulated_transmission,
)
from .twoparticle import (
    BOSON,
    FERMION,
    JointStats,
    SymmetrizedPair,
    joint_probabilities,
    make_pair,
    outgoing_probabilities,
    quadrant_quadrature_oracle,
)
from .experiment import (
    CountingReport,
    ResultRow,
    ScenarioConfig,
    SweepConfig,
    compare_with_counting,
    default_scenario,
    resolve_barrier,
    run_scenario,
    sweep,
)

__all__ = [
    "__version__",
    "BOSON",
    "FERMION",
    "BarrierPotential",
    "BoundaryContaminationError",
    "BudgetExceededError",
    "CalibrationError",
    "CalibrationResult",
    "ConfigurationError",
    "ConsistencyError",
    "CountingReport",
    "Grid1D",
    "GridMismatchError",
    "JointStats",
    "MeasurementTimeoutError",
    "OccupancyVector",
    "PairFamily",
    "PairStatsError",
    "PauliDegeneracyError",
    "PrematureMeasurementError",
    "PropagationParams",
    "ResultRow",
    "ScenarioConfig",
    "StabilityError",
    "SweepConfig",
    "SymmetrizedPair",
    "Wavefunction",
    "WavepacketSpec",
    "analytic_plane_transmission",
    "be_probability",
    "calibrate_barrier",
    "classify_pair",
    "compare_with_counting",
    "default_scenario",
    "enumerate_mb_oracle",
    "evolve",
    "expected_packet_transmission",
    "fd_probability",
    "inner_product",
    "joint_probabilities",
    "make_gaussian",
    "make_pair",
    "mb_probability",
    "measurement_ready",
    "occupancy_vectors",
    "outgoing_probabilities",
    "pair_family",
    "position_std",
    "quadrant_quadrature_oracle",
    "resolve_barrier",
    "run_scenario",
    "side_moments",
    "simulated_transmission",
    "sweep",
]
