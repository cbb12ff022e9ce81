"""Set-up cost every CLI invocation pays before its first step.

A fresh interpreter imports `pairstats.cli`, loads and validates the
workload's config the way the CLI does, builds both launch packets and
exits.  The benchmark times it from spawn to exit:

    PYTHONPATH=src python3 bench/setup_probe.py CONFIG.ini
"""

import sys

from pairstats.cli import _load_config_file  # the CLI's own INI loader
from pairstats.grid import make_gaussian

config, _ = _load_config_file(sys.argv[1])
config.validate()
grid = config.grid()
make_gaussian(grid, config.spec_a())
make_gaussian(grid, config.spec_b())
