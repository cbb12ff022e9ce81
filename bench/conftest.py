"""The benchmark's own tests import pairstats from the checkout's sources.

    python3 -m pytest -q bench
"""

from harness import use_source_tree

use_source_tree()
