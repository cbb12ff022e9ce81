"""Outside-in layer trace of one in-process `pairstats.cli.main(argv)` call.

The benchmark wraps the public functions in TARGETS from outside the
package: each wrapper records a span (name, start, end, parent) in
memory, and is installed in every pairstats module that holds the
original function object, so `experiment.evolve` is traced as well as
`propagator.evolve`.  The originals are put back afterwards.  Spans are
written out when the call ends; self time and coverage are computed
from them here.

Run as a script, it is the traced child process:

    python3 bench/layertrace.py SPANS.json -- run --config X.ini --out DIR --oracle
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


def _evolve_steps(args, kwargs) -> int:
    params = kwargs["params"] if "params" in kwargs else args[2]
    return params.steps


# (module, function, counter): the counter maps a call's arguments to a
# number of work units added to "<module>.<function>.<counter name>"
TARGETS: tuple[tuple[str, str, Optional[tuple[str, Callable]]], ...] = (
    ("cli", "main", None),
    ("experiment", "config_from_dict", None),
    ("experiment", "resolve_barrier", None),
    ("experiment", "sweep", None),
    ("experiment", "run_resolved", None),
    ("experiment", "evolve_pair_to_measurement", None),
    ("propagator", "calibrate_barrier", None),
    ("propagator", "expected_packet_transmission", None),
    ("propagator", "simulated_transmission", None),
    ("propagator", "evolve", ("steps", _evolve_steps)),
    ("propagator", "measurement_ready", None),
    ("propagator", "barrier_region_amplitude", None),
    ("twoparticle", "make_pair", None),
    ("twoparticle", "joint_probabilities", None),
    ("twoparticle", "quadrant_quadrature_oracle", None),
    ("grid", "make_gaussian", None),
    ("grid", "side_moments", None),
    ("occupancy", "classify_pair", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counter=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            if counter is not None:
                self.counters[f"{name}.{counter[0]}"] += counter[1](args, kwargs)
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index].end = time.perf_counter()

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict):
    """Swap every reference to each target for its wrapper; restore on exit.

    `modules` maps a short layer name (`propagator`) to its module object;
    every module in it is searched for references to each original.
    """
    swapped = []
    try:
        for layer, func, counter in TARGETS:
            original = getattr(modules[layer], func)
            wrapper = tracer.wrap(f"{layer}.{func}", original, counter)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        swapped.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(swapped):
            setattr(module, attr, original)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, s (outermost spans of a name only) and self_s per span name."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index, span in enumerate(spans):
        entry = totals[span.name]
        duration = span.end - span.start
        entry["calls"] += 1
        covered = union_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        entry["self_s"] += duration - covered
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            entry["s"] += duration
    return dict(totals)


def calls_within(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of `name` spans that run somewhere under an `ancestor` span."""
    count = 0
    for span in spans:
        if span.name != name:
            continue
        index = span.parent
        while index >= 0 and spans[index].name != ancestor:
            index = spans[index].parent
        count += index >= 0
    return count


def coverage(spans: list[Span]) -> float:
    """Share of the cli.main span's time that its direct child spans cover."""
    for index, span in enumerate(spans):
        if span.name == "cli.main":
            duration = span.end - span.start
            kids = [(s.start, s.end) for s in spans if s.parent == index]
            return union_length(kids) / duration if duration > 0 else 0.0
    return 0.0


def spans_to_json(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent] for s in spans]


def spans_from_json(data: list[list]) -> list[Span]:
    return [Span(name, start, end, parent) for name, start, end, parent in data]


def traced_main(argv: list[str]) -> dict:
    """Import pairstats, run `cli.main(argv)` under the trace, return the record."""
    start = time.perf_counter()
    import pairstats.cli  # noqa: F401  (timed: this is cli.import_s)

    import_s = time.perf_counter() - start
    modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("pairstats.") and mod is not None}
    tracer = Tracer()
    stdout = io.StringIO()
    with installed(tracer, modules), contextlib.redirect_stdout(stdout):
        try:
            returncode = modules["cli"].main(argv)
        except SystemExit as stop:
            returncode = stop.code if isinstance(stop.code, int) else 2
    return {
        "returncode": returncode,
        "import_s": import_s,
        "stdout": stdout.getvalue(),
        "counters": dict(tracer.counters),
        "spans": spans_to_json(tracer.spans),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    from harness import use_source_tree

    use_source_tree()
    record = traced_main(argv[2:])
    with open(argv[0], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
