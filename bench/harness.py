"""Process plumbing shared by the benchmark and the reference pass.

Every CLI invocation is a fresh `python -m pairstats` child of this
process.  Its wall time runs from spawn to exit; its CPU time and peak
RSS come from `wait4`, whose rusage covers the child plus every
descendant it reaped (the sweep's pool workers), so `peak_rss_mb` is
the largest resident set of any process in the tree.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_ROOT = REPO_ROOT / ".bench_out"


def use_source_tree() -> None:
    """Make `import pairstats` load the checkout's sources."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + extra if extra else "")
    return env


@dataclass(frozen=True)
class Invocation:
    """One finished child process and what it cost."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str], log_dir: Path) -> Invocation:
    """Run `python <argv>` from the repo root to completion and measure it."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=REPO_ROOT, env=child_env(),
            stdout=out, stderr=err, stdin=subprocess.DEVNULL,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_cli(cli_argv: list[str], log_dir: Path) -> Invocation:
    """One `pairstats` command line, as a user would type it."""
    return spawn(["-m", "pairstats", *cli_argv], log_dir)


def median(values) -> float:
    return float(statistics.median(values))
