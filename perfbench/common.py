"""Shared plumbing of the benchmark: context, timing, statistics, outcomes.

Everything here is stdlib-only so ``run.py`` can validate the checkout and
pin the environment before anything imports ``repro`` or numpy.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Threads a BLAS/OpenMP runtime may start in any benchmark process.  One
#: per process keeps runs comparable on a small machine and leaves the
#: second core to the service's second worker.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

#: Hard cap on any one child process (a CLI invocation, a server start).
CHILD_TIMEOUT_S = 120.0


@dataclass
class Context:
    """What every workload receives from ``run.py``."""

    root: Path          # the checkout (holds src/repro)
    workspace: Path     # scratch directory inside the checkout, removed after
    seed: int
    seconds: float
    size: str           # "full" (the benchmark) or "tiny" (smoke tests)
    python: str = sys.executable

    @property
    def env(self) -> Dict[str, str]:
        """Child environment: pinned threads, ``src`` importable, and a
        default cache inside the workspace so nothing reaches ``~/.cache``."""
        env = dict(os.environ)
        env.update(PINNED_ENV)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["REPRO_CACHE_DIR"] = str(self.workspace / "default-cache")
        return env

    def fresh_dir(self, label: str) -> Path:
        """A new, empty directory under the workspace."""
        index = 0
        while (self.workspace / f"{label}-{index}").exists():
            index += 1
        path = self.workspace / f"{label}-{index}"
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    """One workload run: metrics plus operation accounting."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        """Count one attempted operation; a failure is kept as a note."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


def derive_seed(seed: int, *labels: object) -> int:
    """A master seed derived from the workload seed and labels (31 bits)."""
    text = ":".join([str(seed)] + [str(label) for label in labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def timed_run(argv: Sequence[str], ctx: Context) -> Tuple[float, int, str]:
    """Run a child to completion: ``(wall_s, exit_code, stdout)``.

    The wall clock covers interpreter start to exit, which is what a user
    of the command waits for.
    """
    start = time.perf_counter()
    try:
        completed = subprocess.run(list(argv), env=ctx.env,
                                   cwd=str(ctx.root),
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL,
                                   timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -1, ""
    wall = time.perf_counter() - start
    return wall, completed.returncode, completed.stdout.decode("utf-8",
                                                                "replace")


def python_setup_s(ctx: Context, code: str, repeats: int) -> List[float]:
    """Walls of ``repeats`` fresh interpreters running ``code``."""
    walls = []
    for _ in range(repeats):
        wall, code_exit, _ = timed_run([ctx.python, "-c", code], ctx)
        if code_exit != 0:
            raise RuntimeError(f"setup interpreter failed: {code!r}")
        walls.append(wall)
    return walls


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set among the waited-for child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> Optional[float]:
    """``VmHWM`` of a live process, from ``/proc`` (``None`` elsewhere)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


#: Passes every run makes, whatever the window.  A shared host slows a
#: pass now and then by a fifth or more, so a median needs three.
MIN_PASSES = 3


def more_passes(walls: Sequence[float], deadline: float,
                minimum: int = MIN_PASSES) -> bool:
    """Whether to start another pass: always until ``minimum`` passes ran,
    then only while the next one should end within half a pass of the
    deadline, so a run lasts about its window whatever a pass costs."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() + 0.5 * statistics.mean(walls) < deadline


def pass_seed(ctx: Context, index: int) -> int:
    """Master seed of pass ``index``: every pass draws fresh inputs, so a
    run's median averages over several of them."""
    return derive_seed(ctx.seed, "pass", index)


def interleave(plain: Callable[[int], float], traced: Callable[[int], float],
               seconds: float) -> Tuple[List[float], List[float]]:
    """Alternate untraced and traced passes for about ``seconds`` (at
    least one pair); returns both lists of walls.

    Both passes of pair ``k`` get ``k`` (same inputs), and the order flips
    every pair (ABBA) so one-time costs of the first pass in a process do
    not land on one side of the tracing-overhead ratio.
    """
    deadline = time.perf_counter() + seconds
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    pair_walls: List[float] = []
    while more_passes(pair_walls, deadline, minimum=1):
        start = time.perf_counter()
        pair = len(traced_walls)
        if pair % 2 == 0:
            plain_walls.append(plain(pair))
            traced_walls.append(traced(pair))
        else:
            traced_walls.append(traced(pair))
            plain_walls.append(plain(pair))
        pair_walls.append(time.perf_counter() - start)
    return plain_walls, traced_walls


def overhead_ratio(plain_walls: Sequence[float],
                   traced_walls: Sequence[float]) -> float:
    """Traced over untraced median wall, minus one."""
    return median(traced_walls) / median(plain_walls) - 1.0
