"""Small measurement helpers shared by the workloads and the runner."""

from __future__ import annotations

import math
import os
import platform
import resource
import time

#: thread pools pinned to one thread for every run (set before numpy
#: is imported): BLAS threads add host-time noise and would push the
#: load past the core count
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: fastest time of ``reference_loop`` at the benchmark's nominal machine
#: speed (a 2-vCPU x86-64 VM, CPython 3.11); host-time metrics are
#: reported at this speed
NOMINAL_REFERENCE_S = 20e-3


class _Op:
    __slots__ = ("key", "deps", "name")

    def __init__(self, key: int, deps: list[int], name: str) -> None:
        self.key = key
        self.deps = deps
        self.name = name


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the simulator's bookkeeping:
    build 20k small objects, index them by name, sort them by key and
    walk their dependencies.

    Its working set of a few MB slows down with the program when other
    tenants contend for the caches.  A heap loop over a few KB slowed
    about half as much as the suite did, and left twice the spread."""
    ops = [
        _Op((i * 7919) % 20011, [i - 1, i - 2], f"op{i}")
        for i in range(20000)
    ]
    by_name = {op.name: op for op in ops}
    ops.sort(key=lambda op: op.key)
    total = 0
    for op in ops:
        for dep in op.deps:
            total += dep
    return total + len(by_name)


class SpeedProbe:
    """The machine's speed during a run, from ``reference_loop`` timed
    between units of work.

    Other tenants of a shared host slow every process on it by a fifth
    to a half for tens of seconds to minutes at a time, longer than a
    run, so no estimator over one run's own samples removes the drift.  The loop slows with
    the program, if not exactly in step: host times multiplied by
    ``scale`` read as at the nominal speed.
    """

    #: the fastest of fewer repeats was itself too noisy a baseline
    REPEATS = 10

    def __init__(self) -> None:
        self.fastest_s = math.inf

    def sample(self) -> None:
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            reference_loop()
            self.fastest_s = min(self.fastest_s, time.perf_counter() - start)

    @property
    def scale(self) -> float:
        """Factor from this run's host time to nominal-speed host time."""
        return NOMINAL_REFERENCE_S / self.fastest_s

    def describe(self) -> str:
        return (
            f"machine speed: reference loop fastest"
            f" {1e3 * self.fastest_s:.3f} ms, nominal"
            f" {1e3 * NOMINAL_REFERENCE_S:g} ms; host times x{self.scale:.4f}"
        )


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ``q`` quantile by nearest rank; with 200 samples, q=0.95 is
    the highest percentile that still has 10 samples beyond it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def add_counters(total: dict, more: dict) -> None:
    """Sum one run's program counters into ``total``."""
    for key, value in more.items():
        if isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root) -> str:
    """The checkout's commit, read from ``.git`` without running git
    (benchmark checkouts usually carry no ``.git`` at all)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        **{key: os.environ.get(key, "") for key in THREAD_ENV},
    }
