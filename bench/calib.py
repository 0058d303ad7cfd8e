"""Reference-second clock.

On a shared machine the speed of the CPU this process gets drifts by tens
of percent within a minute, and process CPU time tracks wall time, so
neither clock is steady on its own.  The program spends most of its time
in exact rational arithmetic, so a fixed stdlib `Fraction` loop slows down
and speeds up with it.  The loop is timed between the operations of a run;
each operation's raw time is scaled by REFERENCE_S / (median loop time
around it).  A time so scaled is in reference seconds: the time the
operation would take on a machine where the loop takes REFERENCE_S.

The loop touches no supersymp object and runs with the garbage collector
paused, so a large heap left by the program cannot slow it down (which
would flatter the program).
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import List

# median loop times on the machine the reference figures in README.md were
# taken on; constants, so that reference seconds compare across runs
REFERENCE_S = 0.0013
REFERENCE_CHILD_S = 0.06

# calibration samples on each side of an operation that set its factor
WINDOW = 12

_STEPS = [(Fraction(7 * k + 3, 11 * k + 5), Fraction(13 * k + 1, 3 * k + 2)) for k in range(1, 41)]


def loop_once() -> float:
    """One timed pass of the calibration loop, in raw seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(4):
            acc = Fraction(0)
            for a, b in _STEPS:
                acc = acc * a + b
                acc = acc / (acc + 1)
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return t1 - t0


def warm(seconds: float = 0.3) -> None:
    """Run the loop untimed for a while: its first passes in a process are
    slower than the steady state."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        loop_once()


# the loop in a fresh interpreter that first imports what supersymp.cli
# imports from the stdlib: the reference for cold `supersymp` processes
CHILD_CODE = (
    "import argparse, dataclasses, itertools, json, re, sys, typing\n"
    f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
    "import calib\n"
    "calib.loop_once()\n"
)


def child_once(env) -> float:
    """One timed cold process running the loop, in raw seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_CODE], env=env, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


class Clock:
    """Raw operation times interleaved with calibration samples.

    Call `sample()` before each operation and `record(raw)` after it; the
    calibrated times are computed once the run is over, from the samples
    on both sides of each operation.
    """

    def __init__(self, sampler=loop_once, reference: float = REFERENCE_S, window: int = WINDOW):
        self.sampler = sampler
        self.reference = reference
        self.window = window
        self.samples: List[float] = []
        self.raw: List[float] = []
        self.at: List[int] = []  # index of the sample taken just before each op

    def sample(self) -> None:
        self.samples.append(self.sampler())

    def record(self, raw: float) -> None:
        self.raw.append(raw)
        self.at.append(len(self.samples) - 1)

    def factors(self) -> List[float]:
        """reference / local median loop time, one factor per operation."""
        out = []
        n = len(self.samples)
        for i in self.at:
            lo, hi = max(0, i - self.window), min(n, i + self.window + 1)
            out.append(self.reference / statistics.median(self.samples[lo:hi]))
        return out

    def calibrated(self) -> List[float]:
        return [r * f for r, f in zip(self.raw, self.factors())]

    def factor(self) -> float:
        """Run-wide factor: reference / median of all loop times."""
        return self.reference / statistics.median(self.samples)
