"""Scaling timings to a reference core.

On a shared host the core a process gets runs at full speed at some moments
and up to twice as slow at others, for seconds to minutes at a time, and
object-heavy Python code (the library's and the calibration's alike) slows
the most.  The benchmark therefore times a fixed calibration task next to the
work it measures and reports every timing scaled by the calibration's nominal
time over the calibration time it measured meanwhile: the time the work would
have taken on the reference core.  In-process work is scaled by an in-process
calibration, work done by fresh processes (a cold CLI call, a workload's
set-up) by a fresh calibration process.  The unscaled timings are kept in the
run report.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

# The calibration's time on an uncontended core of an Intel Xeon vCPU with
# Python 3.11, in-process and as a fresh process.
NOMINAL_MS = 7.0
PROCESS_NOMINAL_MS = 80.0

# A fresh interpreter that imports the standard modules the package imports
# and runs the calibration task: it slows like a cold ``innerforms`` call.
PROCESS_CODE = (
    "import argparse, dataclasses, fractions, json, re, typing\n"
    "import calibrate\n"
    "calibrate.calibration_ms()\n"
)


def calibration_ms() -> float:
    """A fixed object-heavy pure-Python task; returns its wall time in ms.

    It builds, counts and sorts tuple-keyed dicts the way the library does, so
    it slows as much as the library when the machine is contended.  It does not
    use the library, and the cyclic collector is off while it runs, so neither
    the program's code nor the size of its heap changes its time.
    """
    gc.disable()
    start = perf_counter()
    counts: dict = {}
    for i in range(6000):
        key = (i % 97, (i * 7) % 13, f"x{i % 50}")
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (kv[0][2], kv[1]))
    [frozenset(key[:2]) for key, _ in ranked]
    elapsed = perf_counter() - start
    gc.enable()
    return 1000 * elapsed


def process_calibration_ms(env: dict, cwd) -> float:
    """Wall time in ms of one fresh interpreter running PROCESS_CODE."""
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", PROCESS_CODE], capture_output=True,
                          env=dict(env, PYTHONPATH=str(HERE)), cwd=cwd, timeout=60)
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"calibration process failed:\n{done.stderr}")
    return 1000 * elapsed


def scale(seconds: float, calibrations: list[float], nominal_ms: float) -> float:
    """``seconds`` as measured while the calibration took ``calibrations`` ms,
    scaled to the reference core on which it takes ``nominal_ms``."""
    return seconds * nominal_ms * len(calibrations) / sum(calibrations)
