"""A fixed calibration load that tracks the host's speed.

The reference host is a 2-vCPU share of a bigger machine, and its speed
moves by 2.5x and more over tens of seconds as other tenants come and go. The
benchmark therefore times, right before and after each timed step of a
workload, a fixed load that uses nothing of causalest, and scales the step's
wall time by ``REFERENCE_S / load time``: the result is the step's time at
the reference host's quiet speed. A program change moves the step and not
the load, so it shows in full; a slower host moves both.

The load mixes what the workloads spend their time on: plain Python
(parsing numbers from text, arithmetic, dicts), many small NumPy calls
(least squares on a thousand rows, element-wise maths) and passes over
50,000-row arrays (products, bincount, sorting).

``startup`` does the same for ``setup_s``: a fresh interpreter that imports
a fixed set of standard-library modules, which pays what importing NumPy and
SciPy pays (process start, unmarshalling bytecode, running module bodies,
loading extension modules) and nothing of causalest.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# median seconds of one load() and one startup() on the reference host at
# its quiet speed (2-vCPU Xeon, Python 3.11.7, NumPy 2.4.6; see README.md)
REFERENCE_S = 0.122
STARTUP_REFERENCE_S = 0.063

_STDLIB = (
    "argparse,asyncio,csv,decimal,email.mime.multipart,http.client,json,logging,"
    "sqlite3,statistics,unittest,xml.dom.minidom,zipfile"
)

_rng = np.random.default_rng(20221125)
_SMALL = _rng.normal(size=(1000, 4))
_SMALL_Y = _rng.normal(size=1000)
_LARGE = _rng.normal(size=(50_000, 4))
_CODES = _rng.integers(0, 5_000, size=50_000)
_TEXT = [",".join(map(repr, row)) for row in _rng.normal(size=(1_500, 4)).tolist()]


def _python() -> float:
    total, counts = 0.0, {}
    for _ in range(18):
        for line in _TEXT:
            for i, value in enumerate(map(float, line.split(","))):
                total += value * value - i
                counts[i] = counts.get(i, 0) + 1
    return total + len(counts)


def _small_numpy() -> float:
    total = 0.0
    for _ in range(1100):
        beta = np.linalg.lstsq(_SMALL, _SMALL_Y, rcond=None)[0]
        p = 1.0 / (1.0 + np.exp(-(_SMALL @ beta)))
        total += float(np.sum(p * (1.0 - p)))
    return total


def _large_numpy() -> float:
    total = 0.0
    for _ in range(50):
        gram = _LARGE.T @ _LARGE
        means = np.bincount(_CODES, weights=_LARGE[:, 0], minlength=5_000)
        order = np.argsort(_LARGE[:, 1])
        total += float(gram[0, 0] + means[0] + _LARGE[order[0], 2])
    return total


def load() -> float:
    """Seconds the fixed load took."""
    start = time.perf_counter()
    _python()
    _small_numpy()
    _large_numpy()
    return time.perf_counter() - start


def startup(env: dict[str, str]) -> float:
    """Seconds a fresh interpreter takes to import the fixed stdlib modules."""
    argv = [sys.executable, "-c", f"import {_STDLIB}; print('ready', flush=True)"]
    start = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("the calibration interpreter failed")
    return ready - start
