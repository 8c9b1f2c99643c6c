"""A fixed unit of reference work that tracks the speed of the machine.

On a small shared machine the CPU speed that one process sees drifts by tens
of percent over seconds and minutes, and it drifts for every kind of work at
once.  ``unit()`` does a fixed amount of work of the kinds hpqkd does (small
frozen dataclasses built one per element, integer and float loops in Python,
numpy random draws, elementwise maths, FFTs and a JSON encode), and uses no
hpqkd code, so no change to the program moves it.  Timing it right next to
each measured command and dividing gives the command's time in units of the
reference work, which the drift largely cancels out of.

``run.py`` reports such a ratio multiplied by ``REFERENCE_S``, a fixed
constant, so the values read as seconds at one fixed reference speed.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

#: Seconds per ``unit()`` that the reported timings are scaled to: about the
#: median of ``unit()`` on a 2-core shared x86_64 VM with one BLAS thread.
REFERENCE_S = 0.025


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("negative")


def unit() -> float:
    """Do one unit of reference work; returns a checksum so none of it is skipped."""
    rng = np.random.default_rng(12345)
    counts = rng.poisson(2.0, size=(2, 6_000))
    pairs = [_Pair(int(a), int(b)) for a, b in zip(counts[0], counts[1])]
    total = sum(p.a - p.b for p in pairs)
    acc = 0.0
    for i in range(20_000):
        acc += (i * 7 % 13) * 0.5
    x = rng.random(100_000)
    y = np.cos(x * np.pi) ** 2 + np.exp(-x)
    order = np.argsort(y)
    spectrum = np.abs(np.fft.fft(np.exp(1j * x[:8192] * 3.0)))
    text = json.dumps({"v": y[:10_000].round(6).tolist()})
    return float(total + acc + order[0] + spectrum[1] + len(text))


def time_unit() -> float:
    """Wall time of one ``unit()``."""
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start
