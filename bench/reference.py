"""A fixed reference task that gauges the host's speed at the moment.

On a shared host the same pass can take 1.5x longer when other tenants are
busy, and such slow spells last from seconds to minutes, longer than a run.
The worker times a reference task right before every pass, and once right
after set-up, and scales each time by the reference's nominal time over its
measured time.  The reported `pass_s` and `setup_s` are thus seconds at the
reference host speed: they follow the program's speed rather than the
host's.  The tasks use none of pathspectra's code.  They do
the kinds of work the workloads spend their time on: exact `Fraction`
arithmetic in pure Python, small HiGHS LPs through `scipy.optimize.linprog`,
and numpy sampling and sorting.  The exact workloads use all three
("mixed"); the Monte Carlo workload, which is numpy sampling and filtering,
uses the numpy part alone ("numpy"), which follows its speed most closely.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

_ROWS = [[Fraction(i * j % 7 - 3, 1 + (i + j) % 5) for j in range(8)] for i in range(60)]
_OMEGA = [Fraction(k + 1, 3) for k in range(8)]


def _fractions(_rng):
    total = Fraction(0)
    for _ in range(30):
        for row in _ROWS:
            total += sum(a * b for a, b in zip(row, _OMEGA))
    return total


def _lps(rng):
    A = rng.standard_normal((30, 10))
    b = np.ones(30)
    return sum(linprog(-A[k], A_ub=A, b_ub=b, bounds=[(-5, 5)] * 10, method="highs").fun
               for k in range(30))


def _sampling(rng):
    total = 0.0
    for _ in range(40):  # small arrays, so that peak_rss_mb stays the program's
        x = rng.standard_normal((20000, 4))
        total += float(np.sort(x[:, 0] / np.linalg.norm(x, axis=1))[10000])
    return total


# reference kind -> parts, each about 0.1 s on a 2-vCPU Xeon host in a quiet
# spell; every part runs twice, so that one reading spans a few tenths of a second
REFERENCES = {"mixed": (_fractions, _lps, _sampling), "numpy": (_sampling,)}
# wall seconds of each reference in such a spell: the speed that scaled times refer to
NOMINAL_S = {"mixed": 0.5, "numpy": 0.2}
_warm = set()


def _run(parts, rounds):
    rng = np.random.Generator(np.random.Philox(12345))
    t0 = time.perf_counter()
    for _ in range(rounds):
        for part in parts:
            part(rng)
    return time.perf_counter() - t0


def reference_s(kind: str) -> float:
    """Wall seconds of one run of the reference task `kind` (warmed up first)."""
    if kind not in _warm:
        _run(REFERENCES[kind], 1)  # first calls pay for caches and lazy imports
        _warm.add(kind)
    return _run(REFERENCES[kind], 2)


def scaled_s(seconds: float, reference: float, kind: str) -> float:
    """`seconds` measured next to a reading `reference` of task `kind`, in
    seconds at the nominal speed."""
    return seconds * NOMINAL_S[kind] / reference
