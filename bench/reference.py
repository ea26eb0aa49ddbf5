"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same pass can take 1.3 s or 2.7 s depending on what the
neighbours do, and the slow phases last longer than a pass. worker.py runs
slices of this computation between the operations of each untraced pass,
in the same process, and run.py divides the pass time by the reference time
seen over the same seconds. Host slow-downs hit both alike and cancel; a
change to the library does not touch this file and shows in full.

The mix follows the library's own work: complex products and moduli over
small numpy arrays (the quadrature integrands), scalar float math and
exact-rational arithmetic (filter construction). It imports nothing from
wavebounds, and its size is fixed.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

# The reported reference time is that of ROUNDS rounds (0.16-0.22 s on a
# 2-CPU Xeon VM); a slice is SLICE rounds, and the reference takes SHARE of
# the time the pass takes.
ROUNDS = 1200
SLICE = 40
SHARE = 0.25


_COEFFS = [Fraction((-1) ** k * (3 ** (k + 20) + 7 * k), 2 ** (k + 40) + 11) for k in range(16)]


def _work(rounds: int) -> float:
    x = np.linspace(0.1, 3.0, 15)
    acc = 0.0
    for i in range(rounds):
        w = x * (1.0 + i * 1e-4)
        z = np.ones(15, dtype=complex)
        for k in range(8):
            z = z * (0.5 + 0.5 * np.exp(-1j * w * (k + 1)))
        acc += float(np.abs(z).sum())
        for v in range(40):
            acc += math.sin(v * 0.01 + i * 1e-3) ** 2 / (1.0 + v)
        if i % 10 == 0:
            # A complex polynomial evaluated exactly at a float-rounded point,
            # as the Newton polish of filter construction does.
            a, b = Fraction(0.3 + i * 1e-3), Fraction(0.7 - i * 1e-3)
            fr = fi = Fraction(0)
            for c in _COEFFS:
                fr, fi = fr * a - fi * b + c, fr * b + fi * a
            acc += float(fr)
    return acc


class Interleaver:
    """Runs reference slices between a pass's operations and times them.

    Called after each operation, it runs slices until the reference has had
    SHARE of the time the pass itself has had, so that both sample the host
    over the same seconds. `spent` is the time inside the slices, which the
    caller takes off the pass time.
    """

    def __init__(self) -> None:
        _work(4)  # first use of the numpy routines, outside any timing
        self.spent = 0.0
        self.rounds = 0
        self._start = time.perf_counter()

    def __call__(self) -> None:
        now = time.perf_counter()
        while self.rounds < SLICE or self.spent < SHARE * (now - self._start - self.spent):
            _work(SLICE)
            later = time.perf_counter()
            self.spent += later - now
            self.rounds += SLICE
            now = later

    def ref_s(self) -> float:
        """Time ROUNDS rounds took, at the host speed seen during the pass."""
        return self.spent * ROUNDS / self.rounds
