"""Test-session setup shared by every test file.

`pythonpath = ["src"]` in pyproject.toml puts the package on this process's
path; exporting it on PYTHONPATH as well lets the CLI subprocesses that some
tests start import it without an install.
"""

import math
import os
from fractions import Fraction
from pathlib import Path

import pytest

from wavebounds.special_math import sinc_alternating_sum

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)


@pytest.fixture(scope="session")
def sinc_power_integral():
    """integral_0^infinity (sin t / t)^n dt for even n, the oracle several tests share.

    The exact alternating sum and the factorial denominator are reduced as one
    rational number before the single floating-point conversion.
    """

    def integral(n: int) -> float:
        scale = Fraction(sinc_alternating_sum(n), 2**n * math.factorial(n - 1))
        return math.pi * float(scale)

    return integral
