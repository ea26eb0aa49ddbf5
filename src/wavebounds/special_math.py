"""Exact combinatorics and special-function scalars shared by the other modules."""

from __future__ import annotations

import math
from fractions import Fraction

# Large enough for filter orders up to 32 and weighted-norm exponents up to 128.
MAX_BINOMIAL_N = 128
MAX_ORDER = 32
MAX_SINC_POWER = 128


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k), computed in integer arithmetic.

    Raises ValueError outside the supported range 0 <= k <= n <= 128 so that
    a caller can never receive a silently truncated value.
    """
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires nonnegative arguments, got ({n}, {k})")
    if k > n:
        raise ValueError(f"binomial requires k <= n, got ({n}, {k})")
    if n > MAX_BINOMIAL_N:
        raise ValueError(f"binomial supports n <= {MAX_BINOMIAL_N}, got n={n}")
    return math.comb(n, k)


def cm_constant(m: int) -> float:
    """Normalizing constant (2m)! / (2^(2m) m! (m-1)!), i.e. Gamma(m+1/2)/(sqrt(pi) Gamma(m)).

    Evaluated in log-space via lgamma for stability across the full order range.
    It is exactly the constant that makes c_m * integral_0^pi sin^(2m-1) t dt = 1.
    """
    if m < 1 or m > MAX_ORDER:
        raise ValueError(f"cm_constant requires 1 <= m <= {MAX_ORDER}, got {m}")
    log_val = (
        math.lgamma(2 * m + 1)
        - 2 * m * math.log(2.0)
        - math.lgamma(m + 1)
        - math.lgamma(m)
    )
    return math.exp(log_val)


def factorial_ratio(m: int) -> float:
    """(2m)! / (m! (m-1)!) as a float, from the exact integer value."""
    if m < 1 or m > MAX_ORDER:
        raise ValueError(f"factorial_ratio requires 1 <= m <= {MAX_ORDER}, got {m}")
    return float(
        Fraction(math.factorial(2 * m), math.factorial(m) * math.factorial(m - 1))
    )


def sinc_alternating_sum(n: int) -> int:
    """Exact signed sum sum_i (-1)^i C(n, i) (n - 2i)^(n-1) for even n.

    The terms reach roughly n^n in magnitude and alternate, so the sum is
    accumulated in integer arithmetic; callers divide afterwards.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"sinc_alternating_sum requires positive even n, got {n}")
    if n > MAX_SINC_POWER:
        raise ValueError(f"sinc_alternating_sum supports n <= {MAX_SINC_POWER}, got n={n}")
    total = 0
    for i in range(n // 2 + 1):
        total += (-1) ** i * math.comb(n, i) * (n - 2 * i) ** (n - 1)
    return total
