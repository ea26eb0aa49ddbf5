"""Exact combinatorics and special-function scalars shared by the other modules."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

import numpy as np

# Large enough for filter orders up to 32 and weighted-norm exponents up to 128.
MAX_ORDER = 32
MAX_SINC_POWER = 128

UNIT_ROUNDOFF = 2.0**-53  # unit roundoff u of a double


def gamma_n(n: float | np.ndarray) -> float | np.ndarray:
    """gamma_n = n u / (1 - n u), the relative error of n rounded operations (Higham, 3.1)."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def check_norm_domain(m: int, k: int, p: float) -> None:
    """Raise ValueError unless 1 <= m <= MAX_ORDER, the weight exponent k >= 0 and 1 < p < inf.

    check_order refuses an m that is not a Python int, and k must be one
    too: a float such as 2.0 or 1.5 is refused, whatever its value, and so
    are a bool and a numpy integer, whose fixed width wraps in the exact
    integer arithmetic of the moments and the cascade systems.
    """
    check_order(m)
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"the weight exponent k must be an integer, got {k!r}")
    if k < 0:
        raise ValueError(f"weight exponent must be nonnegative, got {k}")
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must lie in (1, inf), got {p}")


def check_order(m: int) -> None:
    """Raise ValueError unless m is an int in 1..MAX_ORDER, the orders the library supports.

    A float such as 2.0, a numpy integer and a bool are refused by type,
    whatever their value, so every entry point refuses the same orders,
    whether or not a cache already holds that order's values.
    """
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError(f"the order m must be an integer, got {m!r}")
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"the order must satisfy 1 <= m <= {MAX_ORDER}, got m={m}")


def dyadic_integers(values: Iterable[float]) -> tuple[list[int], int]:
    """(n, e): the float values as integers n_l over one power of two 2^e, exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (shift - den.bit_length() + 1) for num, den in ratios], shift


@lru_cache(maxsize=None)
def p_coefficients(m: int) -> tuple[int, ...]:
    """P_(m-1)(y) = sum_(j<m) C(m-1+j, j) y^j as its ascending integer coefficients.

    P_(m-1)(y) (1-y)^m + P_(m-1)(1-y) y^m = 1 (Daubechies, Ten Lectures, section 6.1).
    """
    check_order(m)
    return tuple(math.comb(m - 1 + j, j) for j in range(m))


def cm_constant(m: int) -> float:
    """Normalizing constant (2m)! / (2^(2m) m! (m-1)!), i.e. Gamma(m+1/2)/(sqrt(pi) Gamma(m)).

    Correctly rounded: factorial_ratio(m), with its order check, times the exact 2^(-2m).
    It is exactly the constant that makes c_m * integral_0^pi sin^(2m-1) t dt = 1.
    """
    return math.ldexp(factorial_ratio(m), -2 * m)


def factorial_ratio(m: int) -> float:
    """(2m)! / (m! (m-1)!) = m C(2m, m) as a float, correctly rounded from the exact integer."""
    check_order(m)
    return float(m * math.comb(2 * m, m))


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
