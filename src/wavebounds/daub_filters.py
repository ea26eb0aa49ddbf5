"""Daubechies low-pass filters: trigonometric magnitude forms and the committed taps.

The magnitude-squared response cos^(2m)(w/2) * P_(m-1)(sin^2(w/2)) is exact and
needs no taps; it is formed from t = cos(w/2) as t^(2m) P_(m-1)(1 - t^2), so no
order computes a sine. The taps follow the spectral factorization of
Daubechies, Ten Lectures on Wavelets (1992), section 6.1: with
y = sin^2(w/2) = (2 - z - 1/z)/4 and z = e^(iw), each of the m-1 roots of
P_(m-1)(y) is one reciprocal pair of z-roots, the in-disk one is kept, and
((1+z)/2)^m times the product of the kept factors gives the taps. The tap
sequence is normalized and ordered to match the standard published tables
(h(0) = (1+sqrt(3))/(4 sqrt(2)) for order 2). In that ordering the polynomial
sum_l h(l) z^(2m-1-l) has all of its zeros inside or on the unit circle.
tools/gen_taps.py carries out that factorization in 50-digit arithmetic and
writes each tap, correctly rounded to a double, to daub_taps.txt, one line
per order m = 1..MAX_ORDER; construct_filter reads that table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .special_math import check_order, cm_constant, p_coefficients

_TAP_TABLE = Path(__file__).with_name("daub_taps.txt")


@dataclass(frozen=True)
class FilterSpec:
    """Order m plus the 2m real taps h(0..2m-1), whose exact values sum to sqrt(2)."""

    m: int
    taps: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.taps) != 2 * self.m:
            raise ValueError(f"expected {2 * self.m} taps, got {len(self.taps)}")

    @cached_property
    def _tap_array(self) -> np.ndarray:
        """The taps as one read-only float array, built on first use."""
        taps = np.array(self.taps)
        taps.flags.writeable = False
        return taps


def flatten_frequencies(omega: float | np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """omega as a 1-d float array, plus the shape to hand back to restore_shape.

    Every evaluator computes on 1-d arrays, so a scalar call runs exactly the
    arithmetic of a one-element array call; a 1-d float array is used as it
    is, and a Python float (that exact type, not a subclass such as
    np.float64) becomes a one-element array with shape (), skipping the 0-d
    array and its reshape and cast. An object array is taken when each entry
    is a numbers.Real (an int past int64, a Fraction, an mpmath mpf). Raises
    ValueError, naming the value or the dtype, for an omega that is not real:
    a string, bytes, None, or a complex scalar or array.
    """
    if type(omega) is float:
        return np.array([omega]), ()
    w = np.asarray(omega)
    if w.ndim == 1 and w.dtype == float:
        return w, w.shape
    if w.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in w.flat):
        w = w.astype(float)
    elif w.dtype.kind not in "biuf":
        shown = f"{omega!r}" if w.ndim == 0 else f"an array of dtype {w.dtype}"
        raise ValueError(f"omega must be real, got {shown}")
    return w.reshape(-1).astype(float, copy=False), w.shape


def restore_shape(values: np.ndarray, shape: tuple[int, ...]) -> float | complex | np.ndarray:
    """values in the input's shape; a 0-d input gives a Python float or complex."""
    if not shape:
        return values.item()
    return values if values.shape == shape else values.reshape(shape)


@lru_cache(maxsize=None)
def _horner_coefficients(m: int) -> tuple[float, ...]:
    """P_(m-1)'s coefficients as correctly rounded floats, leading first."""
    return tuple(float(c) for c in reversed(p_coefficients(m)))


def eval_P(m: int, x: float | np.ndarray) -> float | np.ndarray:
    """Truncated binomial-series polynomial P_(m-1)(x) = sum_k C(m-1+k, k) x^k, by Horner.

    The accumulator starts at x times the leading coefficient and each
    multiply-add runs in place on it; a float x gives a float, an array a new
    array. check_order refuses a bad order.
    """
    check_order(m)
    lead, *rest = _horner_coefficients(m)
    if not rest:
        acc = np.full(np.shape(x), lead)
    else:
        acc = np.multiply(x, lead)
        acc += rest[0]
        for coef in rest[1:]:
            acc *= x
            acc += coef
    return acc if acc.ndim else float(acc)


def magnitude_squared_H(m: int, omega: float | np.ndarray) -> float | np.ndarray:
    """|H(w)|^2 = cos^(2m)(w/2) * P_(m-1)(sin^2(w/2)); 2pi-periodic, even, in [0, 1].

    Computed by magnitude_squared_rows from the cosine alone: no order
    computes a sine.
    """
    w, shape = flatten_frequencies(omega)
    return restore_shape(magnitude_squared_rows(m, w, band=0), shape)


def magnitude_squared_rows(m: int, x: np.ndarray, band: int) -> np.ndarray:
    """|H(x)|^2 on the 1-d array x, except |H(x + pi)|^2 on its last band entries.

    One trigonometric call per entry and one eval_P for all of them: with
    t = cos(x/2), |H(x)|^2 = t^(2m) P_(m-1)(1 - t^2), and t = sin(x/2) in the
    same formula gives |H(x + pi)|^2, so the band entries never round x + pi.
    t^2 keeps its relative accuracy at the zero of either form; P_(m-1) has
    positive coefficients, so it needs 1 - t^2 only to absolute accuracy.
    |t| <= 1 keeps every value >= 0, and the clamp keeps it <= 1. Order 1
    runs the same formula with P_0 = 1.
    """
    c2 = 0.5 * x  # becomes t, then t^2, in place
    head = c2[: c2.size - band]
    np.cos(head, out=head)
    if band:
        np.sin(c2[-band:], out=c2[-band:])
    c2 *= c2
    values = c2**m
    values *= eval_P(m, 1.0 - c2)  # eval_P rejects a bad order
    np.minimum(values, 1.0, out=values)
    return values


def _sin_odd_power_integral(n: int, x: float) -> float:
    """integral_0^x sin^n t dt for odd n, by the standard reduction recurrence."""
    c = math.cos(x)
    s = math.sin(x)
    val = 1.0 - c
    for nn in range(3, n + 1, 2):
        val = ((nn - 1) * val - c * s ** (nn - 1)) / nn
    return val


def magnitude_squared_H_integral(m: int, omega: float) -> float:
    """|H(w)|^2 via the integral identity 1 - c_m * integral_0^w sin^(2m-1) t dt.

    The identity is stated on [0, pi]; other arguments are reduced by evenness
    and 2pi-periodicity. Independent of the trigonometric closed form, which
    makes the two routes a cross-check of each other. cm_constant checks the order.
    """
    x = math.fmod(abs(omega), 2.0 * math.pi)
    if x > math.pi:
        x = 2.0 * math.pi - x
    val = 1.0 - cm_constant(m) * _sin_odd_power_integral(2 * m - 1, x)
    return min(max(val, 0.0), 1.0)


@lru_cache(maxsize=None)
def _filter_table() -> tuple[FilterSpec, ...]:
    """The FilterSpec of every order m = 1..MAX_ORDER, parsed once from daub_taps.txt."""
    specs = []
    for line in _TAP_TABLE.read_text().splitlines():
        if not line.startswith("#"):
            m, *taps = line.split()
            specs.append(FilterSpec(m=int(m), taps=tuple(map(float.fromhex, taps))))
    return tuple(specs)


def construct_filter(m: int) -> FilterSpec:
    """The order-m filter taps, each the correctly rounded double of the exact tap.

    The taps come from the minimum-phase spectral factorization of the module
    docstring, computed by tools/gen_taps.py in 50-digit arithmetic and read
    from daub_taps.txt on the first call; every call for one order returns
    the same FilterSpec. Raises ValueError for an order outside 1..MAX_ORDER.
    """
    check_order(m)
    return _filter_table()[m - 1]


def eval_H(spec: FilterSpec, omega: float | np.ndarray) -> complex | np.ndarray:
    """H(w) = 2^(-1/2) sum_l h(l) e^(i l w).

    Each point's powers z^l, z = e^(iw), are a running product along its own
    row and its tap sum is taken row by row, so an entry of an array rounds
    exactly as the same point alone (a matrix product would not).
    """
    w, shape = flatten_frequencies(omega)
    powers = np.empty((w.size, 2 * spec.m), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = np.exp(1j * w)[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    values = np.einsum("ij,j->i", powers, spec._tap_array) / math.sqrt(2.0)
    return restore_shape(values, shape)
