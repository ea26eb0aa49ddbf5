"""Daubechies low-pass filters: trigonometric magnitude forms and tap construction.

The magnitude-squared response cos^(2m)(w/2) * P_(m-1)(sin^2(w/2)) is exact and
needs no taps. Tap coefficients follow the spectral factorization of
Daubechies, Ten Lectures on Wavelets (1992), section 6.1: with
y = sin^2(w/2) = (2 - z - 1/z)/4 and z = e^(iw), each of the m-1 roots of
P_(m-1)(y) is one reciprocal pair of z-roots, the in-disk one is kept, and
((1+z)/2)^m times the product of the kept factors gives the taps. The tap
sequence is normalized and ordered to match the standard published tables
(h(0) = (1+sqrt(3))/(4 sqrt(2)) for order 2). In that ordering the polynomial
sum_l h(l) z^(2m-1-l) has all of its zeros inside or on the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .special_math import cm_constant, p_coefficients

# The reconstruction residual grows with the order in double precision: 3.9e-11
# at order 20, 1.7e-10 at order 22, against the 1e-10 the tests require.
# Construction refuses higher orders rather than returning degraded taps.
MAX_CONSTRUCTIBLE_ORDER = 20

_RECONSTRUCTION_TOL = 1e-8


class FilterConstructionError(RuntimeError):
    """Spectral factorization failed or left a residual above tolerance."""

    def __init__(self, m: int, message: str, residual: float | None = None):
        self.m = m
        self.residual = residual
        super().__init__(f"order {m}: {message}")


@dataclass(frozen=True)
class FilterSpec:
    """Order m plus the 2m real taps h(0..2m-1), normalized so sum h = sqrt(2)."""

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
    arithmetic of a one-element array call.
    """
    w = np.asarray(omega, dtype=float)
    return w.reshape(-1), w.shape


def restore_shape(values: np.ndarray, shape: tuple[int, ...]) -> float | complex | np.ndarray:
    """values in the input's shape; a 0-d input gives a Python float or complex."""
    return values.reshape(shape) if shape else values.item()


@lru_cache(maxsize=None)
def _horner_coefficients(m: int) -> tuple[float, ...]:
    """P_(m-1)'s coefficients as correctly rounded floats, leading first."""
    return tuple(float(c) for c in reversed(p_coefficients(m)))


def eval_P(m: int, x: float | np.ndarray) -> float | np.ndarray:
    """Truncated binomial-series polynomial P_(m-1)(x) = sum_k C(m-1+k, k) x^k, by Horner.

    The accumulator starts at x times the leading coefficient and each
    multiply-add runs in place on it; a float x gives a float, an array a new
    array.
    """
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

    P_0 = 1, so order 1 computes no sine.
    """
    w, shape = flatten_frequencies(omega)
    half = 0.5 * w
    c2 = np.cos(half)
    c2 *= c2
    if m == 1:
        values = c2
    else:  # eval_P rejects a bad order
        s2 = np.sin(half)
        s2 *= s2
        values = c2**m
        values *= eval_P(m, s2)
    np.maximum(values, 0.0, out=values)
    np.minimum(values, 1.0, out=values)
    return restore_shape(values, shape)


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


def _construction_residual(m: int, taps: tuple[float, ...]) -> float:
    spec = FilterSpec(m=m, taps=taps)
    grid = np.linspace(-math.pi, math.pi, 257)
    recon = np.abs(eval_H(spec, grid)) ** 2
    return float(np.max(np.abs(recon - magnitude_squared_H(m, grid))))


def _minimum_phase_zeros(m: int) -> np.ndarray:
    """The m-1 zeros in the open unit disk of the factor L(z) with |L|^2 = P_(m-1)(y).

    The roots y of P_(m-1)(y) (integer coefficients, p_coefficients) come
    from the companion matrix and take one float Newton step. Each y
    gives z + 1/z = 2 - 4y, whose two roots are reciprocal; the larger-modulus
    one, (1-2y) +/- 2 sqrt(y(y-1)) with the sign that adds, is formed without
    cancellation and inverted. Conjugate y give conjugate z.
    """
    p = np.array(p_coefficients(m)[::-1], dtype=float)
    y = np.roots(p).astype(complex)
    y = y - np.polyval(p, y) / np.polyval(np.polyder(p), y)
    a = 1.0 - 2.0 * y
    b = 2.0 * np.sqrt(y * (y - 1.0))
    outer = np.where(np.abs(a + b) >= np.abs(a - b), a + b, a - b)
    zeros = 1.0 / outer
    for z in zeros:
        if not abs(z) < 1.0:
            raise FilterConstructionError(
                m, f"kept zero {z} has modulus {abs(z):.17g}, not strictly inside the unit disk"
            )
    return zeros


@lru_cache(maxsize=None)
def construct_filter(m: int) -> FilterSpec:
    """Build the order-m filter taps by minimum-phase spectral factorization.

    Follows Daubechies, Ten Lectures on Wavelets (1992), section 6.1: the
    magnitude polynomial P_(m-1)(y), y = sin^2(w/2), is factored through its
    m-1 roots, each mapped to the in-disk zero of z^2 - (2-4y) z + 1
    (_minimum_phase_zeros), and the product of those factors is multiplied by
    ((1+z)/2)^m. Raises FilterConstructionError (with the measured residual)
    rather than returning taps that fail the reconstruction check.
    """
    if m < 1:
        raise ValueError(f"filter order must be positive, got {m}")
    if m > MAX_CONSTRUCTIBLE_ORDER:
        raise ValueError(
            f"orders above {MAX_CONSTRUCTIBLE_ORDER} are not constructible in "
            f"double precision; got {m}"
        )

    spectral = np.atleast_1d(np.poly(_minimum_phase_zeros(m)))[::-1].real
    spectral = spectral / np.sum(spectral)  # normalize so the factor is 1 at z=1

    lowpass = np.array([math.comb(m, j) for j in range(m + 1)], dtype=float) / 2.0**m
    coeffs = np.convolve(lowpass, spectral)
    taps = np.sqrt(2.0) * coeffs[::-1]
    taps = taps * (math.sqrt(2.0) / float(np.sum(taps)))

    taps_tuple = tuple(float(t) for t in taps)
    residual = _construction_residual(m, taps_tuple)
    if not math.isfinite(residual) or residual > _RECONSTRUCTION_TOL:
        raise FilterConstructionError(
            m, f"reconstruction residual {residual:.3e} above tolerance", residual
        )
    return FilterSpec(m=m, taps=taps_tuple)


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
