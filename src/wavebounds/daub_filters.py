"""Daubechies low-pass filters: trigonometric magnitude forms and tap construction.

The magnitude-squared response cos^(2m)(w/2) * P_(m-1)(sin^2(w/2)) is exact and
needs no taps. Tap coefficients are recovered by Riesz spectral factorization:
the magnitude-squared symbol becomes a Laurent polynomial in z = e^(iw), one
root of each reciprocal pair is kept, and the tap sequence is normalized and
ordered to match the standard published tables (h(0) = (1+sqrt(3))/(4 sqrt(2))
for order 2). In that ordering the polynomial sum_l h(l) z^(2m-1-l) has all of
its zeros inside or on the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .special_math import MAX_ORDER, binomial, cm_constant

# Root finding on the factorization polynomial degrades beyond this order in
# double precision; construction refuses rather than returning degraded taps.
MAX_CONSTRUCTIBLE_ORDER = 16

_RECONSTRUCTION_TOL = 1e-8
_ROOT_PAIR_TOL = 1e-8


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


def eval_P(m: int, x: float | np.ndarray) -> float | np.ndarray:
    """Truncated binomial-series polynomial sum_k C(m-1+k, k) x^k, by Horner."""
    if m < 1 or m > MAX_ORDER:
        raise ValueError(f"eval_P requires 1 <= m <= {MAX_ORDER}, got {m}")
    acc = 0.0
    for k in range(m - 1, -1, -1):
        acc = acc * x + binomial(m - 1 + k, k)
    return acc


def magnitude_squared_H(m: int, omega: float | np.ndarray) -> float | np.ndarray:
    """|H(w)|^2 = cos^(2m)(w/2) * P_(m-1)(sin^2(w/2)); 2pi-periodic, even, in [0, 1]."""
    w, shape = flatten_frequencies(omega)
    half = 0.5 * w
    c2 = np.cos(half) ** 2
    s2 = np.sin(half) ** 2
    return restore_shape(np.clip(c2**m * eval_P(m, s2), 0.0, 1.0), shape)


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
    makes the two routes a cross-check of each other.
    """
    if m < 1 or m > MAX_ORDER:
        raise ValueError(f"magnitude_squared_H_integral requires 1 <= m <= {MAX_ORDER}, got {m}")
    x = math.fmod(abs(omega), 2.0 * math.pi)
    if x > math.pi:
        x = 2.0 * math.pi - x
    val = 1.0 - cm_constant(m) * _sin_odd_power_integral(2 * m - 1, x)
    return min(max(val, 0.0), 1.0)


def _factorization_poly(m: int) -> list[Fraction]:
    """Exact coefficients (increasing powers) of z^(m-1) P_(m-1)((2 - z - 1/z)/4).

    Substituting y = sin^2(w/2) = (2 - z - 1/z)/4 turns the magnitude polynomial
    into a self-reciprocal Laurent polynomial; multiplying by z^(m-1) clears the
    negative powers. y^k contributes (-1)^k (z-1)^(2k) z^(m-1-k) / 4^k.
    """
    coeffs = [Fraction(0)] * (2 * m - 1)
    for k in range(m):
        b = binomial(m - 1 + k, k)
        for j in range(2 * k + 1):
            sign = (-1) ** k * (-1) ** (2 * k - j)
            coeffs[m - 1 - k + j] += Fraction(b * math.comb(2 * k, j) * sign, 4**k)
    return coeffs


def _polish_root(frac_coeffs: list[Fraction], z: complex) -> complex:
    """Newton-polish a root using exact rational evaluation of p and p'.

    The factorization polynomial is badly conditioned in double precision near
    order 16; evaluating it exactly at float-rounded iterates keeps every
    Newton step meaningful, so simple roots converge to machine accuracy.
    """
    coeffs_desc = list(reversed(frac_coeffs))
    for _ in range(4):
        a, b = Fraction(z.real), Fraction(z.imag)
        fr = fi = dr = di = Fraction(0)
        for c in coeffs_desc:
            dr, di = dr * a - di * b + fr, dr * b + di * a + fi
            fr, fi = fr * a - fi * b + c, fr * b + fi * a
        f = complex(float(fr), float(fi))
        df = complex(float(dr), float(di))
        if df == 0 or not (math.isfinite(f.real) and math.isfinite(f.imag)):
            break
        step = f / df
        if abs(step) > 0.5 * max(1.0, abs(z)):
            break
        z = z - step
        if abs(step) <= 1e-17 * max(1.0, abs(z)):
            break
    return z


def _real_poly_from_roots(roots: list[complex], m: int) -> np.ndarray:
    """Multiply out (z - r) factors, pairing conjugates into real quadratics."""
    poly = np.array([1.0])
    remaining = sorted(roots, key=lambda r: (round(r.real, 12), round(abs(r.imag), 12), r.imag))
    used = [False] * len(remaining)
    imag_tol = 1e-9
    for i, r in enumerate(remaining):
        if used[i]:
            continue
        if abs(r.imag) <= imag_tol:
            used[i] = True
            poly = np.convolve(poly, np.array([-r.real, 1.0]))
            continue
        partner = None
        for j in range(i + 1, len(remaining)):
            if used[j]:
                continue
            cand = remaining[j]
            if abs(cand.real - r.real) <= 1e-7 * max(1.0, abs(r.real)) and abs(
                cand.imag + r.imag
            ) <= 1e-7 * max(1.0, abs(r.imag)):
                partner = j
                break
        if partner is None:
            raise FilterConstructionError(m, f"unpaired complex root {r}")
        used[i] = used[partner] = True
        quad = np.array([abs(r) ** 2, -2.0 * r.real, 1.0])
        poly = np.convolve(poly, quad)
    return poly


def _construction_residual(m: int, taps: tuple[float, ...]) -> float:
    spec = FilterSpec(m=m, taps=taps)
    grid = np.linspace(-math.pi, math.pi, 257)
    recon = np.abs(eval_H(spec, grid)) ** 2
    return float(np.max(np.abs(recon - magnitude_squared_H(m, grid))))


@lru_cache(maxsize=None)
def construct_filter(m: int) -> FilterSpec:
    """Build the order-m filter taps by minimum-phase Riesz factorization.

    Roots of the factorization polynomial are found via the companion matrix,
    Newton-polished, and matched into reciprocal pairs; the in-disk root of
    each pair is kept. Raises FilterConstructionError (with the measured
    residual) rather than returning taps that fail the reconstruction check.
    """
    if m < 1:
        raise ValueError(f"filter order must be positive, got {m}")
    if m > MAX_CONSTRUCTIBLE_ORDER:
        raise ValueError(
            f"orders above {MAX_CONSTRUCTIBLE_ORDER} are not constructible in "
            f"double precision; got {m}"
        )

    if m == 1:
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        return FilterSpec(m=1, taps=(inv_sqrt2, inv_sqrt2))

    frac_coeffs = _factorization_poly(m)
    coeffs_desc = np.array([float(c) for c in reversed(frac_coeffs)])
    raw_roots = np.roots(coeffs_desc)
    roots = [_polish_root(frac_coeffs, complex(z)) for z in raw_roots]

    inside = [r for r in roots if abs(r) < 1.0]
    outside = [r for r in roots if abs(r) >= 1.0]
    if len(inside) != m - 1:
        raise FilterConstructionError(
            m, f"expected {m - 1} in-disk roots, found {len(inside)}"
        )
    for r in inside:
        recip = 1.0 / r
        gap = min(abs(out - recip) / abs(recip) for out in outside)
        if gap > _ROOT_PAIR_TOL:
            raise FilterConstructionError(
                m, f"reciprocal partner of root {r} off by relative {gap:.3e}"
            )

    spectral = _real_poly_from_roots(inside, m)
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
    """H(w) = 2^(-1/2) sum_l h(l) e^(i l w)."""
    w, shape = flatten_frequencies(omega)
    ell = np.arange(2 * spec.m)
    phases = np.exp(1j * np.multiply.outer(w, ell))
    return restore_shape(phases @ np.asarray(spec.taps) / math.sqrt(2.0), shape)
