"""Fourier-domain evaluation of the scaling function and wavelet.

phi_hat is the infinite product of dilated filter responses; psi_hat is the
usual modulated half-scale formula. Truncation of the product is controlled by
two explicit per-factor bounds so the omitted tail multiplies the result by
1 + O(PRODUCT_TOL):

  * modulus: 1 >= |H(x)|^2 >= 1 - c_m x^(2m) / (2m) for small x (from the
    integral identity and sin t <= t), with the tail handled as a geometric
    series;
  * full complex value: |H(x) - 1| <= S |x| with S = 2^(-1/2) sum_l l |h(l)|,
    needed because the truncated factors also rotate the phase.

The modulus rule is much shallower and is used wherever only |psi_hat| is
needed (all norm integrands); the complex rule is used by scaling_hat and
wavelet_hat themselves. In an array, each entry gets the depth its own |w|
requires: entries are grouped by depth and each group has its own product,
so no entry's product depends on the others in its array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .daub_filters import (
    FilterSpec,
    construct_filter,
    eval_H,
    flatten_frequencies,
    magnitude_squared_H,
    restore_shape,
)
from .special_math import cm_constant

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TruncationError(RuntimeError):
    """The depth limit cannot push the product tail below the tolerance."""

    def __init__(self, message: str, achieved_bound: float):
        self.achieved_bound = achieved_bound
        super().__init__(f"{message} (achieved tail bound {achieved_bound:.3e})")


# Truncation policy of every product: the omitted tail multiplies the result
# by 1 + O(PRODUCT_TOL), using between MIN_DEPTH and MAX_DEPTH factors.
PRODUCT_TOL = 1e-12
MIN_DEPTH = 16
MAX_DEPTH = 64


@dataclass(frozen=True)
class DecayFit:
    """Fitted high-frequency envelope |psi_hat(w)| <= C_tilde * w^(-c log m)."""

    C_tilde: float
    c: float
    fit_range: tuple[float, float]
    residual: float

    def __post_init__(self) -> None:
        if self.C_tilde <= 0:
            raise ValueError("C_tilde must be positive")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.fit_range[0] <= 2.0 * math.pi:
            raise ValueError("fit range must start above 2*pi")


def _guarded_peak(w: np.ndarray) -> float:
    """max |w|, which sets the product depth; raises above the guard or at NaN."""
    peak = float(np.max(np.abs(w), initial=0.0))
    if not peak <= 2.0**MAX_DEPTH * PRODUCT_TOL:
        raise ValueError(
            f"|omega|={peak:.3e} exceeds the evaluation guard "
            f"2^max_depth * product_tol = {2.0 ** MAX_DEPTH * PRODUCT_TOL:.3e}"
        )
    return peak


@lru_cache(maxsize=None)
def _modulus_theta(m: int) -> float:
    """Largest per-factor argument for which the modulus tail stays within tolerance.

    For |x| <= theta each factor satisfies |H(x)|^2 >= 1 - u with
    u = c_m x^(2m) / (2m); summing the geometric tail and using 1-u >= e^(-2u)
    keeps the omitted modulus factor within [1 - PRODUCT_TOL, 1].
    """
    # 2 * u * geometric factor (<= 4/3) <= PRODUCT_TOL/ safety margin 2
    u_target = 3.0 * PRODUCT_TOL / 16.0
    return (u_target * 2.0 * m / cm_constant(m)) ** (1.0 / (2.0 * m))


@lru_cache(maxsize=None)
def _phase_slope(m: int) -> float:
    """Per-factor Lipschitz bound: |H(x) - 1| <= _phase_slope(m) * |x|."""
    spec = construct_filter(m)
    return sum(ell * abs(t) for ell, t in enumerate(spec.taps)) / math.sqrt(2.0)


def _depth_modulus(m: int, abs_omega: float) -> int:
    theta = _modulus_theta(m)
    if abs_omega <= theta:
        return MIN_DEPTH
    depth = max(MIN_DEPTH, math.ceil(math.log2(abs_omega / theta)))
    if depth > MAX_DEPTH:
        u = cm_constant(m) * (abs_omega * 2.0**-MAX_DEPTH) ** (2 * m) / (2 * m)
        raise TruncationError(
            f"modulus tail needs depth {depth} > max_depth {MAX_DEPTH}", 4.0 * u
        )
    return depth


def _depth_complex(m: int, abs_omega: float) -> int:
    slope = _phase_slope(m)
    target = 2.0 * slope * max(abs_omega, 1e-300) / PRODUCT_TOL
    depth = max(MIN_DEPTH, math.ceil(math.log2(target)))
    if depth > MAX_DEPTH:
        raise TruncationError(
            f"complex tail needs depth {depth} > max_depth {MAX_DEPTH}",
            2.0 * slope * abs_omega * 2.0**-MAX_DEPTH,
        )
    return depth


def _depths_modulus(m: int, abs_omega: np.ndarray) -> np.ndarray:
    """_depth_modulus of each entry of an array whose peak already passed it."""
    theta = _modulus_theta(m)
    return np.maximum(MIN_DEPTH, np.ceil(np.log2(np.maximum(abs_omega, theta) / theta)))


def _depths_complex(m: int, abs_omega: np.ndarray) -> np.ndarray:
    """_depth_complex of each entry of an array whose peak already passed it."""
    target = 2.0 * _phase_slope(m) * np.maximum(abs_omega, 1e-300) / PRODUCT_TOL
    return np.maximum(MIN_DEPTH, np.ceil(np.log2(target)))


def _grouped(
    w: np.ndarray, need: np.ndarray, product: Callable[[np.ndarray, int], np.ndarray]
) -> np.ndarray:
    """product(w_g, depth) for each group w_g of the entries that need one depth.

    need holds each entry's required depth. Every group gets its own product,
    so an entry's value does not depend on the other entries of w.
    """
    order = np.argsort(need, kind="stable")
    cuts = np.flatnonzero(np.diff(need[order])) + 1
    if cuts.size == 0:
        return product(w, int(need[0]))
    values = np.concatenate(
        [product(w[group], int(need[group[0]])) for group in np.split(order, cuts)]
    )
    out = np.empty_like(values)
    out[order] = values
    return out


def _tap_product(spec: FilterSpec, w: np.ndarray, depth: int) -> np.ndarray:
    """(2 pi)^(-1/2) prod_(l=1..depth) H(w 2^(-l)) for every entry of w.

    One row of factors per point: np.prod then multiplies each point's factors
    in sequence, exactly as for a lone point, whereas a reduction across rows
    rounds complex products differently once there are two or more points.
    """
    scales = 2.0 ** -np.arange(1, depth + 1)
    args = np.multiply.outer(w, scales)
    factors = eval_H(spec, args.ravel()).reshape(args.shape)
    return _INV_SQRT_2PI * np.prod(factors, axis=1)


def _phi_product(spec: FilterSpec, w: np.ndarray, peak: float) -> np.ndarray:
    """phi_hat on a 1-d array whose largest |w| is peak, each entry at its own depth.

    A single entry, or a peak that needs only MIN_DEPTH, is one product at the
    peak's depth, so scalar calls pay nothing for the grouping.
    """
    depth = _depth_complex(spec.m, peak)
    if w.size == 1 or depth == MIN_DEPTH:
        return _tap_product(spec, w, depth)
    return _grouped(w, _depths_complex(spec.m, np.abs(w)), partial(_tap_product, spec))


def _abs2_product(m: int, w: np.ndarray, depth: int) -> np.ndarray:
    """prod_(l=2..depth+1) |H(w 2^(-l))|^2 for every entry of w."""
    scales = 2.0 ** -np.arange(2, depth + 2)  # arguments w/4, w/8, ...
    args = np.multiply.outer(scales, w)
    return np.prod(magnitude_squared_H(m, args.ravel()).reshape(args.shape), axis=0)


def scaling_hat(m: int, omega: float | np.ndarray) -> complex | np.ndarray:
    """phi_hat(w): truncated infinite product (2 pi)^(-1/2) prod_l H(w 2^(-l)).

    Each entry of an array uses the product depth its own |w| requires.
    """
    w, shape = flatten_frequencies(omega)
    peak = _guarded_peak(w)
    return restore_shape(_phi_product(construct_filter(m), w, peak), shape)


def wavelet_hat(m: int, omega: float | np.ndarray) -> complex | np.ndarray:
    """psi_hat(w) = e^(-i w/2) conj(H(w/2 + pi)) phi_hat(w/2)."""
    w, shape = flatten_frequencies(omega)
    peak = _guarded_peak(w)
    spec = construct_filter(m)
    half = 0.5 * w
    mod = np.exp(-1j * half)
    psi = mod * np.conj(eval_H(spec, half + math.pi)) * _phi_product(spec, half, 0.5 * peak)
    return restore_shape(psi, shape)


def wavelet_hat_abs2(m: int, omega: float | np.ndarray) -> float | np.ndarray:
    """|psi_hat(w)|^2 computed entirely from magnitude_squared_H.

    Shares no code path with the tap-based wavelet_hat beyond the filter order,
    so agreement between |wavelet_hat|^2 and this value cross-checks the
    spectral factorization end to end. Each entry of an array uses the product
    depth its own |w| requires, so its value is bit-identical to a call on
    that entry alone.
    """
    w, shape = flatten_frequencies(omega)
    peak = _guarded_peak(w)
    band = magnitude_squared_H(m, 0.5 * w + math.pi)
    depth = _depth_modulus(m, 0.5 * peak)
    if w.size == 1 or depth == MIN_DEPTH:
        product = _abs2_product(m, w, depth)
    else:
        product = _grouped(w, _depths_modulus(m, 0.5 * np.abs(w)), partial(_abs2_product, m))
    return restore_shape(band * product / (2.0 * math.pi), shape)


def ideal_band_indicator(omega: float) -> float:
    """(2 pi)^(-1/2) on the closed bands [-2pi, -pi] and [pi, 2pi], else 0."""
    a = abs(omega)
    if math.pi <= a <= 2.0 * math.pi:
        return _INV_SQRT_2PI
    return 0.0


def estimate_decay(m: int, omega_lo: float, omega_hi: float, samples: int) -> DecayFit:
    """Fit the high-frequency envelope |psi_hat(w)| <= C_tilde * w^(-c log m).

    |psi_hat| oscillates through near-zeros, so the least-squares line goes
    through block maxima (8 log-spaced blocks) rather than raw samples. The
    intercept is then inflated so the envelope dominates every sample, and the
    fitted slope is reported as c = |slope| / log m (natural log).
    """
    if m < 2:
        raise ValueError("decay exponent c is undefined for m = 1 (log m = 0)")
    if not (2.0 * math.pi < omega_lo < omega_hi):
        raise ValueError(f"need 2*pi < omega_lo < omega_hi, got [{omega_lo}, {omega_hi}]")
    if samples < 16:
        raise ValueError(f"need at least 16 samples, got {samples}")

    grid = np.exp(np.linspace(math.log(omega_lo), math.log(omega_hi), samples))
    vals = np.sqrt(wavelet_hat_abs2(m, grid))

    block_x: list[float] = []
    block_y: list[float] = []
    for chunk in np.array_split(np.arange(samples), 8):
        sub = vals[chunk]
        idx = int(chunk[int(np.argmax(sub))])
        if vals[idx] <= 0.0:
            raise ValueError(f"wavelet transform vanished on an entire block near w={grid[idx]:.3e}")
        block_x.append(math.log(grid[idx]))
        block_y.append(math.log(vals[idx]))

    slope, intercept = np.polyfit(block_x, block_y, 1)
    if slope >= 0.0:
        raise ValueError(f"no decay detected on [{omega_lo:.3e}, {omega_hi:.3e}] (slope {slope:.3e})")
    exponent = -float(slope)
    positive = vals > 0.0
    c_tilde = float(np.max(vals[positive] * grid[positive] ** exponent))
    fitted = intercept + slope * np.asarray(block_x)
    residual = float(np.sqrt(np.mean((np.asarray(block_y) - fitted) ** 2)))
    return DecayFit(
        C_tilde=c_tilde,
        c=exponent / math.log(m),
        fit_range=(float(omega_lo), float(omega_hi)),
        residual=residual,
    )
