"""Fourier-domain evaluation of the scaling function and wavelet.

phi_hat is the infinite product of dilated filter responses; psi_hat is the
usual modulated half-scale formula. Each product stops at a depth L where an
explicit per-factor bound keeps the omitted tail within a relative
O(PRODUCT_TOL):

  * modulus: 1 >= |H(x)|^2 >= 1 - c_m x^(2m) / (2m) for small x (from the
    integral identity and sin t <= t), with the tail handled as a geometric
    series;
  * full complex value: |H(x) - e^(i mu x)| <= K x^2 with H'(0) = i mu
    (first moment of the taps). With |H| <= 1 the tail prod_(l>L) H(w 2^-l)
    lies within K w^2 4^-L / 3 of e^(i mu w 2^-L), so the truncated product
    is multiplied by that phase.

The modulus rule is used wherever only |psi_hat| is needed (all norm
integrands); the complex rule is used by scaling_hat and wavelet_hat
themselves. In an array, each entry gets the depth its own |w| requires: one
product runs to the deepest entry's depth, and every factor past an entry's
own depth is exactly 1, so no entry's value depends on the others in its
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

# Truncation policy of every product: the omitted tail changes the result by a
# relative O(PRODUCT_TOL), using at least MIN_DEPTH factors. MAX_DEPTH sets the
# evaluation guard; below it neither rule needs more than 47 factors.
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
def _phase_rule(m: int) -> tuple[float, float]:
    """(mu, K): H'(0) = i mu and |H(x) - e^(i mu x)| <= K x^2 for every real x.

    mu = 2^(-1/2) sum_l l h(l). Since sum_l h(l) = sqrt 2, H(x) - e^(i mu x) is
    2^(-1/2) sum_l h(l) (e^(ilx) - 1 - ilx) - (e^(i mu x) - 1 - i mu x), and
    |e^(iy) - 1 - iy| <= y^2/2 gives K = (2^(-1/2) sum_l l^2 |h(l)| + mu^2) / 2.
    """
    taps = construct_filter(m).taps
    mu = sum(ell * t for ell, t in enumerate(taps)) / math.sqrt(2.0)
    second = sum(ell * ell * abs(t) for ell, t in enumerate(taps)) / math.sqrt(2.0)
    return mu, 0.5 * (second + mu * mu)


def _depth(theta: float, abs_omega: float) -> int:
    """Fewest factors (at least MIN_DEPTH) that leave every omitted argument within theta."""
    if abs_omega <= theta:
        return MIN_DEPTH
    return max(MIN_DEPTH, math.ceil(math.log2(abs_omega / theta)))


def _entry_depths(theta: float, w: np.ndarray, peak: float) -> int | np.ndarray:
    """_depth of each entry of w, whose largest |w| is peak.

    A single entry, or a peak that needs only MIN_DEPTH, gets one int, so
    scalar calls pay nothing for per-entry depths.
    """
    depth = _depth(theta, peak)
    if w.size == 1 or depth == MIN_DEPTH:
        return depth
    ratio = np.maximum(np.abs(w), theta) / theta
    return np.maximum(MIN_DEPTH, np.ceil(np.log2(ratio))).astype(int)


def _padded_factors(factors: np.ndarray, depth: int | np.ndarray, axis: int) -> np.ndarray:
    """factors with each entry's factors past its own depth set to exactly 1.

    factors holds max(depth) factors per entry along axis. Multiplying by 1 is
    exact, so one product over the padded factors gives each entry the value
    of its own-depth product.
    """
    if isinstance(depth, int):
        return factors
    levels = np.expand_dims(np.arange(factors.shape[axis]), 1 - axis)
    return np.where(levels < np.expand_dims(depth, axis), factors, 1.0)


def _tap_product(spec: FilterSpec, w: np.ndarray, depth: int | np.ndarray) -> np.ndarray:
    """(2 pi)^(-1/2) prod_(l=1..depth) H(w 2^(-l)) e^(i mu w 2^(-depth)) for every entry of w.

    depth is one int or each entry's own. One row of factors per point:
    np.prod then multiplies each point's factors in sequence, exactly as for
    a lone point, whereas a reduction across rows rounds complex products
    differently once there are two or more points.
    """
    top = depth if isinstance(depth, int) else int(depth.max())
    args = np.multiply.outer(w, 2.0 ** -np.arange(1, top + 1))
    factors = eval_H(spec, args.ravel()).reshape(args.shape)
    phase = np.exp(1j * _phase_rule(spec.m)[0] * np.ldexp(w, -depth))
    return _INV_SQRT_2PI * np.prod(_padded_factors(factors, depth, 1), axis=1) * phase


def _phi_product(spec: FilterSpec, w: np.ndarray, peak: float) -> np.ndarray:
    """phi_hat on a 1-d array whose largest |w| is peak, each entry at its own depth.

    An omitted argument within theta keeps K w^2 4^-L / 3 <= PRODUCT_TOL / 2.
    """
    theta = math.sqrt(1.5 * PRODUCT_TOL / _phase_rule(spec.m)[1])
    return _tap_product(spec, w, _entry_depths(theta, w, peak))


def _abs2_product(m: int, w: np.ndarray, depth: int | np.ndarray) -> np.ndarray:
    """prod_(l=2..depth+1) |H(w 2^(-l))|^2 for every entry of w; depth as in _tap_product."""
    top = depth if isinstance(depth, int) else int(depth.max())
    args = np.multiply.outer(2.0 ** -np.arange(2, top + 2), w)  # arguments w/4, w/8, ...
    factors = magnitude_squared_H(m, args.ravel()).reshape(args.shape)
    return np.prod(_padded_factors(factors, depth, 0), axis=0)


def scaling_hat(m: int, omega: float | np.ndarray) -> complex | np.ndarray:
    """phi_hat(w) = (2 pi)^(-1/2) prod_l H(w 2^(-l)), truncated with its tail phase.

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
    product = _abs2_product(m, w, _entry_depths(_modulus_theta(m), 0.5 * w, 0.5 * peak))
    return restore_shape(band * product / (2.0 * math.pi), shape)


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
