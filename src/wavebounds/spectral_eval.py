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
themselves. Both routes run one truncated product, _truncated_product, on
their own factors and truncation bound. psi_hat's band factor H(w/2 + pi)
shares the product's factor call, so each evaluation calls its factor
function once. In an array each entry gets the depth its own |w| requires,
so no entry's value depends on the others.

The relative O(PRODUCT_TOL) covers the truncation, not the rounding of the
band argument: w/2 + pi drops the low bits of a small w, and the band
factor, of order w^(2m) near the origin in |psi_hat|^2, inherits a relative
error that grows like m/|w|. Against mpmath, wavelet_hat_abs2 is off by
4.2e-10 (m = 2) to 1.3e-9 (m = 6) at w = 1e-6 and 1.9e-11 to 5.7e-11 at
w = 1e-4. The tap route rounds the same argument, and its tap sum near the
band factor's order-m zero also cancels to an absolute error of about 1e-16,
so |wavelet_hat|^2 there is accurate in absolute, not relative, terms.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

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
# 2^-l for l = 1..MAX_DEPTH, the argument scale of each product level.
_LEVEL_SCALES = 2.0 ** -np.arange(1, MAX_DEPTH + 1)


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
    peak = float(np.abs(w).max()) if w.size else 0.0
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


def _truncated_product(
    factor: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    theta: float,
    peak: float,
    band: np.ndarray | None,
) -> tuple[np.ndarray, int | np.ndarray, np.ndarray | None]:
    """prod_(l=1..L) factor(x 2^(-l)) for each entry of x, its depth L, and factor(band).

    L is the fewest factors (at least MIN_DEPTH) that leave every omitted
    argument within theta; peak is max |x|. One entry, or a peak needing only
    MIN_DEPTH, gets one int depth, which keeps scalar calls cheap. Otherwise
    factors past an entry's own depth are exactly 1. Real factors are reduced
    across entries, level by level; complex ones along each entry's own row,
    since numpy rounds a complex product reduced across entries differently.
    The band argument (w/2 + pi for psi_hat, None for phi_hat) is one more
    row of the arguments, so the band factor shares the product's factor
    call; factor is elementwise, so every value rounds as in a call of its own.
    """
    depth = max(MIN_DEPTH, math.ceil(math.log2(max(peak, theta) / theta)))
    if x.size > 1 and depth > MIN_DEPTH:
        ratio = np.maximum(np.abs(x), theta) / theta
        depth = np.maximum(MIN_DEPTH, np.ceil(np.log2(ratio))).astype(int)
    top = depth if isinstance(depth, int) else int(depth.max())
    args = np.empty((top if band is None else top + 1, x.size))
    np.multiply.outer(_LEVEL_SCALES[:top], x, out=args[:top])
    if band is not None:
        args[top] = band
    values = factor(args.ravel()).reshape(args.shape)
    factors = values[:top]
    if not isinstance(depth, int):
        factors[np.arange(top)[:, None] >= depth] = 1.0
    if factors.dtype.kind == "c":
        product = np.multiply.reduce(np.ascontiguousarray(factors.T), axis=1)
    else:
        product = np.multiply.reduce(factors, axis=0)
    return product, depth, None if band is None else values[top]


def _phi_product(
    spec: FilterSpec, w: np.ndarray, peak: float, band: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """phi_hat on a 1-d array whose largest |w| is peak, and H(band) from the same eval_H call.

    Each entry of w is at its own depth. An omitted argument within theta
    keeps K w^2 4^-L / 3 <= PRODUCT_TOL / 2, and the omitted factors are
    replaced by their phase e^(i mu w 2^-L).
    """
    mu, k = _phase_rule(spec.m)
    theta = math.sqrt(1.5 * PRODUCT_TOL / k)
    product, depth, band_h = _truncated_product(partial(eval_H, spec), w, theta, peak, band)
    return _INV_SQRT_2PI * product * np.exp(1j * mu * np.ldexp(w, -depth)), band_h


def scaling_hat(m: int, omega: float | np.ndarray) -> complex | np.ndarray:
    """phi_hat(w) = (2 pi)^(-1/2) prod_l H(w 2^(-l)), truncated with its tail phase.

    Each entry of an array uses the product depth its own |w| requires.
    """
    w, shape = flatten_frequencies(omega)
    peak = _guarded_peak(w)
    phi, _ = _phi_product(construct_filter(m), w, peak, None)
    return restore_shape(phi, shape)


def wavelet_hat(m: int, omega: float | np.ndarray) -> complex | np.ndarray:
    """psi_hat(w) = e^(-i w/2) conj(H(w/2 + pi)) phi_hat(w/2)."""
    w, shape = flatten_frequencies(omega)
    peak = _guarded_peak(w)
    half = 0.5 * w
    phi, band = _phi_product(construct_filter(m), half, 0.5 * peak, half + math.pi)
    return restore_shape(np.exp(-1j * half) * np.conj(band) * phi, shape)


def wavelet_hat_abs2(m: int, omega: float | np.ndarray) -> float | np.ndarray:
    """|psi_hat(w)|^2 computed entirely from magnitude_squared_H.

    Its factors (|H|^2 from P, not H from the taps) and its truncation rule
    (the modulus bound) are independent of the tap-based wavelet_hat, so
    agreement between |wavelet_hat|^2 and this value cross-checks the spectral
    factorization end to end. The two routes share the product loop,
    _truncated_product, and the band factor |H(w/2 + pi)|^2 rides in the
    product's magnitude_squared_H call. Apart from that cross-check, the loop
    is checked by the 72-factor reference products in
    tests/test_spectral_eval.py, the Haar closed form, and the exact-route
    norms (Plancherel's 1 among them) that the quadrature norms must match.
    Each entry of an array is bit-identical to a call on that entry alone.
    """
    w, shape = flatten_frequencies(omega)
    peak = _guarded_peak(w)
    half = 0.5 * w
    product, _, band = _truncated_product(
        partial(magnitude_squared_H, m), half, _modulus_theta(m), 0.5 * peak, half + math.pi
    )
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
