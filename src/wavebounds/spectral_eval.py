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

A one-entry call, a scalar or a one-element array, runs the same functions
on one row: _guarded_entries hands the entry on as a Python float, and
_truncated_product multiplies the level scales by it, appends the band
argument and reduces the factors along the row, with no outer product, mask
or transpose. Real +, -, * and / round the same on a Python float, a numpy
scalar and a one-element array, so that bookkeeping (w/2, the band argument
w/2 + pi, and the magnitude route's band * product / 2 pi) runs on scalars.
So do the arguments of the two phases, i mu 2^-L w and -i w/2, and only
np.exp runs on a one-element array. Each argument is a complex with a zero
real part times a float, so the one product that is not an exact zero, mu
2^-L w (or -w/2, which is exact), rounds once whether Python or numpy's
complex loop forms it: a fused multiply-add has only exact zeros to fuse.
e^(+-0 + iy) does not depend on the sign of the zero, and math.ldexp, like
np.ldexp, scales exactly and rounds correctly into subnormals. This takes
Python, like numpy's loop, to multiply a complex by a float as by a complex
with a zero imaginary part, as it does through 3.13; 3.14's mixed-mode rule
multiplies the parts alone, which can change the sign of a zero in the
argument, and the byte-level scalar-array tests would show whether that
reaches a value. Complex products and transcendental functions stay numpy
ufuncs on one-element arrays: numpy's complex array multiply differs in the
last bit from Python's, and from numpy's own scalar multiply, for about two
pairs in five, and np.exp or np.cos need not agree with cmath or math. So a
one-entry call gives, bit for bit, the value of the same entry in an array.

The relative O(PRODUCT_TOL) covers the truncation. The magnitude route also
keeps the band factor's relative accuracy near the origin: it takes
|H(w/2 + pi)|^2 as sin^(2m)(w/4) P_(m-1)(cos^2(w/4)) and never forms
w/2 + pi, which would drop the low bits of a small w. Against mpmath,
wavelet_hat_abs2 for m = 2..8 is within 1.8e-15 relative for w from 1e-6
to 5000. The tap route still rounds w/2 + pi, and its tap sum near the
band factor's order-m zero also cancels to an absolute error of about 1e-16,
so |wavelet_hat|^2 there is accurate in absolute, not relative, terms.

Order 1, the Haar wavelet, runs no product on the magnitude route: with
|H(x)|^2 = cos^2(x/2), Viete's product gives |psi_hat(w)|^2 =
sin^2(w/4) (sin(w/4) / (w/4))^2 / (2 pi) exactly, from one sine per point.
Against mpmath it is within 7.0e-16 relative for w from 1e-6 to 12868.
The tap route at order 1 stays a product, so the two routes cross-check.
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
    magnitude_squared_rows,
    restore_shape,
)
from .special_math import check_order, cm_constant

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


def _guarded_entries(w: np.ndarray) -> tuple[float | np.ndarray, float]:
    """w's one entry as a Python float, or w itself at any other size, and max |w|.

    max |w| sets the product depth; raises above the guard or at NaN.
    """
    if w.size == 1:
        x = w.item()
        peak = abs(x)
    else:
        x = w
        peak = float(np.abs(w).max()) if w.size else 0.0
    if not peak <= 2.0**MAX_DEPTH * PRODUCT_TOL:
        raise ValueError(
            f"|omega|={peak:.3e} exceeds the evaluation guard "
            f"2^max_depth * product_tol = {2.0 ** MAX_DEPTH * PRODUCT_TOL:.3e}"
        )
    return x, peak


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
    x: float | np.ndarray,
    theta: float,
    peak: float,
    band: float | None,
) -> tuple[np.ndarray | float, int | np.ndarray, np.ndarray | float | None]:
    """prod_(l=1..L) factor(x 2^(-l)) for each entry of x, its depth L, and factor(x + band).

    L is the fewest factors (at least MIN_DEPTH) that leave every omitted
    argument within theta; peak is max |x|. The band row x + band (band None
    for phi_hat) is one more row of the arguments, so the band factor shares
    the product's factor call: wavelet_hat's band is pi, and
    wavelet_hat_abs2's is 0, as its factor shifts the row by pi itself (the
    + 0 turns -0 into +0, which that factor squares away). factor is
    elementwise, so every value rounds as in a call of its own.

    One entry, passed as a Python float x, runs on one row: the level scales
    times x, then the band argument, with the factors reduced along the row in
    order, as numpy reduces any one entry's factors. A complex product and
    band factor stay one-element arrays, since the complex arithmetic after
    them must run in numpy's array loops (module docstring); real ones are
    scalars, whose arithmetic rounds the same as on an array. An array (every
    size but one, see _guarded_entries) takes one int depth when its peak
    needs only MIN_DEPTH; otherwise each entry gets its own depth and factors
    past it are exactly 1. Real factors are reduced across entries, level by
    level; complex ones along each entry's own row, since numpy rounds a
    complex product reduced across entries differently.
    """
    depth = max(MIN_DEPTH, math.ceil(math.log2(max(peak, theta) / theta)))
    if isinstance(x, float):
        args = _LEVEL_SCALES[: depth if band is None else depth + 1] * x
        if band is not None:
            args[depth] = x + band
        values = factor(args)
        if values.dtype.kind == "c":
            return np.multiply.reduce(values[:depth], keepdims=True), depth, values[depth:]
        return np.multiply.reduce(values[:depth]), depth, None if band is None else values[depth]
    if depth > MIN_DEPTH:
        ratio = np.maximum(np.abs(x), theta) / theta
        depth = np.maximum(MIN_DEPTH, np.ceil(np.log2(ratio))).astype(int)
    top = depth if isinstance(depth, int) else int(depth.max())
    args = np.empty((top if band is None else top + 1, x.size))
    np.multiply.outer(_LEVEL_SCALES[:top], x, out=args[:top])
    if band is not None:
        np.add(x, band, out=args[top])
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
    spec: FilterSpec, w: float | np.ndarray, peak: float, band: float | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """phi_hat at w (one float or a 1-d array, largest |w| peak), and H(w + band) from its eval_H call.

    Each entry of w is at its own depth. An omitted argument within theta
    keeps K w^2 4^-L / 3 <= PRODUCT_TOL / 2, and the omitted factors are
    replaced by their phase e^(i mu w 2^-L). At one entry the phase's
    argument is formed on Python scalars and only np.exp runs on an array
    (module docstring).
    """
    mu, k = _phase_rule(spec.m)
    theta = math.sqrt(1.5 * PRODUCT_TOL / k)
    product, depth, band_h = _truncated_product(partial(eval_H, spec), w, theta, peak, band)
    if isinstance(w, float):
        tail = np.array([1j * mu * math.ldexp(w, -depth)])
    else:
        tail = 1j * mu * np.ldexp(w, -depth)
    return _INV_SQRT_2PI * product * np.exp(tail), band_h


def scaling_hat(m: int, omega: float | np.ndarray) -> complex | np.ndarray:
    """phi_hat(w) = (2 pi)^(-1/2) prod_l H(w 2^(-l)), truncated with its tail phase.

    Each entry of an array uses the product depth its own |w| requires.
    """
    w, shape = flatten_frequencies(omega)
    x, peak = _guarded_entries(w)
    phi, _ = _phi_product(construct_filter(m), x, peak, None)
    return restore_shape(phi, shape)


def wavelet_hat(m: int, omega: float | np.ndarray) -> complex | np.ndarray:
    """psi_hat(w) = e^(-i w/2) conj(H(w/2 + pi)) phi_hat(w/2)."""
    w, shape = flatten_frequencies(omega)
    x, peak = _guarded_entries(w)
    half = 0.5 * x
    phi, band = _phi_product(construct_filter(m), half, 0.5 * peak, math.pi)
    turn = np.array([-1j * half]) if isinstance(half, float) else -1j * half
    return restore_shape(np.exp(turn) * np.conj(band) * phi, shape)


def _haar_abs2(w: np.ndarray) -> np.ndarray:
    """|psi_hat(w)|^2 of order 1: sin^2(w/4) (sin(w/4) / (w/4))^2 / (2 pi), 0 at w = 0.

    Viete's product of |H(x)|^2 = cos^2(x/2) in closed form, from one sine
    per entry.
    """
    quarter = 0.25 * w
    s = np.sin(quarter)
    ratio = np.divide(s, quarter, out=np.ones_like(s), where=quarter != 0.0)
    ratio *= s
    ratio *= ratio
    return ratio / (2.0 * math.pi)


def wavelet_hat_abs2(m: int, omega: float | np.ndarray) -> float | np.ndarray:
    """|psi_hat(w)|^2 computed entirely from the magnitude form of |H|^2.

    Order 1 takes the closed form of _haar_abs2, one sine per point and no
    product, within 7.0e-16 relative of mpmath (module docstring). For every
    other order, its factors (|H|^2 from P, not H from the taps) and its
    truncation rule (the modulus bound) are independent of the tap-based
    wavelet_hat, so agreement between |wavelet_hat|^2 and this value
    cross-checks the spectral factorization end to end; at order 1 the
    cross-check is the tap product against the closed form. The two routes
    share the product loop, _truncated_product, and the band factor
    |H(w/2 + pi)|^2, taken from sin(w/4), rides in the product's one
    magnitude_squared_rows call. Apart from that cross-check, the loop is
    checked by the 72-factor reference products in
    tests/test_spectral_eval.py and the exact-route norms (Plancherel's 1
    among them) that the quadrature norms must match.
    Each entry of an array is bit-identical to a call on that entry alone.
    """
    check_order(m)
    w, shape = flatten_frequencies(omega)
    x, peak = _guarded_entries(w)
    if m == 1:
        return restore_shape(_haar_abs2(w), shape)
    half = 0.5 * x
    product, _, band = _truncated_product(
        partial(magnitude_squared_rows, m, band=w.size),
        half,
        _modulus_theta(m),
        0.5 * peak,
        0.0,
    )
    return restore_shape(band * product / (2.0 * math.pi), shape)


def estimate_decay(m: int, omega_lo: float, omega_hi: float, samples: int) -> DecayFit:
    """Fit the high-frequency envelope |psi_hat(w)| <= C_tilde * w^(-c log m).

    |psi_hat| oscillates through near-zeros, so the least-squares line goes
    through block maxima (8 log-spaced blocks) rather than raw samples. The
    blocks are np.array_split's eight of the samples: consecutive, the first
    samples % 8 of them one sample longer, each sliced at its edges. The
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

    size, extra = divmod(samples, 8)
    edges = [block * size + min(block, extra) for block in range(9)]
    block_x: list[float] = []
    block_y: list[float] = []
    for lo, hi in zip(edges, edges[1:]):
        idx = lo + int(vals[lo:hi].argmax())
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
