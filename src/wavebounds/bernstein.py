"""Coefficient-decay verification harness.

Verifies, case by case, that wavelet coefficients of admissible test functions
obey the a-priori bound

    |<f, psi_(j,nu)>| <= C_(k,p') * 2^(-j(k + 1/p - 1/2)) * ||psi_hat||_p'
                         * ||(i w)^k f_hat||_p,    p' = p / (p - 1),

for f in the class A_k^p of the paper's abstract, and drives the sandwich
sweeps for the closed-form constants. Every test function lies on the unit
ball of A_k^p, ||(i w)^k f_hat||_p = 1, and bernstein_rhs is the bound for
any f on that ball: the product without its last factor. A coefficient has
two routes. `wavelet_coefficient` integrates f_hat against psi_hat on the
Fourier side (Parseval route), through the tap route of spectral_eval.
`pyramid_coefficient`, which the sweep uses, runs Mallat's pyramid from
fine-level scaling coefficients built out of the exact central moments of
phi, from one integer recursion (shifts (2m-1-2l)/2, denominators
N^q D_q 2^q), and each row's Taylor sums from one table of Hermite values;
it needs no quadrature. The test family is Gaussian, known in closed form
on both sides. Every sweep records one row per case and never aborts on a
failing case; failures are data.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache, update_wrapper
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .bound_formulas import (
    BoundParams,
    bound_A,
    bound_B,
    bound_D,
    bound_E,
    bound_F,
    bound_G,
    mp_is_even,
    ratio_bounds,
    require_k_below_m,
)
from .daub_filters import construct_filter
from .norms import EXACT_P, NormRequest, best_constant_Ckp, default_decay, weighted_lp_norm
from .quadrature import QuadResult, adaptive_quadrature
from .reporting import VerificationRow
from .special_math import MAX_ORDER, MAX_SINC_POWER, check_norm_domain, dyadic_integers, gamma_n
from .spectral_eval import wavelet_hat

J_RANGE = (-6, 10)
NU_LIMIT = 64

# sigma*W at which the Gaussian transform modulus falls below ~1e-19 of peak.
_GAUSS_CUT = 9.4
# Absolute tolerance of the Fourier route's quadrature; a pyramid coefficient
# whose Taylor bound lies within it counts as converged.
_COEFFICIENT_ABS_TOL = 1e-12


@dataclass(frozen=True)
class GaussianTestFunction:
    """Gaussian test function, known in closed form on the transform side.

    transform(w) = amplitude * sigma * exp(-(sigma w)^2 / 2) * exp(-i w center).
    The `normalized` constructor scales the amplitude so the weighted transform
    norm ||(i w)^k f_hat||_q equals 1, placing f exactly on the unit ball of
    the admissible class.
    """

    sigma: float
    center: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (math.isfinite(self.center) and math.isfinite(self.amplitude)):
            raise ValueError(
                f"center and amplitude must be finite, got {self.center} and {self.amplitude}"
            )

    def transform(self, omega: np.ndarray) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        return (
            self.amplitude
            * self.sigma
            * np.exp(-0.5 * (self.sigma * w) ** 2)
            * np.exp(-1j * w * self.center)
        )

    @classmethod
    def normalized(cls, sigma: float, center: float, k: int, q: float) -> "GaussianTestFunction":
        try:
            amplitude = 1.0 / (sigma * _moment_root(sigma, k, q))
        except (OverflowError, ZeroDivisionError):
            amplitude = math.inf
        # A sigma that is not positive and finite is named by __post_init__.
        if 0 < sigma < math.inf and not 0.0 < amplitude < math.inf:
            raise ValueError(
                f"sigma={sigma} puts ||(i w)^{k} f_hat||_{q:g} outside the floating-point range"
            )
        return cls(sigma=sigma, center=center, amplitude=amplitude)


def _moment_root(sigma: float, k: int, q: float) -> float:
    """(integral |w|^(kq) e^(-q (sigma w)^2 / 2) dw)^(1/q), by the Gaussian moment integral."""
    a = k * q + 1.0
    return (math.gamma(0.5 * a) * (0.5 * q * sigma**2) ** (-0.5 * a)) ** (1.0 / q)


def _check_scale_and_shift(j: int, nu: int) -> None:
    if not (J_RANGE[0] <= j <= J_RANGE[1]):
        raise ValueError(f"scale j must lie in [{J_RANGE[0]}, {J_RANGE[1]}], got {j}")
    if abs(nu) > NU_LIMIT:
        raise ValueError(f"shift |nu| must not exceed {NU_LIMIT}, got {nu}")


def wavelet_coefficient(f: GaussianTestFunction, m: int, j: int, nu: int) -> QuadResult:
    """<f, psi_(j,nu)> computed as integral f_hat(w) conj(psi_hat_(j,nu)(w)) dw.

    The Fourier route, which tests compare with pyramid_coefficient. The
    abs_error covers the quadrature estimate and the discarded Gaussian tails.
    """
    _check_scale_and_shift(j, nu)
    scale = 2.0**-j
    width = _GAUSS_CUT / f.sigma

    def integrand(w: np.ndarray) -> np.ndarray:
        psi = wavelet_hat(m, scale * w)
        phase = np.exp(1j * w * scale * nu)
        return f.transform(w) * (2.0 ** (-0.5 * j)) * phase * np.conj(psi)

    # Seed panel edges at 0 and at the dyadic band edges of the dilated wavelet.
    points = {0.0}
    edge = math.pi * 2.0**j
    while edge < width:
        points.update((edge, -edge))
        edge *= 2.0
    quad = adaptive_quadrature(
        integrand,
        -width,
        width,
        rel_tol=1e-9,
        abs_tol=_COEFFICIENT_ABS_TOL,
        max_panels=30_000,
        breakpoints=sorted(points),
    )
    # |psi_hat| <= (2 pi)^(-1/2) bounds the discarded Gaussian tails.
    tail = 2.0 ** (-0.5 * j) * f.amplitude * math.erfc(f.sigma * width / math.sqrt(2.0))
    return replace(quad, abs_error=quad.abs_error + tail)


# Taylor order of the fine-level scaling coefficients, and the remainder bound,
# relative to the amplitude, at which the pyramid's finest level is chosen.
_TAYLOR_ORDER = 16
_REMAINDER_TARGET = 1e-17
# Cramer's inequality: |He_n(u)| e^(-u^2/4) <= _CRAMER sqrt(n!) for real u.
_CRAMER = 1.0865
# Samples with |u| >= _U_CUT, where e^(-u^2/2) nears the subnormal range, are
# dropped; the fine level has at most _MAX_SAMPLES samples.
_U_CUT = 37.0
_MAX_SAMPLES = 2**20


def _moment_integers(m: int) -> tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...]]:
    """(n, 2^e, P, D): the taps n_l / 2^e, the central moments P_q / (N^q D_q 2^q), in integers.

    Mc_q = integral (y - t_c)^q phi(y) dy, exact on the float taps, about the
    centre t_c = -(2m-1)/2 of supp phi. H(w) = 2^(-1/2) sum_l h(l) e^(ilw)
    makes phi(x) = 2 sum_l a_l phi(2x + l), a_l = h(l) / sum h (summing to
    1, so Mc_0 = 1 exactly), and phi_c = phi(. + t_c) = 2 sum_l a_l
    phi_c(2 . - s_l), s_l = (2m-1-2l)/2. Integrating y^q against both sides
    gives (2^q - 1) Mc_q = sum_(r<q) C(q, r) Mc_r sum_l a_l s_l^(q-r)
    (Sweldens & Piessens, SIAM J. Numer. Anal. 31, 1994). The float taps are
    n_l / 2^e for integers n_l and one e, so a_l = n_l / N with N = sum n_l,
    and sum_l a_l s_l^n = G_n / (N 2^n), G_n = sum_l n_l (2m-1-2l)^n. With
    D_q = prod_(i<=q) (2^i - 1), P_0 = 1 and P_q = sum_(r<q) C(q, r) P_r
    G_(q-r) N^(q-r-1) D_(q-1) / D_r, D_(q-1) / D_r an integer.
    """
    taps, shift = dyadic_integers(construct_filter(m).taps)
    scale = 1 << shift
    total = sum(taps)
    g = [
        sum(t * (2 * m - 1 - 2 * ell) ** n for ell, t in enumerate(taps))
        for n in range(_TAYLOR_ORDER + 1)
    ]
    d = [1]
    for i in range(1, _TAYLOR_ORDER + 1):
        d.append(d[-1] * (2**i - 1))
    p = [1]
    for q in range(1, _TAYLOR_ORDER + 1):
        p.append(
            sum(
                math.comb(q, r) * p[r] * g[q - r] * total ** (q - r - 1) * (d[q - 1] // d[r])
                for r in range(q)
            )
        )
    return tuple(taps), scale, tuple(p), tuple(d)


class _OrderTable(NamedTuple):
    central: np.ndarray  # integral (t - t_c)^q phi(t) dt / q!, q <= _TAYLOR_ORDER
    taps: np.ndarray  # h(l) = n_l / 2^e, the float taps
    taps_l1: float  # sum |h|
    per_sample: float  # 1.0865 sqrt(2m-1) / sqrt((Q+1)!), _fine_levels' factor
    drift: float  # delta, where the taps sum to sqrt 2 (1 + delta)


@lru_cache(maxsize=None)
def _order_table(m: int) -> _OrderTable:
    """What every order-m pyramid row shares, each number from _moment_integers' integers.

    The q-th central moment over q! is P_q over N^q D_q 2^q q!, both
    integers, rounded once by their true division. So are sum |h| =
    sum |n_l| / 2^e, sum h = N / 2^e and (sum h)^2 - 2 = (N^2 - 2 4^e) / 4^e:
    the floats math.fsum and Fraction sums of the taps give.
    """
    taps, scale, p, d = _moment_integers(m)
    total = sum(taps)
    root2 = math.sqrt(2.0)
    central = [
        p[q] / (total**q * d[q] * 2**q * math.factorial(q)) for q in range(_TAYLOR_ORDER + 1)
    ]
    return _OrderTable(
        central=_frozen(np.array(central)),
        taps=_frozen(np.array([t / scale for t in taps])),
        taps_l1=sum(abs(t) for t in taps) / scale,
        per_sample=_CRAMER * math.sqrt(2 * m - 1) / math.sqrt(math.factorial(_TAYLOR_ORDER + 1)),
        drift=abs(total**2 - 2 * scale**2) / scale**2 / (total / scale + root2) / root2,
    )


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _SampleBoundedCache:
    """A function's results by argument, least recently used evicted while the
    results' second arrays hold more than _MAX_SAMPLES samples together: about
    16 MiB for _cascade's two arrays. No thread holds the lock while a result
    is built.
    """

    def __init__(self, build: Callable[..., tuple]) -> None:
        update_wrapper(self, build)
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, *key) -> tuple:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
        entry = self.__wrapped__(*key)
        with self._lock:
            self._entries[key] = entry
            while sum(cached[1].size for cached in self._entries.values()) > _MAX_SAMPLES:
                self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()


@_SampleBoundedCache
def _cascade(m: int, levels: int) -> tuple[float, np.ndarray, np.ndarray, float, float]:
    """(origin, g, g_abs, g_l1, rel_error) of the levels-level cascade.

    d_(j,nu) = sum_n g[n] s_(j+levels, start + 2^levels nu + n), and the
    centre of the support of that phi lies at (origin + 2^levels nu + n)
    2^-(j+levels), origin = start - (2m-1)/2, exactly in floats.
    From d_(j,n) = sum_l (-1)^l h_l s_(j+1, 2n+l+1) and
    s_(j,n) = sum_l h_l s_(j+1, 2n-l): each level upsamples the coefficient
    vector and convolves it with the reversed taps. g_abs is the same cascade
    on |h|, which bounds |g|, and g_l1 its sum. |g - exact| <= rel_error g_abs:
    each level's convolution rounds (gamma_2m), and the float taps sum to
    sqrt 2 (1 + delta) where _moment_integers' normalized taps sum to sqrt 2
    exactly, which scales g by (1 + delta)^levels.
    """
    table = _order_table(m)
    g = table.taps * (-1.0) ** np.arange(2 * m)
    g_abs = np.abs(table.taps)
    start = 1
    for _ in range(levels - 1):
        g = np.convolve(_upsampled(g), table.taps[::-1])
        g_abs = np.convolve(_upsampled(g_abs), np.abs(table.taps[::-1]))
        start = 2 * start - (2 * m - 1)
    drift = math.expm1(levels * math.log1p(table.drift))
    rel_error = gamma_n(2 * m * levels) + drift
    return start - 0.5 * (2 * m - 1), _frozen(g), _frozen(g_abs), float(g_abs.sum()), rel_error


def _upsampled(c: np.ndarray) -> np.ndarray:
    """c with a zero between neighbours."""
    out = np.zeros(2 * c.size - 1)
    out[::2] = c
    return out


def _fine_levels(f: GaussianTestFunction, m: int, j: int) -> tuple[int, float]:
    """(L, remainder bound): the fewest levels L >= 1 whose Taylor bound meets the target.

    With Q = _TAYLOR_ORDER, Taylor's theorem, Cramer's inequality and
    integral |t - t_c|^(Q+1) |phi| <= ((2m-1)/2)^(Q+1) sqrt(2m-1) (Cauchy-
    Schwarz with ||phi||_2 = 1) bound each fine-level sample's error by
    2^(-J/2) |A| 1.0865 ((2m-1) / (2 sigma 2^J))^(Q+1) sqrt(2m-1) / sqrt((Q+1)!),
    J = j + L, and ||g||_1 <= (sum |h|)^L carries it to the coefficient. L
    stops growing at _MAX_SAMPLES samples, and the bound is reported as it is:
    math.inf where it lies past the float range.
    """
    order = _TAYLOR_ORDER + 1
    amplitude = abs(f.amplitude)
    taps_l1 = _order_table(m).taps_l1
    per_sample = _order_table(m).per_sample
    levels = 1
    while True:
        fine = j + levels
        ratio = (2 * m - 1) / (2.0 * f.sigma * 2.0**fine)
        try:
            bound = taps_l1**levels * 2.0 ** (-0.5 * fine) * amplitude * per_sample * ratio**order
        except OverflowError:
            bound = math.inf
        if bound <= _REMAINDER_TARGET * amplitude or 2 * m * 2 ** (levels + 1) > _MAX_SAMPLES:
            return levels, bound
        levels += 1


# The Taylor sum's powers q, the Cramer factors sqrt(q!), per q the multipliers
# q [[1], [-1]] of He_(q-1) in both rows' Hermite recurrence, and the Cramer
# factor _CRAMER e^(-_U_CUT^2 / 4) of a dropped sample.
_POWERS = _frozen(np.arange(_TAYLOR_ORDER + 1))
_ROOT_FACTORIALS = _frozen(np.sqrt([math.factorial(q) for q in range(_TAYLOR_ORDER + 1)]))
_HERMITE_STEPS = tuple(_frozen(_POWERS[:, None, None] * np.array([[1.0], [-1.0]])))
_DROPPED_FACTOR = _CRAMER * math.exp(-0.25 * _U_CUT**2)


def pyramid_coefficient(f: GaussianTestFunction, m: int, j: int, nu: int) -> QuadResult:
    """<f, psi_(j,nu)> by Mallat's pyramid from moment-built fine-level samples.

    psi_(j,nu)(x) = 2^(j/2) psi(2^j x - nu), as in wavelet_coefficient. At the
    fine level J = j + L (_fine_levels), s_(J,n) = <f, phi_(J,n)> is the Taylor
    sum 2^(-J/2) sum_(q<=Q) f^(q)(x_n) 2^(-Jq) Mc_q / q! about the centre
    x_n = (n + t_c) 2^-J of phi_(J,n)'s support, with the central moments Mc_q
    of phi and f^(q) = A (-1)^q sigma^-q He_q(u) e^(-u^2/2), u = (x - center)
    / sigma. One (Q+1, 2, n) table holds He_0..He_Q of both rows, the signed
    sum and its all-positive bound, by the Hermite recurrence, written in
    place through one (2, n) scratch buffer; scaled by the coefficient
    column, it is summed over its leading axis, which adds the terms in q
    order. The coefficient is the dot product of the cascaded
    filter (_cascade) with those samples: no quadrature.

    The abs_error is a bound: the Taylor remainder (_fine_levels), plus the
    rounding of the samples and of the cascade, each a relative error times
    the sum of |g| |s| with every sign made positive (g_abs, and He_q(u)
    replaced by its all-positive twin He+_q(|u|)), plus that of the exactly
    summed (math.fsum) dot product; plus the dropped samples past _U_CUT and
    any underflow. The rounding part is doubled to cover second-order terms
    and the rounding of the bound itself. evaluations counts the samples.
    converged is False when the sample cap stopped the fine level while the
    Taylor bound still exceeds both its target and the Fourier route's
    absolute tolerance: a Gaussian narrow against 2^-j (at m=2 and j=-6,
    sigma below about 5e-4). The abs_error is then large, but still a bound;
    an infinite one returns before any sample is built.
    """
    _check_scale_and_shift(j, nu)
    levels, remainder = _fine_levels(f, m, j)
    if math.isinf(remainder):
        return QuadResult(value=0.0, abs_error=math.inf, evaluations=0, converged=False)
    origin, g, g_abs, g_l1, cascade_error = _cascade(m, levels)
    fine = j + levels
    u = ((np.arange(g.size) + (origin + nu * 2.0**levels)) * 2.0**-fine - f.center) / f.sigma
    kept = np.abs(u) < _U_CUT
    count = int(np.count_nonzero(kept))
    if count < u.size:
        u, g, g_abs = u[kept], g[kept], g_abs[kept]
    # c_q = (-1)^q Mc_q / (q! (sigma 2^J)^q). Row 0 sums c_q He_q(u); row 1 sums
    # |c_q| He+_q(|u|), where He+_(q+1) = |u| He+_q + q He+_(q-1) bounds |He_q|.
    # scale[0] holds c_q and scale[1] |c_q|, each contiguous for the dot below.
    scale = np.empty((2, _TAYLOR_ORDER + 1))
    coeffs, abs_coeffs = scale
    np.multiply(_order_table(m).central, (-1.0 / (f.sigma * 2.0**fine)) ** _POWERS, out=coeffs)
    np.abs(coeffs, out=abs_coeffs)
    table = np.empty((_TAYLOR_ORDER + 1, 2, count))
    table[0] = 1.0
    table[1, 0] = u
    np.abs(u, out=table[1, 1])
    he, scratch = list(table), np.empty((2, count))
    for q in range(1, _TAYLOR_ORDER):
        np.multiply(he[1], he[q], out=he[q + 1])
        np.multiply(_HERMITE_STEPS[q], he[q - 1], out=scratch)
        np.subtract(he[q + 1], scratch, out=he[q + 1])
    table *= scale.T[:, :, None]
    poly = np.add.reduce(table, axis=0)
    weight = 2.0 ** (-0.5 * fine) * np.exp(-0.5 * u * u)
    samples = f.amplitude * weight * poly[0]
    products = g * samples
    value = math.fsum(products.tolist())

    # Each rounding term is a relative error times its all-positive sum. A
    # sample rounds in the moments, u and e^(-u^2/2) (16 units), in each of
    # the Q recurrence steps, its shift by the error in u, and the Taylor sum
    # (8 units a step), and in the exponent, whose error grows like u^2.
    # math.fsum adds the rounded products exactly and rounds once.
    sample_error = gamma_n(8 * _TAYLOR_ORDER + 16 + 3 * u * u) * abs(f.amplitude) * weight * poly[1]
    rounding = gamma_n(2) * np.abs(products).sum()
    rounding += cascade_error * np.dot(g_abs, np.abs(samples)) + np.dot(g_abs, sample_error)
    # Past _U_CUT, |f^(q)| <= A sigma^-q 1.0865 sqrt(q!) e^(-u^2/4) by Cramer's inequality.
    dropped = _DROPPED_FACTOR * float(np.dot(abs_coeffs, _ROOT_FACTORIALS))
    floor = g_l1 * (abs(f.amplitude) * 2.0 ** (-0.5 * fine) * dropped + 4 * 2.0**-1074)
    return QuadResult(
        value=value,
        abs_error=remainder + 2.0 * float(rounding) + floor,
        evaluations=count,
        converged=remainder <= max(_REMAINDER_TARGET * abs(f.amplitude), _COEFFICIENT_ABS_TOL),
    )


def _conjugate_exponent(p: float) -> float:
    """p' = p/(p-1), taken as an EXACT_P index when it is within 2 ulp of one.

    The rounded quotient can miss the index it stands for (4/3 gives
    4.000000000000001), which would send the norm to the quadrature route.
    """
    q = p / (p - 1.0)
    return next((e for e in EXACT_P if abs(q - e) <= 2.0 * math.ulp(e)), q)


def bernstein_rhs(m: int, k: int, p: float, j: int) -> QuadResult:
    """Right-hand side ||w^-k psi_hat||_p' 2^(-j(k+1/p-1/2)), p' = p/(p-1), for f on the unit ball.

    The bound on |<f, psi_(j,nu)>| for every f in A_k^p with
    ||(i w)^k f_hat||_p <= 1; for any other f it scales by that norm.
    Hoelder's pairing: f is measured in L^p, the class index of A_k^p, and
    the wavelet in L^p'. ||w^-k psi_hat||_p' is C_(k,p') ||psi_hat||_p', and
    w = 2^j u gives ||w^-k psi_hat_(j,nu)||_p' = 2^(-j(k + 1/p - 1/2))
    ||w^-k psi_hat||_p', whose exponent k + 1/2 - 1/p' is k + 1/p - 1/2.
    The abs_error is the norm's relative error carried to the product.
    """
    require_k_below_m(m, k)
    check_norm_domain(m, k, p)
    num = weighted_lp_norm(NormRequest(m, k, _conjugate_exponent(p)))
    value = num.value * 2.0 ** (-j * (k + 1.0 / p - 0.5))
    rel = num.abs_error / num.value
    return replace(num, value=value, abs_error=value * rel)


# Multiplier on the asymptotic lower constants (G, and the Cor3 lower ratio).
ASYMPTOTIC_SLACK = 0.5


def _grid(ms, ks, ps, hypothesis: str, holds: Callable[[int, int, float], bool]) -> list[dict]:
    """The cases {m, k, p} with holds(m, k, p), in the order of the deduplicated, sorted axes.

    A ValueError names a value outside check_norm_domain, or the hypothesis
    when no case satisfies it. The grids' default ks hold every k of the
    library's orders, and each hypothesis keeps its own.
    """
    cases = []
    for m, k, p in itertools.product(*(sorted(set(axis)) for axis in (ms, ks, ps))):
        check_norm_domain(m, k, p)
        if holds(m, k, p):
            cases.append({"m": m, "k": k, "p": p})
    if not cases:
        raise ValueError(f"no case of these m, k and p satisfies {hypothesis}")
    return cases


def theorem1_grid(ms=range(2, 7), ks=range(MAX_ORDER + 1), ps=(1.5, 2.0, 3.0)) -> list[dict]:
    """The cases of Theorem 1 and Corollary 2: 1 <= k < m and p k > 1."""
    return _grid(ms, ks, ps, "1 <= k < m and p k > 1", lambda m, k, p: 1 <= k < m and p * k > 1.0)


def theorem2_grid(ms=range(1, 6), ks=range(MAX_ORDER + 1), ps=(2.0, 4.0)) -> list[dict]:
    """Theorem 2's and Corollary 3's cases: k = m and m p even; ValueError past MAX_SINC_POWER."""
    cases = _grid(
        ms, ks, ps, "k = m and m p an even integer", lambda m, k, p: k == m and mp_is_even(m, p)
    )
    for m, p in ((case["m"], case["p"]) for case in cases):
        if round(m * p) > MAX_SINC_POWER:  # past the exact sinc sum behind F
            raise ValueError(
                f"m p = {m * p:g} at m={m}, p={p:g} exceeds MAX_SINC_POWER = {MAX_SINC_POWER}"
            )
    return cases


def corollary1_grid(ms=range(1, 7), ks=range(MAX_ORDER + 1), ps=(1.5, 2.0, 3.0)) -> list[dict]:
    """The cases of Corollary 1: k = 0."""
    return _grid(ms, ks, ps, "k = 0", lambda m, k, p: k == 0)


def bernstein_grid(m=2, k=1, p=2.0, sigma=1.0, j_range=(-3, 6), nu_range=(-8, 8)) -> list[dict]:
    """The cases at one (m, k, p, sigma): each j, then each nu, of the inclusive ranges.

    A ValueError names what no row could use: a value outside
    check_norm_domain, k >= m, a sigma that puts the weighted norm past the
    double range, or a range that is empty or passes its limit.
    """
    check_norm_domain(m, k, p)
    require_k_below_m(m, k)
    GaussianTestFunction.normalized(sigma, 0.0, k, p)
    for name, (lo, hi), (first, last) in (
        ("j_range", j_range, J_RANGE),
        ("nu_range", nu_range, (-NU_LIMIT, NU_LIMIT)),
    ):
        if lo > hi:
            raise ValueError(f"{name} {lo}:{hi} is empty: its start exceeds its end")
        if lo < first or hi > last:
            raise ValueError(f"{name} {lo}:{hi} reaches outside its limit {first}:{last}")
    return [
        {"m": m, "k": k, "p": p, "sigma": sigma, "j": j, "nu": nu}
        for j in range(j_range[0], j_range[1] + 1)
        for nu in range(nu_range[0], nu_range[1] + 1)
    ]


def _row(check, m, k, p, value, lower, upper, abs_error, flags=(), **fields) -> VerificationRow:
    """One sweep row, with the status, margin and side flags every check shares.

    Every checked value (a norm, a ratio of norms, |<f, psi_(j,nu)>|) is >= 0,
    so a lower bound <= 0 or an infinite upper bound cannot fail. Nor can a
    side say anything when abs_error is at least the bound's magnitude: the
    error bar swamps the bound. Such a side is flagged 'lower'/'upper' and
    left unchecked. Each other side (a bound that is not None) passes when
    `value` lies within abs_error of it: the one number the row prints is
    both the vacuous rule and the check. The status is 'vacuous' when no
    side is checked. The margin is the smallest gap to a finite side. The
    row's flags are the side flags, then the non-side `flags`.
    """
    sides, checks, gaps = [], [], []
    if lower is not None:
        if lower <= abs_error:  # lower <= 0, or swamped by the error bar
            sides.append("lower")
        else:
            checks.append(value >= lower - abs_error)
        if math.isfinite(lower):
            gaps.append(value - lower)
    if upper is not None:
        if upper == math.inf or abs(upper) <= abs_error:
            sides.append("upper")
        else:
            checks.append(value <= upper + abs_error)
        if math.isfinite(upper):
            gaps.append(upper - value)
    if not checks:
        status = "vacuous"
    else:
        status = "pass" if all(checks) else "fail"
    return VerificationRow(
        check=check,
        status=status,
        m=m,
        k=k,
        p=p,
        value=value,
        lower_bound=lower,
        upper_bound=upper,
        abs_error=abs_error,
        margin=min(gaps, default=None),
        vacuous_flags=(*sides, *flags),
        **fields,
    )


def bound_params(m: int, k: int, p: float, eps: float = math.pi) -> BoundParams:
    """The closed-form parameters with the fitted c that every sweep and the CLI use.

    For m >= 2, c and C_tilde come from default_decay(m). At m = 1 the
    c-dependent term is vacuous (log m = 0) whatever c is, so c = 1 and
    C_tilde is None. The sweeps take the default eps = pi; `bounds --eps`
    passes its own.
    """
    if m < 2:
        return BoundParams(m=m, k=k, p=p, c=1.0, eps=eps)
    fit = default_decay(m)
    return BoundParams(m=m, k=k, p=p, c=fit.c, eps=eps, c_tilde=fit.C_tilde)


# The checks whose constants (A, B, D, E) read c log m: their m = 1 rows carry 'log_m_zero'.
_LOG_M_CHECKS = frozenset({"theorem1", "corollary1", "corollary2", "corollary3"})


def _bracket_row(check, params, lower, upper, result, **fields) -> VerificationRow:
    """Row bracketing `result`, a value at `params` with its abs_error; records the fitted decay."""
    if params.c_tilde is not None:  # m = 1 has no fit
        fields.update(decay_c=params.c, decay_c_tilde=params.c_tilde)
    flags = ("log_m_zero",) if params.m == 1 and check in _LOG_M_CHECKS else ()
    return _row(
        check, params.m, params.k, params.p, result.value, lower, upper, result.abs_error,
        flags, **fields,
    )


def _norm(params: BoundParams) -> QuadResult:
    return weighted_lp_norm(NormRequest(params.m, params.k, params.p))


def _run_theorem1(case: Mapping) -> VerificationRow:
    params = bound_params(case["m"], case["k"], case["p"])
    lower, upper = bound_B(params), bound_A(params)
    return _bracket_row("theorem1", params, lower, upper, _norm(params))


def _run_theorem2(case: Mapping) -> VerificationRow:
    params = bound_params(case["m"], case["m"], case["p"])
    lower, upper = ASYMPTOTIC_SLACK * bound_G(params), bound_F(params)
    note = "lower bound carries the asymptotic slack factor"
    return _bracket_row(
        "theorem2", params, lower, upper, _norm(params), slack=ASYMPTOTIC_SLACK, note=note
    )


def _run_corollary1(case: Mapping) -> VerificationRow:
    params = bound_params(case["m"], 0, case["p"])
    lower, upper = bound_E(params), bound_D(params)
    return _bracket_row("corollary1", params, lower, upper, _norm(params))


def _run_corollary2(case: Mapping) -> VerificationRow:
    params = bound_params(case["m"], case["k"], case["p"])
    interval = ratio_bounds(params)
    ratio = best_constant_Ckp(params.m, params.k, params.p)
    return _bracket_row("corollary2", params, interval.lo, interval.hi, ratio)


def _run_corollary3(case: Mapping) -> VerificationRow:
    params = bound_params(case["m"], case["m"], case["p"])
    interval = ratio_bounds(params)
    lower = ASYMPTOTIC_SLACK * interval.lo
    ratio = best_constant_Ckp(params.m, params.k, params.p)
    return _bracket_row("corollary3", params, lower, interval.hi, ratio, slack=ASYMPTOTIC_SLACK)


def _run_bernstein(case: Mapping) -> VerificationRow:
    m, k, p = case["m"], case["k"], case["p"]
    j, nu = case["j"], case["nu"]
    f = GaussianTestFunction.normalized(case["sigma"], case.get("center", 0.0), k, p)
    coef = pyramid_coefficient(f, m, j, nu)
    if not coef.converged:  # too narrow for the pyramid's cap; quadrature still resolves it
        coef = wavelet_coefficient(f, m, j, nu)
    rhs = bernstein_rhs(m, k, p, j)
    abs_error = coef.abs_error + rhs.abs_error
    return _row("bernstein", m, k, p, abs(coef.value), None, rhs.value, abs_error, j=j, nu=nu)


# Each check's row runner and its grid function, whose defaults give the default grid.
CHECKS = {
    "theorem1": (_run_theorem1, theorem1_grid),
    "theorem2": (_run_theorem2, theorem2_grid),
    "corollary1": (_run_corollary1, corollary1_grid),
    "corollary2": (_run_corollary2, theorem1_grid),
    "corollary3": (_run_corollary3, theorem2_grid),
    "bernstein": (_run_bernstein, bernstein_grid),
}


def verify_sweep(check: str, cases: Sequence[Mapping] | None = None) -> list[VerificationRow]:
    """Run one named check over a parameter grid, one row per case.

    Every check runs at eps = pi and checks each side within the row's
    abs_error, and nothing else (_row). Case errors become rows with status
    'error' rather than aborting the sweep, and the output order always
    follows the grid order.
    """
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; expected one of {sorted(CHECKS)}")
    runner, default_grid = CHECKS[check]
    if cases is None:
        cases = default_grid()
    rows: list[VerificationRow] = []
    for case in cases:
        try:
            rows.append(runner(case))
        except Exception as exc:  # recorded, never raised: a failing case is data
            keys = {key: case.get(key) for key in ("m", "k", "p", "j", "nu")}
            note = f"{type(exc).__name__}: {exc}"
            rows.append(VerificationRow(check=check, status="error", note=note, **keys))
    return rows
