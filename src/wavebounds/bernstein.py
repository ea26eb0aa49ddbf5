"""Coefficient-decay verification harness.

Verifies, case by case, that wavelet coefficients of admissible test functions
obey the a-priori bound

    |<f, psi_(j,nu)>| <= C_(k,p) * 2^(-j(k + 1/p - 1/2)) * ||psi_hat||_p
                         * ||(i w)^k f_hat||_p'

and drives the sandwich sweeps for the closed-form constants. A coefficient
has two routes. `wavelet_coefficient` integrates f_hat against psi_hat on the
Fourier side (Parseval route), through the tap route of spectral_eval.
`pyramid_coefficient`, which the sweep uses, runs Mallat's pyramid from
fine-level scaling coefficients built out of the exact moments of phi; it
needs no quadrature. The test family is Gaussian, known in closed form on
both sides. Every sweep records one row per case and never aborts on a
failing case; failures are data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .bound_formulas import (
    BoundParams,
    bound_A,
    bound_B,
    bound_D,
    bound_E,
    bound_F,
    bound_G,
    ratio_bounds,
    require_k_below_m,
)
from .daub_filters import construct_filter
from .norms import NormRequest, best_constant_Ckp, default_decay, weighted_lp_norm
from .quadrature import QuadResult, adaptive_quadrature
from .reporting import VerificationRow
from .special_math import gamma_n
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

    def weighted_transform_norm(self, k: int, q: float) -> float:
        """Closed form ||(i w)^k f_hat||_q from the Gaussian moment integral."""
        b = 0.5 * q * self.sigma**2
        a = k * q
        integral = math.gamma(0.5 * (a + 1.0)) * b ** (-0.5 * (a + 1.0))
        return self.amplitude * self.sigma * integral ** (1.0 / q)

    @classmethod
    def normalized(cls, sigma: float, center: float, k: int, q: float) -> "GaussianTestFunction":
        base = cls(sigma=sigma, center=center)
        try:
            amplitude = 1.0 / base.weighted_transform_norm(k, q)
        except (OverflowError, ZeroDivisionError):
            amplitude = math.inf
        if not 0.0 < amplitude < math.inf:
            raise ValueError(
                f"sigma={sigma} puts ||(i w)^{k} f_hat||_{q:g} outside the floating-point range"
            )
        return cls(sigma=sigma, center=center, amplitude=amplitude)


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
    return QuadResult(
        value=quad.value,
        abs_error=quad.abs_error + tail,
        evaluations=quad.evaluations,
        converged=quad.converged,
        panels=quad.panels,
    )


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


@lru_cache(maxsize=None)
def phi_moments(m: int) -> tuple[Fraction, ...]:
    """M_q = integral x^q phi(x) dx for q <= _TAYLOR_ORDER, exact on the float taps.

    H(w) = 2^(-1/2) sum_l h(l) e^(ilw) makes phi(x) = 2 sum_l a_l phi(2x + l),
    supported on [-(2m-1), 0], with a_l = h(l) / sum h (the taps scaled to sum
    1, so that M_0 = 1 holds exactly). Integrating x^q against both sides gives
    (2^q - 1) M_q = sum_(r<q) C(q, r) M_r sum_l a_l (-l)^(q-r)
    (Sweldens & Piessens, SIAM J. Numer. Anal. 31, 1994), solved in rationals.
    """
    taps = [Fraction(t) for t in construct_filter(m).taps]
    a = [t / sum(taps) for t in taps]
    filter_moments = [
        sum(al * (-ell) ** n for ell, al in enumerate(a)) for n in range(_TAYLOR_ORDER + 1)
    ]
    moments = [Fraction(1)]
    for q in range(1, _TAYLOR_ORDER + 1):
        acc = sum(math.comb(q, r) * moments[r] * filter_moments[q - r] for r in range(q))
        moments.append(acc / (2**q - 1))
    return tuple(moments)


@lru_cache(maxsize=None)
def _central_moments(m: int) -> np.ndarray:
    """integral (t - t_c)^q phi(t) dt / q!, t_c = -(2m-1)/2 the centre of supp phi.

    Shifted from phi_moments in rationals and rounded once.
    """
    raw = phi_moments(m)
    shift = Fraction(2 * m - 1, 2)  # -t_c
    central = [
        sum(math.comb(q, r) * raw[r] * shift ** (q - r) for r in range(q + 1)) / math.factorial(q)
        for q in range(_TAYLOR_ORDER + 1)
    ]
    return _frozen(np.array([float(c) for c in central]))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _cascade(m: int, levels: int) -> tuple[int, np.ndarray, np.ndarray, float]:
    """(start, g, g_abs, rel_error): d_(j,nu) = sum_n g[n] s_(j+levels, start + 2^levels nu + n).

    From d_(j,n) = sum_l (-1)^l h_l s_(j+1, 2n+l+1) and
    s_(j,n) = sum_l h_l s_(j+1, 2n-l): each level upsamples the coefficient
    vector and convolves it with the reversed taps. g_abs is the same cascade
    on |h|, which bounds |g|. |g - exact| <= rel_error g_abs: each level's
    convolution rounds (gamma_2m), and the float taps sum to sqrt 2 (1 + delta)
    where phi_moments' normalized taps sum to sqrt 2 exactly, which scales g
    by (1 + delta)^levels.
    """
    taps = construct_filter(m).taps
    h = np.asarray(taps)
    g = h * (-1.0) ** np.arange(2 * m)
    g_abs = np.abs(h)
    start = 1
    for _ in range(levels - 1):
        g = np.convolve(_upsampled(g), h[::-1])
        g_abs = np.convolve(_upsampled(g_abs), np.abs(h[::-1]))
        start = 2 * start - (2 * m - 1)
    total = sum(Fraction(t) for t in taps)
    delta = float(abs(total * total - 2)) / (float(total) + math.sqrt(2.0)) / math.sqrt(2.0)
    drift = math.expm1(levels * math.log1p(delta))
    return start, _frozen(g), _frozen(g_abs), gamma_n(2 * m * levels) + drift


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
    taps_l1 = math.fsum(abs(t) for t in construct_filter(m).taps)
    per_sample = _CRAMER * math.sqrt(2 * m - 1) / math.sqrt(math.factorial(order))
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


def pyramid_coefficient(f: GaussianTestFunction, m: int, j: int, nu: int) -> QuadResult:
    """<f, psi_(j,nu)> by Mallat's pyramid from moment-built fine-level samples.

    psi_(j,nu)(x) = 2^(j/2) psi(2^j x - nu), as in wavelet_coefficient. At the
    fine level J = j + L (_fine_levels), s_(J,n) = <f, phi_(J,n)> is the Taylor
    sum 2^(-J/2) sum_(q<=Q) f^(q)(x_n) 2^(-Jq) Mc_q / q! about the centre
    x_n = (n + t_c) 2^-J of phi_(J,n)'s support, with the central moments Mc_q
    of phi and f^(q) = A (-1)^q sigma^-q He_q(u) e^(-u^2/2), u = (x - center)
    / sigma, by the Hermite recurrence. The coefficient is the dot product of
    the cascaded filter (_cascade) with those samples: no quadrature.

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
    start, g, g_abs, cascade_error = _cascade(m, levels)
    g_l1 = float(g_abs.sum())
    fine = j + levels
    n = np.arange(g.size, dtype=float) + (start + nu * 2.0**levels)
    u = ((n - 0.5 * (2 * m - 1)) * 2.0**-fine - f.center) / f.sigma
    kept = np.abs(u) < _U_CUT
    u, g, g_abs = u[kept], g[kept], g_abs[kept]
    # c_q = (-1)^q Mc_q / (q! (sigma 2^J)^q). Row 0 sums c_q He_q(u); row 1 sums
    # |c_q| He+_q(|u|), where He+_(q+1) = |u| He+_q + q He+_(q-1) bounds |He_q|.
    coeffs = _central_moments(m) * (-1.0 / (f.sigma * 2.0**fine)) ** np.arange(_TAYLOR_ORDER + 1)
    both = np.stack([coeffs, np.abs(coeffs)])[:, :, None]
    signs = np.array([[1.0], [-1.0]])
    arg = np.stack([u, np.abs(u)])
    prev, he = np.ones_like(arg), arg
    poly = both[:, 0] + both[:, 1] * arg
    for q in range(1, _TAYLOR_ORDER):
        prev, he = he, arg * he - q * signs * prev
        poly += both[:, q + 1] * he
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
    factorials = np.sqrt([math.factorial(q) for q in range(_TAYLOR_ORDER + 1)])
    dropped = _CRAMER * math.exp(-0.25 * _U_CUT**2) * float(np.dot(np.abs(coeffs), factorials))
    floor = g_l1 * (abs(f.amplitude) * 2.0 ** (-0.5 * fine) * dropped + 4 * 2.0**-1074)
    return QuadResult(
        value=value,
        abs_error=remainder + 2.0 * float(rounding) + floor,
        evaluations=int(kept.sum()),
        converged=remainder <= max(_REMAINDER_TARGET * abs(f.amplitude), _COEFFICIENT_ABS_TOL),
    )


def bernstein_rhs(m: int, k: int, p: float, j: int, f: GaussianTestFunction) -> QuadResult:
    """Right-hand side C_(k,p) 2^(-j(k+1/p-1/2)) ||psi_hat||_p ||(i w)^k f_hat||_p'.

    The abs_error is the norm's relative error carried to the product.
    """
    require_k_below_m(m, k)
    q = p / (p - 1.0)
    # C_(k,p) ||psi_hat||_p is ||w^-k psi_hat||_p by the definition of C_(k,p).
    num = weighted_lp_norm(NormRequest(m, k, p))
    value = num.value * 2.0 ** (-j * (k + 1.0 / p - 0.5)) * f.weighted_transform_norm(k, q)
    rel = num.abs_error / num.value
    return QuadResult(value=value, abs_error=value * rel, evaluations=num.evaluations)


# Multiplier on the asymptotic lower constants (G, and the Cor3 lower ratio).
ASYMPTOTIC_SLACK = 0.5


# Pad added to every row's tolerance, on top of the row's abs_error.
TOL_PAD = 1e-9


def theorem1_grid() -> list[dict]:
    cases = []
    for m in range(2, 7):
        for k in range(1, m):
            for p in (1.5, 2.0, 3.0):
                if p * k > 1.0:
                    cases.append({"m": m, "k": k, "p": p})
    return cases


def theorem2_grid() -> list[dict]:
    return [
        {"m": m, "k": m, "p": p}
        for m in range(1, 6)
        for p in (2.0, 4.0)
        if round(m * p) % 2 == 0
    ]


def corollary1_grid() -> list[dict]:
    return [{"m": m, "k": 0, "p": p} for m in range(1, 7) for p in (1.5, 2.0, 3.0)]


def bernstein_grid() -> list[dict]:
    return [
        {"m": 2, "k": 1, "p": 2.0, "sigma": 1.0, "j": j, "nu": nu}
        for j in range(-3, 7)
        for nu in range(-8, 9)
    ]


def _row(check, m, k, p, value, lower, upper, abs_error, flags=(), **fields) -> VerificationRow:
    """One sweep row, with the status, margin and side flags every check shares.

    Every checked value (a norm, a ratio of norms, |<f, psi_(j,nu)>|) is >= 0,
    so a lower bound <= 0 or an infinite upper bound cannot fail. Nor can a
    side say anything when abs_error (None counts as 0) is at least the
    bound's magnitude: the error bar swamps the bound. Such a side is flagged
    'lower'/'upper' and left unchecked. Each other side (a bound that is not
    None) checks `value` within tol = abs_error + TOL_PAD. The status is
    'vacuous' when no side is checked. The margin is the smallest gap to a
    finite side. The row's flags are the side flags, then the non-side `flags`.
    """
    err = abs_error or 0.0
    tol = err + TOL_PAD
    sides, checks, gaps = [], [], []
    if lower is not None:
        if lower <= err:  # lower <= 0, or swamped by the error bar
            sides.append("lower")
        else:
            checks.append(value >= lower - tol)
        if math.isfinite(lower):
            gaps.append(value - lower)
    if upper is not None:
        if upper == math.inf or abs(upper) <= err:
            sides.append("upper")
        else:
            checks.append(value <= upper + tol)
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


def _bracket_row(check, params, lower, upper, result, flags=(), **fields) -> VerificationRow:
    """Row bracketing `result`, a value at `params` with its abs_error; records the fitted decay."""
    if params.c_tilde is not None:  # m = 1 has no fit
        fields.update(decay_c=params.c, decay_c_tilde=params.c_tilde)
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
    flags = ("log_m_zero",) if params.m == 1 else ()
    return _bracket_row("corollary1", params, lower, upper, _norm(params), flags)


def _run_corollary2(case: Mapping) -> VerificationRow:
    params = bound_params(case["m"], case["k"], case["p"])
    interval = ratio_bounds(params, "Cor2")
    ratio = best_constant_Ckp(params.m, params.k, params.p)
    return _bracket_row("corollary2", params, interval.lo, interval.hi, ratio)


def _run_corollary3(case: Mapping) -> VerificationRow:
    params = bound_params(case["m"], case["m"], case["p"])
    interval = ratio_bounds(params, "Cor3")
    lower = ASYMPTOTIC_SLACK * interval.lo
    ratio = best_constant_Ckp(params.m, params.k, params.p)
    return _bracket_row("corollary3", params, lower, interval.hi, ratio, slack=ASYMPTOTIC_SLACK)


def _run_bernstein(case: Mapping) -> VerificationRow:
    m, k, p = case["m"], case["k"], case["p"]
    j, nu = case["j"], case["nu"]
    q = p / (p - 1.0)
    f = GaussianTestFunction.normalized(case["sigma"], case.get("center", 0.0), k, q)
    coef = pyramid_coefficient(f, m, j, nu)
    if not coef.converged:  # too narrow for the pyramid's cap; quadrature still resolves it
        coef = wavelet_coefficient(f, m, j, nu)
    rhs = bernstein_rhs(m, k, p, j, f)
    abs_error = coef.abs_error + rhs.abs_error
    return _row("bernstein", m, k, p, abs(coef.value), None, rhs.value, abs_error, j=j, nu=nu)


# Each check's row runner and the default grid it sweeps.
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
    abs_error + TOL_PAD (_row). Case errors become rows with status 'error'
    rather than aborting the sweep, and the output order always follows the
    grid order.
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
