"""Coefficient-decay verification harness.

Verifies, case by case, that wavelet coefficients of admissible test functions
obey the a-priori bound

    |<f, psi_(j,nu)>| <= C_(k,p) * 2^(-j(k + 1/p - 1/2)) * ||psi_hat||_p
                         * ||(i w)^k f_hat||_p'

and drives the sandwich sweeps for the closed-form constants. Coefficients are
computed entirely in the frequency domain (Parseval route): the test family is
Gaussian, whose transform is known in closed form, so no time-domain wavelet is
ever needed. Every sweep records one row per case and never aborts on a
failing case; failures are data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
)
from .norms import DEFAULT_OMEGA_MAX, NormRequest, best_constant_Ckp, default_decay, weighted_lp_norm
from .quadrature import QuadResult, adaptive_quadrature
from .reporting import VerificationRow
from .spectral_eval import DEFAULT_CONFIG, EvalConfig, wavelet_hat

J_RANGE = (-6, 10)
NU_LIMIT = 64

# sigma*W at which the Gaussian transform modulus falls below ~1e-19 of peak.
_GAUSS_CUT = 9.4


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
    family: str = "gaussian"

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.family != "gaussian":
            raise ValueError(f"unsupported family {self.family!r}")

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
        return cls(sigma=sigma, center=center, amplitude=1.0 / base.weighted_transform_norm(k, q))


def _coefficient_quad(
    f: GaussianTestFunction, m: int, j: int, nu: int, cfg: EvalConfig
) -> QuadResult:
    scale = 2.0**-j
    width = _GAUSS_CUT / f.sigma

    def integrand(w: np.ndarray) -> np.ndarray:
        psi = wavelet_hat(m, scale * w, cfg)
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
        abs_tol=1e-12,
        max_panels=30_000,
        breakpoints=sorted(points),
    )
    # |psi_hat| <= (2 pi)^(-1/2) bounds the discarded Gaussian tails.
    tail = 2.0 ** (-0.5 * j) * f.amplitude * math.erfc(f.sigma * width / math.sqrt(2.0))
    return QuadResult(
        value=quad.value, abs_error=quad.abs_error + tail, evaluations=quad.evaluations
    )


def wavelet_coefficient(
    f: GaussianTestFunction,
    m: int,
    j: int,
    nu: int,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> complex:
    """<f, psi_(j,nu)> computed as integral f_hat(w) conj(psi_hat_(j,nu)(w)) dw."""
    if not (J_RANGE[0] <= j <= J_RANGE[1]):
        raise ValueError(f"scale j must lie in [{J_RANGE[0]}, {J_RANGE[1]}], got {j}")
    if abs(nu) > NU_LIMIT:
        raise ValueError(f"shift |nu| must not exceed {NU_LIMIT}, got {nu}")
    return complex(_coefficient_quad(f, m, j, nu, cfg).value)


def _transform_norm_quad(f: GaussianTestFunction, k: int, q: float) -> QuadResult:
    """||(i w)^k f_hat||_q by quadrature (independent of the closed form)."""
    width = (_GAUSS_CUT + 2.0 * math.sqrt(k * q)) / f.sigma
    peak = f.amplitude * f.sigma

    def integrand(w: np.ndarray) -> np.ndarray:
        return w ** (k * q) * peak**q * np.exp(-0.5 * q * (f.sigma * w) ** 2)

    quad = adaptive_quadrature(integrand, 0.0, width, rel_tol=1e-12, abs_tol=1e-15)
    total = 2.0 * quad.value
    value = total ** (1.0 / q)
    err = value / (q * total) * 2.0 * quad.abs_error if total > 0 else 0.0
    return QuadResult(value=value, abs_error=err, evaluations=quad.evaluations)


def _bernstein_rhs_detail(
    m: int,
    k: int,
    p: float,
    j: int,
    f: GaussianTestFunction,
    cfg: EvalConfig,
    omega_max: float = DEFAULT_OMEGA_MAX,
) -> QuadResult:
    if not 0 <= k < m:
        raise ValueError(f"requires 0 <= k < m, got k={k}, m={m}")
    q = p / (p - 1.0)
    num = weighted_lp_norm(NormRequest(m, k, p, omega_max), cfg)
    den = weighted_lp_norm(NormRequest(m, 0, p, omega_max), cfg)
    fnorm = _transform_norm_quad(f, k, q)
    dyadic = 2.0 ** (-j * (k + 1.0 / p - 0.5))
    constant = num.value / den.value
    value = constant * dyadic * den.value * fnorm.value
    rel = (
        num.abs_error / num.value
        + 2.0 * den.abs_error / den.value
        + fnorm.abs_error / max(fnorm.value, 1e-300)
    )
    return QuadResult(value=value, abs_error=value * rel, evaluations=fnorm.evaluations)


def bernstein_rhs(
    m: int,
    k: int,
    p: float,
    j: int,
    f: GaussianTestFunction,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> float:
    """Right-hand side C_(k,p) 2^(-j(k+1/p-1/2)) ||psi_hat||_p ||(i w)^k f_hat||_p'."""
    return _bernstein_rhs_detail(m, k, p, j, f, cfg).value


@dataclass(frozen=True)
class SweepSettings:
    """Shared knobs for verification sweeps."""

    eps: float = math.pi
    omega_max: float = DEFAULT_OMEGA_MAX
    tol_pad: float = 1e-9
    slack: float = 0.5  # multiplier applied to the asymptotic lower constant
    cfg: EvalConfig = DEFAULT_CONFIG


DEFAULT_SETTINGS = SweepSettings()


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
        {"m": m, "p": p}
        for m in range(1, 6)
        for p in (2.0, 4.0)
        if round(m * p) % 2 == 0
    ]


def corollary1_grid() -> list[dict]:
    return [{"m": m, "p": p} for m in range(1, 7) for p in (1.5, 2.0, 3.0)]


def bernstein_grid() -> list[dict]:
    return [
        {"m": 2, "k": 1, "p": 2.0, "sigma": 1.0, "j": j, "nu": nu}
        for j in range(-3, 7)
        for nu in range(-8, 9)
    ]


def _margin(value: float, lower: float | None, upper: float | None) -> float | None:
    gaps = []
    if upper is not None and not math.isinf(upper):
        gaps.append(upper - value)
    if lower is not None:
        gaps.append(value - lower)
    return min(gaps) if gaps else None


def _status_from(value, lower, upper, tol, vac_lower, vac_upper) -> str:
    checks = []
    if lower is not None and not vac_lower:
        checks.append(value >= lower - tol)
    if upper is not None and not vac_upper:
        checks.append(value <= upper + tol)
    if not checks:
        return "vacuous"
    return "pass" if all(checks) else "fail"


def _decay_for(m: int, settings: SweepSettings) -> tuple[float | None, float | None]:
    """(c, C_tilde) recorded on rows; the order-1 case has no fitted exponent."""
    if m == 1:
        return None, None
    fit = default_decay(m, settings.omega_max, settings.cfg)
    return fit.c, fit.C_tilde


def _bound_params(
    m: int, k: int, p: float, settings: SweepSettings
) -> tuple[BoundParams, float | None, float | None]:
    c, c_tilde = _decay_for(m, settings)
    # The c-dependent term is vacuous at m = 1 (log m = 0) whatever c is.
    params = BoundParams(
        m=m, k=k, p=p, c=c if c is not None else 1.0, eps=settings.eps, c_tilde=c_tilde
    )
    return params, c, c_tilde


def _run_theorem1(case: Mapping, settings: SweepSettings) -> VerificationRow:
    m, k, p = case["m"], case["k"], case["p"]
    params, c, c_tilde = _bound_params(m, k, p, settings)
    upper = bound_A(params)
    lower = bound_B(params)
    norm = weighted_lp_norm(NormRequest(m, k, p, settings.omega_max), settings.cfg)
    tol = norm.abs_error + settings.tol_pad
    vac_lower = lower < 0
    status = _status_from(norm.value, lower, upper, tol, vac_lower, False)
    return VerificationRow(
        check="theorem1",
        status=status,
        m=m,
        k=k,
        p=p,
        value=norm.value,
        abs_error=norm.abs_error,
        lower_bound=lower,
        upper_bound=upper,
        margin=_margin(norm.value, lower, upper),
        vacuous_flags=("lower",) if vac_lower else (),
        decay_c=c,
        decay_c_tilde=c_tilde,
    )


def _run_theorem2(case: Mapping, settings: SweepSettings) -> VerificationRow:
    m, p = case["m"], case["p"]
    params, c, c_tilde = _bound_params(m, m, p, settings)
    upper = bound_F(params)
    lower = settings.slack * bound_G(params)
    norm = weighted_lp_norm(NormRequest(m, m, p, settings.omega_max), settings.cfg)
    tol = norm.abs_error + settings.tol_pad
    status = _status_from(norm.value, lower, upper, tol, False, False)
    return VerificationRow(
        check="theorem2",
        status=status,
        m=m,
        k=m,
        p=p,
        value=norm.value,
        abs_error=norm.abs_error,
        lower_bound=lower,
        upper_bound=upper,
        margin=_margin(norm.value, lower, upper),
        slack=settings.slack,
        decay_c=c,
        decay_c_tilde=c_tilde,
        note="lower bound carries the asymptotic slack factor",
    )


def _run_corollary1(case: Mapping, settings: SweepSettings) -> VerificationRow:
    m, p = case["m"], case["p"]
    params, c, c_tilde = _bound_params(m, 0, p, settings)
    upper = bound_D(params)
    lower = bound_E(params)
    norm = weighted_lp_norm(NormRequest(m, 0, p, settings.omega_max), settings.cfg)
    tol = norm.abs_error + settings.tol_pad
    vac_lower = lower <= 0
    flags = ["lower"] if vac_lower else []
    if m == 1:
        flags.append("log_m_zero")
    status = _status_from(norm.value, lower, upper, tol, vac_lower, False)
    return VerificationRow(
        check="corollary1",
        status=status,
        m=m,
        k=0,
        p=p,
        value=norm.value,
        abs_error=norm.abs_error,
        lower_bound=lower,
        upper_bound=upper,
        margin=_margin(norm.value, lower, upper),
        vacuous_flags=tuple(flags),
        decay_c=c,
        decay_c_tilde=c_tilde,
    )


def _run_corollary2(case: Mapping, settings: SweepSettings) -> VerificationRow:
    m, k, p = case["m"], case["k"], case["p"]
    params, c, c_tilde = _bound_params(m, k, p, settings)
    interval = ratio_bounds(params, "Cor2")
    constant = best_constant_Ckp(m, k, p, settings.cfg, omega_max=settings.omega_max)
    flags = []
    if interval.vacuous_lower:
        flags.append("lower")
    if interval.vacuous_upper:
        flags.append("upper")
    status = _status_from(
        constant,
        interval.lo,
        interval.hi,
        settings.tol_pad,
        interval.vacuous_lower,
        interval.vacuous_upper,
    )
    return VerificationRow(
        check="corollary2",
        status=status,
        m=m,
        k=k,
        p=p,
        value=constant,
        lower_bound=interval.lo,
        upper_bound=interval.hi,
        margin=_margin(constant, interval.lo, interval.hi),
        vacuous_flags=tuple(flags),
        decay_c=c,
        decay_c_tilde=c_tilde,
    )


def _run_corollary3(case: Mapping, settings: SweepSettings) -> VerificationRow:
    m, p = case["m"], case["p"]
    params, c, c_tilde = _bound_params(m, m, p, settings)
    interval = ratio_bounds(params, "Cor3")
    constant = best_constant_Ckp(m, m, p, settings.cfg, omega_max=settings.omega_max)
    lower = settings.slack * interval.lo
    flags = ["upper"] if interval.vacuous_upper else []
    status = _status_from(
        constant, lower, interval.hi, settings.tol_pad, False, interval.vacuous_upper
    )
    return VerificationRow(
        check="corollary3",
        status=status,
        m=m,
        k=m,
        p=p,
        value=constant,
        lower_bound=lower,
        upper_bound=interval.hi,
        margin=_margin(constant, lower, interval.hi),
        vacuous_flags=tuple(flags),
        slack=settings.slack,
        decay_c=c,
        decay_c_tilde=c_tilde,
    )


def _run_bernstein(case: Mapping, settings: SweepSettings) -> VerificationRow:
    m, k, p = case["m"], case["k"], case["p"]
    j, nu, sigma = case["j"], case["nu"], case["sigma"]
    q = p / (p - 1.0)
    f = GaussianTestFunction.normalized(sigma, case.get("center", 0.0), k, q)
    coef = _coefficient_quad(f, m, j, nu, settings.cfg)
    rhs = _bernstein_rhs_detail(m, k, p, j, f, settings.cfg, settings.omega_max)
    value = abs(coef.value)
    tol = coef.abs_error + rhs.abs_error + settings.tol_pad
    status = _status_from(value, None, rhs.value, tol, False, False)
    return VerificationRow(
        check="bernstein",
        status=status,
        m=m,
        k=k,
        p=p,
        j=j,
        nu=nu,
        value=value,
        abs_error=coef.abs_error,
        upper_bound=rhs.value,
        margin=rhs.value - value,
    )


# Each check's row runner and the default grid it sweeps.
CHECKS = {
    "theorem1": (_run_theorem1, theorem1_grid),
    "theorem2": (_run_theorem2, theorem2_grid),
    "corollary1": (_run_corollary1, corollary1_grid),
    "corollary2": (_run_corollary2, theorem1_grid),
    "corollary3": (_run_corollary3, theorem2_grid),
    "bernstein": (_run_bernstein, bernstein_grid),
}


def verify_sweep(
    check: str,
    cases: Sequence[Mapping] | None = None,
    settings: SweepSettings = DEFAULT_SETTINGS,
) -> list[VerificationRow]:
    """Run one named check over a parameter grid, one row per case.

    Case errors become rows with status 'error' rather than aborting the sweep,
    and the output order always follows the grid order.
    """
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}; expected one of {sorted(CHECKS)}")
    runner, default_grid = CHECKS[check]
    if cases is None:
        cases = default_grid()
    rows: list[VerificationRow] = []
    for case in cases:
        try:
            rows.append(runner(case, settings))
        except Exception as exc:  # recorded, never raised: a failing case is data
            rows.append(
                VerificationRow(
                    check=check,
                    status="error",
                    m=case.get("m"),
                    k=case.get("k"),
                    p=case.get("p"),
                    j=case.get("j"),
                    nu=case.get("nu"),
                    note=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows
