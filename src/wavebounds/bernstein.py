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
from .spectral_eval import wavelet_hat

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


def _coefficient_quad(f: GaussianTestFunction, m: int, j: int, nu: int) -> QuadResult:
    if not (J_RANGE[0] <= j <= J_RANGE[1]):
        raise ValueError(f"scale j must lie in [{J_RANGE[0]}, {J_RANGE[1]}], got {j}")
    if abs(nu) > NU_LIMIT:
        raise ValueError(f"shift |nu| must not exceed {NU_LIMIT}, got {nu}")
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
        abs_tol=1e-12,
        max_panels=30_000,
        breakpoints=sorted(points),
    )
    # |psi_hat| <= (2 pi)^(-1/2) bounds the discarded Gaussian tails.
    tail = 2.0 ** (-0.5 * j) * f.amplitude * math.erfc(f.sigma * width / math.sqrt(2.0))
    return QuadResult(
        value=quad.value, abs_error=quad.abs_error + tail, evaluations=quad.evaluations
    )


def wavelet_coefficient(f: GaussianTestFunction, m: int, j: int, nu: int) -> complex:
    """<f, psi_(j,nu)> computed as integral f_hat(w) conj(psi_hat_(j,nu)(w)) dw."""
    return complex(_coefficient_quad(f, m, j, nu).value)


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


def _bernstein_rhs_detail(m: int, k: int, p: float, j: int, f: GaussianTestFunction) -> QuadResult:
    if not 0 <= k < m:
        raise ValueError(f"requires 0 <= k < m, got k={k}, m={m}")
    q = p / (p - 1.0)
    # C_(k,p) ||psi_hat||_p is ||w^-k psi_hat||_p by the definition of C_(k,p).
    num = weighted_lp_norm(NormRequest(m, k, p))
    fnorm = _transform_norm_quad(f, k, q)
    value = num.value * 2.0 ** (-j * (k + 1.0 / p - 0.5)) * fnorm.value
    rel = num.abs_error / num.value + fnorm.abs_error / max(fnorm.value, 1e-300)
    return QuadResult(value=value, abs_error=value * rel, evaluations=fnorm.evaluations)


def bernstein_rhs(m: int, k: int, p: float, j: int, f: GaussianTestFunction) -> float:
    """Right-hand side C_(k,p) 2^(-j(k+1/p-1/2)) ||psi_hat||_p ||(i w)^k f_hat||_p'."""
    return _bernstein_rhs_detail(m, k, p, j, f).value


# Multiplier on the asymptotic lower constants (G, and the Cor3 lower ratio).
ASYMPTOTIC_SLACK = 0.5


@dataclass(frozen=True)
class SweepSettings:
    """The band parameter of the closed forms and the pad added to every tolerance."""

    eps: float = math.pi
    tol_pad: float = 1e-9


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


def _row(check, m, k, p, value, lower, upper, tol, vacuous=(), **fields) -> VerificationRow:
    """One sweep row, with the status and margin every check shares.

    The status checks `value` within `tol` against each side (a bound that is
    not None) not named in `vacuous`, and is 'vacuous' when no side is
    checked. The margin is the smallest gap to a finite side. `vacuous` is
    recorded as the row's flags, so it may also carry non-side flags.
    """
    checks = []
    gaps = []
    if lower is not None:
        if "lower" not in vacuous:
            checks.append(value >= lower - tol)
        if math.isfinite(lower):
            gaps.append(value - lower)
    if upper is not None:
        if "upper" not in vacuous:
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
        margin=min(gaps, default=None),
        vacuous_flags=tuple(vacuous),
        **fields,
    )


def _bound_params(m: int, k: int, p: float, eps: float) -> tuple[BoundParams, dict]:
    """The closed-form parameters, and the decay fields a row records (none for m = 1)."""
    if m == 1:
        # The c-dependent term is vacuous at m = 1 (log m = 0) whatever c is.
        return BoundParams(m=m, k=k, p=p, c=1.0, eps=eps), {}
    fit = default_decay(m, DEFAULT_OMEGA_MAX)
    params = BoundParams(m=m, k=k, p=p, c=fit.c, eps=eps, c_tilde=fit.C_tilde)
    return params, {"decay_c": fit.c, "decay_c_tilde": fit.C_tilde}


def _norm_row(check, params, lower, upper, settings, vacuous=(), **fields) -> VerificationRow:
    """Row bracketing ||w^-k psi_hat||_p, checked within its abs_error plus the pad."""
    m, k, p = params.m, params.k, params.p
    norm = weighted_lp_norm(NormRequest(m, k, p))
    tol = norm.abs_error + settings.tol_pad
    return _row(
        check, m, k, p, norm.value, lower, upper, tol, vacuous, abs_error=norm.abs_error, **fields
    )


def _ratio_row(check, params, lower, upper, settings, vacuous=(), **fields) -> VerificationRow:
    """Row bracketing the best constant C_(k,p), checked within the pad alone."""
    m, k, p = params.m, params.k, params.p
    value = best_constant_Ckp(m, k, p)
    return _row(check, m, k, p, value, lower, upper, settings.tol_pad, vacuous, **fields)


def _run_theorem1(case: Mapping, settings: SweepSettings) -> VerificationRow:
    params, decay = _bound_params(case["m"], case["k"], case["p"], settings.eps)
    lower = bound_B(params)
    vacuous = ("lower",) if lower < 0 else ()
    return _norm_row("theorem1", params, lower, bound_A(params), settings, vacuous, **decay)


def _run_theorem2(case: Mapping, settings: SweepSettings) -> VerificationRow:
    params, decay = _bound_params(case["m"], case["m"], case["p"], settings.eps)
    lower = ASYMPTOTIC_SLACK * bound_G(params)
    note = "lower bound carries the asymptotic slack factor"
    return _norm_row(
        "theorem2", params, lower, bound_F(params), settings,
        slack=ASYMPTOTIC_SLACK, note=note, **decay,
    )


def _run_corollary1(case: Mapping, settings: SweepSettings) -> VerificationRow:
    params, decay = _bound_params(case["m"], 0, case["p"], settings.eps)
    lower = bound_E(params)
    vacuous = ("lower",) if lower <= 0 else ()
    if params.m == 1:
        vacuous += ("log_m_zero",)
    return _norm_row("corollary1", params, lower, bound_D(params), settings, vacuous, **decay)


def _run_corollary2(case: Mapping, settings: SweepSettings) -> VerificationRow:
    params, decay = _bound_params(case["m"], case["k"], case["p"], settings.eps)
    interval = ratio_bounds(params, "Cor2")
    vacuous = ("lower",) * interval.vacuous_lower + ("upper",) * interval.vacuous_upper
    return _ratio_row("corollary2", params, interval.lo, interval.hi, settings, vacuous, **decay)


def _run_corollary3(case: Mapping, settings: SweepSettings) -> VerificationRow:
    params, decay = _bound_params(case["m"], case["m"], case["p"], settings.eps)
    interval = ratio_bounds(params, "Cor3")
    lower = ASYMPTOTIC_SLACK * interval.lo
    vacuous = ("upper",) * interval.vacuous_upper
    return _ratio_row(
        "corollary3", params, lower, interval.hi, settings, vacuous,
        slack=ASYMPTOTIC_SLACK, **decay,
    )


def _run_bernstein(case: Mapping, settings: SweepSettings) -> VerificationRow:
    m, k, p = case["m"], case["k"], case["p"]
    j, nu = case["j"], case["nu"]
    q = p / (p - 1.0)
    f = GaussianTestFunction.normalized(case["sigma"], case.get("center", 0.0), k, q)
    coef = _coefficient_quad(f, m, j, nu)
    rhs = _bernstein_rhs_detail(m, k, p, j, f)
    value = abs(coef.value)
    tol = coef.abs_error + rhs.abs_error + settings.tol_pad
    return _row(
        "bernstein", m, k, p, value, None, rhs.value, tol, j=j, nu=nu, abs_error=coef.abs_error
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
