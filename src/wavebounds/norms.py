"""Weighted Fourier-domain Lp norms of the wavelet and the best constant.

The norm ||w^(-k) psi_hat||_p is computed as

    (2 * integral_[w0, Omega] w^(-pk) |psi_hat|^p dw  +  origin term  +  tail)^(1/p)

using evenness. The truncated tail carries an envelope estimate
2 C~^p Omega^(1 - p(k + alpha)) / (p(k + alpha) - 1) from the fitted decay
|psi_hat| <= C~ w^(-alpha), which is a fit, not a proven bound (ROADMAP item
2). The value uses that estimate scaled by the measured envelope-to-integrand
ratio over the top octave [Omega/2, Omega] (the shape of |psi_hat| is close to
self-similar across octaves, so the top octave calibrates the
oscillation-averaged tail far more sharply than the raw ceiling), while the
reported abs_error keeps the full uncalibrated interval. Everything here is
deterministic for a fixed request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import QuadResult, adaptive_quadrature
from .spectral_eval import DecayFit, estimate_decay, wavelet_hat_abs2

DEFAULT_OMEGA_MAX = 2.0**12 * math.pi

# |psi_hat| for order 1 has the closed form sin^2(w/4) / (sqrt(2 pi) |w/4|),
# so |psi_hat(w)| <= (4 / sqrt(2 pi)) / |w|: an exact envelope with exponent 1.
_HAAR_ENVELOPE = (4.0 / math.sqrt(2.0 * math.pi), 1.0)

_ORIGIN_CUT = 1e-6


@dataclass(frozen=True)
class NormRequest:
    """One weighted-norm computation: order m, weight exponent k, Lp index p.

    The high-frequency envelope is not part of the request: it is the exact
    closed form for order 1 and default_decay(m, omega_max) otherwise.
    """

    m: int
    k: int
    p: float
    omega_max: float = DEFAULT_OMEGA_MAX

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"order must be positive, got {self.m}")
        if self.k < 0:
            raise ValueError(f"weight exponent must be nonnegative, got {self.k}")
        if self.k > self.m:
            raise ValueError(
                f"k={self.k} > m={self.m}: the integrand w^(-pk) |psi_hat|^p "
                "diverges at the origin"
            )
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if self.omega_max <= 2.0 * math.pi:
            raise ValueError(f"omega_max must exceed 2*pi, got {self.omega_max}")


@lru_cache(maxsize=None)
def default_decay(m: int, omega_max: float) -> DecayFit:
    """The decay fit every default envelope uses: 128 samples over [4 pi, omega_max].

    Cached, so norms, sweep rows and the CLI share one fit per order. Raises
    for m = 1, whose exponent c is undefined; callers handle that order.
    """
    return estimate_decay(m, 4.0 * math.pi, omega_max, 128)


def _envelope(m: int, omega_max: float) -> tuple[float, float]:
    """(C_tilde, alpha) of the tail envelope |psi_hat(w)| <= C_tilde w^(-alpha)."""
    if m == 1:
        return _HAAR_ENVELOPE
    fit = default_decay(m, omega_max)
    return fit.C_tilde, fit.c * math.log(m)


def _dyadic_breakpoints(omega_max: float) -> list[float]:
    """Halving lattice omega_max, omega_max/2, ..., down to pi."""
    points = []
    x = omega_max / 2.0
    while x > math.pi * (1.0 + 1e-12):
        points.append(x)
        x /= 2.0
    points.append(math.pi)
    return sorted(points)


@lru_cache(maxsize=None)
def weighted_lp_norm(req: NormRequest) -> QuadResult:
    """||(i w)^(-k) psi_hat||_p with an absolute-error estimate, cached per request.

    The error combines the quadrature estimate, the near-origin power-law
    patch (k >= 1), and the full width of the analytic tail interval, and
    bounds their effect through the final 1/p power.
    """
    m, k, p = req.m, req.k, req.p
    c_tilde, alpha = _envelope(m, req.omega_max)
    beta = p * (k + alpha)
    if beta <= 1.0:
        raise ValueError(
            f"tail not integrable: p*(k + alpha) = {beta:.6g} <= 1 with the "
            f"fitted decay exponent alpha = {alpha:.6g}"
        )

    pk = p * k

    def integrand(w: np.ndarray) -> np.ndarray:
        abs2 = wavelet_hat_abs2(m, w)
        weight = w**-pk if pk else np.ones_like(w)
        return weight * abs2 ** (0.5 * p)

    lo = _ORIGIN_CUT if k >= 1 else 0.0
    quad, panels = adaptive_quadrature(
        integrand,
        lo,
        req.omega_max,
        rel_tol=1e-9,
        abs_tol=1e-13,
        max_panels=60_000,
        breakpoints=_dyadic_breakpoints(req.omega_max),
        return_panels=True,
    )

    # Near-origin patch: |psi_hat| ~ K w^m makes the integrand ~ w^(p(m-k)),
    # integrated over [0, w0] by a one-term power law and counted fully as error.
    origin_term = 0.0
    if k >= 1:
        origin_term = float(integrand(np.array([lo]))[0]) * lo / (p * (m - k) + 1.0)

    # Envelope tail estimate and its top-octave calibration.
    tail_bound = 2.0 * c_tilde**p * req.omega_max ** (1.0 - beta) / (beta - 1.0)
    env_top = (
        c_tilde**p
        * ((req.omega_max / 2.0) ** (1.0 - beta) - req.omega_max ** (1.0 - beta))
        / (beta - 1.0)
    )
    num_top = sum(pnl.value.real for pnl in panels if pnl.a >= req.omega_max / 2.0 - 1e-9)
    rho = min(max(num_top / env_top, 0.0), 1.0) if env_top > 0 else 1.0
    tail_est = rho * tail_bound
    tail_err = max(tail_est, tail_bound - tail_est)

    total = 2.0 * (quad.value + origin_term) + tail_est
    err_sum = 2.0 * (quad.abs_error + origin_term) + tail_err
    value = total ** (1.0 / p)
    # x^(1/p) is concave, so its slope at the low end of [total - err_sum,
    # total + err_sum] bounds its change over the interval; at or below zero,
    # Hoelder continuity |a^(1/p) - b^(1/p)| <= |a - b|^(1/p) does.
    if total > err_sum:
        abs_error = err_sum / p * (total - err_sum) ** (1.0 / p - 1.0)
    else:
        abs_error = err_sum ** (1.0 / p)
    return QuadResult(value=value, abs_error=abs_error, evaluations=quad.evaluations)


def best_constant_Ckp(m: int, k: int, p: float) -> float:
    """Best constant C_(k,p) = ||w^(-k) psi_hat||_p / ||psi_hat||_p."""
    if k == 0:
        return 1.0
    num = weighted_lp_norm(NormRequest(m, k, p))
    den = weighted_lp_norm(NormRequest(m, 0, p))
    return num.value / den.value
