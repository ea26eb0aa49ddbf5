"""Weighted Fourier-domain Lp norms of the wavelet and the best constant.

weighted_lp_norm takes one of two routes, chosen by p alone:

* p = 2 or 4 (EXACT_P): the p-th power of the norm is the fixed vector of a
  finite refinement system with rational coefficients, solved in floats with
  a proven error bound (refinable.even_power_integral). No quadrature, no
  tail and no decay fit; the QuadResult reports 0 evaluations and 0 panels.
* every other p: quadrature_lp_norm, described below. It also stays callable
  for any p, as the cross-check of the exact route.

The quadrature route computes, with the tail cutoff Omega (its omega_max,
DEFAULT_OMEGA_MAX unless given),

    (2 * integral_[w0, Omega] w^(-pk) |psi_hat|^p dw  +  origin term  +  tail)^(1/p)

using evenness. The truncated tail carries an envelope estimate
2 C~^p Omega^(1 - p(k + alpha)) / (p(k + alpha) - 1) from the fitted decay
|psi_hat| <= C~ w^(-alpha), which is a fit, not a proven bound (ROADMAP item
5). The value uses that estimate scaled by the measured envelope-to-integrand
ratio over the top octave [Omega/2, Omega] (the shape of |psi_hat| is close to
self-similar across octaves, so the top octave calibrates the
oscillation-averaged tail far more sharply than the raw ceiling), while the
reported abs_error keeps the full uncalibrated interval. It also counts the
product truncation of |psi_hat|^2 (relative PRODUCT_TOL), which moves the
integral by at most a relative p/2 * PRODUCT_TOL.

The quadrature's absolute tolerance is max(1e-13, QUAD_SHARE * (tail_bound / 4
+ origin term)). The tail error is at least tail_bound / 2, so once the
quadrature meets that tolerance its part 2 * quad_err of the error sum is at
most QUAD_SHARE times the origin and tail part, which more panels cannot
reduce. abs_error stays an upper bound as far as the panel estimate is one:
the sum still counts that estimate in full, and stopping earlier only makes it
larger. Everything here is deterministic for a fixed request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import QuadResult, adaptive_quadrature
from .refinable import even_power_integral
from .special_math import UNIT_ROUNDOFF, check_norm_domain
from .spectral_eval import PRODUCT_TOL, DecayFit, estimate_decay, wavelet_hat_abs2

DEFAULT_OMEGA_MAX = 2.0**12 * math.pi

# |psi_hat| for order 1 has the closed form sin^2(w/4) / (sqrt(2 pi) |w/4|),
# so |psi_hat(w)| <= (4 / sqrt(2 pi)) / |w|: an exact envelope with exponent 1.
_HAAR_ENVELOPE = (4.0 / math.sqrt(2.0 * math.pi), 1.0)

_ORIGIN_CUT = 1e-6

# The quadrature stops once its error is this share of the tail and origin
# error, which more panels cannot reduce.
QUAD_SHARE = 0.1

# The Lp indices weighted_lp_norm computes by the exact route.
EXACT_P = (2.0, 4.0)


@dataclass(frozen=True)
class NormRequest:
    """One weighted-norm computation: order m, weight exponent k, Lp index p."""

    m: int
    k: int
    p: float

    def __post_init__(self) -> None:
        check_norm_domain(self.m, self.k, self.p)
        if self.k > self.m:
            raise ValueError(
                f"k={self.k} > m={self.m}: the integrand w^(-pk) |psi_hat|^p "
                "diverges at the origin"
            )


@lru_cache(maxsize=None)
def default_decay(m: int) -> DecayFit:
    """The decay fit of order m: 128 samples over [4 pi, DEFAULT_OMEGA_MAX].

    Cached, so norms at every cutoff, sweep rows and the CLI share one fit per
    order. Raises for m = 1, whose exponent c is undefined; callers handle
    that order.
    """
    return estimate_decay(m, 4.0 * math.pi, DEFAULT_OMEGA_MAX, 128)


def _envelope(m: int) -> tuple[float, float]:
    """(C_tilde, alpha) of the tail envelope |psi_hat(w)| <= C_tilde w^(-alpha)."""
    if m == 1:
        return _HAAR_ENVELOPE
    fit = default_decay(m)
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


def _root_error(total: float, err_sum: float, p: float) -> float:
    """A bound on |total^(1/p) - x^(1/p)| for every x within err_sum of total.

    x^(1/p) is concave, so its slope at the low end of [total - err_sum,
    total + err_sum] bounds its change over the interval; at or below zero,
    Hoelder continuity |a^(1/p) - b^(1/p)| <= |a - b|^(1/p) does.
    """
    if total > err_sum:
        return err_sum / p * (total - err_sum) ** (1.0 / p - 1.0)
    return err_sum ** (1.0 / p)


@lru_cache(maxsize=None)
def weighted_lp_norm(req: NormRequest) -> QuadResult:
    """||(i w)^(-k) psi_hat||_p with its abs_error, cached per request.

    p in EXACT_P takes the exact route, every other p quadrature_lp_norm
    (module docstring).
    """
    if req.p in EXACT_P:
        return _exact_lp_norm(req)
    return quadrature_lp_norm(req)


def _exact_lp_norm(req: NormRequest) -> QuadResult:
    """The exact route: the refinement system's integral and its proven error, to the 1/p power.

    The power itself rounds by at most 2 ulp, which abs_error adds.
    """
    integral, err = even_power_integral(req.m, req.k, round(req.p) // 2)
    value = integral ** (1.0 / req.p)
    abs_error = _root_error(integral, err, req.p) + 4.0 * UNIT_ROUNDOFF * value
    return QuadResult(value=value, abs_error=abs_error, evaluations=0, panels=0)


def quadrature_lp_norm(req: NormRequest, *, omega_max: float = DEFAULT_OMEGA_MAX) -> QuadResult:
    """||(i w)^(-k) psi_hat||_p by quadrature up to omega_max, for any p; not cached.

    The error combines the quadrature estimate, the near-origin power-law
    patch (k >= 1), and the full width of the analytic tail interval, and
    bounds their effect through the final 1/p power. The origin and tail
    terms come first, so the quadrature stops once its own estimate is a
    QUAD_SHARE of theirs (module docstring).
    """
    if omega_max <= 2.0 * math.pi:
        raise ValueError(f"omega_max must exceed 2*pi, got {omega_max}")
    m, k, p = req.m, req.k, req.p
    c_tilde, alpha = _envelope(m)
    beta = p * (k + alpha)
    if beta <= 1.0:
        raise ValueError(
            f"tail not integrable: p*(k + alpha) = {beta:.6g} <= 1 with the "
            f"fitted decay exponent alpha = {alpha:.6g}"
        )

    def integrand(w: np.ndarray) -> np.ndarray:
        # Weighting before the power keeps w^(-pk) from overflowing near the origin.
        root = np.sqrt(wavelet_hat_abs2(m, w))
        if k:
            root *= w**-k
        return root**p

    lo = _ORIGIN_CUT if k >= 1 else 0.0
    # Near-origin patch: |psi_hat| ~ K w^m makes the integrand ~ w^(p(m-k)),
    # integrated over [0, w0] by a one-term power law and counted fully as error.
    origin_term = 0.0
    if k >= 1:
        origin_term = float(integrand(np.array([lo]))[0]) * lo / (p * (m - k) + 1.0)

    # Envelope tail estimate; its error is at least tail_bound / 2 whatever rho is.
    tail_bound = 2.0 * c_tilde**p * omega_max ** (1.0 - beta) / (beta - 1.0)
    quad, panels = adaptive_quadrature(
        integrand,
        lo,
        omega_max,
        rel_tol=1e-9,
        abs_tol=max(1e-13, QUAD_SHARE * (tail_bound / 4.0 + origin_term)),
        max_panels=60_000,
        breakpoints=_dyadic_breakpoints(omega_max),
        return_panels=True,
    )

    # Top-octave calibration of the tail estimate.
    env_top = (
        c_tilde**p
        * ((omega_max / 2.0) ** (1.0 - beta) - omega_max ** (1.0 - beta))
        / (beta - 1.0)
    )
    num_top = sum(pnl.value.real for pnl in panels if pnl.a >= omega_max / 2.0 - 1e-9)
    rho = min(max(num_top / env_top, 0.0), 1.0) if env_top > 0 else 1.0
    tail_est = rho * tail_bound
    tail_err = max(tail_est, tail_bound - tail_est)

    total = 2.0 * (quad.value + origin_term) + tail_est
    # The product truncation moves |psi_hat|^p, and so the product part
    # 2 * (quad + origin) of the integral, by at most p/2 * PRODUCT_TOL relative.
    truncation = p * PRODUCT_TOL * (quad.value + origin_term)
    err_sum = 2.0 * (quad.abs_error + origin_term) + tail_err + truncation
    if not (math.isfinite(total) and math.isfinite(err_sum)):
        raise ValueError(f"the ({m}, {k}, {p}) norm integral is not finite: {total} +/- {err_sum}")
    return QuadResult(
        value=total ** (1.0 / p),
        abs_error=_root_error(total, err_sum, p),
        evaluations=quad.evaluations,
        converged=quad.converged,
        panels=quad.panels,
    )


def best_constant_Ckp(m: int, k: int, p: float) -> QuadResult:
    """Best constant C_(k,p) = ||w^(-k) psi_hat||_p / ||psi_hat||_p with its error.

    With |num - N| <= e_num and |den - D| <= e_den, the ratio C = num / den
    misses N / D by |(N - num) - C (D - den)| / D <= (e_num + C e_den) /
    (den - e_den), which is the reported abs_error (inf when e_den >= den).
    At k = 0 the constant is exactly 1 with no error.
    """
    if k == 0:
        return QuadResult(value=1.0, abs_error=0.0, evaluations=0)
    num = weighted_lp_norm(NormRequest(m, k, p))
    den = weighted_lp_norm(NormRequest(m, 0, p))
    value = num.value / den.value
    margin = den.value - den.abs_error
    abs_error = (num.abs_error + value * den.abs_error) / margin if margin > 0 else math.inf
    return QuadResult(
        value=value,
        abs_error=abs_error,
        evaluations=num.evaluations + den.evaluations,
        converged=num.converged and den.converged,
    )
