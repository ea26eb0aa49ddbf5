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

    (2 * integral_[0, Omega] w^(-pk) |psi_hat|^p dw  +  tail)^(1/p)

using evenness, from the origin for every k: the Gauss-Kronrod nodes never
touch w = 0, where the integrand behaves like w^(p(m-k)). The truncated tail
carries an envelope estimate
2 Omega (C~ Omega^-(k + alpha))^p / (p(k + alpha) - 1) from the fitted decay
|psi_hat| <= C~ w^(-alpha), which is a fit, not a proven bound (ROADMAP item
5). The value uses that estimate scaled by the measured envelope-to-integrand
ratio over the top octave [Omega/2, Omega] (the shape of |psi_hat| is close to
self-similar across octaves, so the top octave calibrates the
oscillation-averaged tail far more sharply than the raw ceiling), while the
reported abs_error keeps the full uncalibrated interval.
The error budget adds the quadrature estimate, that interval and the product
truncation of |psi_hat|^2 (relative PRODUCT_TOL), which moves the integral by
at most a relative p/2 * PRODUCT_TOL.

The quadrature stops at the absolute tolerance QUAD_SHARE * tail_bound / 4 or
the relative tolerance 1e-9, whichever it meets first. The tail error is at
least tail_bound / 2, so at the absolute tolerance the quadrature's part
2 * quad_err of the error sum is at most QUAD_SHARE times the tail part, which
more panels cannot reduce. abs_error stays an upper bound as far as the panel
estimate is one: the sum still counts that estimate in full, and stopping
earlier only makes it larger. An integral outside the positive normal doubles
raises ValueError. Everything here is deterministic for a fixed request.

The quadrature integrand reads |psi_hat|^2 through a memo (_Abs2Memo), since
k and p only reweight it and every run bisects the same dyadic lattice. Per
order it maps a panel's 15 nodes to their 15 values, both as bytes, so it
returns the very values a fresh call would, and a norm is the same whether
the memo is cold or warm. The 42 default quadrature norms send 108,330 points
to wavelet_hat_abs2, not the 168,510 they integrate, and store 7,222 rows
(2.5 MB) under the memo's cap of 8,192. The calls they take depend on the
order the norms run in: 511 in the benchmark's seed-1 verify_suite order,
555 when the six checks run their default grids in turn.
"""

from __future__ import annotations

import math
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .quadrature import NODES_PER_PANEL, QuadResult, adaptive_quadrature
from .refinable import even_power_integral
from .special_math import UNIT_ROUNDOFF, check_norm_domain
from .spectral_eval import PRODUCT_TOL, DecayFit, estimate_decay, wavelet_hat_abs2

DEFAULT_OMEGA_MAX = 2.0**12 * math.pi

# |psi_hat| for order 1 has the closed form sin^2(w/4) / (sqrt(2 pi) |w/4|),
# so |psi_hat(w)| <= (4 / sqrt(2 pi)) / |w|: an exact envelope with exponent 1.
_HAAR_ENVELOPE = (4.0 / math.sqrt(2.0 * math.pi), 1.0)

# The quadrature stops once its error is this share of the tail error, which
# more panels cannot reduce.
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


# A row of the |psi_hat|^2 memo is the 15 nodes of one Gauss-Kronrod panel,
# viewed as one 120-byte item so that tolist gives one bytes object per row.
_ROW_BYTES = np.dtype(f"V{8 * NODES_PER_PANEL}")
# The module memo's cap on stored rows, over all orders together.
_MEMO_ROWS = 1 << 13


class _Abs2Memo:
    """wavelet_hat_abs2 on node rows, each row evaluated once per order.

    The quadrature integrand receives its nodes in rows of 15, one row per
    panel, and every norm bisects the same dyadic lattice whatever its order,
    so norms share most of their panels. Per order, the memo keeps a dict
    from a row's 15 nodes, as bytes, to its 15 values, as bytes.

    A call looks up all of its rows and sends only the rows that miss to
    wavelet_hat_abs2, in one call. A row is found only when all 15 nodes are
    byte-equal, so the values stored for it are what wavelet_hat_abs2 gave on
    exactly these nodes; since each entry of its array is bit-identical to a
    call on that entry alone, they are what a fresh call returns.

    A row takes about 346 bytes: two 120-byte bytes objects and a dict entry.
    The module's memo holds at most 8,192 rows, about 2.8 MB. A call whose
    new rows do not fit stores none of them, and the memo still serves the
    rows it holds. One lock guards the memo; no thread holds it while
    wavelet_hat_abs2 runs.
    """

    def __init__(self, rows: int) -> None:
        self._cap = rows
        self._stored: dict[int, dict[bytes, bytes]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """The rows stored, over all orders."""
        return sum(map(len, self._stored.values()))

    def for_order(self, m: int) -> Callable[[np.ndarray], np.ndarray]:
        """w -> wavelet_hat_abs2(m, w), bit for bit, for 1-d float arrays w of whole node rows.

        The array returned may be read-only.
        """
        with self._lock:
            return partial(self._abs2, m, self._stored.setdefault(m, {}))

    def _abs2(self, m: int, stored: dict[bytes, bytes], w: np.ndarray) -> np.ndarray:
        keys = w.view(_ROW_BYTES).tolist()
        with self._lock:
            found = list(map(stored.get, keys))
        miss = [i for i, values in enumerate(found) if values is None]
        if not miss:
            return np.frombuffer(b"".join(found))
        fresh = wavelet_hat_abs2(m, w.reshape(-1, NODES_PER_PANEL)[miss].ravel())
        rows = fresh.view(_ROW_BYTES).tolist()
        with self._lock:
            if len(self) + len(miss) <= self._cap:
                stored.update(zip(map(keys.__getitem__, miss), rows))
        if len(miss) == len(keys):
            return fresh
        for i, values in zip(miss, rows):
            found[i] = values
        return np.frombuffer(b"".join(found))


_ABS2_MEMO = _Abs2Memo(_MEMO_ROWS)


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

    The power itself rounds by at most 2 ulp, which abs_error adds. A negative integral raises.
    """
    integral, err = even_power_integral(req.m, req.k, round(req.p) // 2)
    if integral < 0:
        raise ValueError(f"the {req.m, req.k, req.p} norm integral {integral} +/- {err} is below 0")
    value = integral ** (1.0 / req.p)
    abs_error = _root_error(integral, err, req.p) + 4.0 * UNIT_ROUNDOFF * value
    return QuadResult(value=value, abs_error=abs_error, evaluations=0, panels=0)


def quadrature_lp_norm(req: NormRequest, *, omega_max: float = DEFAULT_OMEGA_MAX) -> QuadResult:
    """||(i w)^(-k) psi_hat||_p by quadrature over [0, omega_max], for any p; not cached.

    The error combines the quadrature estimate, the full width of the
    analytic tail interval and the product truncation, and bounds their
    effect through the final 1/p power (module docstring).
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

    abs2 = _ABS2_MEMO.for_order(m)

    def integrand(w: np.ndarray) -> np.ndarray:
        # Weighting before the power keeps w^(-pk) from overflowing near the origin.
        root = np.sqrt(abs2(w))
        if k:
            root *= w**-k
        return root**p

    def envelope_tail(w: float) -> float:
        # 2 * integral_[w, inf) of the envelope to the p; C~^p alone could overflow.
        return 2.0 * w * (c_tilde * w ** -(k + alpha)) ** p / (beta - 1.0)

    # Envelope tail estimate; its error is at least tail_bound / 2 whatever rho is.
    tail_bound = envelope_tail(omega_max)
    quad, panels = adaptive_quadrature(
        integrand,
        0.0,
        omega_max,
        rel_tol=1e-9,
        abs_tol=QUAD_SHARE * tail_bound / 4.0,
        max_panels=60_000,
        breakpoints=_dyadic_breakpoints(omega_max),
        return_panels=True,
    )

    # Top-octave calibration of the tail estimate; omega_max / 2 is a breakpoint.
    env_top = (envelope_tail(omega_max / 2.0) - tail_bound) / 2.0
    num_top = sum(pnl.value for pnl in panels if pnl.a >= omega_max / 2.0)
    rho = min(max(num_top / env_top, 0.0), 1.0) if env_top > 0 else 1.0
    tail_est = rho * tail_bound
    tail_err = max(tail_est, tail_bound - tail_est)

    total = 2.0 * quad.value + tail_est
    # The product truncation moves |psi_hat|^p, and so the product part
    # 2 * quad of the integral, by at most p/2 * PRODUCT_TOL relative.
    truncation = p * PRODUCT_TOL * quad.value
    err_sum = 2.0 * quad.abs_error + tail_err + truncation
    if not (sys.float_info.min <= total < math.inf and math.isfinite(err_sum)):
        raise ValueError(f"the ({m}, {k}, {p}) norm integral {total} +/- {err_sum} is out of range")
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
