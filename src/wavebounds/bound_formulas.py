"""Closed-form sandwich constants for the weighted wavelet norms.

Six constants are evaluated exactly as displayed:

  * A, B bracket ||w^(-k) psi_hat||_p for 0 <= k < m, with B differing from A
    only through the epsilon-dependent first bracket term;
  * D, E bracket the unweighted ||psi_hat||_p;
  * F, G bracket the k = m case for even m*p, with the upper constant built
    from the exact alternating sum behind the sinc power integral and the
    lower constant carrying an asymptotic 1-o(1) factor evaluated as 1.

The decay exponent parameter c (and its companion C_tilde) are caller-supplied
inputs; C_tilde never enters the displayed expressions and is carried only so
reports can record which envelope produced the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .special_math import factorial_ratio, sinc_alternating_sum


@dataclass(frozen=True)
class BoundParams:
    """Inputs shared by the closed-form constants.

    eps may equal pi (the value at which the A/B brackets coincide); c is the
    decay exponent parameter entering through c * log(m), natural log.
    """

    m: int
    k: int
    p: float
    c: float
    eps: float = math.pi
    c_tilde: float | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"order must be positive, got {self.m}")
        if self.k < 0:
            raise ValueError(f"weight exponent must be nonnegative, got {self.k}")
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if not (0.0 < self.eps <= math.pi):
            raise ValueError(f"eps must lie in (0, pi], got {self.eps}")
        if not self.c > 0:
            raise ValueError(f"decay parameter c must be positive, got {self.c}")


@dataclass(frozen=True)
class RatioInterval:
    """Sandwich interval for a best-constant ratio, with vacuousness flags."""

    lo: float
    hi: float
    vacuous_lower: bool
    vacuous_upper: bool


@dataclass(frozen=True)
class BoundSet:
    """All constants computable for one parameter set, plus provenance flags."""

    params: BoundParams
    A: float | None = None
    B: float | None = None
    D: float | None = None
    E: float | None = None
    F: float | None = None
    G: float | None = None
    flags: tuple[str, ...] = ()


def _band_weight_factor(p: float, k: int) -> float:
    """((1 - 2^(1-pk)) / (pk - 1))^(1/p) with the log-2 limit at pk = 1.

    This is the closed form of pi^pk * integral_pi^(2pi) w^(-pk) dw, whose
    antiderivative expression has a removable singularity at pk = 1.
    """
    pk = p * k
    if abs(pk - 1.0) < 1e-9:
        ratio = math.log(2.0)
    else:
        ratio = (1.0 - 2.0 ** (1.0 - pk)) / (pk - 1.0)
    return ratio ** (1.0 / p)


def _leading_term(params: BoundParams) -> float:
    p, k = params.p, params.k
    return (2.0 * math.pi) ** (1.0 / p - 0.5) * math.pi**-k * _band_weight_factor(p, k)


def _bracket(params: BoundParams, x: float) -> float:
    """Shared three-term bracket; x is pi for the upper constant, eps for the lower."""
    m, k, p = params.m, params.k, params.p
    t1 = (
        2.0 ** (1.0 - p * (2 * m + 0.5))
        * x ** (p * (m - k - 0.5) + 1.0)
        * factorial_ratio(m) ** (0.5 * p)
    )
    t2 = (2.0 * math.pi) ** (2.0 - params.c * p * math.log(m))
    t3 = 2.0 ** (1.0 - 0.5 * p) * math.pi ** (1.0 - p * (k + 0.5))
    return t1 + t2 + t3


def require_k_below_m(m: int, k: int) -> None:
    """The hypothesis on the weight exponent of A, B and the coefficient inequality: 0 <= k < m."""
    if not 0 <= k < m:
        raise ValueError(f"requires 0 <= k < m, got k={k}, m={m}")


def bound_A(params: BoundParams) -> float:
    """Upper constant for ||w^(-k) psi_hat||_p."""
    require_k_below_m(params.m, params.k)
    return _leading_term(params) + _bracket(params, math.pi) ** (1.0 / params.p)


def bound_B(params: BoundParams) -> float:
    """Lower constant for ||w^(-k) psi_hat||_p; may be negative (vacuous)."""
    require_k_below_m(params.m, params.k)
    return _leading_term(params) - _bracket(params, params.eps) ** (1.0 / params.p)


def bound_D(params: BoundParams) -> float:
    """Upper constant for ||psi_hat||_p (k plays no role)."""
    m, p = params.m, params.p
    return (
        2.0 * (2.0 * math.pi) ** (1.0 / p - 0.5)
        + 2.0 ** (0.5 - 2 * m) * math.pi ** (m + 0.5) * math.sqrt(factorial_ratio(m))
        + (2.0 * math.pi) ** (2.0 - params.c * math.log(m))
    )


def bound_E(params: BoundParams) -> float:
    """Lower constant for ||psi_hat||_p: the lower constant B at k=0, eps=pi."""
    return bound_B(replace(params, k=0, eps=math.pi))


def _even_mp(params: BoundParams) -> int:
    n = params.m * params.p
    n_int = round(n)
    if abs(n - n_int) > 1e-9 or n_int % 2 != 0:
        raise ValueError(f"requires m*p to be an even integer, got {n}")
    if n_int <= 1:
        raise ValueError(f"requires m*p > 1, got {n}")
    return n_int


def bound_F(params: BoundParams) -> float:
    """Upper constant for ||w^(-m) psi_hat||_p (k = m, m*p even)."""
    if params.k != params.m:
        raise ValueError(f"defined only for k = m, got k={params.k}, m={params.m}")
    n = _even_mp(params)
    m, p = params.m, params.p
    term1 = 2.0 ** (1.0 - 0.5 * p) / (math.pi ** (p * (m + 0.5) - 1.0) * (n - 1))
    scaled_sum = float(Fraction(sinc_alternating_sum(n), math.factorial(n - 1)))
    term2 = 2.0 ** (1.0 - p * (2 * m - 1)) * scaled_sum / math.pi ** (0.5 * p - 1.0)
    return (term1 + term2) ** (1.0 / p)


def bound_G(params: BoundParams) -> float:
    """Lower constant for ||w^(-m) psi_hat||_p, with the 1-o(1) factor taken as 1.

    The result is an asymptotic lower constant; verification sweeps apply a
    documented slack factor instead of asserting it raw.
    """
    if params.k != params.m:
        raise ValueError(f"defined only for k = m, got k={params.k}, m={params.m}")
    n = _even_mp(params)
    m, p = params.m, params.p
    g_p = (
        2.0 ** (1.0 - 2 * p * m)
        * factorial_ratio(m)
        / (math.pi ** (0.5 * p - 1.0) * m ** (0.5 * p) * 3.0**n)
    )
    return g_p ** (1.0 / p)


def compute_bound_set(params: BoundParams) -> BoundSet:
    """Evaluate every constant whose preconditions hold for these parameters."""
    flags: list[str] = []
    values: dict[str, float | None] = {"A": None, "B": None, "D": None, "E": None, "F": None, "G": None}
    if params.m == 1:
        flags.append("log_m_zero")  # the (2 pi)^(2 - c p log m) term degenerates to (2 pi)^2
    if params.k < params.m:
        values["A"] = bound_A(params)
        values["B"] = bound_B(params)
        if values["B"] < 0:
            flags.append("vacuous_lower_B")
    values["D"] = bound_D(params)
    values["E"] = bound_E(params)
    if values["E"] <= 0:
        flags.append("vacuous_lower_E")
    if params.k == params.m:
        try:
            values["F"] = bound_F(params)
            values["G"] = bound_G(params)
            flags.append("asymptotic_lower_G")
        except ValueError:
            pass
    return BoundSet(params=params, flags=tuple(flags), **values)


def ratio_bounds(params: BoundParams, which: str) -> RatioInterval:
    """Sandwich interval for the best constant: (B/D, A/E) or (G/D, F/E).

    A negative numerator clamps the lower end to 0 (vacuous but not wrong);
    E <= 0 makes the upper ratio meaningless, reported as +inf with a flag.
    """
    if which not in ("Cor2", "Cor3"):
        raise ValueError(f"which must be 'Cor2' or 'Cor3', got {which!r}")
    d = bound_D(params)
    e = bound_E(params)
    if d <= 0:
        raise ValueError(f"upper constant D={d:.6g} is not positive")
    if which == "Cor2":
        num_lo, num_hi = bound_B(params), bound_A(params)
    else:
        num_lo, num_hi = bound_G(params), bound_F(params)
    vac_lower = num_lo < 0
    lo = max(num_lo, 0.0) / d
    if e > 0:
        return RatioInterval(lo=lo, hi=num_hi / e, vacuous_lower=vac_lower, vacuous_upper=False)
    return RatioInterval(lo=lo, hi=math.inf, vacuous_lower=vac_lower, vacuous_upper=True)
