"""Exact even-power integrals of the weighted wavelet transform, from its refinement system.

With c = cos^2(x/2) and P(y) = sum_(j<m) C(m-1+j, j) y^j,

    |H(x)|^2 = c^m P(1 - c),    |H(x + pi)|^2 = (1 - c)^m P(c)

(Daubechies, Ten Lectures, section 6.1). Every polynomial below is built in c
with integer coefficients from P alone, never from the taps, and turned into
a Laurent polynomial in z = e^(ix) once, through c^j = z^(-j) (1 + z)^(2j) / 4^j,
so its coefficients are integers over a power of 4.

Let p = 2r, 0 <= k <= m, and Phi_k = phi convolved with k unit boxes, which is
refinable with symbol |H(x)|^2 cos^(2k)(x/2). Since |psi_hat(w)|^2 =
|H(w/2 + pi)|^2 |phi_hat(w/2)|^2 and |Phi_k_hat(x)|^2 = |phi_hat(x)|^2
(sin(x/2) / (x/2))^(2k),

    w^(-2k) |psi_hat(w)|^2 = 4^(-2k) R_k(w/2) |Phi_k_hat(w/2)|^2,
    R_k(x) = (1 - c)^(m-k) P(c),

with no division by sin^(2k). Hence

    integral |w|^(-pk) |psi_hat(w)|^p dw = 2 * 4^(-2kr) * sum_j rho_j M(j),

where rho_j are the coefficients of R_k^r and M(n) = integral |Phi_k_hat|^(2r)
e^(inx) dx. The moments vanish for |n| > N = deg S - 1 and solve the cascade
system M(n) = 2 sum_j s_j M(2n + j), s_j the coefficients of
S = (|H|^2 cos^(2k))^r; Poisson summation fixes sum_n M(n) = (2 pi)^(1-r)
(Dahmen & Micchelli, SIAM J. Numer. Anal. 30, 1993; Latto, Resnikoff &
Tenenbaum, 1991). Every column of the cascade matrix sums to 1, so any one
equation may give way to the normalization; the middle one does.

The system A M = e is solved in floats and the error is proven, not
estimated. With X a float inverse and delta >= ||I - X A||_inf (its float
value plus the gamma_n |X||A| rounding of the product) below 1,
A^(-1) - X = (I - X A) A^(-1) gives

    |rho . (M - M_hat)| <= |rho| |X| |r| + ||rho||_1 delta ||X||_inf ||r||_inf / (1 - delta),

where the residual r = e - A M_hat is computed exactly, in integers, against
the exact coefficients. rho . M_hat is summed exactly and rounded once.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .special_math import UNIT_ROUNDOFF, check_order, dyadic_integers, gamma_n, p_coefficients


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two polynomials given by their ascending integer coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _power(a: list[int], r: int) -> list[int]:
    out = [1]
    for _ in range(r):
        out = _mul(out, a)
    return out


def _one_minus(n: int) -> list[int]:
    """(1 - c)^n."""
    return [(-1) ** i * math.comb(n, i) for i in range(n + 1)]


def _laurent(a: list[int]) -> tuple[list[int], int]:
    """sum_j a_j c^j as numerators n_t, t = -d..d, over 4^d: the coefficient of z^t is n_t / 4^d.

    Horner's rule on 4^(d-j) (a_j + c (...)), with 4c = z^(-1) + 2 + z.
    """
    d = len(a) - 1
    out = [a[d]]
    for j in range(d - 1, -1, -1):
        padded = [0, 0, *out, 0, 0]
        out = [padded[i] + 2 * padded[i + 1] + padded[i + 2] for i in range(len(out) + 2)]
        out[len(out) // 2] += a[j] << (2 * (d - j))
    return out, d


def symbol(m: int, k: int, r: int) -> tuple[list[int], int]:
    """S = (|H|^2 cos^(2k))^r = (c^(m+k) P(1 - c))^r as Laurent numerators over 4^d."""
    p_flip = [0] * m
    for j, coef in enumerate(p_coefficients(m)):
        for i, term in enumerate(_one_minus(j)):
            p_flip[i] += coef * term
    return _laurent(_power([0] * (m + k) + p_flip, r))


def band_factor(m: int, k: int, r: int) -> tuple[list[int], int]:
    """R_k^r = ((1 - c)^(m-k) P(c))^r as Laurent numerators over 4^d."""
    return _laurent(_power(_mul(_one_minus(m - k), p_coefficients(m)), r))


def cascade_matrix(s: list[int], d: int) -> np.ndarray:
    """The cascade system of the symbol n_t / 4^d (t = -d..d) in floats, each entry rounded once.

    Row n (|n| <= N = d - 1) is M(n) - 2 sum_j s_j M(2n + j) = 0, except row
    n = 0 (index N), which is sum_n M(n) = 1. The unknowns are M(-N), ..., M(N).
    """
    n_max = d - 1
    e = 2 * d - 1  # 2 s_t = n_t / 2^e
    idx = np.arange(-n_max, n_max + 1)
    t = idx[None, :] - 2 * idx[:, None]
    two_s = np.array([math.ldexp(float(-v), -e) for v in s] + [0.0])
    a = two_s[np.where(np.abs(t) <= d, t + d, 2 * d + 1)]
    a[idx + n_max, idx + n_max] = [math.ldexp(float((1 << e) - s[d - n]), -e) for n in idx]
    a[n_max] = 1.0
    return a


def _residual(s: list[int], d: int, nums: list[int], shift: int) -> list[int]:
    """e_N - A M_hat for M_hat = nums / 2^shift, exactly, as numerators over 2^(2d - 1 + shift)."""
    n_max = d - 1
    e = 2 * d - 1
    out = []
    for n in range(-n_max, n_max + 1):
        if n == 0:
            out.append((1 << (e + shift)) - (sum(nums) << e))
            continue
        acc = nums[n + n_max] << e
        for j in range(max(-d, -n_max - 2 * n), min(d, n_max - 2 * n) + 1):
            acc -= s[j + d] * nums[2 * n + j + n_max]
        out.append(-acc)
    return out


def _up(num: int, shift: int) -> float:
    """A float at or above |num| / 2^shift."""
    num = abs(num)
    excess = max(num.bit_length() - 53, 0)
    # The ceiling of num / 2^excess has at most 53 bits, so it converts exactly;
    # nextafter covers the rounding of an underflowing ldexp.
    return math.nextafter(math.ldexp(float(-(-num >> excess)), excess - shift), math.inf)


def even_power_integral(m: int, k: int, r: int) -> tuple[float, float]:
    """(I, err): I = integral |w|^(-2rk) |psi_hat(w)|^(2r) dw and a proven bound on |I - exact|.

    Raises ValueError for an order above MAX_ORDER, the library's limit, or a
    system whose coefficients leave the float range, and with the measured
    delta when the float inverse does not certify (delta >= 1), rather than
    returning an unproven value.
    """
    check_order(m)
    if not (0 <= k <= m and r >= 1):
        raise ValueError(
            f"even_power_integral requires 0 <= k <= m and r >= 1, got m={m}, k={k}, r={r}"
        )
    # The symbol's numerators run up to 4^d, d = r(2m + k - 1), and must convert to floats.
    if 2 * r * (2 * m + k - 1) > 1023:
        raise ValueError(
            f"the ({m}, {k}, r={r}) cascade system has coefficients over 4^{r * (2 * m + k - 1)}, "
            "beyond the float range"
        )
    s, d = symbol(m, k, r)
    a_f = cascade_matrix(s, d)
    size = len(a_f)
    n_max = d - 1
    x = np.linalg.inv(a_f)
    g = gamma_n(size + 2)

    # delta >= ||I - X A||_inf: the float product, its gamma_n |X||A_f| rounding, and
    # the rounding |A - A_f| <= u |A| of the entries, each float sum inflated by (1 + g).
    abs_x = np.abs(x)
    defect = np.abs(np.eye(size) - x @ a_f) + 2.0 * g * (abs_x @ np.abs(a_f))
    delta = float(np.max(defect.sum(axis=1))) * (1.0 + g) ** 4
    if not delta < 1.0:
        raise ValueError(
            f"the float inverse of the ({m}, {k}, r={r}) cascade system does not certify: "
            f"delta = ||I - X A||_inf <= {delta:.3e} is not below 1"
        )
    x_norm = float(np.max(abs_x.sum(axis=1))) * (1.0 + g)

    m_hat = x[:, n_max]
    nums, shift = dyadic_integers(m_hat)
    r_abs = np.array([_up(v, 2 * d - 1 + shift) for v in _residual(s, d, nums, shift)])

    band, d_rho = band_factor(m, k, r)
    # rho_t multiplies M(t); terms with |t| > N meet a vanishing moment.
    rho = {t: band[t + d_rho] for t in range(-min(d_rho, n_max), min(d_rho, n_max) + 1)}
    exact = sum(rho[t] * nums[t + n_max] for t in rho)
    v_hat = exact / (4**d_rho << shift)
    rho_abs = np.zeros(size)
    for t, num in rho.items():
        rho_abs[t + n_max] = _up(num, 2 * d_rho)
    err = (
        float(rho_abs @ (abs_x @ r_abs))
        + float(rho_abs.sum()) * delta * x_norm * float(r_abs.max()) / (1.0 - delta)
    ) * (1.0 + g) ** 4 + 2.0 * UNIT_ROUNDOFF * abs(v_hat)

    # I = 2 * 4^(-2kr) (2 pi)^(1-r) V: the power of two is exact; 2 pi, its
    # power and the product round by at most (r + 2) u <= 4 r u relative.
    factor = (2.0 * math.pi) ** (1 - r)
    integral = math.ldexp(v_hat, 1 - 4 * k * r) * factor
    rounding = 4.0 * r * UNIT_ROUNDOFF
    err = math.ldexp(err, 1 - 4 * k * r) * factor * (1.0 + rounding) + rounding * abs(integral)
    return integral, err
