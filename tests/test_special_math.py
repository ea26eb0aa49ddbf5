import math
from fractions import Fraction

import pytest
from scipy.integrate import quad

from wavebounds.special_math import (
    MAX_ORDER,
    cm_constant,
    factorial_ratio,
    p_coefficients,
    sinc_alternating_sum,
)


class TestCmConstant:
    def test_order_one_is_half(self):
        assert cm_constant(1) == 0.5

    def test_order_two_dual_forms(self):
        # Gamma-ratio form and the factorial form must agree independently.
        gamma_form = math.gamma(2.5) / (math.sqrt(math.pi) * math.gamma(2))
        factorial_form = math.factorial(4) / (2**4 * math.factorial(2) * math.factorial(1))
        assert gamma_form == pytest.approx(factorial_form, rel=1e-15)
        assert cm_constant(2) == 0.75

    @pytest.mark.parametrize("m", range(1, 33))
    def test_is_the_factorial_ratio_scaled_exactly(self, m):
        # 4^-m is exact, so c_m is correctly rounded whenever factorial_ratio is.
        assert cm_constant(m) == math.ldexp(factorial_ratio(m), -2 * m)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_matches_gamma_ratio(self, m):
        ref = math.gamma(m + 0.5) / (math.sqrt(math.pi) * math.gamma(m))
        assert cm_constant(m) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_normalizes_sine_power_integral(self, m):
        # Forced by the filter vanishing at omega = pi.
        integral, err = quad(lambda t: math.sin(t) ** (2 * m - 1), 0.0, math.pi)
        assert cm_constant(m) * integral == pytest.approx(1.0, abs=1e-10 + 10 * err)

    def test_strictly_increasing_with_bounded_ratio(self):
        values = [cm_constant(m) for m in range(1, 33)]
        assert all(b > a for a, b in zip(values, values[1:]))
        ratios = [v / math.sqrt(m) for m, v in enumerate(values, start=1)]
        # c_m / sqrt(m) climbs monotonically toward 1/sqrt(pi).
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.0 / math.sqrt(math.pi)

    @pytest.mark.parametrize("m", [0, -3, 33])
    def test_domain_errors(self, m):
        with pytest.raises(ValueError):
            cm_constant(m)


class TestSincPowerIntegral:
    def test_exact_small_cases(self, sinc_power_integral):
        assert sinc_power_integral(2) == pytest.approx(math.pi / 2, abs=1e-12)
        assert sinc_power_integral(4) == pytest.approx(math.pi / 3, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_against_quadrature_oracle(self, n, sinc_power_integral):
        T = 10_000.0
        pieces = [
            quad(lambda t: (math.sin(t) / t) ** n if t else 1.0, a, b, limit=4000)
            for a, b in zip(
                [0.0, 50.0, 1000.0], [50.0, 1000.0, T]
            )
        ]
        numeric = sum(p[0] for p in pieces)
        err = sum(p[1] for p in pieces)
        if n == 2:
            numeric += 1.0 / (2.0 * T)  # averaged tail; error O(T^-2)
            err += 2.0 / T**2
        else:
            err += T ** (1 - n) / (n - 1)
        assert sinc_power_integral(n) == pytest.approx(numeric, abs=1e-8 + err)

    @pytest.mark.parametrize("n", range(2, 129, 2))
    def test_alternating_sum_positive(self, n):
        assert sinc_alternating_sum(n) > 0

    def test_large_order_finite_and_decreasing(self, sinc_power_integral):
        values = [sinc_power_integral(n) for n in range(2, 129, 2)]
        assert all(math.isfinite(v) and v > 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [0, -2, 3, 7, 129, 130])
    def test_domain_errors(self, n, sinc_power_integral):
        with pytest.raises(ValueError):
            sinc_power_integral(n)


def test_factorial_ratio_matches_exact():
    for m in range(1, MAX_ORDER + 1):
        exact = Fraction(math.factorial(2 * m), math.factorial(m) * math.factorial(m - 1))
        assert factorial_ratio(m) == float(exact)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _one_minus_y(n: int) -> list[int]:
    return [(-1) ** i * math.comb(n, i) for i in range(n + 1)]


@pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
def test_p_coefficients_solve_the_bezout_identity(m):
    # P(y) (1-y)^m + P(1-y) y^m = 1 (Daubechies, Ten Lectures, section 6.1), in integers.
    p = list(p_coefficients(m))
    p_flipped = [0] * m
    for j, coef in enumerate(p):
        for i, term in enumerate(_one_minus_y(j)):
            p_flipped[i] += coef * term
    lhs = _poly_mul(p, _one_minus_y(m))
    for i, coef in enumerate(p_flipped):
        lhs[m + i] += coef
    assert lhs == [1] + [0] * (2 * m - 1)
