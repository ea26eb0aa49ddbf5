import math

import mpmath as mp
import pytest

from wavebounds.bound_formulas import (
    BoundParams,
    _band_weight_factor,
    _leading_term,
    bound_A,
    bound_B,
    bound_D,
    bound_E,
    bound_F,
    bound_G,
    compute_bound_set,
    ratio_bounds,
)
from wavebounds.special_math import sinc_alternating_sum

mp.mp.dps = 50


def mp_factorial_ratio(m):
    return mp.factorial(2 * m) / (mp.factorial(m) * mp.factorial(m - 1))


def mp_bracket(p, k, m, x, c):
    t1 = (
        mp.mpf(2) ** (1 - p * (2 * m + mp.mpf(1) / 2))
        * mp.mpf(x) ** (p * (m - k - mp.mpf(1) / 2) + 1)
        * mp_factorial_ratio(m) ** (p / mp.mpf(2))
    )
    t2 = (2 * mp.pi) ** (2 - c * p * mp.log(m))
    t3 = mp.mpf(2) ** (1 - p / mp.mpf(2)) * mp.pi ** (1 - p * (k + mp.mpf(1) / 2))
    return t1 + t2 + t3


def mp_leading(p, k):
    pk = p * k
    ratio = mp.log(2) if pk == 1 else (1 - mp.mpf(2) ** (1 - pk)) / (pk - 1)
    return (2 * mp.pi) ** (mp.mpf(1) / p - mp.mpf(1) / 2) * mp.pi**-k * ratio ** (mp.mpf(1) / p)


def mp_bound_A(p, k, m, c):
    return mp_leading(p, k) + mp_bracket(p, k, m, mp.pi, c) ** (mp.mpf(1) / p)


def mp_bound_B(p, k, m, c, eps):
    return mp_leading(p, k) - mp_bracket(p, k, m, eps, c) ** (mp.mpf(1) / p)


def mp_bound_D(p, m, c):
    return (
        2 * (2 * mp.pi) ** (mp.mpf(1) / p - mp.mpf(1) / 2)
        + mp.mpf(2) ** (mp.mpf(1) / 2 - 2 * m)
        * mp.pi ** (m + mp.mpf(1) / 2)
        * mp.sqrt(mp_factorial_ratio(m))
        + (2 * mp.pi) ** (2 - c * mp.log(m))
    )


def mp_bound_E(p, m, c):
    bracket = (
        mp.mpf(2) ** (-p * (mp.mpf(1) / 2 + 2 * m) + 1)
        * mp.pi ** (p * (m - mp.mpf(1) / 2) + 1)
        * mp_factorial_ratio(m) ** (p / mp.mpf(2))
        + (2 * mp.pi) ** (2 - c * p * mp.log(m))
        + (2 * mp.pi) ** (1 - p / mp.mpf(2))
    )
    return (2 * mp.pi) ** (mp.mpf(1) / p - mp.mpf(1) / 2) - bracket ** (mp.mpf(1) / p)


def mp_bound_F(p, m):
    n = int(round(m * p))
    total = mp.mpf(0)
    for i in range(n // 2 + 1):
        total += (
            (-1) ** i
            * mp.factorial(n)
            / (mp.factorial(n - i) * mp.factorial(i))
            * mp.mpf(n - 2 * i) ** (n - 1)
        )
    term1 = mp.mpf(2) ** (1 - p / mp.mpf(2)) / (
        mp.pi ** (p * (m + mp.mpf(1) / 2) - 1) * (n - 1)
    )
    term2 = (
        mp.mpf(2) ** (1 - p * (2 * m - 1))
        / (mp.pi ** (p / mp.mpf(2) - 1) * mp.factorial(n - 1))
        * total
    )
    return (term1 + term2) ** (mp.mpf(1) / p)


def mp_bound_G(p, m):
    n = int(round(m * p))
    g_p = (
        mp.mpf(2) ** (1 - 2 * p * m)
        * mp.factorial(2 * m)
        / (
            mp.pi ** (p / mp.mpf(2) - 1)
            * mp.mpf(m) ** (p / mp.mpf(2))
            * mp.mpf(3) ** n
            * mp.factorial(m)
            * mp.factorial(m - 1)
        )
    )
    return g_p ** (mp.mpf(1) / p)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0, "k": 0, "p": 2.0, "c": 1.0},
            {"m": 2, "k": -1, "p": 2.0, "c": 1.0},
            {"m": 2, "k": 1, "p": 1.0, "c": 1.0},
            {"m": 2, "k": 1, "p": 2.0, "c": 0.0},
            {"m": 2, "k": 1, "p": 2.0, "c": 1.0, "eps": 0.0},
            {"m": 2, "k": 1, "p": 2.0, "c": 1.0, "eps": 3.2},
            {"m": 3, "k": 1.5, "p": 2.0, "c": 1.0},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BoundParams(**kwargs)

    def test_eps_pi_allowed(self):
        BoundParams(m=2, k=1, p=2.0, c=1.0, eps=math.pi)

    def test_k_at_least_m_rejected_for_A_B(self):
        with pytest.raises(ValueError):
            bound_A(BoundParams(m=2, k=2, p=2.0, c=1.0))


class TestUpperLowerPair:
    def test_shared_bracket_at_eps_pi(self):
        params = BoundParams(m=2, k=1, p=2.0, c=1.0, eps=math.pi)
        a, b = bound_A(params), bound_B(params)
        t0 = _leading_term(params)
        assert (a - t0) == pytest.approx(t0 - b, rel=1e-14)

    @pytest.mark.parametrize(
        "m,k,p,c,eps",
        [
            (2, 1, 2.0, 1.0, math.pi / 2),
            (3, 1, 1.5, 0.8, 1.0),
            (4, 2, 3.0, 1.7, 2.5),
            (6, 5, 2.0, 2.2, 0.3),
        ],
    )
    def test_against_high_precision_oracle(self, m, k, p, c, eps):
        params = BoundParams(m=m, k=k, p=p, c=c, eps=eps)
        assert bound_A(params) == pytest.approx(float(mp_bound_A(p, k, m, c)), rel=1e-12)
        assert bound_B(params) == pytest.approx(float(mp_bound_B(p, k, m, c, eps)), rel=1e-12)

    def test_lower_constant_monotone_in_eps(self):
        # Shrinking eps shrinks the bracket, so B rises toward its eps -> 0 limit.
        values = [
            bound_B(BoundParams(m=3, k=1, p=2.0, c=1.0, eps=e))
            for e in (math.pi, 2.0, 1.0, 0.25, 0.01)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        params = BoundParams(m=3, k=1, p=2.0, c=1.0, eps=1e-12)
        limit = _leading_term(params) - float(mp_bracket(2.0, 1, 3, 0, 1.0)) ** 0.5
        assert values[-1] < limit

    def test_leading_term_continuous_at_pk_one(self):
        # k, p with pk near 1: the antiderivative form has a removable
        # singularity there, which expm1 resolves without a branch.
        near = _leading_term(BoundParams(m=2, k=1, p=1.0 + 1e-10, c=1.0))
        limit = _leading_term(BoundParams(m=2, k=1, p=1.0 + 1e-13, c=1.0))
        assert near == pytest.approx(limit, rel=1e-6)

    @pytest.mark.parametrize("pk", [1.0 + 1e-10, 1.0 + 1e-8, 1.5, 3.0])
    def test_band_weight_factor_against_high_precision_oracle(self, pk):
        # The cancellation in 1 - 2^(1-pk) near pk = 1 costs no digits.
        p = mp.mpf(pk)
        exact = ((1 - mp.mpf(2) ** (1 - p)) / (p - 1)) ** (1 / p)
        assert _band_weight_factor(pk, 1) == pytest.approx(float(exact), rel=4e-16)


class TestUnweightedPair:
    @pytest.mark.parametrize("m,p,c", [(2, 2.0, 1.0), (3, 1.5, 0.7), (5, 3.0, 2.0)])
    def test_against_high_precision_oracle(self, m, p, c):
        params = BoundParams(m=m, k=0, p=p, c=c)
        assert bound_D(params) == pytest.approx(float(mp_bound_D(p, m, c)), rel=1e-12)
        assert bound_E(params) == pytest.approx(float(mp_bound_E(p, m, c)), rel=1e-12)

    def test_upper_leading_term_limit_toward_p_one(self):
        p = 1.0 + 1e-9
        params = BoundParams(m=2, k=0, p=p, c=1.0)
        rest = bound_D(params) - 2.0 * (2.0 * math.pi) ** (1.0 / p - 0.5)
        assert bound_D(params) - rest == pytest.approx(2.0 * math.sqrt(2.0 * math.pi), rel=1e-8)

    def test_lower_matches_weighted_lower_at_k_zero(self):
        params = BoundParams(m=4, k=0, p=2.5, c=1.3, eps=math.pi)
        assert bound_E(params) == pytest.approx(bound_B(params), rel=1e-14)

    @pytest.mark.parametrize(
        "m,k,p,c,eps",
        [
            (1, 0, 2.0, 1.0, math.pi),
            (2, 1, 1.5, 0.7, 1.0),
            (4, 3, 2.5, 1.3, 0.5),
            (6, 2, 3.0, 2.0, math.pi),
            (16, 9, 7.5, 0.3, 2.0),
        ],
    )
    def test_lower_is_weighted_lower_at_k_zero_eps_pi(self, m, k, p, c, eps):
        # E ignores k and eps: it is B at k = 0, eps = pi, bit for bit.
        params = BoundParams(m=m, k=k, p=p, c=c, eps=eps)
        assert bound_E(params) == bound_B(BoundParams(m=m, k=0, p=p, c=c, eps=math.pi))

    def test_ordering_on_grid(self):
        for m in range(1, 7):
            for p in (1.5, 2.0, 3.0):
                for c in (0.5, 1.0, 2.0):
                    params = BoundParams(m=m, k=0, p=p, c=c)
                    assert bound_E(params) < bound_D(params)

    def test_lower_constant_never_positive(self):
        # The bracket's third term alone equals the leading term raised to p,
        # so E <= 0 algebraically for every admissible parameter choice.
        for m in range(1, 9):
            for p in (1.1, 1.5, 2.0, 4.0, 16.0):
                for c in (0.1, 1.0, 10.0):
                    assert bound_E(BoundParams(m=m, k=0, p=p, c=c)) < 0.0


class TestCriticalExponentPair:
    @pytest.mark.parametrize("m,p", [(1, 2.0), (1, 4.0), (2, 2.0), (3, 2.0), (5, 4.0)])
    def test_against_high_precision_oracle(self, m, p):
        params = BoundParams(m=m, k=m, p=p, c=1.0)
        assert bound_F(params) == pytest.approx(float(mp_bound_F(p, m)), rel=1e-12)
        assert bound_G(params) == pytest.approx(float(mp_bound_G(p, m)), rel=1e-12)

    def test_order_one_hand_values(self):
        params = BoundParams(m=1, k=1, p=2.0, c=1.0)
        assert bound_F(params) == pytest.approx(math.sqrt(1.0 + 1.0 / math.pi**2), rel=1e-14)
        assert bound_G(params) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_sum_matches_sinc_integral_machinery(self, sinc_power_integral):
        # The alternating sum inside the upper constant is the same exact
        # integer as in the sinc power integral closed form.
        n = 2
        from_sinc = sinc_power_integral(n) * 2**n * math.factorial(n - 1) / math.pi
        assert sinc_alternating_sum(n) == pytest.approx(from_sinc, rel=1e-14)

    def test_positive_lower_constant(self):
        for m, p in ((1, 2.0), (2, 2.0), (4, 4.0)):
            assert bound_G(BoundParams(m=m, k=m, p=p, c=1.0)) > 0.0

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            bound_F(BoundParams(m=1, k=1, p=3.0, c=1.0))
        with pytest.raises(ValueError):
            bound_G(BoundParams(m=3, k=3, p=5.0 / 3.0, c=1.0))

    def test_wrong_weight_rejected(self):
        with pytest.raises(ValueError):
            bound_F(BoundParams(m=3, k=1, p=2.0, c=1.0))


class TestRatioBounds:
    def test_negative_numerator_clamped(self):
        interval = ratio_bounds(BoundParams(m=2, k=1, p=2.0, c=1.0))
        assert interval.lo == 0.0

    def test_nonpositive_e_flags_upper(self):
        interval = ratio_bounds(BoundParams(m=2, k=1, p=2.0, c=1.0))
        assert math.isinf(interval.hi)

    def test_critical_ratio_lower_is_binding(self):
        interval = ratio_bounds(BoundParams(m=2, k=2, p=2.0, c=1.0))
        assert interval.lo > 0.0

    def test_k_equal_m_takes_corollary_3s_pair(self):
        params = BoundParams(m=2, k=2, p=2.0, c=1.0)
        assert ratio_bounds(params).lo == bound_G(params) / bound_D(params)

    def test_k_above_m_rejected(self):
        with pytest.raises(ValueError, match="defined only for k = m, got k=3, m=2"):
            ratio_bounds(BoundParams(m=2, k=3, p=2.0, c=1.0))

    def test_odd_product_propagates(self):
        with pytest.raises(ValueError):
            ratio_bounds(BoundParams(m=3, k=3, p=5.0 / 3.0, c=1.0))


class TestBoundSet:
    def test_weighted_case_has_no_critical_constants(self):
        bounds = compute_bound_set(BoundParams(m=3, k=1, p=2.0, c=1.0))
        assert bounds.A is not None and bounds.B is not None
        assert bounds.F is None and bounds.G is None
        assert "vacuous_lower_E" in bounds.flags

    def test_critical_case_includes_f_g(self):
        bounds = compute_bound_set(BoundParams(m=2, k=2, p=2.0, c=1.0))
        assert bounds.F is not None and bounds.G is not None
        assert "asymptotic_lower_G" in bounds.flags

    def test_even_product_past_the_sinc_sum_raises(self):
        # m p = 160: inside F's hypothesis, past what the library evaluates.
        with pytest.raises(ValueError, match="supports n <= 128, got n=160"):
            compute_bound_set(BoundParams(m=20, k=20, p=8.0, c=1.0))

    def test_order_one_flagged(self):
        bounds = compute_bound_set(BoundParams(m=1, k=0, p=2.0, c=1.0))
        assert "log_m_zero" in bounds.flags
