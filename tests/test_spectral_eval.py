import math
import re

import numpy as np
import pytest

from wavebounds import spectral_eval
from wavebounds.daub_filters import construct_filter, eval_H, magnitude_squared_H
from wavebounds.special_math import p_coefficients
from wavebounds.spectral_eval import (
    MAX_DEPTH,
    MIN_DEPTH,
    PRODUCT_TOL,
    DecayFit,
    _modulus_theta,
    _phase_rule,
    estimate_decay,
    scaling_hat,
    wavelet_hat,
    wavelet_hat_abs2,
)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Reference products with 72 factors, more than MAX_DEPTH, each built from one
# array call: scalar calls would round each factor differently, and at
# (m, w) = (6, 4000) that cancellation noise (1.8e-10 relative) swamps the
# truncation error being checked.
REFERENCE_DEPTH = 72


def deep_phi_hat(m: int, w: float) -> complex:
    factors = eval_H(construct_filter(m), w * 2.0 ** -np.arange(1, REFERENCE_DEPTH + 1))
    return INV_SQRT_2PI * complex(np.prod(factors))


def deep_psi_hat(m: int, w: float) -> complex:
    band = np.conj(eval_H(construct_filter(m), 0.5 * w + math.pi))
    return np.exp(-0.5j * w) * band * deep_phi_hat(m, 0.5 * w)


def deep_psi_hat_abs2(m: int, w: float) -> float:
    factors = magnitude_squared_H(m, w * 2.0 ** -np.arange(2, REFERENCE_DEPTH + 2))
    band = magnitude_squared_H(m, 0.5 * w + math.pi)
    return float(band * np.prod(factors)) / (2.0 * math.pi)


def haar_scaling_modulus(w: float) -> float:
    return INV_SQRT_2PI * (abs(math.sin(w / 2) / (w / 2)) if w else 1.0)


def haar_wavelet_modulus(w: float) -> float:
    return INV_SQRT_2PI * (math.sin(w / 4) ** 2 / abs(w / 4) if w else 0.0)


class TestScalingHat:
    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_value_at_zero(self, m):
        # every factor is H(0) = 1 up to the rounding of the tap sum
        assert scaling_hat(m, 0.0) == pytest.approx(INV_SQRT_2PI, abs=5e-15)

    def test_haar_viete_identity(self):
        for w in np.linspace(-40.0, 40.0, 41):
            assert abs(scaling_hat(1, float(w))) == pytest.approx(
                haar_scaling_modulus(float(w)), abs=1e-12
            )

    @pytest.mark.parametrize(
        "m,w", [(4, 3.7), (2, 250.0), (6, 4000.0), (2, 1e7), (20, 1.7e7), (16, 0.5)]
    )
    def test_stable_under_deeper_truncation(self, m, w):
        v1 = scaling_hat(m, w)
        v2 = deep_phi_hat(m, w)
        assert abs(v1 - v2) <= PRODUCT_TOL * abs(v2)

    def test_omega_guard(self):
        with pytest.raises(ValueError):
            scaling_hat(2, 1e9)

    def test_every_order_evaluates_at_the_guard(self):
        # Both depth rules stay within MAX_DEPTH up to the omega guard.
        guard = 2.0**MAX_DEPTH * PRODUCT_TOL
        for m in range(1, 21):
            assert np.isfinite(scaling_hat(m, guard))
            assert np.isfinite(wavelet_hat(m, -guard))
        for m in range(1, 33):
            assert np.isfinite(wavelet_hat_abs2(m, guard))

    @pytest.mark.parametrize("m", range(1, 21))
    def test_first_moment_phase_rule(self, m):
        # |H(x) - e^(i mu x)| <= K x^2, the per-factor bound behind the tail phase.
        mu, K = _phase_rule(m)
        x = np.linspace(-math.pi, math.pi, 20001)
        gap = np.abs(eval_H(construct_filter(m), x) - np.exp(1j * mu * x))
        assert np.all(gap <= K * x**2 * (1.0 + 1e-12) + 1e-15)


class TestWaveletHat:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_zero_at_origin(self, m):
        assert abs(wavelet_hat(m, 0.0)) < 1e-16

    def test_haar_closed_form(self):
        for w in np.linspace(-60.0, 60.0, 49):
            assert abs(wavelet_hat(1, float(w))) == pytest.approx(
                haar_wavelet_modulus(float(w)), abs=1e-12
            )

    @pytest.mark.parametrize("m", [2, 3, 6, 10])
    def test_even_modulus(self, m):
        for w in np.linspace(0.3, 25.0, 11):
            assert abs(wavelet_hat(m, float(w))) == pytest.approx(
                abs(wavelet_hat(m, -float(w))), abs=1e-12
            )

    @pytest.mark.parametrize(
        "m,w", [(4, 3.7), (3, 777.0), (2, 1e7), (20, 1.7e7), (16, 0.5)]
    )
    def test_stable_under_deeper_truncation(self, m, w):
        v1 = wavelet_hat(m, w)
        v2 = deep_psi_hat(m, w)
        assert abs(v1 - v2) <= PRODUCT_TOL * abs(v2)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_origin_zero_of_order_m(self, m):
        # |psi_hat| ~ K w^m near 0; the magnitude route has no cancellation.
        lo, hi = 1e-4, 1e-2
        slope = (
            0.5 * math.log(wavelet_hat_abs2(m, hi)) - 0.5 * math.log(wavelet_hat_abs2(m, lo))
        ) / (math.log(hi) - math.log(lo))
        assert slope == pytest.approx(m, abs=0.05)


class TestDualPath:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_tap_route_matches_magnitude_route(self, m):
        # Relative agreement within 2*product_tol wherever the value is
        # resolvable. Near the zeros of psi_hat the tap route is limited by
        # cancellation in eval_H: first order that is a sqrt(value)-scaled
        # absolute error, bottoming out at the squared noise floor ~1e-33.
        grid = np.linspace(-30.0, 30.0, 121)
        taps_sq = np.abs(wavelet_hat(m, grid)) ** 2
        closed = wavelet_hat_abs2(m, grid)
        allowed = 2.0 * PRODUCT_TOL * closed + 1e-14 * np.sqrt(closed) + 1e-26
        assert np.all(np.abs(taps_sq - closed) <= allowed)

    def test_single_point_consistency(self):
        a = abs(wavelet_hat(2, math.pi)) ** 2
        b = wavelet_hat_abs2(2, math.pi)
        assert a == pytest.approx(b, rel=2.0 * PRODUCT_TOL)

    @pytest.mark.parametrize("m,w", [(2, 5000.0), (8, 12868.0)])
    def test_abs2_stable_under_deeper_truncation(self, m, w):
        a = wavelet_hat_abs2(m, w)
        b = deep_psi_hat_abs2(m, w)
        assert abs(a - b) <= PRODUCT_TOL * abs(b)


# Each evaluator at order 3, with the Python type a scalar call returns.
EVALUATORS = {
    "eval_H": (lambda w: eval_H(construct_filter(3), w), complex),
    "magnitude_squared_H": (lambda w: magnitude_squared_H(3, w), float),
    "scaling_hat": (lambda w: scaling_hat(3, w), complex),
    "wavelet_hat": (lambda w: wavelet_hat(3, w), complex),
    "wavelet_hat_abs2": (lambda w: wavelet_hat_abs2(3, w), float),
}


class TestScalarArrayContract:
    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    @pytest.mark.parametrize("w", [0.0, 1e-3, -5.2, 37.0, 1e3, 1.5e5])
    def test_scalar_is_one_element_array(self, name, w):
        fn, kind = EVALUATORS[name]
        for scalar in (w, np.float64(w), np.array(w)):
            value = fn(scalar)
            assert type(value) is kind
            assert value == fn(np.array([w]))[0]

    @pytest.mark.parametrize("name", ["scaling_hat", "wavelet_hat", "wavelet_hat_abs2"])
    def test_guard_applies_to_arrays(self, name):
        fn, _ = EVALUATORS[name]
        with pytest.raises(ValueError, match=r"\|omega\|=2\.000e\+07 exceeds the evaluation guard"):
            fn(np.array([1.0, -2e7, 3.0]))


class TestBatchIndependence:
    @pytest.mark.parametrize("fn", [scaling_hat, wavelet_hat, wavelet_hat_abs2])
    def test_value_alone_equals_value_beside_a_deep_point(self, fn):
        # 1e4 needs a deeper product than 5.2; that must not reach 5.2's value.
        assert fn(2, np.array([5.2, 1e4]))[0] == fn(2, 5.2)

    @staticmethod
    def wide_batch(m):
        """200 points spanning the default integration range, plus edge cases."""
        rng = np.random.default_rng(m)
        w = np.exp(rng.uniform(math.log(1e-3), math.log(2.0**12 * math.pi), 200))
        w[:3] = (0.0, 2.0**12 * math.pi, -7.5)
        return w

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 20])
    def test_magnitude_route_entries_equal_lone_points(self, m):
        # The norm integrand's route: every entry of the batch, bit for bit
        # against a call on it alone.
        w = self.wide_batch(m)
        batch = wavelet_hat_abs2(m, w)
        assert [float(v) for v in batch] == [wavelet_hat_abs2(m, float(x)) for x in w]

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 20])
    @pytest.mark.parametrize("fn", [scaling_hat, wavelet_hat])
    def test_tap_route_entries_equal_lone_points(self, fn, m):
        # The tap route reaches eval_H directly and through every product factor.
        w = self.wide_batch(m)
        batch = fn(m, w)
        assert [complex(v) for v in batch] == [fn(m, float(x)) for x in w]


def unfused_depth(x: float, theta: float) -> int:
    return max(MIN_DEPTH, math.ceil(math.log2(max(abs(x), theta) / theta)))


def unfused_phi_hat(m: int, x: np.ndarray) -> np.ndarray:
    """phi_hat at the one point of x: np.prod of its factors at its own depth."""
    mu, k = _phase_rule(m)
    depth = unfused_depth(float(x[0]), math.sqrt(1.5 * PRODUCT_TOL / k))
    factors = eval_H(construct_filter(m), x[0] * 2.0 ** -np.arange(1, depth + 1))
    return INV_SQRT_2PI * np.prod(factors, keepdims=True) * np.exp(1j * mu * np.ldexp(x, -depth))


def unfused_psi_hat(m: int, x: np.ndarray) -> np.ndarray:
    """psi_hat at the one point of x, with a band eval_H call of its own."""
    half = 0.5 * x
    band = eval_H(construct_filter(m), half + math.pi)
    return np.exp(-1j * half) * np.conj(band) * unfused_phi_hat(m, half)


def unfused_psi_hat_abs2(m: int, x: np.ndarray) -> np.ndarray:
    """|psi_hat|^2 at the one point of x, with a band call of its own."""
    half = 0.5 * x
    depth = unfused_depth(float(half[0]), _modulus_theta(m))
    factors = magnitude_squared_H(m, half[0] * 2.0 ** -np.arange(1, depth + 1))
    band = magnitude_squared_H(m, half + math.pi)
    return band * np.prod(factors, keepdims=True) / (2.0 * math.pi)


UNFUSED = {
    scaling_hat: unfused_phi_hat,
    wavelet_hat: unfused_psi_hat,
    wavelet_hat_abs2: unfused_psi_hat_abs2,
}


class TestFusedFactorCall:
    """One factor call per evaluation, bit for bit the separate band and product calls."""

    @pytest.mark.parametrize("m", range(1, 21))
    @pytest.mark.parametrize("fn", list(UNFUSED), ids=lambda fn: fn.__name__)
    def test_equals_the_unfused_formula(self, fn, m):
        w = TestBatchIndependence.wide_batch(m)
        reference = [UNFUSED[fn](m, w[i : i + 1])[0] for i in range(w.size)]
        assert list(fn(m, w)) == reference
        assert [fn(m, float(x)) for x in w] == reference

    @pytest.mark.parametrize(
        "omega",
        [3.7, np.array([0.2, -40.0, 4e3, 1e5]), np.linspace(-5e5, 5e5, 12).reshape(3, 4)],
        ids=["scalar", "1d", "2d"],
    )
    @pytest.mark.parametrize(
        "fn,factor",
        [
            (scaling_hat, "eval_H"),
            (wavelet_hat, "eval_H"),
            (wavelet_hat_abs2, "magnitude_squared_H"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_one_factor_call_per_evaluation(self, monkeypatch, fn, factor, omega):
        counts = {name: int(name == factor) for name in ("eval_H", "magnitude_squared_H")}
        calls = dict.fromkeys(counts, 0)
        for name in calls:

            def counted(*args, _name=name, _original=getattr(spectral_eval, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(spectral_eval, name, counted)
        fn(3, omega)
        assert calls == counts


class TestEdgeInputs:
    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    @pytest.mark.parametrize("fn", list(UNFUSED), ids=lambda fn: fn.__name__)
    def test_empty_input_keeps_its_shape(self, fn, shape):
        assert fn(4, np.zeros(shape)).shape == shape

    @pytest.mark.parametrize(
        "bad,shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "inf"), (2e7, "2.000e+07")]
    )
    @pytest.mark.parametrize("fn", list(UNFUSED), ids=lambda fn: fn.__name__)
    def test_guard_message(self, fn, bad, shown):
        pattern = rf"^\|omega\|={re.escape(shown)} exceeds the evaluation guard"
        with pytest.raises(ValueError, match=pattern):
            fn(2, bad)
        with pytest.raises(ValueError, match=pattern):
            fn(2, np.array([1.0, bad, -3.0]))


def reference_psi_hat_abs2(m: int, w: float) -> float:
    """|psi_hat(w)|^2 to 50 digits, with 80 product factors.

    The band factor |H(w/2 + pi)|^2 is sin^(2m)(w/4) P(cos^2(w/4)), so the
    reference never forms w/2 + pi.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        coefs = [mp.mpf(c) for c in p_coefficients(m)]

        def modulus(c2, s2):
            return c2**m * mp.fsum(c * s2**i for i, c in enumerate(coefs))

        quarter = mp.mpf(w) / 4
        band = modulus(mp.sin(quarter) ** 2, mp.cos(quarter) ** 2)
        product = mp.fprod(
            modulus(mp.cos(quarter / 2**l) ** 2, mp.sin(quarter / 2**l) ** 2) for l in range(1, 81)
        )
        return float(band * product / (2 * mp.pi))


class TestBandFactorNearOrigin:
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_away_from_the_origin(self, m):
        for w in (1e-2, 1.0, 37.0):
            want = reference_psi_hat_abs2(m, w)
            assert wavelet_hat_abs2(m, w) == pytest.approx(want, rel=PRODUCT_TOL, abs=0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="w/2 + pi rounds away the low bits of a small w: relative error "
        "4.2e-10 (m=2) to 1.3e-9 (m=6) at w = 1e-6, where PRODUCT_TOL is 1e-12",
    )
    def test_small_frequency(self):
        for m in (2, 4, 6):
            want = reference_psi_hat_abs2(m, 1e-6)
            assert wavelet_hat_abs2(m, 1e-6) == pytest.approx(want, rel=PRODUCT_TOL, abs=0.0)


class TestEstimateDecay:
    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            estimate_decay(1, 4 * math.pi, 512 * math.pi, 64)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            estimate_decay(2, math.pi, 512 * math.pi, 64)
        with pytest.raises(ValueError):
            estimate_decay(2, 4 * math.pi, 512 * math.pi, 8)

    def test_positive_exponent(self):
        fit = estimate_decay(2, 4 * math.pi, 512 * math.pi, 64)
        assert fit.c > 0
        assert fit.C_tilde > 0

    def test_envelope_dominates_samples(self):
        fit = estimate_decay(3, 4 * math.pi, 512 * math.pi, 64)
        grid = np.exp(np.linspace(math.log(4 * math.pi), math.log(512 * math.pi), 64))
        alpha = fit.c * math.log(3)
        vals = np.sqrt(wavelet_hat_abs2(3, grid))
        envelope = fit.C_tilde * grid**-alpha
        assert np.all(envelope >= vals * (1.0 - 1e-12))

    def test_total_exponent_grows_with_order(self):
        lo, hi = 4 * math.pi, 512 * math.pi
        a2 = estimate_decay(2, lo, hi, 64)
        a4 = estimate_decay(4, lo, hi, 64)
        assert a4.c * math.log(4) > a2.c * math.log(2)


class TestDecayFitValidation:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            DecayFit(C_tilde=0.0, c=1.0, fit_range=(13.0, 100.0), residual=0.0)
        with pytest.raises(ValueError):
            DecayFit(C_tilde=1.0, c=-1.0, fit_range=(13.0, 100.0), residual=0.0)
        with pytest.raises(ValueError):
            DecayFit(C_tilde=1.0, c=1.0, fit_range=(1.0, 100.0), residual=0.0)
