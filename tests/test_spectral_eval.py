import math
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from wavebounds import spectral_eval
from wavebounds.daub_filters import construct_filter, eval_H, eval_P, magnitude_squared_H
from wavebounds.norms import DEFAULT_OMEGA_MAX
from wavebounds.special_math import MAX_ORDER, p_coefficients
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


def band_abs2(m: int, w: float | np.ndarray) -> float | np.ndarray:
    """|H(w/2 + pi)|^2 as sin^(2m)(w/4) P_(m-1)(cos^2(w/4)), clamped to 1; never forms w/2 + pi."""
    s2 = np.sin(0.25 * np.asarray(w)) ** 2
    return np.minimum(s2**m * eval_P(m, 1.0 - s2), 1.0)


def deep_psi_hat_abs2(m: int, w: float) -> float:
    factors = magnitude_squared_H(m, w * 2.0 ** -np.arange(2, REFERENCE_DEPTH + 2))
    band = band_abs2(m, w)
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


_LINEAR_GRID = np.linspace(-30.0, 30.0, 121)
_LOG_GRID = np.geomspace(1e-3, DEFAULT_OMEGA_MAX, 241)


class TestDualPath:
    # Order 1's magnitude route is a closed form, not a product, so its tap
    # product is also checked over the whole default integration range.
    @pytest.mark.parametrize(
        "m,grid",
        [(m, _LINEAR_GRID) for m in (1, 2, 3, 5, 8)]
        + [(1, np.concatenate([-_LOG_GRID[::-1], _LOG_GRID]))],
        ids=["1", "2", "3", "5", "8", "1-log"],
    )
    def test_tap_route_matches_magnitude_route(self, m, grid):
        # Relative agreement within 2*product_tol wherever the value is
        # resolvable. Near the zeros of psi_hat the tap route is limited by
        # cancellation in eval_H: first order that is a sqrt(value)-scaled
        # absolute error, bottoming out at the squared noise floor ~1e-33.
        taps_sq = np.abs(wavelet_hat(m, grid)) ** 2
        closed = wavelet_hat_abs2(m, grid)
        allowed = 2.0 * PRODUCT_TOL * closed + 1e-14 * np.sqrt(closed) + 1e-26
        assert np.all(np.abs(taps_sq - closed) <= allowed)

    @pytest.mark.parametrize("m", range(21, MAX_ORDER + 1))
    def test_high_orders_match_within_point_eval_tolerance(self, m):
        # The orders the tap table added: at most 3.0e-15 apart (m=21).
        w = np.geomspace(1e-2, 1e3, 1000)
        gap = np.abs(np.abs(wavelet_hat(m, w)) ** 2 - wavelet_hat_abs2(m, w))
        assert np.max(gap) <= 1e-10

    def test_single_point_consistency(self):
        a = abs(wavelet_hat(2, math.pi)) ** 2
        b = wavelet_hat_abs2(2, math.pi)
        assert a == pytest.approx(b, rel=2.0 * PRODUCT_TOL)

    @pytest.mark.parametrize("m,w", [(2, 5000.0), (8, 12868.0)])
    def test_abs2_stable_under_deeper_truncation(self, m, w):
        a = wavelet_hat_abs2(m, w)
        b = deep_psi_hat_abs2(m, w)
        assert abs(a - b) <= PRODUCT_TOL * abs(b)


# Each evaluator as fn(m, w), with the Python type a scalar call returns.
ORDER_EVALUATORS = {
    "eval_H": (lambda m, w: eval_H(construct_filter(m), w), complex),
    "magnitude_squared_H": (magnitude_squared_H, float),
    "scaling_hat": (scaling_hat, complex),
    "wavelet_hat": (wavelet_hat, complex),
    "wavelet_hat_abs2": (wavelet_hat_abs2, float),
}
# Each evaluator at order 3.
EVALUATORS = {name: (partial(fn, 3), kind) for name, (fn, kind) in ORDER_EVALUATORS.items()}

# Frequencies where a one-entry call's rounding is most exposed: signed zeros,
# subnormals (-2^-1058 puts the tail phase's argument at -2^-1074, where
# order 1's mu 2^-L w = 0.5 * -2^-1074 rounds to a zero), multiples of pi,
# large products and the evaluation guard's neighbourhood
# (2^64 * PRODUCT_TOL = 1.8e7).
EDGE_OMEGAS = [
    0.0, -0.0, 5e-324, -1e-310, -(2.0**-1058), 1e-300, 1e-3, -5.2, 37.0, math.pi, -2.0 * math.pi,
    3.0 * math.pi, 1e3, 2.0**12 * math.pi, 1.5e5, 1.7e7, -1.7e7,
]


def value_bytes(value) -> bytes:
    """The float64 or complex128 bytes of a value: a signed zero or a last bit shows."""
    return np.asarray(value).tobytes()


class TestScalarArrayContract:
    @pytest.mark.parametrize("name", sorted(ORDER_EVALUATORS))
    @pytest.mark.parametrize("i", range(len(EDGE_OMEGAS)), ids=[repr(w) for w in EDGE_OMEGAS])
    def test_scalar_is_one_element_array(self, name, i):
        # Byte for byte, not ==: -0.0 == 0.0, and a zero imaginary part's sign
        # does not show in a complex ==.
        fn, kind = ORDER_EVALUATORS[name]
        w = EDGE_OMEGAS[i]
        for m in (1, 2, 8, 32):
            assert value_bytes(fn(m, w)) == value_bytes(fn(m, np.array(EDGE_OMEGAS))[i])
            for scalar in (w, int(w), np.float32(w), np.int64(w), np.float64(w), np.array(w)):
                value = fn(m, scalar)
                assert type(value) is kind
                assert value_bytes(value) == value_bytes(fn(m, np.array([float(scalar)]))[0])

    @pytest.mark.parametrize("name", ["scaling_hat", "wavelet_hat", "wavelet_hat_abs2"])
    def test_guard_applies_to_arrays(self, name):
        fn, _ = EVALUATORS[name]
        with pytest.raises(ValueError, match=r"\|omega\|=2\.000e\+07 exceeds the evaluation guard"):
            fn(np.array([1.0, -2e7, 3.0]))

    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    @pytest.mark.parametrize(
        "bad,shown",
        [
            ("3", "'3'"),
            (b"0.5", "b'0.5'"),
            (None, "None"),
            (1 + 2j, r"\(1\+2j\)"),
            (np.complex128(2.0), r"np\.complex128\(2\+0j\)"),
            (np.array(0.5j), r"array\(0\.\+0\.5j\)"),
            (np.array([1 + 2j]), "an array of dtype complex128"),
            (np.zeros((2, 3), dtype=complex), "an array of dtype complex128"),
            (np.array(["1.0", "2.0"]), "an array of dtype <U3"),
            ([1.0, None], "an array of dtype object"),
        ],
    )
    def test_non_real_omega_refused_by_name(self, name, bad, shown):
        fn, _ = EVALUATORS[name]
        with pytest.raises(ValueError, match=rf"^omega must be real, got {shown}$"):
            fn(bad)

    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_real_objects_are_taken_as_floats(self, name):
        # Fractions and Python ints past int64 make object arrays; they are real.
        fn, _ = EVALUATORS[name]
        assert fn(Fraction(1, 2)) == fn(0.5)
        assert list(fn(np.array([Fraction(-7, 4), 2]))) == list(fn(np.array([-1.75, 2.0])))
        if name in ("scaling_hat", "wavelet_hat", "wavelet_hat_abs2"):
            with pytest.raises(ValueError, match=r"^\|omega\|=1\.000e\+30 exceeds the evaluation guard"):
                fn(10**30)


# Each function that takes an order, at one frequency.
ORDER_TAKERS = {
    "construct_filter": construct_filter,
    "magnitude_squared_H": lambda m: magnitude_squared_H(m, 0.5),
    "scaling_hat": lambda m: scaling_hat(m, 0.5),
    "wavelet_hat": lambda m: wavelet_hat(m, 0.5),
    "wavelet_hat_abs2": lambda m: wavelet_hat_abs2(m, 0.5),
}


@pytest.mark.parametrize("name", sorted(ORDER_TAKERS))
@pytest.mark.parametrize("m", [1.0, 2.0, np.int64(2), np.float64(3.0), True], ids=repr)
def test_non_integer_order_refused_by_name(name, m):
    # Each order's values are cached first, so the refusal is the type check's.
    fn = ORDER_TAKERS[name]
    fn(int(m))
    message = rf"^the order m must be an integer, got {re.escape(repr(m))}$"
    with pytest.raises(ValueError, match=message):
        fn(m)


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


def haar_psi_hat_abs2(x: np.ndarray) -> np.ndarray:
    """Order 1's |psi_hat|^2 at the one point of x: sin^4(w/4) / ((w/4)^2 2 pi), 0 at w = 0."""
    quarter = 0.25 * x
    s = np.sin(quarter)
    sinc = s / quarter if quarter[0] else np.ones(1)
    return (s * sinc) ** 2 / (2.0 * math.pi)


def unfused_psi_hat_abs2(m: int, x: np.ndarray) -> np.ndarray:
    """|psi_hat|^2 at the one point of x, with a band call of its own; order 1 in closed form."""
    if m == 1:
        return haar_psi_hat_abs2(x)
    half = 0.5 * x
    depth = unfused_depth(float(half[0]), _modulus_theta(m))
    factors = magnitude_squared_H(m, half[0] * 2.0 ** -np.arange(1, depth + 1))
    return band_abs2(m, x) * np.prod(factors, keepdims=True) / (2.0 * math.pi)


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
            (wavelet_hat_abs2, "magnitude_squared_rows"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_one_factor_call_per_evaluation(self, monkeypatch, fn, factor, omega):
        counts = {name: int(name == factor) for name in ("eval_H", "magnitude_squared_rows")}
        calls = dict.fromkeys(counts, 0)
        for name in calls:

            def counted(*args, _name=name, _original=getattr(spectral_eval, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(spectral_eval, name, counted)
        fn(3, omega)
        assert calls == counts

    @pytest.mark.parametrize("m", [1, 2, 5, 20])
    def test_one_trigonometric_element_per_factor(self, monkeypatch, m):
        # Each factor of the magnitude route takes sin^2 as 1 - cos^2, and the
        # band factor takes sin(w/4): one cosine or sine per element of the
        # (depth + 1, n) argument array. Taking both would count twice that.
        w = TestBatchIndependence.wide_batch(m)
        elements = []
        for name in ("cos", "sin"):

            def counted(x, *args, _original=getattr(np, name), **kwargs):
                elements.append(np.size(x))
                return _original(x, *args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        wavelet_hat_abs2(m, w)
        depth = unfused_depth(0.5 * float(np.abs(w).max()), _modulus_theta(m))
        assert 0 < sum(elements) <= (depth + 1) * w.size


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


class TestHaarClosedForm:
    def test_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        grid = np.geomspace(1e-6, 12868.0, 401)
        values = wavelet_hat_abs2(1, grid)
        with mp.workdps(50):
            for w, value in zip(grid, values):
                quarter = mp.mpf(float(w)) / 4
                want = mp.sin(quarter) ** 4 / (quarter**2 * 2 * mp.pi)
                assert abs(value - want) <= 2e-15 * want, w

    @pytest.mark.parametrize("w", [0.0, -0.0])
    def test_zero_at_the_origin(self, w):
        value = wavelet_hat_abs2(1, w)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert wavelet_hat_abs2(1, np.array([w, 3.0]))[0] == 0.0

    def test_no_product(self, monkeypatch):
        # One sine per point and no |H|^2 factor call.
        def refused(*args, **kwargs):
            raise AssertionError("order 1 called magnitude_squared_rows")

        monkeypatch.setattr(spectral_eval, "magnitude_squared_rows", refused)
        elements = []

        def counted(x, *args, _original=np.sin, **kwargs):
            elements.append(np.size(x))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np, "sin", counted)
        wavelet_hat_abs2(1, np.linspace(-100.0, 100.0, 37))
        assert elements == [37]


class TestBandFactorNearOrigin:
    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_away_from_the_origin(self, m):
        for w in (1e-2, 1.0, 37.0, 5000.0, 12868.0):
            want = reference_psi_hat_abs2(m, w)
            assert wavelet_hat_abs2(m, w) == pytest.approx(want, rel=PRODUCT_TOL, abs=0.0)

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

    @pytest.mark.parametrize("samples", [16, 17, 37, 128, 129])
    def test_blocks_are_array_split_blocks(self, monkeypatch, samples):
        # The fit's block maxima against np.array_split's eight blocks, where
        # 8 divides samples and where the first samples % 8 blocks are longer.
        m, lo, hi = 5, 4 * math.pi, DEFAULT_OMEGA_MAX
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), samples))
        vals = np.sqrt(wavelet_hat_abs2(m, grid))
        want_x, want_y = [], []
        for chunk in np.array_split(np.arange(samples), 8):
            idx = chunk[np.argmax(vals[chunk])]
            want_x.append(math.log(grid[idx]))
            want_y.append(math.log(vals[idx]))
        seen = []
        polyfit = np.polyfit

        def recording_polyfit(x, y, deg):
            seen.append((x, y))
            return polyfit(x, y, deg)

        monkeypatch.setattr(spectral_eval.np, "polyfit", recording_polyfit)
        fit = estimate_decay(m, lo, hi, samples)
        assert seen == [(want_x, want_y)]
        assert fit.c == -float(polyfit(want_x, want_y, 1)[0]) / math.log(m)

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
