import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavebounds import norms
from wavebounds.norms import (
    DEFAULT_OMEGA_MAX,
    NormRequest,
    best_constant_Ckp,
    weighted_lp_norm,
)
from wavebounds.quadrature import QuadResult, adaptive_quadrature
from wavebounds.spectral_eval import DecayFit, wavelet_hat_abs2


class TestRequestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0, "k": 0, "p": 2.0},
            {"m": 2, "k": -1, "p": 2.0},
            {"m": 2, "k": 3, "p": 2.0},  # k > m diverges at the origin
            {"m": 2, "k": 1, "p": 1.0},
            {"m": 2, "k": 1, "p": 2.0, "omega_max": math.pi},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NormRequest(**kwargs)

    def test_k_equal_m_allowed(self):
        NormRequest(m=2, k=2, p=2.0)

    def test_non_integrable_tail_rejected(self, monkeypatch):
        # c = 0.05 gives alpha = 0.05 log 2, so p(k + alpha) <= 1 at (2, 0, 1.5).
        # The omega_max is used by no other test: weighted_lp_norm is cached.
        slow = DecayFit(C_tilde=1.0, c=0.05, fit_range=(4.0 * math.pi, 3000.0), residual=0.0)
        monkeypatch.setattr(norms, "default_decay", lambda m, omega_max: slow)
        with pytest.raises(ValueError, match=r"tail not integrable.*alpha = 0\.0346574"):
            weighted_lp_norm(NormRequest(m=2, k=0, p=1.5, omega_max=3000.0))


class TestErrorThroughRootPower:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("fraction", [0.4, 1.5])
    def test_abs_error_covers_low_end_of_interval(self, monkeypatch, p, fraction):
        # A quadrature that reports an error of `fraction` times its value.
        # The true sum may be as low as total - err_sum <= value^p - 2 quad_err,
        # so the reported error must reach down to that sum's 1/p power.
        quad_err = []

        def loose_quadrature(*args, **kwargs):
            quad, panels = adaptive_quadrature(*args, **kwargs)
            quad_err.append(fraction * quad.value)
            return QuadResult(quad.value, quad_err[-1], quad.evaluations), panels

        monkeypatch.setattr(norms, "adaptive_quadrature", loose_quadrature)
        result = weighted_lp_norm.__wrapped__(NormRequest(2, 1, p))
        low = max(result.value**p - 2.0 * quad_err[0], 0.0) ** (1.0 / p)
        assert result.abs_error >= result.value - low


class TestPlancherel:
    @pytest.mark.parametrize("m", [1, 4])
    def test_l2_norm_is_one(self, m):
        omega_max = 2.0**15 * math.pi if m <= 2 else DEFAULT_OMEGA_MAX
        result = weighted_lp_norm(NormRequest(m, 0, 2.0, omega_max=omega_max))
        assert result.value == pytest.approx(1.0, abs=1e-6)


class TestHaarClosedForms:
    def test_l2_against_independent_quadrature(self):
        # scipy integrates the closed-form |psi_hat|^2 = sin^4(w/4)/(2 pi (w/4)^2)
        # over [0, T]; the averaged tail of sin^4 is 3/8.
        T = 40_000.0
        integrand = lambda w: math.sin(w / 4) ** 4 / (2 * math.pi * (w / 4) ** 2)
        pieces = [quad(integrand, a, b, limit=4000) for a, b in ((0, 200.0), (200.0, T))]
        closed = 2.0 * sum(p[0] for p in pieces) + 2.0 * (8 / math.pi) * (3 / 8) / T
        err = 2.0 * sum(p[1] for p in pieces) + 1e-7
        ours = weighted_lp_norm(NormRequest(1, 0, 2.0, omega_max=2.0**15 * math.pi))
        assert ours.value == pytest.approx(math.sqrt(closed), abs=1e-6 + err)

    def test_weighted_norm_analytic_value(self):
        # For k = m = 1, p = 2 the closed form gives exactly 1/sqrt(12).
        result = weighted_lp_norm(NormRequest(1, 1, 2.0))
        assert result.value == pytest.approx(1.0 / math.sqrt(12.0), abs=1e-8)
        assert abs(result.value - 1.0 / math.sqrt(12.0)) <= result.abs_error

    def test_weighted_norm_sinc_closed_form(self):
        # k = m = 1, p = 4 reduces by substitution to the eighth sinc power:
        # ||w^-1 psi_hat||_4^4 = integral (sin u / u)^8 du / (128 pi^2).
        from wavebounds.special_math import sinc_power_integral

        exact = (sinc_power_integral(8) / (128.0 * math.pi**2)) ** 0.25
        result = weighted_lp_norm(NormRequest(1, 1, 4.0))
        assert result.value == pytest.approx(exact, abs=1e-8)
        assert abs(result.value - exact) <= result.abs_error


class TestSelfConsistency:
    def test_value_stable_under_doubled_cutoff(self):
        base = weighted_lp_norm(NormRequest(2, 1, 2.0))
        doubled = weighted_lp_norm(NormRequest(2, 1, 2.0, omega_max=2.0 * DEFAULT_OMEGA_MAX))
        assert abs(base.value - doubled.value) <= base.abs_error

    @pytest.mark.parametrize("m,k,p", [(3, 1, 2.0), (4, 2, 1.5), (2, 2, 4.0)])
    def test_tail_honesty(self, m, k, p):
        base = weighted_lp_norm(NormRequest(m, k, p))
        doubled = weighted_lp_norm(NormRequest(m, k, p, omega_max=2.0 * DEFAULT_OMEGA_MAX))
        assert abs(base.value - doubled.value) <= base.abs_error

    def test_monotone_refinement_of_quadrature(self):
        # Halving the engine tolerance never worsens the reported estimate.
        def integrand(w):
            return wavelet_hat_abs2(2, w)

        errors = [
            adaptive_quadrature(integrand, 0.0, 64.0 * math.pi, rel_tol=t, abs_tol=1e-16).abs_error
            for t in (1e-6, 5e-7, 2.5e-7, 1e-9)
        ]
        assert all(b <= a for a, b in zip(errors, errors[1:]))


class TestIntegrandOriginBehavior:
    def test_vanishes_for_k_below_m(self):
        m, k, p = 3, 2, 2.0
        w = 1e-8
        val = w ** (-p * k) * float(wavelet_hat_abs2(m, np.array([w]))[0]) ** (p / 2)
        assert val < 1e-10

    def test_bounded_for_k_equal_m(self):
        m = k = 2
        p = 2.0
        vals = [
            float(w ** (-p * k) * wavelet_hat_abs2(m, np.array([w]))[0] ** (p / 2))
            for w in (1e-8, 1e-9)
        ]
        assert vals[0] == pytest.approx(vals[1], rel=1e-2)
        assert 0 < vals[0] < math.inf


class TestBestConstant:
    def test_k_zero_is_exactly_one(self):
        assert best_constant_Ckp(3, 0, 1.5) == 1.0

    def test_finite_positive_values(self):
        c1 = best_constant_Ckp(3, 1, 2.0)
        c2 = best_constant_Ckp(3, 2, 2.0)
        assert 0 < c1 < math.inf
        assert 0 < c2 < math.inf

    def test_deterministic_repeat(self):
        assert best_constant_Ckp(2, 1, 2.0) == best_constant_Ckp(2, 1, 2.0)
