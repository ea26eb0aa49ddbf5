import inspect
import math
import random
import re
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from wavebounds import bernstein
from wavebounds.bernstein import (
    _MAX_SAMPLES,
    TOL_PAD,
    GaussianTestFunction,
    _row,
    bernstein_grid,
    bernstein_rhs,
    corollary1_grid,
    pyramid_coefficient,
    theorem1_grid,
    theorem2_grid,
    verify_sweep,
    wavelet_coefficient,
)
from wavebounds.daub_filters import construct_filter
from wavebounds.norms import DEFAULT_OMEGA_MAX, NormRequest, best_constant_Ckp, weighted_lp_norm
from wavebounds.quadrature import QuadResult, adaptive_quadrature
from wavebounds.reporting import (
    VerificationRow,
    exit_code,
    rows_to_csv_bytes,
    rows_to_json_bytes,
    summarize,
)
from wavebounds.spectral_eval import wavelet_hat, wavelet_hat_abs2


class TestGaussianTestFunction:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianTestFunction(sigma=0.0)

    @pytest.mark.parametrize(
        "fields", [{"sigma": math.inf}, {"center": math.nan}, {"amplitude": math.inf}]
    )
    def test_non_finite_parameter_is_named(self, fields):
        with pytest.raises(ValueError, match="inf|nan"):
            GaussianTestFunction(**{"sigma": 1.0, **fields})

    @pytest.mark.parametrize("k,q", [(0, 2.0), (1, 2.0), (2, 3.0), (1, 1.5)])
    def test_closed_norm_matches_quadrature(self, k, q):
        # ||(i w)^k f_hat||_q of the normalized Gaussian by quadrature of the
        # even integrand over [0, width], past which the Gaussian factor is
        # negligible: the closed form puts f on the unit sphere.
        f = GaussianTestFunction.normalized(0.8, 2.0, k, q)
        width = (9.4 + 2.0 * math.sqrt(k * q)) / f.sigma
        peak = f.amplitude * f.sigma

        def integrand(w):
            return w ** (k * q) * peak**q * np.exp(-0.5 * q * (f.sigma * w) ** 2)

        half = adaptive_quadrature(integrand, 0.0, width, rel_tol=1e-12, abs_tol=1e-15)
        numeric = (2.0 * half.value) ** (1.0 / q)
        assert numeric == pytest.approx(1.0, rel=1e-10)

    def test_normalized_lands_on_unit_sphere(self):
        # integral w^2 A^2 sigma^2 e^(-(sigma w)^2) dw = A^2 sqrt(pi) / (2 sigma).
        f = GaussianTestFunction.normalized(1.3, -0.5, 1, 2.0)
        norm = f.amplitude * math.sqrt(math.sqrt(math.pi) / (2.0 * f.sigma))
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_center_only_rotates_phase(self):
        w = np.array([0.7])
        a = GaussianTestFunction(sigma=1.0, center=0.0).transform(w)[0]
        b = GaussianTestFunction(sigma=1.0, center=3.0).transform(w)[0]
        assert abs(a) == pytest.approx(abs(b), rel=1e-15)


class TestWaveletCoefficient:
    def test_range_validation(self):
        f = GaussianTestFunction(sigma=1.0)
        for route in (wavelet_coefficient, pyramid_coefficient):
            with pytest.raises(ValueError):
                route(f, 2, -7, 0)
            with pytest.raises(ValueError):
                route(f, 2, 11, 0)
            with pytest.raises(ValueError):
                route(f, 2, 0, 65)

    def test_distant_test_function_gives_negligible_coefficient(self):
        f = GaussianTestFunction(sigma=1.0, center=50.0)
        assert abs(wavelet_coefficient(f, 2, 0, 0).value) < 1e-8

    def test_against_independent_scipy_quadrature(self):
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        m, j, nu = 2, 1, 3
        scale = 2.0**-j

        def real_part(w):
            arr = np.array([w])
            val = (
                f.transform(arr)
                * 2.0 ** (-0.5 * j)
                * np.exp(1j * arr * scale * nu)
                * np.conj(wavelet_hat(m, scale * arr))
            )[0]
            return val.real

        def imag_part(w):
            arr = np.array([w])
            val = (
                f.transform(arr)
                * 2.0 ** (-0.5 * j)
                * np.exp(1j * arr * scale * nu)
                * np.conj(wavelet_hat(m, scale * arr))
            )[0]
            return val.imag

        re, re_err = quad(real_part, -9.4, 9.4, limit=800)
        im, im_err = quad(imag_part, -9.4, 9.4, limit=800)
        ours = wavelet_coefficient(f, m, j, nu)
        assert ours.value.real == pytest.approx(re, abs=1e-9 + 10 * re_err)
        assert ours.value.imag == pytest.approx(im, abs=1e-9 + 10 * im_err)

    @pytest.mark.parametrize("j,nu,center", [(0, 0, 0.3), (1, 0, 0.3), (2, -1, -0.2), (-2, 1, 3.0)])
    def test_order_one_matches_time_domain_oracle(self, j, nu, center):
        # The order-1 wavelet is +1 on [0, 1/2) and -1 on [1/2, 1), so the
        # coefficient of a Gaussian is a difference of erf integrals; this
        # bypasses the frequency domain entirely and pins down every phase
        # and conjugation convention in the Parseval route, and the index
        # and reflection conventions of the pyramid route.
        sigma = 1.0

        def erf_piece(a, b):
            s = sigma * math.sqrt(2.0)
            return (
                sigma
                * math.sqrt(math.pi / 2.0)
                * (math.erf((b - center) / s) - math.erf((a - center) / s))
            )

        lo, mid, hi = nu * 2.0**-j, (nu + 0.5) * 2.0**-j, (nu + 1) * 2.0**-j
        expected = 2.0 ** (0.5 * j) * (erf_piece(lo, mid) - erf_piece(mid, hi))
        f = GaussianTestFunction(sigma=sigma, center=center)
        for route in (wavelet_coefficient, pyramid_coefficient):
            got = route(f, 1, j, nu)
            assert got.value.real == pytest.approx(expected, abs=1e-10)
            assert abs(got.value.imag) < 1e-10
            # The returned error bar must cover the exact coefficient.
            assert abs(got.value - expected) <= got.abs_error

    @pytest.mark.parametrize("j,nu", [(0, 0), (2, 3), (-1, -2)])
    def test_dilated_wavelet_has_unit_l2_norm(self, j, nu):
        # Direct frequency-domain integration of |psi_hat_(j,nu)|^2; nu only
        # contributes a phase, so it cannot change the value.
        m = 2
        span = 2.0**j * DEFAULT_OMEGA_MAX

        def integrand(w):
            return 2.0**-j * wavelet_hat_abs2(m, 2.0**-j * w)

        breaks = [2.0**j * math.pi * 2.0**i for i in range(13)]
        result = adaptive_quadrature(
            integrand, 0.0, span, rel_tol=1e-9, abs_tol=1e-12, breakpoints=breaks
        )
        assert 2.0 * result.value == pytest.approx(1.0, abs=2e-4)


# Default rows where the true coefficient is e^-512-small (the dilated wavelet
# lies at |t| >= 32) and the Fourier route's value misses its own abs_error.
FOURIER_MISSES = [(-3, 5), (-3, -6)]


def phi_moment(m: int, q: int) -> Fraction:
    """M_q = integral x^q phi(x) dx, as P_q / (N^q D_q) from the integer recursion."""
    taps, _, p, d = bernstein._moment_integers(m)
    return Fraction(p[q], sum(taps) ** q * d[q])


class TestPyramidCoefficient:
    @pytest.mark.parametrize("q", range(17))
    def test_haar_moments_are_exact(self, q):
        # phi is the indicator of [-1, 0] at m = 1.
        assert phi_moment(1, q) == Fraction((-1) ** q, q + 1)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_first_moment_is_the_tap_moment(self, m):
        taps = construct_filter(m).taps
        first = -sum(ell * h for ell, h in enumerate(taps)) / math.sqrt(2.0)
        assert phi_moment(m, 0) == 1
        assert float(phi_moment(m, 1)) == pytest.approx(first, rel=1e-13)

    def test_negative_amplitude_negates_value_and_keeps_error(self):
        f = GaussianTestFunction(sigma=0.7, center=0.2)
        up = pyramid_coefficient(f, 3, 0, 1)
        down = pyramid_coefficient(GaussianTestFunction(f.sigma, f.center, amplitude=-1.0), 3, 0, 1)
        assert (down.value, down.abs_error) == (-up.value, up.abs_error)

    def test_default_grid_agrees_with_fourier_route(self):
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        for case in bernstein_grid():
            j, nu = case["j"], case["nu"]
            pyramid = pyramid_coefficient(f, 2, j, nu)
            if (j, nu) in FOURIER_MISSES:
                assert abs(pyramid.value) <= pyramid.abs_error <= 1e-15
                continue
            fourier = wavelet_coefficient(f, 2, j, nu)
            assert abs(pyramid.value - fourier.value) <= pyramid.abs_error + fourier.abs_error

    @pytest.mark.parametrize("m", [3, 4, 8])
    def test_seeded_rows_agree_with_fourier_route(self, m):
        rng = random.Random(f"pyramid:{m}")
        for _ in range(4):
            j, nu = rng.randint(-3, 6), rng.randint(-8, 8)
            sigma, center = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
            f = GaussianTestFunction.normalized(sigma, center, 1, 2.0)
            pyramid = pyramid_coefficient(f, m, j, nu)
            fourier = wavelet_coefficient(f, m, j, nu)
            assert abs(pyramid.value - fourier.value) <= pyramid.abs_error + fourier.abs_error

    def test_bound_past_the_float_range_builds_no_sample(self):
        coef = pyramid_coefficient(GaussianTestFunction(sigma=1e-100), 2, 0, 0)
        assert coef == QuadResult(value=0.0, abs_error=math.inf, evaluations=0, converged=False)

    def test_cascade_cache_is_bounded_by_samples(self):
        # At sigma = 0.3, j = -6..6 reaches 12 cascades per order, 957,734
        # samples at m = 20; an unbounded cache keeps three orders' worth, about
        # 51 MiB traced. Each sample keeps two floats, g and |g|, and the cache
        # holds at most _MAX_SAMPLES samples. Rebuilt cascades give the same rows.
        def grid(m):
            return [{"m": m, "k": 1, "p": 2.0, "sigma": 0.3, "j": j, "nu": 0} for j in range(-6, 7)]

        first = rows_to_csv_bytes(verify_sweep("bernstein", grid(20)))
        tracemalloc.start()
        try:
            bernstein._cascade.cache_clear()
            for m in (20, 19, 18, 20):
                rows = verify_sweep("bernstein", grid(m))
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rows_to_csv_bytes(rows) == first
        assert len(bernstein._cascade) < 3 * 12
        assert traced <= 2 * 8 * _MAX_SAMPLES + 2**20, traced

    def test_default_grid_never_evicts_a_cascade(self):
        bernstein._cascade.cache_clear()
        verify_sweep("bernstein")
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        levels = {bernstein._fine_levels(f, 2, j)[0] for j in range(-3, 7)}
        assert len(bernstein._cascade) == len(levels)

    @pytest.mark.xfail(strict=True, reason="the Fourier abs_error is an estimate, not a bound")
    @pytest.mark.parametrize("j,nu", FOURIER_MISSES)
    def test_fourier_error_covers_the_pyramid_value(self, j, nu):
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        fourier = wavelet_coefficient(f, 2, j, nu)
        assert abs(fourier.value - pyramid_coefficient(f, 2, j, nu).value) <= fourier.abs_error


class TestBernsteinRhs:
    def test_unit_scale_factorization(self):
        rhs = bernstein_rhs(2, 1, 2.0, 0).value
        manual = best_constant_Ckp(2, 1, 2.0).value * weighted_lp_norm(NormRequest(2, 0, 2.0)).value
        assert rhs == pytest.approx(manual, rel=1e-12)

    def test_dyadic_scaling_law(self):
        k, p = 1, 2.0
        r0 = bernstein_rhs(2, k, p, 4).value
        r1 = bernstein_rhs(2, k, p, 5).value
        assert r1 / r0 == pytest.approx(2.0 ** -(k + 1.0 / p - 0.5), rel=1e-12)

    def test_high_precision_assembly(self):
        # Recompose the product in 50-digit arithmetic from the same factors.
        j, k, p = 5, 1, 2.0
        mp.mp.dps = 50
        pieces = (
            mp.mpf(best_constant_Ckp(2, k, p).value)
            * mp.mpf(2) ** (-j * (k + 1 / mp.mpf(p) - mp.mpf(1) / 2))
            * mp.mpf(weighted_lp_norm(NormRequest(2, 0, p)).value)
        )
        assert bernstein_rhs(2, k, p, j).value == pytest.approx(float(pieces), rel=1e-13)

    @staticmethod
    def dilated_weighted_norm(m: int, k: int, q: float, j: int) -> float:
        """||w^-k psi_hat_(j,nu)||_q by scipy, integrated in w itself.

        |psi_hat_(j,nu)(w)|^2 = 2^-j |psi_hat(2^-j w)|^2. The 2,048 panels of
        width 2^j 2 pi up to 2^j DEFAULT_OMEGA_MAX end on the zeros of
        psi_hat, and scipy's quad integrates their sum as one function of the
        panel coordinate. At m = 4 the tail beyond is negligible.
        """
        scale = 2.0**j
        width = 2.0 * math.pi * scale
        starts = width * np.arange(round(DEFAULT_OMEGA_MAX / (2.0 * math.pi)))

        def summed(t: float) -> float:
            w = starts + t * width
            modulus = (wavelet_hat_abs2(m, w / scale) / scale) ** (0.5 * q)
            return width * float(np.sum(w ** (-k * q) * modulus))

        integral, _ = quad(summed, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
        return (2.0 * integral) ** (1.0 / q)

    @pytest.mark.parametrize("j", [-6, 0, 5])
    @pytest.mark.parametrize("p", [4.0 / 3.0, 3.0, 4.0])
    def test_hoelder_pairing_off_p_2(self, p, j):
        # f in L^p, psi_(j,nu) in L^p': for f on the unit ball of A_k^p the
        # right-hand side is the dilated wavelet's weighted p'-norm.
        m, k = 4, 1
        want = self.dilated_weighted_norm(m, k, p / (p - 1.0), j)
        rhs = bernstein_rhs(m, k, p, j)
        assert abs(rhs.value - want) <= rhs.abs_error + 1e-10 * want

    def test_conjugate_of_an_exact_index_takes_the_exact_route(self):
        # 4/3 / (4/3 - 1) rounds to 4.000000000000001; the norm must still be exact.
        assert bernstein_rhs(4, 1, 4.0 / 3.0, 0).evaluations == 0

    def test_finite_positive(self):
        rhs = bernstein_rhs(2, 1, 2.0, 0)
        assert 0.0 < rhs.value < math.inf
        assert 0.0 < rhs.abs_error < rhs.value

    def test_weight_exponent_validated(self):
        with pytest.raises(ValueError):
            bernstein_rhs(2, 2, 2.0, 0)

    def test_norm_convergence_and_panels_carried(self, monkeypatch):
        # A conjugate norm whose quadrature ran out of budget says so in the bound.
        spent = QuadResult(value=0.5, abs_error=1e-3, evaluations=99, converged=False, panels=7)
        monkeypatch.setattr(bernstein, "weighted_lp_norm", lambda req: spent)
        rhs = bernstein_rhs(2, 1, 3.0, 0)
        assert (rhs.converged, rhs.panels, rhs.evaluations) == (False, 7, 99)
        assert (rhs.value, rhs.abs_error) == (0.5, 1e-3)

    def test_default_rows_carry_the_right_hand_side(self):
        # Every default row's test function lies on the unit ball, so its
        # upper bound is bernstein_rhs itself, bit for bit.
        rows = verify_sweep("bernstein")
        assert len(rows) == 170
        for row in rows:
            assert row.upper_bound == bernstein_rhs(row.m, row.k, row.p, row.j).value


class TestVerifySweep:
    def test_empty_grid(self):
        rows = verify_sweep("theorem2", [])
        assert rows == []
        counts = summarize(rows)
        assert counts["total"] == 0 and counts["pass"] == 0

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            verify_sweep("theorem9")

    def test_case_error_recorded_not_raised(self):
        rows = verify_sweep("theorem1", [{"m": 1, "k": 1, "p": 2.0}])
        assert len(rows) == 1
        assert rows[0].status == "error"
        assert "k < m" in rows[0].note or "k" in rows[0].note

    def test_grid_order_preserved(self):
        cases = [{"m": 3, "p": 2.0}, {"m": 1, "p": 2.0}, {"m": 2, "p": 2.0}]
        rows = verify_sweep("theorem2", cases)
        assert [r.m for r in rows] == [3, 1, 2]

    def test_theorem2_default_grid_passes(self):
        rows = verify_sweep("theorem2")
        assert all(r.status == "pass" for r in rows)
        assert all(r.slack == 0.5 for r in rows)

    def test_corollary3_lower_side_binds(self):
        rows = verify_sweep("corollary3", [{"m": 2, "p": 2.0}])
        (row,) = rows
        assert row.status == "pass"
        assert row.lower_bound > 0.0
        assert "upper" in row.vacuous_flags  # E <= 0 always

    def test_corollary2_rows_fully_vacuous(self):
        rows = verify_sweep("corollary2", [{"m": 2, "k": 1, "p": 2.0}])
        (row,) = rows
        assert row.status == "vacuous"
        assert set(row.vacuous_flags) == {"lower", "upper"}

    def test_report_bytes_deterministic(self):
        rows_a = verify_sweep("theorem2")
        rows_b = verify_sweep("theorem2")
        assert rows_to_csv_bytes(rows_a) == rows_to_csv_bytes(rows_b)
        assert rows_to_json_bytes(rows_a) == rows_to_json_bytes(rows_b)

    def test_default_grids_shapes(self):
        # The default grids are the benchmark's inputs: each grid function,
        # called with no arguments, returns these cases in this order.
        assert len(theorem1_grid()) == 45
        assert len(theorem2_grid()) == 10
        assert theorem1_grid() == [
            {"m": m, "k": k, "p": p}
            for m in range(2, 7)
            for k in range(1, m)
            for p in (1.5, 2.0, 3.0)
            if p * k > 1.0
        ]
        assert theorem2_grid() == [
            {"m": m, "k": m, "p": p} for m in range(1, 6) for p in (2.0, 4.0)
        ]
        assert corollary1_grid() == [
            {"m": m, "k": 0, "p": p} for m in range(1, 7) for p in (1.5, 2.0, 3.0)
        ]
        assert bernstein_grid() == [
            {"m": 2, "k": 1, "p": 2.0, "sigma": 1.0, "j": j, "nu": nu}
            for j in range(-3, 7)
            for nu in range(-8, 9)
        ]

    def test_grids_build_cases_from_their_axes(self):
        # Axes off the defaults, with repeats and out of order.
        assert theorem1_grid(ms=[9, 8, 9], ks=[7, 1], ps=[3.0]) == [
            {"m": 8, "k": 1, "p": 3.0},
            {"m": 8, "k": 7, "p": 3.0},
            {"m": 9, "k": 1, "p": 3.0},
            {"m": 9, "k": 7, "p": 3.0},
        ]
        # m p = 128 is the largest the constant F supports.
        assert theorem2_grid(ms=[16], ps=[8.0]) == [{"m": 16, "k": 16, "p": 8.0}]
        # m p is 14 at p = 7/6 and 13 at p = 13/12.
        assert theorem2_grid(ms=[12], ps=[7.0 / 6.0, 13.0 / 12.0]) == [
            {"m": 12, "k": 12, "p": 7.0 / 6.0}
        ]
        assert bernstein_grid(m=4, k=3, p=1.5, sigma=0.5, j_range=(2, 2), nu_range=(0, 1)) == [
            {"m": 4, "k": 3, "p": 1.5, "sigma": 0.5, "j": 2, "nu": 0},
            {"m": 4, "k": 3, "p": 1.5, "sigma": 0.5, "j": 2, "nu": 1},
        ]

    @pytest.mark.parametrize(
        "grid,axes,message",
        [
            (theorem1_grid, {"ps": [1.0]}, "got 1.0"),
            (theorem2_grid, {"ms": [5], "ps": [1.3]}, "satisfies k = m and m p an even integer"),
            (corollary1_grid, {"ms": [33]}, "got m=33"),
            (corollary1_grid, {"ks": [1, 2]}, "satisfies k = 0"),
            (theorem2_grid, {"ms": [16, 20], "ps": [8.0]}, "m p = 160 at m=20, p=8 exceeds"),
            (
                theorem1_grid,
                {"ms": [3], "ks": [1.5], "ps": [2.0, 3.0]},
                "k must be an integer, got 1.5",
            ),
            (bernstein_grid, {"m": 2.5}, "m must be an integer, got 2.5"),
        ],
    )
    def test_grid_outside_its_hypothesis_or_domain_raises(self, grid, axes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            grid(**axes)

    @pytest.mark.parametrize("check", ["theorem1", "corollary2"])
    def test_non_integer_k_is_an_error_row_at_every_p(self, check):
        # Each p would take its own norm route: the exact one at p = 2 and the
        # quadrature at p = 3. Neither may see a fractional k.
        cases = [{"m": 3, "k": 1.5, "p": p} for p in (2.0, 3.0)]
        rows = verify_sweep(check, cases)
        assert [row.status for row in rows] == ["error", "error"]
        note = "ValueError: the weight exponent k must be an integer, got 1.5"
        assert all(row.note == note for row in rows)

    @pytest.mark.parametrize("j,nu,bad", [(11, 0, 11), (0, 65, 65)])
    def test_out_of_range_scale_or_shift_is_error_row(self, j, nu, bad):
        case = {"m": 2, "k": 1, "p": 2.0, "sigma": 1.0, "j": j, "nu": nu}
        (row,) = verify_sweep("bernstein", [case])
        assert row.status == "error"
        assert f"got {bad}" in row.note

    @pytest.mark.parametrize("sigma", [1e-20, 1e-100])
    def test_narrow_gaussian_falls_back_to_the_guard(self, sigma):
        # Too narrow for the pyramid's sample cap: the row falls back to the
        # Fourier route, whose evaluation guard names the cause.
        case = {"m": 2, "k": 1, "p": 2.0, "sigma": sigma, "j": 0, "nu": 0}
        (row,) = verify_sweep("bernstein", [case])
        assert row.status == "error"
        assert row.note.startswith("ValueError: |omega|=")
        assert "exceeds the evaluation guard" in row.note


# check, one small case, vacuous_flags, slack, abs_error set, decay fields set
ROW_CONTRACT = [
    ("theorem1", {"m": 2, "k": 1, "p": 2.0}, ("lower",), None, True, True),
    ("theorem2", {"m": 2, "k": 2, "p": 2.0}, (), 0.5, True, True),
    ("corollary1", {"m": 1, "k": 0, "p": 2.0}, ("lower", "log_m_zero"), None, True, False),
    ("corollary2", {"m": 2, "k": 1, "p": 2.0}, ("lower", "upper"), None, True, True),
    ("corollary3", {"m": 2, "k": 2, "p": 2.0}, ("upper",), 0.5, True, True),
    (
        "bernstein",
        {"m": 2, "k": 1, "p": 2.0, "sigma": 1.0, "j": 0, "nu": 1},
        (),
        None,
        True,
        False,
    ),
]


@pytest.mark.parametrize(
    "check,case,flags,slack,has_error,has_decay", ROW_CONTRACT, ids=[c[0] for c in ROW_CONTRACT]
)
def test_row_contract(check, case, flags, slack, has_error, has_decay):
    (row,) = verify_sweep(check, [case])
    both_vacuous = {"lower", "upper"} <= set(flags)
    assert row.status == ("vacuous" if both_vacuous else "pass")
    assert row.vacuous_flags == flags
    assert row.slack == slack
    assert (row.abs_error is not None) == has_error
    assert (row.decay_c is not None) == has_decay
    assert (row.decay_c_tilde is not None) == has_decay
    gaps = []
    if row.lower_bound is not None and math.isfinite(row.lower_bound):
        gaps.append(row.value - row.lower_bound)
    if row.upper_bound is not None and math.isfinite(row.upper_bound):
        gaps.append(row.upper_bound - row.value)
    assert row.margin == min(gaps)
    if check == "bernstein":
        assert (row.j, row.nu) == (case["j"], case["nu"])
    else:
        assert row.j is None and row.nu is None


def test_bernstein_row_too_narrow_for_the_pyramid_uses_quadrature():
    # At m=20, j=-6 the pyramid's 2^20-sample cap stops its fine level before
    # its Taylor bound is small for sigma=0.05; the row takes the Fourier route.
    case = {"m": 20, "k": 1, "p": 2.0, "sigma": 0.05, "center": 0.3, "j": -6, "nu": 0}
    (row,) = verify_sweep("bernstein", [case])
    f = GaussianTestFunction.normalized(0.05, 0.3, 1, 2.0)
    assert not pyramid_coefficient(f, 20, -6, 0).converged
    coef = wavelet_coefficient(f, 20, -6, 0)
    assert row.status == "pass"
    assert row.abs_error == coef.abs_error + bernstein_rhs(20, 1, 2.0, -6).abs_error


def test_bernstein_row_reports_the_error_it_is_checked_with():
    # The row's tolerance is abs_error + TOL_PAD, so abs_error must carry both
    # the coefficient's error and the right-hand side's.
    (row,) = verify_sweep("bernstein", [{"m": 2, "k": 1, "p": 2.0, "sigma": 1.0, "j": -3, "nu": 0}])
    f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
    coef = pyramid_coefficient(f, 2, -3, 0)
    rhs = bernstein_rhs(2, 1, 2.0, -3)
    assert rhs.abs_error > 0.0
    assert row.abs_error == coef.abs_error + rhs.abs_error


@pytest.mark.parametrize("excess,status", [(5e-10, "pass"), (2e-9, "fail")])
def test_row_pads_its_tolerance_by_tol_pad(excess, status):
    # With abs_error = 0 the tolerance is TOL_PAD = 1e-9 alone.
    assert TOL_PAD == 1e-9
    row = _row("bernstein", 2, 1, 2.0, 0.25 + excess, None, 0.25, 0.0)
    assert row.status == status


@pytest.mark.parametrize(
    "abs_error,lower_status,upper_status",
    [(0.09, "pass", "pass"), (0.1, "vacuous", "pass"), (0.25, "vacuous", "vacuous")],
)
def test_side_swamped_by_the_error_bar_is_unchecked(abs_error, lower_status, upper_status):
    # A side is flagged and left unchecked once abs_error reaches the bound's magnitude.
    lower = _row("theorem1", 2, 1, 2.0, 0.2, 0.1, None, abs_error)
    upper = _row("theorem1", 2, 1, 2.0, 0.2, None, 0.25, abs_error)
    assert lower.status == lower_status and upper.status == upper_status
    assert ("lower" in lower.vacuous_flags) == (lower_status == "vacuous")
    assert ("upper" in upper.vacuous_flags) == (upper_status == "vacuous")
    assert (lower.margin, upper.margin) == (0.2 - 0.1, 0.25 - 0.2)


def test_sweep_takes_only_a_check_and_its_cases():
    assert list(inspect.signature(verify_sweep).parameters) == ["check", "cases"]


class TestReporting:
    def test_exit_codes(self):
        ok = VerificationRow(check="theorem1", status="pass")
        vac = VerificationRow(check="theorem1", status="vacuous")
        bad = VerificationRow(check="theorem1", status="fail")
        err = VerificationRow(check="theorem1", status="error")
        assert exit_code([ok, vac]) == 0
        assert exit_code([ok, bad]) == 1
        assert exit_code([ok, err]) == 1
        assert exit_code([]) == 0

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            VerificationRow(check="theorem1", status="maybe")

    def test_csv_header_and_schema_field(self):
        rows = [VerificationRow(check="theorem2", status="pass", m=2, p=2.0, value=0.1)]
        text = rows_to_csv_bytes(rows).decode()
        header, line = text.strip().split("\n")
        assert header.startswith("schema_version,check,m,k,p")
        assert line.startswith("v1,theorem2,2,")

    def test_v1_columns_in_order(self):
        import json

        columns = (
            "schema_version,check,m,k,p,j,nu,value,abs_error,lower_bound,upper_bound,margin,"
            "status,vacuous_flags,slack,decay_c,decay_c_tilde,note"
        ).split(",")
        assert len(columns) == 18
        rows = [VerificationRow(check="theorem2", status="pass", m=2, p=2.0, value=0.1)]
        header = rows_to_csv_bytes(rows).decode().split("\n")[0]
        assert header.split(",") == columns
        payload = json.loads(rows_to_json_bytes(rows))
        assert sorted(payload["rows"][0]) == sorted(columns)

    def test_json_mirror_contains_summary(self):
        import json

        rows = [VerificationRow(check="theorem2", status="pass", m=2, p=2.0, value=0.1)]
        payload = json.loads(rows_to_json_bytes(rows))
        assert payload["schema_version"] == "v1"
        assert payload["summary"]["pass"] == 1
        assert payload["rows"][0]["check"] == "theorem2"
