import inspect
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from wavebounds.bernstein import (
    TOL_PAD,
    GaussianTestFunction,
    _row,
    bernstein_grid,
    bernstein_rhs,
    phi_moments,
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
        # ||(i w)^k f_hat||_q by quadrature of the even integrand over [0, width],
        # past which the Gaussian factor is negligible.
        f = GaussianTestFunction(sigma=0.8, center=2.0)
        width = (9.4 + 2.0 * math.sqrt(k * q)) / f.sigma
        peak = f.amplitude * f.sigma

        def integrand(w):
            return w ** (k * q) * peak**q * np.exp(-0.5 * q * (f.sigma * w) ** 2)

        half = adaptive_quadrature(integrand, 0.0, width, rel_tol=1e-12, abs_tol=1e-15)
        numeric = (2.0 * half.value) ** (1.0 / q)
        assert numeric == pytest.approx(f.weighted_transform_norm(k, q), rel=1e-10)

    def test_normalized_lands_on_unit_sphere(self):
        f = GaussianTestFunction.normalized(1.3, -0.5, 1, 2.0)
        assert f.weighted_transform_norm(1, 2.0) == pytest.approx(1.0, abs=1e-12)

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


class TestPyramidCoefficient:
    @pytest.mark.parametrize("q", range(17))
    def test_haar_moments_are_exact(self, q):
        # phi is the indicator of [-1, 0] at m = 1.
        assert phi_moments(1)[q] == Fraction((-1) ** q, q + 1)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_first_moment_is_the_tap_moment(self, m):
        taps = construct_filter(m).taps
        first = -sum(ell * h for ell, h in enumerate(taps)) / math.sqrt(2.0)
        assert phi_moments(m)[0] == 1
        assert float(phi_moments(m)[1]) == pytest.approx(first, rel=1e-13)

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

    @pytest.mark.xfail(strict=True, reason="the Fourier abs_error is an estimate, not a bound")
    @pytest.mark.parametrize("j,nu", FOURIER_MISSES)
    def test_fourier_error_covers_the_pyramid_value(self, j, nu):
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        fourier = wavelet_coefficient(f, 2, j, nu)
        assert abs(fourier.value - pyramid_coefficient(f, 2, j, nu).value) <= fourier.abs_error


class TestBernsteinRhs:
    def test_unit_scale_factorization(self):
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        rhs = bernstein_rhs(2, 1, 2.0, 0, f).value
        manual = (
            best_constant_Ckp(2, 1, 2.0).value
            * weighted_lp_norm(NormRequest(2, 0, 2.0)).value
            * f.weighted_transform_norm(1, 2.0)
        )
        assert rhs == pytest.approx(manual, rel=1e-12)

    def test_dyadic_scaling_law(self):
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        k, p = 1, 2.0
        r0 = bernstein_rhs(2, k, p, 4, f).value
        r1 = bernstein_rhs(2, k, p, 5, f).value
        assert r1 / r0 == pytest.approx(2.0 ** -(k + 1.0 / p - 0.5), rel=1e-12)

    def test_high_precision_assembly(self):
        # Recompose the product in 50-digit arithmetic from the same factors.
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        j, k, p = 5, 1, 2.0
        mp.mp.dps = 50
        pieces = (
            mp.mpf(best_constant_Ckp(2, k, p).value)
            * mp.mpf(2) ** (-j * (k + 1 / mp.mpf(p) - mp.mpf(1) / 2))
            * mp.mpf(weighted_lp_norm(NormRequest(2, 0, p)).value)
            * mp.mpf(f.weighted_transform_norm(1, 2.0))
        )
        assert bernstein_rhs(2, k, p, j, f).value == pytest.approx(float(pieces), rel=1e-13)

    def test_finite_positive(self):
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        rhs = bernstein_rhs(2, 1, 2.0, 0, f)
        assert 0.0 < rhs.value < math.inf
        assert 0.0 < rhs.abs_error < rhs.value

    def test_weight_exponent_validated(self):
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        with pytest.raises(ValueError):
            bernstein_rhs(2, 2, 2.0, 0, f)


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
        assert len(theorem1_grid()) == 45
        assert len(theorem2_grid()) == 10

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
    assert row.abs_error == coef.abs_error + bernstein_rhs(20, 1, 2.0, -6, f).abs_error


def test_bernstein_row_reports_the_error_it_is_checked_with():
    # The row's tolerance is abs_error + TOL_PAD, so abs_error must carry both
    # the coefficient's error and the right-hand side's.
    (row,) = verify_sweep("bernstein", [{"m": 2, "k": 1, "p": 2.0, "sigma": 1.0, "j": -3, "nu": 0}])
    f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
    coef = pyramid_coefficient(f, 2, -3, 0)
    rhs = bernstein_rhs(2, 1, 2.0, -3, f)
    assert rhs.abs_error > 0.0
    assert row.abs_error == coef.abs_error + rhs.abs_error


@pytest.mark.parametrize("excess,status", [(5e-10, "pass"), (2e-9, "fail")])
def test_row_pads_its_tolerance_by_tol_pad(excess, status):
    # With abs_error = 0 the tolerance is TOL_PAD = 1e-9 alone.
    assert TOL_PAD == 1e-9
    row = _row("bernstein", 2, 1, 2.0, 0.25 + excess, None, 0.25, 0.0)
    assert row.status == status


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
