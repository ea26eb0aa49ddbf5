import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from wavebounds.bernstein import (
    GaussianTestFunction,
    _coefficient_quad,
    _transform_norm_quad,
    bernstein_rhs,
    theorem1_grid,
    theorem2_grid,
    verify_sweep,
    wavelet_coefficient,
)
from wavebounds.norms import DEFAULT_OMEGA_MAX, NormRequest, best_constant_Ckp, weighted_lp_norm
from wavebounds.quadrature import adaptive_quadrature
from wavebounds.reporting import (
    VerificationRow,
    exit_code,
    rows_to_csv_bytes,
    rows_to_json_bytes,
    summarize,
)
from wavebounds.spectral_eval import DEFAULT_CONFIG, wavelet_hat, wavelet_hat_abs2


class TestGaussianTestFunction:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianTestFunction(sigma=0.0)

    def test_family_fixed(self):
        with pytest.raises(ValueError):
            GaussianTestFunction(sigma=1.0, family="bump")

    @pytest.mark.parametrize("k,q", [(0, 2.0), (1, 2.0), (2, 3.0), (1, 1.5)])
    def test_closed_norm_matches_quadrature(self, k, q):
        f = GaussianTestFunction(sigma=0.8, center=2.0)
        numeric = _transform_norm_quad(f, k, q)
        assert numeric.value == pytest.approx(f.weighted_transform_norm(k, q), rel=1e-10)

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
        with pytest.raises(ValueError):
            wavelet_coefficient(f, 2, -7, 0)
        with pytest.raises(ValueError):
            wavelet_coefficient(f, 2, 11, 0)
        with pytest.raises(ValueError):
            wavelet_coefficient(f, 2, 0, 65)

    def test_distant_test_function_gives_negligible_coefficient(self):
        f = GaussianTestFunction(sigma=1.0, center=50.0)
        assert abs(wavelet_coefficient(f, 2, 0, 0)) < 1e-8

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
                * np.conj(wavelet_hat(m, scale * arr, DEFAULT_CONFIG))
            )[0]
            return val.real

        def imag_part(w):
            arr = np.array([w])
            val = (
                f.transform(arr)
                * 2.0 ** (-0.5 * j)
                * np.exp(1j * arr * scale * nu)
                * np.conj(wavelet_hat(m, scale * arr, DEFAULT_CONFIG))
            )[0]
            return val.imag

        re, re_err = quad(real_part, -9.4, 9.4, limit=800)
        im, im_err = quad(imag_part, -9.4, 9.4, limit=800)
        ours = _coefficient_quad(f, m, j, nu)
        assert ours.value.real == pytest.approx(re, abs=1e-9 + 10 * re_err)
        assert ours.value.imag == pytest.approx(im, abs=1e-9 + 10 * im_err)

    @pytest.mark.parametrize("j,nu,center", [(0, 0, 0.3), (1, 0, 0.3), (2, -1, -0.2), (-2, 1, 3.0)])
    def test_order_one_matches_time_domain_oracle(self, j, nu, center):
        # The order-1 wavelet is +1 on [0, 1/2) and -1 on [1/2, 1), so the
        # coefficient of a Gaussian is a difference of erf integrals; this
        # bypasses the frequency domain entirely and pins down every phase
        # and conjugation convention in the Parseval route.
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
        got = wavelet_coefficient(GaussianTestFunction(sigma=sigma, center=center), 1, j, nu)
        assert got.real == pytest.approx(expected, abs=1e-10)
        assert abs(got.imag) < 1e-10

    @pytest.mark.parametrize("j,nu", [(0, 0), (2, 3), (-1, -2)])
    def test_dilated_wavelet_has_unit_l2_norm(self, j, nu):
        # Direct frequency-domain integration of |psi_hat_(j,nu)|^2; nu only
        # contributes a phase, so it cannot change the value.
        m = 2
        span = 2.0**j * DEFAULT_OMEGA_MAX

        def integrand(w):
            return 2.0**-j * wavelet_hat_abs2(m, 2.0**-j * w, DEFAULT_CONFIG)

        breaks = [2.0**j * math.pi * 2.0**i for i in range(13)]
        result = adaptive_quadrature(
            integrand, 0.0, span, rel_tol=1e-9, abs_tol=1e-12, breakpoints=breaks
        )
        assert 2.0 * result.value == pytest.approx(1.0, abs=2e-4)


class TestBernsteinRhs:
    def test_unit_scale_factorization(self):
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        rhs = bernstein_rhs(2, 1, 2.0, 0, f)
        manual = (
            best_constant_Ckp(2, 1, 2.0)
            * weighted_lp_norm(NormRequest(2, 0, 2.0)).value
            * _transform_norm_quad(f, 1, 2.0).value
        )
        assert rhs == pytest.approx(manual, rel=1e-12)

    def test_dyadic_scaling_law(self):
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        k, p = 1, 2.0
        r0 = bernstein_rhs(2, k, p, 4, f)
        r1 = bernstein_rhs(2, k, p, 5, f)
        assert r1 / r0 == pytest.approx(2.0 ** -(k + 1.0 / p - 0.5), rel=1e-12)

    def test_high_precision_assembly(self):
        # Recompose the product in 50-digit arithmetic from the same factors.
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        j, k, p = 5, 1, 2.0
        mp.mp.dps = 50
        pieces = (
            mp.mpf(best_constant_Ckp(2, k, p))
            * mp.mpf(2) ** (-j * (k + 1 / mp.mpf(p) - mp.mpf(1) / 2))
            * mp.mpf(weighted_lp_norm(NormRequest(2, 0, p)).value)
            * mp.mpf(_transform_norm_quad(f, 1, 2.0).value)
        )
        assert bernstein_rhs(2, k, p, j, f) == pytest.approx(float(pieces), rel=1e-13)

    def test_finite_positive(self):
        f = GaussianTestFunction.normalized(1.0, 0.0, 1, 2.0)
        rhs = bernstein_rhs(2, 1, 2.0, 0, f)
        assert 0.0 < rhs < math.inf

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


# check, one small case, vacuous_flags, slack, abs_error set, decay fields set
ROW_CONTRACT = [
    ("theorem1", {"m": 2, "k": 1, "p": 2.0}, ("lower",), None, True, True),
    ("theorem2", {"m": 2, "k": 2, "p": 2.0}, (), 0.5, True, True),
    ("corollary1", {"m": 1, "k": 0, "p": 2.0}, ("lower", "log_m_zero"), None, True, False),
    ("corollary2", {"m": 2, "k": 1, "p": 2.0}, ("lower", "upper"), None, False, True),
    ("corollary3", {"m": 2, "k": 2, "p": 2.0}, ("upper",), 0.5, False, True),
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

    def test_json_mirror_contains_summary(self):
        import json

        rows = [VerificationRow(check="theorem2", status="pass", m=2, p=2.0, value=0.1)]
        payload = json.loads(rows_to_json_bytes(rows))
        assert payload["schema_version"] == "v1"
        assert payload["summary"]["pass"] == 1
        assert payload["rows"][0]["check"] == "theorem2"
