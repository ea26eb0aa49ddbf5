import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from wavebounds.daub_filters import (
    FilterSpec,
    construct_filter,
    eval_H,
    eval_P,
    magnitude_squared_H,
    magnitude_squared_H_integral,
    magnitude_squared_rows,
)
from wavebounds.special_math import MAX_ORDER, UNIT_ROUNDOFF, p_coefficients

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import gen_taps  # noqa: E402

SQRT2 = math.sqrt(2.0)


class TestEvalP:
    def test_order_one_is_constant(self):
        assert eval_P(1, 0.3) == 1.0

    def test_order_two_at_one(self):
        assert eval_P(2, 1.0) == 3.0

    def test_order_three_half(self):
        assert eval_P(3, 0.5) == pytest.approx(4.0, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 3])
    def test_float_gives_float_and_array_gives_array(self, m):
        assert type(eval_P(m, 0.5)) is float
        values = eval_P(m, np.array([0.0, 0.5, 1.0]))
        assert isinstance(values, np.ndarray) and values.shape == (3,)
        assert list(values) == [eval_P(m, 0.0), eval_P(m, 0.5), eval_P(m, 1.0)]

    def test_matches_integer_coefficient_horner(self):
        # eval_P's float coefficients against Horner on the exact integers,
        # each converted as it is added: the same bits at every order.
        x = np.concatenate([np.linspace(0.0, 1.0, 65), [1e-300, 2.0**-30, 1.0 - 2.0**-40]])
        for m in range(1, MAX_ORDER + 1):
            lead, *rest = reversed(p_coefficients(m))
            ref = np.multiply(x, float(lead)) if rest else np.full(x.shape, float(lead))
            if rest:
                ref += rest[0]
                for coef in rest[1:]:
                    ref *= x
                    ref += coef
            assert eval_P(m, x).tobytes() == ref.tobytes(), f"m={m}"
            assert [eval_P(m, float(v)) for v in x] == ref.tolist(), f"m={m}"

    @pytest.mark.parametrize("m", [1, 3, 12])
    def test_horner_leaves_the_argument_unmodified(self, m):
        x = np.linspace(0.0, 1.0, 9)
        eval_P(m, x)
        magnitude_squared_H(m, x)
        assert np.array_equal(x, np.linspace(0.0, 1.0, 9))


class TestMagnitudeSquared:
    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_unit_at_zero(self, m):
        assert magnitude_squared_H(m, 0.0) == 1.0

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_vanishes_at_pi(self, m):
        assert magnitude_squared_H(m, math.pi) < 1e-25

    def test_haar_half_power_point(self):
        assert magnitude_squared_H(1, math.pi / 2) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_periodic_and_even(self, m):
        for w in np.linspace(0.1, 3.0, 7):
            assert magnitude_squared_H(m, w) == pytest.approx(
                magnitude_squared_H(m, -w), abs=1e-15
            )
            assert magnitude_squared_H(m, w) == pytest.approx(
                magnitude_squared_H(m, w + 2 * math.pi), abs=1e-12
            )

    @pytest.mark.parametrize("m", [1, 4, 12])
    def test_range_and_mirror_identity(self, m):
        grid = np.linspace(-math.pi, math.pi, 301)
        vals = magnitude_squared_H(m, grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        mirror = vals + magnitude_squared_H(m, grid + math.pi)
        np.testing.assert_allclose(mirror, 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "w",
        [0.0, math.pi, -math.pi, 2e4, np.linspace(-7.0, 7.0, 12).reshape(3, 4)],
        ids=["0", "pi", "-pi", "2e4", "2d"],
    )
    def test_haar_is_the_clamped_cosine_square(self, w):
        # P_0 = 1: order 1 is the clamped square of the cosine, bit for bit.
        got = magnitude_squared_H(1, w)
        want = np.clip(np.cos(np.asarray(w) / 2) ** 2, 0.0, 1.0)
        assert np.array_equal(got, want)
        assert np.ndim(got) == np.ndim(w)

    @pytest.mark.parametrize("band", [0, 500, 50_502])
    def test_haar_rows_are_the_clamped_cosine_and_sine_squares(self, band):
        # Order 1 runs the general formula with P_0 = 1: t^2 times an exact 1.0.
        special = np.array([0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, 1e-300, 3e4])
        x = np.concatenate([special, np.linspace(-1e3, 1e3, 101_001), special])
        rows = magnitude_squared_rows(1, x, band=band)
        head, tail = x[: x.size - band], x[x.size - band :]
        want_head = np.minimum(np.cos(0.5 * head) * np.cos(0.5 * head), 1.0)
        want_band = np.minimum(np.sin(0.5 * tail) * np.sin(0.5 * tail), 1.0)
        assert rows.tobytes() == np.concatenate([want_head, want_band]).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 6, 20])
    def test_rows_shift_their_band_entries_by_pi(self, m):
        # The head entries are magnitude_squared_H bit for bit; the band
        # entries are |H(x + pi)|^2, taken from sin(x/2) without forming x + pi.
        x = np.linspace(-7.0, 7.0, 29)
        rows = magnitude_squared_rows(m, np.concatenate([x, x]), band=x.size)
        assert np.array_equal(rows[: x.size], magnitude_squared_H(m, x))
        shifted = magnitude_squared_H(m, x + math.pi)
        np.testing.assert_allclose(rows[x.size :], shifted, rtol=0, atol=1e-14)
        assert np.all(rows >= 0.0) and np.all(rows <= 1.0)

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_zero_order_at_pi_is_2m(self, m):
        # log-slope of |H|^2 approaching pi recovers the vanishing-moment order.
        d1, d2 = 5e-3, 5e-2
        s = (
            math.log(magnitude_squared_H(m, math.pi - d2))
            - math.log(magnitude_squared_H(m, math.pi - d1))
        ) / (math.log(d2) - math.log(d1))
        assert s == pytest.approx(2 * m, abs=0.1)


class TestOrderLimit:
    @pytest.mark.parametrize("m", [0, MAX_ORDER + 1])
    @pytest.mark.parametrize("x", [0.3, np.array([0.1, 0.3])], ids=["scalar", "array"])
    def test_bad_order_named_in_message(self, m, x):
        with pytest.raises(ValueError, match=f"the order must satisfy 1 <= m <= {MAX_ORDER}, got m={m}$"):
            eval_P(m, x)
        with pytest.raises(ValueError, match=f"the order must satisfy 1 <= m <= {MAX_ORDER}, got m={m}$"):
            magnitude_squared_H(m, x)

    @pytest.mark.parametrize("m", [0, MAX_ORDER + 1])
    def test_integral_form_bad_order_named_in_message(self, m):
        with pytest.raises(ValueError, match=f"the order must satisfy 1 <= m <= {MAX_ORDER}, got m={m}$"):
            magnitude_squared_H_integral(m, 0.3)


class TestIntegralForm:
    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_endpoints(self, m):
        assert magnitude_squared_H_integral(m, 0.0) == 1.0
        assert magnitude_squared_H_integral(m, math.pi) == pytest.approx(0.0, abs=1e-13)

    def test_cross_form_consistency_point(self):
        a = magnitude_squared_H(2, math.pi / 2)
        b = magnitude_squared_H_integral(2, math.pi / 2)
        assert a == pytest.approx(b, abs=1e-10)

    def test_against_direct_quadrature(self):
        m, w = 3, 2.0
        from wavebounds.special_math import cm_constant

        integral, err = quad(lambda t: math.sin(t) ** (2 * m - 1), 0.0, w)
        assert magnitude_squared_H_integral(m, w) == pytest.approx(
            1.0 - cm_constant(m) * integral, abs=1e-12 + 10 * err
        )

    @pytest.mark.parametrize("m", [1, 4])
    def test_symmetry_extension(self, m):
        for w in (-1.3, 2.0 * math.pi + 1.3, -2.0 * math.pi - 1.3):
            assert magnitude_squared_H_integral(m, w) == pytest.approx(
                magnitude_squared_H_integral(m, 1.3), abs=1e-13
            )


class TestConstruction:
    def test_haar_taps(self):
        assert construct_filter(1).taps == (math.sqrt(0.5), math.sqrt(0.5))

    def test_order_two_closed_forms(self):
        taps = construct_filter(2).taps
        expected = (
            (1 + math.sqrt(3)) / (4 * SQRT2),
            (3 + math.sqrt(3)) / (4 * SQRT2),
            (3 - math.sqrt(3)) / (4 * SQRT2),
            (1 - math.sqrt(3)) / (4 * SQRT2),
        )
        for got, want in zip(taps, expected):
            assert got == pytest.approx(want, abs=1e-14)

    # Standard published table values (15 digits) for the next three orders;
    # an oracle for the factorization and the phase/ordering convention.
    PUBLISHED = {
        3: (0.332670552950083, 0.806891509311093, 0.459877502118491,
            -0.135011020010255, -0.085441273882027, 0.035226291885710),
        4: (0.230377813308896, 0.714846570552915, 0.630880767929859,
            -0.027983769416859, -0.187034811719093, 0.030841381835560,
            0.032883011666885, -0.010597401785069),
        5: (0.160102397974193, 0.603829269797189, 0.724308528437772,
            0.138428145901320, -0.242294887066382, -0.032244869584638,
            0.077571493840046, -0.006241490212798, -0.012580751999082,
            0.003335725285474),
    }

    @pytest.mark.parametrize("m", sorted(PUBLISHED))
    def test_matches_published_tables(self, m):
        taps = construct_filter(m).taps
        for got, want in zip(taps, self.PUBLISHED[m]):
            assert got == pytest.approx(want, abs=5e-15)

    @pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
    def test_sum_rule(self, m):
        assert sum(construct_filter(m).taps) == pytest.approx(SQRT2, abs=1e-12)

    @pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
    def test_double_shift_orthonormality(self, m):
        taps = np.array(construct_filter(m).taps)
        for n in range(m):
            target = 1.0 if n == 0 else 0.0
            inner = float(np.dot(taps[: len(taps) - 2 * n], taps[2 * n :]))
            assert inner == pytest.approx(target, abs=1e-10)

    @pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
    def test_reconstruction_residual(self, m):
        # |H|^2 from the taps against the closed form: at most 3.0e-15 (m = 30).
        spec = construct_filter(m)
        grid = np.linspace(-math.pi, math.pi, 2048)
        resid = np.max(
            np.abs(np.abs(eval_H(spec, grid)) ** 2 - magnitude_squared_H(m, grid))
        )
        assert resid < 1e-14

    @pytest.mark.parametrize("m", [2, 5, 10, 16])
    def test_minimum_phase_zero_locations(self, m):
        # All zeros of sum h(l) z^(2m-1-l) lie in the closed unit disk; the
        # m-fold zero at z = -1 splits numerically into a small cluster, so
        # anything marginally outside must sit next to -1.
        roots = np.roots(construct_filter(m).taps)
        for r in roots:
            if abs(r) > 1.0 + 1e-8:
                assert abs(r + 1.0) < 0.2
                assert abs(r) < 1.2

    @pytest.mark.parametrize("m", range(2, MAX_ORDER + 1))
    def test_spectral_factor_zeros_strictly_inside_disk(self, m):
        # The m zeros nearest -1 are the split m-fold zero at z = -1; the
        # float roots of the table's taps spread it to radius 0.13 at m=16,
        # 0.22 at m=20 and 0.51 at m=32, beyond the 0.2 the test above
        # allows. The other m-1 zeros are the kept spectral-factor zeros
        # (modulus at most 0.704, at m=32); they sit at distance >= 1.26 from -1.
        roots = np.roots(construct_filter(m).taps)
        order = np.argsort(np.abs(roots + 1.0))
        cluster, kept = roots[order[:m]], roots[order[m:]]
        assert np.max(np.abs(kept)) < 1.0
        assert np.max(np.abs(cluster + 1.0)) < 0.5 * np.min(np.abs(kept + 1.0))

    def test_order_limits(self):
        for m in (0, MAX_ORDER + 1):
            with pytest.raises(ValueError, match=f"the order must satisfy 1 <= m <= {MAX_ORDER}, got m={m}$"):
                construct_filter(m)
        assert len(construct_filter(MAX_ORDER).taps) == 2 * MAX_ORDER

    def test_spec_is_immutable_and_cached(self):
        spec = construct_filter(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.m = 4
        assert construct_filter(3) is spec

    def test_tap_count_enforced(self):
        with pytest.raises(ValueError):
            FilterSpec(m=2, taps=(1.0, 2.0, 3.0))



class TestTapTable:
    """The committed table against a 50-digit factorization built by tools/gen_taps.py."""

    @pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
    def test_every_tap_is_correctly_rounded(self, m):
        # np.roots, then Newton at 50 digits: m-1 distinct roots of P_(m-1)
        # (|P(y)| at most 1.9e-44 over m <= 32), then the in-disk zero of each
        # reciprocal pair. Each tap must be float() of the 50-digit tap.
        mp = gen_taps.mp
        coeffs = list(reversed(p_coefficients(m)))
        with mp.workdps(gen_taps.DIGITS):
            roots = gen_taps.polished_roots(m)
            assert len(roots) == m - 1
            assert all(abs(mp.polyval(coeffs, y)) <= mp.mpf("1e-40") for y in roots)
            assert all(abs(y - x) > 1e-10 for i, y in enumerate(roots) for x in roots[:i])
            zeros = [gen_taps.inside_zero(y) for y in roots]
            assert all(abs(z) < 1 and abs(1 / z) > 1 for z in zeros)
            ref = gen_taps.taps_from_zeros(m, zeros)
        assert construct_filter(m).taps == tuple(float(t) for t in ref)

    @pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
    def test_exact_residuals_of_the_taps(self, m):
        # The double taps read as exact rationals. Largest over m <= 32: sum
        # rule 8.5e-17 (m=23), orthonormality 8.1e-17 (m=16), moments 4.7e-17
        # (m=9). Order 1's taps are both fl(sqrt(1/2)), whose squares sum to
        # 1 + 1.4e-16: within the 2u that correct rounding allows, not 1e-16.
        h = [Fraction(t) for t in construct_filter(m).taps]
        total = sum(h)
        drift = abs(total * total - 2) / (total + Fraction(SQRT2)) / Fraction(SQRT2)
        assert drift < 1e-16
        for n in range(m):
            inner = sum(a * b for a, b in zip(h, h[2 * n :]))
            tol = 2 * UNIT_ROUNDOFF if m == 1 else 1e-16
            assert abs(inner - (n == 0)) < tol, n
        for q in range(m):
            moment = sum((-1) ** ell * ell**q * t for ell, t in enumerate(h))
            scale = sum(ell**q * abs(t) for ell, t in enumerate(h))
            assert abs(moment) / scale < 1e-16, q

    def test_generator_refuses_unpolished_roots(self, monkeypatch):
        monkeypatch.setattr(gen_taps.np, "roots", lambda p: np.full(len(p) - 1, np.nan))
        with pytest.raises(ArithmeticError, match=r"order 3: Newton from nan"):
            gen_taps.reference_taps(3)

    def test_generator_writes_the_committed_table(self, tmp_path, monkeypatch):
        # The first three orders, written by the tool, are the table's first lines.
        monkeypatch.setattr(gen_taps, "MAX_ORDER", 3)
        out = tmp_path / "taps.txt"
        assert gen_taps.main(["--out", str(out)]) == 0
        committed = (Path(gen_taps.__file__).parents[1] / "src/wavebounds/daub_taps.txt").read_text()
        assert committed.startswith(out.read_text())

    def test_table_covers_every_order_and_ships_with_the_package(self):
        assert [construct_filter(m).m for m in range(1, MAX_ORDER + 1)] == list(range(1, MAX_ORDER + 1))
        pyproject = (Path(gen_taps.__file__).parents[1] / "pyproject.toml").read_text()
        assert 'wavebounds = ["daub_taps.txt"]' in pyproject


class TestEvalH:
    def test_haar_endpoints(self):
        spec = construct_filter(1)
        assert eval_H(spec, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert abs(eval_H(spec, math.pi)) < 1e-15

    def test_one_read_only_tap_array_per_filter(self):
        spec = construct_filter(3)
        eval_H(spec, 0.4)
        taps = spec._tap_array
        assert taps is spec._tap_array and not taps.flags.writeable
        assert taps.tolist() == list(spec.taps)

    def test_modulus_matches_closed_form(self):
        spec = construct_filter(3)
        got = abs(eval_H(spec, 1.1)) ** 2
        assert got == pytest.approx(magnitude_squared_H(3, 1.1), abs=1e-10)

    def test_grid_evaluator_agrees_with_scalar(self):
        # Reference: the tap polynomial by scalar Horner in complex arithmetic.
        spec = construct_filter(4)
        grid = np.linspace(-2.0, 2.0, 9)
        vec = eval_H(spec, grid)
        for w, v in zip(grid, vec):
            phase = complex(math.cos(w), math.sin(w))
            acc = 0.0 + 0.0j
            for tap in reversed(spec.taps):
                acc = acc * phase + tap
            assert v == pytest.approx(acc / SQRT2, abs=1e-14)

    @pytest.mark.parametrize("m", range(2, MAX_ORDER + 1))
    def test_matches_high_precision_tap_sum(self, m):
        # The same float taps summed in 40-digit arithmetic, over the band and
        # at the large arguments the tap route's outer factors see.
        mp = pytest.importorskip("mpmath")
        spec = construct_filter(m)
        grid = np.concatenate([np.linspace(-4.0 * math.pi, 4.0 * math.pi, 49), [123.4, -987.6, 1e4]])
        with mp.workdps(40):
            for w, v in zip(grid, eval_H(spec, grid)):
                z = mp.expj(mp.mpf(float(w)))
                ref = mp.fsum(mp.mpf(t) * z**ell for ell, t in enumerate(spec.taps)) / mp.sqrt(2)
                assert float(abs(mp.mpc(v) - ref)) <= 2e-15, (w, v)
