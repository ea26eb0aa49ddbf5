import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from wavebounds import norms
from wavebounds.bernstein import bound_params, corollary1_grid, theorem1_grid, theorem2_grid
from wavebounds.norms import (
    DEFAULT_OMEGA_MAX,
    NormRequest,
    best_constant_Ckp,
    default_decay,
    quadrature_lp_norm,
    weighted_lp_norm,
)
from wavebounds.quadrature import QuadResult, adaptive_quadrature
from wavebounds.refinable import even_power_integral
from wavebounds.special_math import MAX_ORDER
from wavebounds.spectral_eval import DecayFit, estimate_decay, wavelet_hat_abs2


class TestRequestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0, "k": 0, "p": 2.0},
            {"m": 2, "k": -1, "p": 2.0},
            {"m": 2, "k": 3, "p": 2.0},  # k > m diverges at the origin
            {"m": 2, "k": 1, "p": 1.0},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NormRequest(**kwargs)

    def test_k_equal_m_allowed(self):
        NormRequest(m=2, k=2, p=2.0)

    @pytest.mark.parametrize(
        "m,k,p,named",
        [
            (3, 1.5, 2.0, "k must be an integer, got 1.5"),
            (3, 1.5, 3.0, "k must be an integer, got 1.5"),
            (2.0, 1, 3.0, "m must be an integer, got 2.0"),
        ],
    )
    def test_non_integer_order_or_exponent_named(self, m, k, p, named):
        with pytest.raises(ValueError, match=named):
            NormRequest(m, k, p)

    def test_numpy_integer_named(self):
        # np.int64 wraps in bernstein._order_table's integer products and fails in
        # refinable's math.ldexp: it is refused before any norm route.
        with pytest.raises(ValueError, match=r"m must be an integer, got (np\.int64\()?3"):
            NormRequest(np.int64(3), 1, 2.0)

    def test_non_integrable_tail_rejected(self, monkeypatch):
        # c = 0.05 gives alpha = 0.05 log 2, so p(k + alpha) <= 1 at (2, 0, 1.5).
        slow = DecayFit(C_tilde=1.0, c=0.05, fit_range=(4.0 * math.pi, 3000.0), residual=0.0)
        monkeypatch.setattr(norms, "default_decay", lambda m: slow)
        with pytest.raises(ValueError, match=r"tail not integrable.*alpha = 0\.0346574"):
            quadrature_lp_norm(NormRequest(m=2, k=0, p=1.5))


class TestTailCutoff:
    def test_cutoff_must_exceed_2pi(self):
        with pytest.raises(ValueError, match="omega_max must exceed 2\\*pi"):
            quadrature_lp_norm(NormRequest(2, 1, 2.0), omega_max=math.pi)

    def test_one_decay_fit_per_order(self, monkeypatch):
        # Norms at any cutoff and the sweeps' bound parameters share one fit.
        calls = []

        def counting_fit(*args):
            calls.append(args)
            return estimate_decay(*args)

        default_decay.cache_clear()
        monkeypatch.setattr(norms, "estimate_decay", counting_fit)
        quadrature_lp_norm(NormRequest(3, 1, 1.5), omega_max=2.0 * DEFAULT_OMEGA_MAX)
        quadrature_lp_norm(NormRequest(3, 1, 1.5))
        bound_params(3, 1, 1.5, math.pi)
        assert calls == [(3, 4.0 * math.pi, DEFAULT_OMEGA_MAX, 128)]


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
        result = quadrature_lp_norm(NormRequest(2, 1, p))
        low = max(result.value**p - 2.0 * quad_err[0], 0.0) ** (1.0 / p)
        assert result.abs_error >= result.value - low


def _default_norm_requests() -> set[NormRequest]:
    """The norms of the theorem1, theorem2 and corollary1 rows and their k = 0 denominators."""
    requests = set()
    for case in theorem1_grid() + theorem2_grid() + corollary1_grid():
        requests.add(NormRequest(case["m"], case["k"], case["p"]))
        requests.add(NormRequest(case["m"], 0, case["p"]))
    return requests


class TestTightReference:
    # The two theorem1 norms whose error estimate once missed this reference,
    # then every norm whose quadrature stops early at the tail-error share.
    @pytest.mark.parametrize(
        "m,k,p",
        [
            (2, 1, 2.0),
            (6, 1, 1.5),
            (1, 0, 1.5),
            (1, 0, 2.0),
            (1, 0, 3.0),
            (2, 0, 1.5),
            (2, 0, 2.0),
            (3, 0, 1.5),
            (1, 1, 2.0),
            (2, 2, 2.0),
        ],
    )
    def test_within_abs_error_of_tight_run(self, monkeypatch, m, k, p):
        default = quadrature_lp_norm(NormRequest(m, k, p))

        def tight_quadrature(*args, **kwargs):
            return adaptive_quadrature(*args, **{**kwargs, "rel_tol": 1e-13, "abs_tol": 1e-16})

        monkeypatch.setattr(norms, "adaptive_quadrature", tight_quadrature)
        reference = quadrature_lp_norm(NormRequest(m, k, p))
        assert abs(default.value - reference.value) <= default.abs_error
        assert reference.converged


class TestEvaluationBudget:
    # Evaluation counts are deterministic, so they pin the stop rule's savings.
    def test_tail_dominated_norm_stops_early(self):
        # The tail error of (1, 0, 1.5) is about 2e-2; the quadrature stops at
        # a tenth of it instead of 1e-9 relative (57,555 evaluations).
        assert weighted_lp_norm.__wrapped__(NormRequest(1, 0, 1.5)).evaluations < 20_000

    def test_default_sweep_norms_total(self):
        # The 78 distinct norms behind theorem1, theorem2 and corollary1 and
        # the ratio denominators of corollary2 and corollary3; the 36 at p = 2
        # or 4 take the exact route and evaluate nothing.
        results = {req: weighted_lp_norm(req) for req in _default_norm_requests()}
        assert len(results) == 78
        assert all(result.converged for result in results.values())
        even = [result for req, result in results.items() if req.p in (2.0, 4.0)]
        assert len(even) == 36
        assert all(result.evaluations == 0 and result.panels == 0 for result in even)
        assert sum(result.evaluations for result in results.values()) <= 170_000


def _quadrature_requests() -> list[NormRequest]:
    """The 42 default norms that take the quadrature route, in a fixed order."""
    requests = [req for req in _default_norm_requests() if req.p not in norms.EXACT_P]
    return sorted(requests, key=lambda req: (req.m, req.k, req.p))


def _fresh_memo(monkeypatch, rows=norms._MEMO_ROWS):
    memo = norms._Abs2Memo(rows)
    monkeypatch.setattr(norms, "_ABS2_MEMO", memo)
    return memo


class TestAbs2Memo:
    """The quadrature route's |psi_hat|^2 memo returns what fresh calls return."""

    def test_warm_equals_cold_in_any_order(self, monkeypatch):
        requests = _quadrature_requests()
        narrow = NormRequest(3, 1, 1.5)
        cold = {}
        for req in requests:
            _fresh_memo(monkeypatch)
            cold[req] = quadrature_lp_norm(req)
        _fresh_memo(monkeypatch)
        cold_narrow = quadrature_lp_norm(narrow, omega_max=2.0**11 * math.pi)
        for order in (requests, requests[::-1]):
            _fresh_memo(monkeypatch)
            assert [quadrature_lp_norm(req) for req in order] == [cold[req] for req in order]
            # A shorter cutoff shares the lower panels of the default lattice.
            assert quadrature_lp_norm(narrow, omega_max=2.0**11 * math.pi) == cold_narrow

    def test_each_panel_evaluated_once_per_order(self, monkeypatch):
        memo = _fresh_memo(monkeypatch)
        points = []
        calls = []

        def counted_abs2(m, w):
            points.append(w.size)
            return wavelet_hat_abs2(m, w)

        def counting_quadrature(f, *args, **kwargs):
            def counted(w):
                calls.append(w.size)
                return f(w)

            return adaptive_quadrature(counted, *args, **kwargs)

        monkeypatch.setattr(norms, "wavelet_hat_abs2", counted_abs2)
        monkeypatch.setattr(norms, "adaptive_quadrature", counting_quadrature)
        results = [quadrature_lp_norm(req) for req in _quadrature_requests()]
        assert len(results) == 42
        assert sum(result.evaluations for result in results) == sum(calls) == 168_510
        assert len(calls) == 710
        # 11,234 panels, but only 7,222 distinct (order, panel) pairs.
        assert sum(points) <= 108_420
        # The default sweeps fit under the cap: every row evaluated was stored.
        assert 15 * len(memo) == sum(points)
        assert len(memo) <= norms._MEMO_ROWS

    def test_rows_sharing_a_middle_node_stay_apart(self, monkeypatch):
        memo = _fresh_memo(monkeypatch)
        row = np.linspace(1.0, 3.0, 15)
        other = row.copy()
        other[0] = 0.5
        memo.for_order(2)(row)
        assert memo.for_order(2)(other).tobytes() == wavelet_hat_abs2(2, other).tobytes()
        abs2 = memo.for_order(2)
        for w in (row, other):
            assert abs2(w).tobytes() == wavelet_hat_abs2(2, w).tobytes()

    def test_stays_within_its_caps(self, monkeypatch):
        requests = [NormRequest(2, 0, 1.5), NormRequest(2, 1, 3.0), NormRequest(3, 0, 3.0)]
        _fresh_memo(monkeypatch)
        expected = [quadrature_lp_norm(req) for req in requests]
        memo = _fresh_memo(monkeypatch, rows=100)
        assert [quadrature_lp_norm(req) for req in requests * 2] == expected * 2
        assert 0 < len(memo) <= 100


class TestTopOctave:
    def test_no_panel_straddles_half_the_cutoff(self, monkeypatch):
        # The tail calibration sums the panels with a >= omega_max / 2; that
        # is the top octave exactly because omega_max / 2 is a breakpoint.
        runs = []

        def recording(*args, **kwargs):
            result, panels = adaptive_quadrature(*args, **kwargs)
            runs.append(panels)
            return result, panels

        monkeypatch.setattr(norms, "adaptive_quadrature", recording)
        for req in _quadrature_requests():
            quadrature_lp_norm(req)
        assert len(runs) == 42
        half = DEFAULT_OMEGA_MAX / 2.0
        straddling = [(pnl.a, pnl.b) for panels in runs for pnl in panels if pnl.a < half < pnl.b]
        assert not straddling
        assert all(any(pnl.a == half for pnl in panels) for panels in runs)
        assert all(type(pnl.value) is float for panels in runs for pnl in panels)


class TestBatchedQuadrature:
    def test_integrand_calls_are_batched(self, monkeypatch):
        calls = []

        def counting_quadrature(f, *args, **kwargs):
            def counted(w):
                calls.append(w.size)
                return f(w)

            return adaptive_quadrature(counted, *args, **kwargs)

        monkeypatch.setattr(norms, "adaptive_quadrature", counting_quadrature)
        result = quadrature_lp_norm(NormRequest(2, 0, 1.5))
        panels_evaluated = sum(calls) // 15
        assert sum(calls) == result.evaluations
        assert 8 * len(calls) < panels_evaluated
        assert result.converged and result.panels > 0


class TestPlancherel:
    @pytest.mark.parametrize("m", [1, 4])
    def test_l2_norm_is_one(self, m):
        omega_max = 2.0**15 * math.pi if m <= 2 else DEFAULT_OMEGA_MAX
        result = quadrature_lp_norm(NormRequest(m, 0, 2.0), omega_max=omega_max)
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
        ours = quadrature_lp_norm(NormRequest(1, 0, 2.0), omega_max=2.0**15 * math.pi)
        assert ours.value == pytest.approx(math.sqrt(closed), abs=1e-6 + err)

    def test_weighted_norm_analytic_value(self):
        # For k = m = 1, p = 2 the closed form gives exactly 1/sqrt(12).
        result = weighted_lp_norm(NormRequest(1, 1, 2.0))
        assert result.value == pytest.approx(1.0 / math.sqrt(12.0), abs=1e-8)
        assert abs(result.value - 1.0 / math.sqrt(12.0)) <= result.abs_error

    def test_weighted_norm_sinc_closed_form(self, sinc_power_integral):
        # k = m = 1, p = 4 reduces by substitution to the eighth sinc power:
        # ||w^-1 psi_hat||_4^4 = integral (sin u / u)^8 du / (128 pi^2).
        exact = (sinc_power_integral(8) / (128.0 * math.pi**2)) ** 0.25
        result = weighted_lp_norm(NormRequest(1, 1, 4.0))
        assert result.value == pytest.approx(exact, abs=1e-8)
        assert abs(result.value - exact) <= result.abs_error


class TestSelfConsistency:
    def test_value_stable_under_doubled_cutoff(self):
        base = quadrature_lp_norm(NormRequest(2, 1, 2.0))
        doubled = quadrature_lp_norm(NormRequest(2, 1, 2.0), omega_max=2.0 * DEFAULT_OMEGA_MAX)
        assert abs(base.value - doubled.value) <= base.abs_error

    @pytest.mark.parametrize("m,k,p", [(3, 1, 2.0), (4, 2, 1.5), (2, 2, 4.0)])
    def test_tail_honesty(self, m, k, p):
        base = quadrature_lp_norm(NormRequest(m, k, p))
        doubled = quadrature_lp_norm(NormRequest(m, k, p), omega_max=2.0 * DEFAULT_OMEGA_MAX)
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


class TestLargeWeightPowers:
    """Quadrature norms with p k past ~54, where w^(-pk) alone overflows near the origin.

    The brackets use no quadrature: the exact route gives I_2 and I_4, and
    I_p = integral |w|^(-pk) |psi_hat|^p dw satisfies I_3 <= sqrt(I_2 I_4)
    (Cauchy-Schwarz) and, log-convex in p with 2 = 0.8 * 1.5 + 0.2 * 4,
    I_1.5 >= (I_2 / I_4^0.2)^1.25.
    """

    @pytest.mark.parametrize("m,k,p", [(20, 20, 3.0), (32, 32, 3.0), (32, 16, 1.5), (25, 25, 1.5)])
    def test_within_exact_brackets(self, m, k, p):
        result = quadrature_lp_norm(NormRequest(m, k, p))
        assert math.isfinite(result.value) and math.isfinite(result.abs_error)
        (i2, e2), (i4, e4) = even_power_integral(m, k, 1), even_power_integral(m, k, 2)
        if p == 3.0:
            assert (result.value - result.abs_error) ** p <= math.sqrt((i2 + e2) * (i4 + e4))
        else:
            assert (result.value + result.abs_error) ** p >= ((i2 - e2) / (i4 + e4) ** 0.2) ** 1.25

    def test_non_finite_integral_raises_naming_the_request(self):
        # |psi_hat|^700 underflows: the true integral, about 0.289^700, lies
        # below the double range, and the norm must not read 0.
        with pytest.raises(ValueError, match=r"the \(1, 0, 700\.0\) norm integral"):
            quadrature_lp_norm(NormRequest(1, 0, 700.0))


class TestBestConstant:
    def test_k_zero_is_exactly_one(self):
        ratio = best_constant_Ckp(3, 0, 1.5)
        assert ratio.value == 1.0 and ratio.abs_error == 0.0

    def test_finite_positive_values(self):
        c1 = best_constant_Ckp(3, 1, 2.0)
        c2 = best_constant_Ckp(3, 2, 2.0)
        assert 0 < c1.value < math.inf
        assert 0 < c2.value < math.inf
        assert 0 < c1.abs_error < c1.value and 0 < c2.abs_error < c2.value

    def test_deterministic_repeat(self):
        assert best_constant_Ckp(2, 1, 2.0) == best_constant_Ckp(2, 1, 2.0)

    def test_error_covers_every_ratio_of_the_norm_intervals(self, monkeypatch):
        # num = 2 +- 0.1 and den = 1 +- 0.1: the farthest ratio is 2.1 / 0.9.
        norms_by_k = {1: QuadResult(2.0, 0.1, 15), 0: QuadResult(1.0, 0.1, 30)}
        monkeypatch.setattr(norms, "weighted_lp_norm", lambda req: norms_by_k[req.k])
        ratio = best_constant_Ckp(2, 1, 2.0)
        assert ratio.value == 2.0 and ratio.evaluations == 45
        for num in (1.9, 2.1):
            for den in (0.9, 1.1):
                assert abs(num / den - ratio.value) <= ratio.abs_error + 1e-15
        assert ratio.abs_error == pytest.approx(2.1 / 0.9 - 2.0, rel=1e-12)

    def test_denominator_error_past_its_value_gives_infinite_error(self, monkeypatch):
        norms_by_k = {1: QuadResult(2.0, 0.1, 15), 0: QuadResult(1.0, 1.0, 30)}
        monkeypatch.setattr(norms, "weighted_lp_norm", lambda req: norms_by_k[req.k])
        assert best_constant_Ckp(2, 1, 2.0).abs_error == math.inf


def _laurent_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for s, x in a.items():
        for t, y in b.items():
            out[s + t] = out.get(s + t, 0) + x * y
    return out


def _laurent_power(a: dict, n: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(n):
        out = _laurent_product(out, a)
    return out


def _fraction_integral(m: int, k: int, r: int) -> Fraction:
    """integral |w|^(-2rk) |psi_hat|^(2r) dw times (2 pi)^(r-1), solved in fractions.

    Built directly in z = e^(ix) from cos^2(x/2) = (2 + z + 1/z) / 4 and
    sin^2(x/2) = (2 - z - 1/z) / 4, and solved on the even moments
    M(0..N) only, by Gaussian elimination.
    """
    cos2 = {-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}
    sin2 = {-1: Fraction(-1, 4), 0: Fraction(1, 2), 1: Fraction(-1, 4)}

    def P(y: dict) -> dict:
        out: dict = {}
        for j in range(m):
            for t, v in _laurent_power(y, j).items():
                out[t] = out.get(t, 0) + math.comb(m - 1 + j, j) * v
        return out

    symbol = _laurent_power(_laurent_product(_laurent_power(cos2, m + k), P(sin2)), r)
    band = _laurent_power(_laurent_product(_laurent_power(sin2, m - k), P(cos2)), r)
    n_max = max(symbol) - 1
    # Rows n = 1..N: M(n) - 2 sum_j s_j M(|2n + j|) = 0; row 0: M(0) + 2 sum_n M(n) = 1.
    rows = [[Fraction(1)] + [Fraction(2)] * n_max + [Fraction(1)]]
    for n in range(1, n_max + 1):
        row = [Fraction(0)] * (n_max + 2)
        row[n] += 1
        for j, s_j in symbol.items():
            if abs(2 * n + j) <= n_max:
                row[abs(2 * n + j)] -= 2 * s_j
        rows.append(row)
    for col in range(n_max + 1):
        pivot = next(i for i in range(col, n_max + 1) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(n_max + 1):
            if i != col and rows[i][col] != 0:
                f = rows[i][col] / rows[col][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    moments = [rows[i][-1] / rows[i][i] for i in range(n_max + 1)]
    inner = sum(v * moments[abs(t)] for t, v in band.items() if abs(t) <= n_max)
    return 2 * Fraction(1, 4 ** (2 * k * r)) * inner


def _covers(result, integral: Fraction, p: float) -> bool:
    """|value - (integral (2 pi)^(1 - p/2))^(1/p)| <= abs_error, at 40 digits."""
    with mp.workdps(40):
        power = mp.mpf(integral.numerator) / integral.denominator * (2 * mp.pi) ** (1 - p / 2)
        exact = power ** (1 / mp.mpf(p))
        return abs(mp.mpf(result.value) - exact) <= result.abs_error


class TestExactRoute:
    @pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
    def test_plancherel(self, m):
        result = weighted_lp_norm(NormRequest(m, 0, 2.0))
        assert abs(result.value - 1.0) <= result.abs_error <= 1e-13
        assert result.evaluations == 0 and result.panels == 0 and result.converged

    @pytest.mark.parametrize(
        "m,k,p,integral",
        [
            (2, 1, 2.0, Fraction(71, 1200)),
            (1, 1, 2.0, Fraction(1, 12)),
            (2, 0, 4.0, Fraction(4435643, 8991360)),
        ],
    )
    def test_pinned_fractions(self, m, k, p, integral):
        assert _fraction_integral(m, k, round(p) // 2) == integral
        assert _covers(weighted_lp_norm(NormRequest(m, k, p)), integral, p)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("m,k", [(m, k) for m in range(1, 5) for k in range(m + 1)])
    def test_fraction_solve_within_abs_error(self, m, k, p):
        result = weighted_lp_norm(NormRequest(m, k, p))
        assert _covers(result, _fraction_integral(m, k, round(p) // 2), p)

    def test_route_is_chosen_by_p(self):
        assert weighted_lp_norm(NormRequest(2, 1, 4.0)).evaluations == 0
        assert weighted_lp_norm(NormRequest(2, 1, 3.0)).evaluations > 0

    def test_quadrature_route_within_its_error_of_exact(self):
        # The route pair: every default even-p norm by quadrature lies within
        # the quadrature's own abs_error of the exact value.
        for req in _default_norm_requests():
            if req.p in (2.0, 4.0):
                ours = quadrature_lp_norm(req)
                assert abs(ours.value - weighted_lp_norm(req).value) <= ours.abs_error, req

    def test_negative_integral_is_named(self):
        # At r = 127 the certified integral rounds below 0, -4.5e-264 +/-
        # 4.6e-262; its 1/p power would be complex.
        assert even_power_integral(2, 1, 127)[0] < 0
        with pytest.raises(ValueError, match=r"the \(2, 1, 254\.0\) norm integral -4\.5\d*e-264 "):
            norms._exact_lp_norm(NormRequest(2, 1, 254.0))

    def test_integral_below_its_error_keeps_the_hoelder_bound(self):
        # At r = 100 the integral, 9.9e-212, is positive but below its error.
        integral, err = even_power_integral(2, 1, 100)
        assert 0 < integral < err
        result = norms._exact_lp_norm(NormRequest(2, 1, 200.0))
        assert result.value == integral ** (1.0 / 200.0)
        assert result.abs_error >= err ** (1.0 / 200.0)

    def test_route_pair_over_the_exact_range(self):
        # A guard: k at both ends and the middle of every order. (7, 0, 2) and
        # (10, 0, 2) are the strict xfails below.
        for m in range(1, 21):
            for k in sorted({0, 1, m // 2, m - 1, m}):
                for p in (2.0, 4.0):
                    if (m, k, p) in ((7, 0, 2.0), (10, 0, 2.0)):
                        continue
                    req = NormRequest(m, k, p)
                    ours, exact = quadrature_lp_norm(req), weighted_lp_norm(req)
                    assert abs(ours.value - exact.value) <= ours.abs_error + exact.abs_error, req

    @pytest.mark.parametrize("m", [24, 32])
    def test_quadrature_route_from_the_origin_at_k_equal_m(self, m):
        # At these orders |psi_hat(w)|^2 ~ K w^(2m) underflows near the
        # origin, where the integrand |psi_hat| w^-m tends to a nonzero constant.
        req = NormRequest(m, m, 2.0)
        exact = weighted_lp_norm(req).value
        assert abs(quadrature_lp_norm(req).value - exact) <= 1e-12 * exact

    def test_stop_rule_has_no_absolute_floor(self):
        # The integral of (16, 8, 25) is about 1e-108: an absolute tolerance
        # floor would stop its quadrature long before relative 1e-9.
        result = quadrature_lp_norm(NormRequest(16, 8, 25.0))
        assert result.abs_error < 1e-9 * result.value

    @pytest.mark.xfail(
        strict=True,
        reason="the G7/K15 panel estimate under-reads the quadrature error (ROADMAP item 3)",
    )
    @pytest.mark.parametrize("m", [7, 10])
    def test_quadrature_route_plancherel_misses(self, m):
        result = quadrature_lp_norm(NormRequest(m, 0, 2.0))
        assert abs(result.value - 1.0) <= result.abs_error

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_highest_order_against_quadrature(self, p):
        req = NormRequest(MAX_ORDER, 3, p)
        ours = quadrature_lp_norm(req)
        assert abs(ours.value - weighted_lp_norm(req).value) <= ours.abs_error

    def test_order_above_limit_raises_value_error(self):
        with pytest.raises(ValueError, match=rf"1 <= m <= {MAX_ORDER}.*got m=300, k=0, r=1"):
            even_power_integral(300, 0, 1)

    def test_coefficients_beyond_float_range_raise_value_error(self):
        with pytest.raises(ValueError, match=r"\(32, 32, r=6\) .* beyond the float range"):
            even_power_integral(32, 32, 6)

    def test_uncertified_inverse_raises_with_delta(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", lambda a: np.zeros_like(a))
        with pytest.raises(ValueError, match=r"delta = .* is not below 1"):
            even_power_integral(2, 1, 1)
