import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavebounds.quadrature import (
    BATCH_PANELS,
    QuadResult,
    _NODES,
    _WEIGHTS_G,
    _WEIGHTS_K,
    adaptive_quadrature,
)


def test_rule_constants():
    assert _WEIGHTS_K.sum() == pytest.approx(2.0, abs=1e-14)
    assert _WEIGHTS_G.sum() == pytest.approx(2.0, abs=1e-14)
    np.testing.assert_allclose(_NODES, -_NODES[::-1], atol=1e-16)
    np.testing.assert_allclose(_WEIGHTS_K, _WEIGHTS_K[::-1], atol=1e-16)


@pytest.mark.parametrize("degree", [4, 10, 18, 22])
def test_polynomial_exactness(degree):
    # The 15-point Kronrod rule is exact through degree 22; one panel, no bisection.
    result = adaptive_quadrature(lambda x: x**degree, 0.0, 1.0, max_panels=1)
    assert result.value == pytest.approx(1.0 / (degree + 1), rel=1e-13)
    assert result.evaluations == 15 and result.panels == 1


@pytest.mark.parametrize(
    "f,a,b",
    [
        (lambda x: np.exp(-(x**2)), 0.0, 5.0),
        (lambda x: np.sin(50.0 * x), 0.0, 2.0 * math.pi),
        (lambda x: 1.0 / (1.0 + x**2), -4.0, 9.0),
        (lambda x: np.sqrt(np.abs(x)) * np.cos(3.0 * x), 0.5, 7.0),
    ],
)
def test_matches_scipy_and_reports_honest_error(f, a, b):
    ours = adaptive_quadrature(f, a, b, rel_tol=1e-11, abs_tol=1e-13)
    ref, _ = quad(lambda x: float(f(np.array([x]))[0]), a, b, limit=400)
    assert abs(ours.value - ref) <= max(ours.abs_error, 1e-11 * abs(ref) + 1e-12)


def test_complex_integrand():
    result = adaptive_quadrature(lambda x: np.exp(1j * x), 0.0, math.pi)
    assert result.value == pytest.approx(2.0j, abs=1e-12)


def test_breakpoints_split_kinks():
    result = adaptive_quadrature(
        lambda x: np.abs(x - 0.5), 0.0, 1.0, breakpoints=[0.5], abs_tol=1e-14
    )
    assert result.value == pytest.approx(0.25, abs=1e-14)
    assert result.evaluations == 30  # two exact panels, no refinement needed


def test_budget_exhaustion_keeps_honest_error():
    # Highly oscillatory with a tiny budget: the reported error must cover the miss.
    f = lambda x: np.sin(400.0 * x)
    exact = (1.0 - math.cos(400.0 * 3.0)) / 400.0
    result = adaptive_quadrature(f, 0.0, 3.0, max_panels=8, abs_tol=1e-15, rel_tol=1e-15)
    assert abs(result.value - exact) <= result.abs_error


@pytest.mark.parametrize("max_panels", [8, 9, 10])
def test_rounds_never_exceed_panel_budget(max_panels):
    # A round bisects at most as many panels as the budget has room for.
    f = lambda x: np.sin(400.0 * x)
    result, panels = adaptive_quadrature(
        f, 0.0, 3.0, max_panels=max_panels, abs_tol=1e-15, rel_tol=1e-15, return_panels=True
    )
    assert result.panels == len(panels) == max_panels
    assert not result.converged


def test_converged_run_reports_its_panels():
    result, panels = adaptive_quadrature(
        lambda x: np.exp(-(x**2)), 0.0, 5.0, rel_tol=1e-12, return_panels=True
    )
    assert result.converged
    assert result.panels == len(panels) > 1
    assert result.evaluations == 15 * (2 * result.panels - 1)  # every bisection adds one panel


def test_each_round_is_one_integrand_call():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.cos(13.0 * x) / (1.0 + x**2)

    result = adaptive_quadrature(f, 0.0, 20.0, rel_tol=1e-12, breakpoints=[5.0, 10.0, 15.0])
    assert calls[0] == 4 * 15  # the four breakpoint panels together
    assert all(size % 30 == 0 and size <= 30 * BATCH_PANELS for size in calls[1:])
    assert sum(calls) == result.evaluations
    assert len(calls) < result.evaluations / (15 * BATCH_PANELS)


def test_refinement_is_monotone_in_tolerance():
    f = lambda x: np.exp(-x) * np.sin(7.0 * x) ** 2
    errors = [
        adaptive_quadrature(f, 0.0, 10.0, rel_tol=tol, abs_tol=1e-16).abs_error
        for tol in (1e-4, 1e-6, 1e-8, 1e-10)
    ]
    assert all(b <= a for a, b in zip(errors, errors[1:]))


def test_deterministic_repeat():
    f = lambda x: np.cos(13.0 * x) / (1.0 + x**2)
    r1 = adaptive_quadrature(f, 0.0, 20.0, rel_tol=1e-10)
    r2 = adaptive_quadrature(f, 0.0, 20.0, rel_tol=1e-10)
    assert r1 == r2


def test_non_finite_integrand_fails_after_one_call():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.full_like(x, np.nan)

    with pytest.raises(ValueError, match=r"non-finite integrand on \[0, 1\]: K15 value nan"):
        adaptive_quadrature(f, 0, 1)
    assert calls == [15]


def test_non_finite_panel_is_named():
    # Only the right breakpoint panel sees the infinite values.
    f = lambda x: np.where(x > 0.7, np.inf, x)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=r"on \[0.5, 1\]: K15 value inf"):
            adaptive_quadrature(f, 0.0, 1.0, breakpoints=[0.5])


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x: x, 1.0, 1.0)


def test_quad_result_rejects_negative_error():
    with pytest.raises(ValueError):
        QuadResult(value=1.0, abs_error=-1e-3, evaluations=15)
