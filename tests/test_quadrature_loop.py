"""The list-based refinement loop of adaptive_quadrature against a heap-of-Panel reference.

`reference_quadrature` keeps the earlier form of the loop, one frozen
dataclass per panel on the heap, as the oracle: the list-based loop must pop
the same panels, keep the same running totals and sum the same panels in the
same order, so every result and every returned panel is equal, not close.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np
import pytest

from wavebounds import norms, quadrature
from wavebounds.norms import NormRequest, quadrature_lp_norm
from wavebounds.quadrature import _NODES, _RULES, BATCH_PANELS, QuadResult, adaptive_quadrature


@dataclass(frozen=True)
class RefPanel:
    a: float
    b: float
    value: complex
    error: float


def reference_panels(f, lo, hi) -> list[RefPanel]:
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _NODES
    y = np.asarray(f(x.ravel())).reshape(x.shape)
    kg = half[:, None] * (y @ _RULES)
    errors = np.abs(kg[:, 0] - kg[:, 1])
    return [
        RefPanel(lo, hi, complex(val), err)
        for lo, hi, val, err in zip(a.tolist(), b.tolist(), kg[:, 0].tolist(), errors.tolist())
    ]


def reference_quadrature(f, a, b, *, rel_tol=1e-9, abs_tol=1e-13, max_panels=100_000, breakpoints=None):
    edges = [a, b]
    if breakpoints:
        edges = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    heap, done = [], []
    counter = 0
    total_err = 0.0
    total_val = 0.0 + 0.0j

    def evaluate(lo, hi):
        nonlocal counter, total_err, total_val
        for panel in reference_panels(f, lo, hi):
            heapq.heappush(heap, (-panel.error, counter, panel))
            counter += 1
            total_err += panel.error
            total_val += panel.value

    evaluate(edges[:-1], edges[1:])
    min_width = (b - a) * 1e-14
    converged = False
    while heap:
        if total_err <= max(abs_tol, rel_tol * abs(total_val)):
            converged = True
            break
        budget = min(BATCH_PANELS, max_panels - len(heap) - len(done))
        if budget <= 0:
            break
        lo, hi = [], []
        while heap and len(lo) < 2 * budget:
            _, _, worst = heapq.heappop(heap)
            if worst.b - worst.a <= min_width:
                done.append(worst)
                continue
            total_err -= worst.error
            total_val -= worst.value
            mid = 0.5 * (worst.a + worst.b)
            lo += (worst.a, mid)
            hi += (mid, worst.b)
        if lo:
            evaluate(lo, hi)

    panels = sorted(done + [item[2] for item in heap], key=lambda p: p.a)
    value = sum(p.value for p in panels)
    error = float(sum(p.error for p in panels))
    if value.imag == 0.0:
        value = value.real
    result = QuadResult(value, error, 15 * counter, converged, len(panels))
    return result, panels


def assert_same_run(f, a, b, **kwargs):
    """Both loops on one problem: equal results, equal panels; returns the reference panels."""
    ref, ref_panels = reference_quadrature(f, a, b, **kwargs)
    new, new_panels = adaptive_quadrature(f, a, b, return_panels=True, **kwargs)
    assert type(new.value) is type(ref.value)
    assert new == ref  # value, abs_error, evaluations, converged, panels
    assert [tuple(p) for p in new_panels] == [(p.a, p.b, p.value, p.error) for p in ref_panels]
    assert adaptive_quadrature(f, a, b, **kwargs) == new
    return ref_panels


def test_smooth_integrand():
    assert_same_run(lambda x: np.exp(-(x**2)), 0.0, 5.0, rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("max_panels", [8, 9, 10])
def test_budget_runs_out(max_panels):
    f = lambda x: np.sin(400.0 * x)
    assert_same_run(f, 0.0, 3.0, max_panels=max_panels, abs_tol=1e-15, rel_tol=1e-15)
    assert not adaptive_quadrature(f, 0.0, 3.0, max_panels=max_panels, abs_tol=1e-15, rel_tol=1e-15).converged


def test_complex_integrand():
    assert_same_run(lambda x: np.exp(1j * x), 0.0, math.pi)


def test_tied_errors():
    # cos is even, so the mirrored panels of [-3, 3] carry bit-equal errors:
    # the heap breaks each tie by creation order.
    panels = assert_same_run(np.cos, -3.0, 3.0, breakpoints=[-1.0, 1.0], rel_tol=1e-14, abs_tol=0.0)
    errors = [p.error for p in panels]
    assert len(set(errors)) < len(errors)


def test_panel_at_min_width():
    # The jump at 1/3 is bisected down to the width floor (b - a) * 1e-14,
    # where the panel is set aside with its error instead of being refined.
    f = lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0)
    panels = assert_same_run(f, 0.0, 1.0, rel_tol=0.0, abs_tol=0.0, max_panels=600)
    assert min(p.b - p.a for p in panels) <= 1e-14


@pytest.mark.parametrize("request_", [NormRequest(1, 0, 3.0), NormRequest(6, 5, 1.5)], ids=str)
def test_norm_integrands(monkeypatch, request_):
    runs = []

    def recording(f, a, b, **kwargs):
        runs.append((f, a, b, kwargs))
        return adaptive_quadrature(f, a, b, **kwargs)

    monkeypatch.setattr(norms, "adaptive_quadrature", recording)
    quadrature_lp_norm(request_)
    ((f, a, b, kwargs),) = runs
    assert kwargs.pop("return_panels")
    assert_same_run(f, a, b, **kwargs)


def test_no_panel_without_return_panels(monkeypatch):
    def refuse(*args):
        raise AssertionError("Panel built for a run that returns no panels")

    monkeypatch.setattr(quadrature, "Panel", refuse)
    result = adaptive_quadrature(lambda x: np.sin(50.0 * x), 0.0, 2.0)
    assert result.panels > 1
