"""Evaluation operations are pure; concurrent use must match serial results."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from wavebounds import bernstein, norms
from wavebounds.bernstein import GaussianTestFunction, pyramid_coefficient
from wavebounds.daub_filters import construct_filter, magnitude_squared_H
from wavebounds.norms import NormRequest, quadrature_lp_norm, weighted_lp_norm
from wavebounds.spectral_eval import wavelet_hat, wavelet_hat_abs2


def test_parallel_pointwise_evaluation_matches_serial():
    grid = [(m, float(w)) for m in (1, 2, 3, 5) for w in np.linspace(-20.0, 20.0, 41)]
    serial = [wavelet_hat_abs2(m, w) for m, w in grid]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda mw: wavelet_hat_abs2(*mw), grid))
    assert parallel == serial


def test_parallel_filter_construction_is_consistent():
    with ThreadPoolExecutor(max_workers=8) as pool:
        specs = list(pool.map(construct_filter, [4] * 16))
    assert all(s.taps == specs[0].taps for s in specs)
    assert abs(sum(specs[0].taps) - math.sqrt(2.0)) < 1e-12


def test_parallel_mixed_workload():
    def job(i):
        m = 1 + (i % 3)
        w = 0.5 + 0.37 * i
        return (
            magnitude_squared_H(m, w),
            abs(wavelet_hat(m, w)),
            weighted_lp_norm(NormRequest(m, 0, 2.0)).value if i % 7 == 0 else None,
        )

    serial = [job(i) for i in range(21)]
    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(job, range(21)))
    assert parallel == serial


def test_parallel_quadrature_norms_match_serial(monkeypatch):
    # Norms of one order share panels through the |psi_hat|^2 memo, which
    # threads fill and read at once.
    requests = [NormRequest(m, k, p) for m in (2, 3) for k in (0, 1) for p in (1.5, 3.0)]
    monkeypatch.setattr(norms, "_ABS2_MEMO", norms._Abs2Memo(norms._MEMO_ROWS))
    serial = [quadrature_lp_norm(req) for req in requests]
    # A full-size memo, and one whose cap the threads reach.
    for rows in (norms._MEMO_ROWS, 100):
        memo = norms._Abs2Memo(rows)
        monkeypatch.setattr(norms, "_ABS2_MEMO", memo)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(quadrature_lp_norm, requests * 2))
        assert parallel == serial * 2
        assert 0 < len(memo) <= rows


def test_parallel_pyramid_rows_match_serial_while_cascades_are_evicted(monkeypatch):
    # A cap of 2,000 samples holds only a few cascades, so threads evict
    # entries while others look them up.
    monkeypatch.setattr(bernstein, "_MAX_SAMPLES", 2_000)
    f = GaussianTestFunction(sigma=1.0, center=0.3)
    cases = [(m, j, nu) for m in (2, 3, 4) for j in range(-3, 7) for nu in (-1, 0, 1)]
    bernstein._cascade.cache_clear()
    serial = [pyramid_coefficient(f, *case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda case: pyramid_coefficient(f, *case), cases * 4))
    finally:
        sys.setswitchinterval(interval)
        cached = sum(entry[1].size for entry in bernstein._cascade._entries.values())
        bernstein._cascade.cache_clear()
    assert parallel == serial * 4
    assert 0 < cached <= 2_000
