"""The one-table pyramid, the per-order table and the integer moment recursion
against their earlier forms.

The reference below keeps the earlier `pyramid_coefficient` (a `poly +=`
Taylor loop over He_q), the moments of phi about 0 and their binomial
shift to the central moments (rational arithmetic in `Fraction`s), the tap
constants (`math.fsum` of |h| and the tap sum in `Fraction`s) and the
cascade, with the `_upsampled` and `_fine_levels` they called, as the
oracle. The arithmetic of every float is unchanged: the Hermite table is
summed over its leading axis, which adds the terms in q order as the loop
did, and each central moment and tap constant is the same rational rounded
once. So every `(value, abs_error, evaluations, converged)`, every moment
and every tap constant is equal, not close.
"""

import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from wavebounds import bernstein
from wavebounds.bernstein import (
    _COEFFICIENT_ABS_TOL,
    _CRAMER,
    _MAX_SAMPLES,
    _REMAINDER_TARGET,
    _TAYLOR_ORDER,
    _U_CUT,
    GaussianTestFunction,
    _check_scale_and_shift,
    pyramid_coefficient,
)
from wavebounds.daub_filters import construct_filter
from wavebounds.quadrature import QuadResult
from wavebounds.special_math import MAX_ORDER, gamma_n


@lru_cache(maxsize=None)
def reference_phi_moments(m: int) -> tuple[Fraction, ...]:
    """The moments of phi solved in rationals on the float taps scaled to sum 1."""
    taps = [Fraction(t) for t in construct_filter(m).taps]
    a = [t / sum(taps) for t in taps]
    filter_moments = [
        sum(al * (-ell) ** n for ell, al in enumerate(a)) for n in range(_TAYLOR_ORDER + 1)
    ]
    moments = [Fraction(1)]
    for q in range(1, _TAYLOR_ORDER + 1):
        acc = sum(math.comb(q, r) * moments[r] * filter_moments[q - r] for r in range(q))
        moments.append(acc / (2**q - 1))
    return tuple(moments)


def reference_central_fractions(m: int) -> list[Fraction]:
    """The central moments about t_c = -(2m-1)/2, the raw moments shifted binomially."""
    raw = reference_phi_moments(m)
    shift = Fraction(2 * m - 1, 2)  # -t_c
    return [
        sum(math.comb(q, r) * raw[r] * shift ** (q - r) for r in range(q + 1))
        for q in range(_TAYLOR_ORDER + 1)
    ]


@lru_cache(maxsize=None)
def reference_central_moments(m: int) -> np.ndarray:
    """The central moments over q!, shifted in rationals and rounded once."""
    central = reference_central_fractions(m)
    return _frozen(np.array([float(c / math.factorial(q)) for q, c in enumerate(central)]))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def reference_tap_constants(m: int) -> tuple[float, float, float]:
    """(sum |h| by math.fsum, the Cramer per-sample factor, delta from the tap sum in Fractions)."""
    taps = construct_filter(m).taps
    taps_l1 = math.fsum(abs(t) for t in taps)
    per_sample = _CRAMER * math.sqrt(2 * m - 1) / math.sqrt(math.factorial(_TAYLOR_ORDER + 1))
    total = sum(Fraction(t) for t in taps)
    delta = float(abs(total * total - 2)) / (float(total) + math.sqrt(2.0)) / math.sqrt(2.0)
    return taps_l1, per_sample, delta


@lru_cache(maxsize=None)
def reference_cascade(m: int, levels: int) -> tuple[int, np.ndarray, np.ndarray, float]:
    """(start, g, g_abs, rel_error) of the levels-level cascade."""
    h = np.asarray(construct_filter(m).taps)
    g = h * (-1.0) ** np.arange(2 * m)
    g_abs = np.abs(h)
    start = 1
    for _ in range(levels - 1):
        g = np.convolve(_upsampled(g), h[::-1])
        g_abs = np.convolve(_upsampled(g_abs), np.abs(h[::-1]))
        start = 2 * start - (2 * m - 1)
    drift = math.expm1(levels * math.log1p(reference_tap_constants(m)[2]))
    return start, _frozen(g), _frozen(g_abs), gamma_n(2 * m * levels) + drift


def _upsampled(c: np.ndarray) -> np.ndarray:
    out = np.zeros(2 * c.size - 1)
    out[::2] = c
    return out


def reference_fine_levels(f: GaussianTestFunction, m: int, j: int) -> tuple[int, float]:
    """(L, remainder bound), recomputing the tap constants on every call."""
    order = _TAYLOR_ORDER + 1
    amplitude = abs(f.amplitude)
    taps_l1, per_sample, _ = reference_tap_constants(m)
    levels = 1
    while True:
        fine = j + levels
        ratio = (2 * m - 1) / (2.0 * f.sigma * 2.0**fine)
        try:
            bound = taps_l1**levels * 2.0 ** (-0.5 * fine) * amplitude * per_sample * ratio**order
        except OverflowError:
            bound = math.inf
        if bound <= _REMAINDER_TARGET * amplitude or 2 * m * 2 ** (levels + 1) > _MAX_SAMPLES:
            return levels, bound
        levels += 1


def reference_pyramid(f: GaussianTestFunction, m: int, j: int, nu: int) -> QuadResult:
    """The coefficient with the Taylor sum accumulated term by term, `poly += c_q He_q`."""
    _check_scale_and_shift(j, nu)
    levels, remainder = reference_fine_levels(f, m, j)
    if math.isinf(remainder):
        return QuadResult(value=0.0, abs_error=math.inf, evaluations=0, converged=False)
    start, g, g_abs, cascade_error = reference_cascade(m, levels)
    g_l1 = float(g_abs.sum())
    fine = j + levels
    n = np.arange(g.size, dtype=float) + (start + nu * 2.0**levels)
    u = ((n - 0.5 * (2 * m - 1)) * 2.0**-fine - f.center) / f.sigma
    kept = np.abs(u) < _U_CUT
    u, g, g_abs = u[kept], g[kept], g_abs[kept]
    coeffs = reference_central_moments(m) * (-1.0 / (f.sigma * 2.0**fine)) ** np.arange(_TAYLOR_ORDER + 1)
    both = np.stack([coeffs, np.abs(coeffs)])[:, :, None]
    signs = np.array([[1.0], [-1.0]])
    arg = np.stack([u, np.abs(u)])
    prev, he = np.ones_like(arg), arg
    poly = both[:, 0] + both[:, 1] * arg
    for q in range(1, _TAYLOR_ORDER):
        prev, he = he, arg * he - q * signs * prev
        poly += both[:, q + 1] * he
    weight = 2.0 ** (-0.5 * fine) * np.exp(-0.5 * u * u)
    samples = f.amplitude * weight * poly[0]
    products = g * samples
    value = math.fsum(products.tolist())

    sample_error = gamma_n(8 * _TAYLOR_ORDER + 16 + 3 * u * u) * abs(f.amplitude) * weight * poly[1]
    rounding = gamma_n(2) * np.abs(products).sum()
    rounding += cascade_error * np.dot(g_abs, np.abs(samples)) + np.dot(g_abs, sample_error)
    factorials = np.sqrt([math.factorial(q) for q in range(_TAYLOR_ORDER + 1)])
    dropped = _CRAMER * math.exp(-0.25 * _U_CUT**2) * float(np.dot(np.abs(coeffs), factorials))
    floor = g_l1 * (abs(f.amplitude) * 2.0 ** (-0.5 * fine) * dropped + 4 * 2.0**-1074)
    return QuadResult(
        value=value,
        abs_error=remainder + 2.0 * float(rounding) + floor,
        evaluations=int(kept.sum()),
        converged=remainder <= max(_REMAINDER_TARGET * abs(f.amplitude), _COEFFICIENT_ABS_TOL),
    )


def _fields(result: QuadResult) -> tuple:
    return result.value, result.abs_error, result.evaluations, result.converged


def assert_same_coefficient(f: GaussianTestFunction, m: int, j: int, nu: int) -> QuadResult:
    ref = reference_pyramid(f, m, j, nu)
    new = pyramid_coefficient(f, m, j, nu)
    assert type(new.evaluations) is int
    assert _fields(new) == _fields(ref), (f, m, j, nu)
    return new


def _seeded_cases(count: int, seed: int = 24):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        f = GaussianTestFunction(
            sigma=10.0 ** rng.uniform(-3.0, 1.0),
            center=rng.uniform(-3.0, 3.0),
            amplitude=rng.choice((1.0, -2.5, 1e-3, 0.0)),
        )
        m = rng.choice((1, 2, 3, 5, 8, 12, 20))
        cases.append((f, m, rng.randint(-6, 10), rng.randint(-64, 64)))
    return cases


SEEDED = _seeded_cases(320)


def test_seeded_grid_is_bit_identical():
    results = [assert_same_coefficient(*case) for case in SEEDED]
    # The grid reaches the regimes the named cases below pin one by one.
    assert any(r.evaluations == 0 and math.isfinite(r.abs_error) for r in results)
    assert any(not r.converged for r in results)
    assert max(r.evaluations for r in results) > 10_000


# (f, m, j, nu) of the named inputs: every sample dropped, the infinite
# remainder, the 2^20 sample cap, and the largest kept count found.
ALL_DROPPED = (GaussianTestFunction(sigma=1.0, center=1e6), 3, 0, 5)
INFINITE_REMAINDER = (GaussianTestFunction(sigma=1e-100), 2, 0, 0)
SAMPLE_CAP = (GaussianTestFunction(sigma=1e-3), 20, -6, 0)
MOST_KEPT = (GaussianTestFunction(sigma=0.3), 20, -4, 0)


def test_every_sample_dropped():
    coef = assert_same_coefficient(*ALL_DROPPED)
    assert coef.evaluations == 0 and coef.value == 0.0 and coef.converged


def test_infinite_remainder():
    coef = assert_same_coefficient(*INFINITE_REMAINDER)
    assert coef.abs_error == math.inf and not coef.converged


def test_sample_cap():
    coef = assert_same_coefficient(*SAMPLE_CAP)
    assert not coef.converged
    levels, _ = bernstein._fine_levels(SAMPLE_CAP[0], 20, -6)
    assert 2 * 20 * 2 ** (levels + 1) > _MAX_SAMPLES


def test_most_samples_kept():
    assert assert_same_coefficient(*MOST_KEPT).evaluations == 22_732


@pytest.mark.parametrize("m", range(1, MAX_ORDER + 1))
def test_moments_match_the_rational_recursion(m):
    taps, scale, p, d = bernstein._moment_integers(m)
    total = sum(taps)
    assert [n / scale for n in taps] == list(construct_filter(m).taps)
    central = [Fraction(p[q], total**q * d[q] * 2**q) for q in range(_TAYLOR_ORDER + 1)]
    assert central == reference_central_fractions(m)
    new, ref = bernstein._order_table(m).central, reference_central_moments(m)
    assert new.tobytes() == ref.tobytes()
    assert not new.flags.writeable


@pytest.mark.parametrize("m", range(1, 21))
def test_tap_constants_match_the_float_taps(m):
    table = bernstein._order_table(m)
    assert table.taps.tobytes() == np.asarray(construct_filter(m).taps).tobytes()
    assert not table.taps.flags.writeable
    assert (table.taps_l1, table.per_sample, table.drift) == reference_tap_constants(m)


@pytest.mark.parametrize("m,levels", [(1, 1), (2, 1), (2, 7), (5, 4), (12, 9), (20, 3)])
def test_cascade_positions_and_filters_match(m, levels):
    # The cached origin is the centre of the first sample's support, start + t_c.
    origin, g, g_abs, g_l1, rel_error = bernstein._cascade(m, levels)
    start, ref_g, ref_abs, ref_error = reference_cascade(m, levels)
    assert origin == start - 0.5 * (2 * m - 1) and origin % 1 == 0.5
    assert (g.tobytes(), g_abs.tobytes()) == (ref_g.tobytes(), ref_abs.tobytes())
    assert (g_l1, rel_error) == (float(ref_abs.sum()), ref_error)
    assert not (g.flags.writeable or g_abs.flags.writeable)


def _peak_bytes(route, case, caches) -> int:
    """tracemalloc's peak over one call, with the route's caches emptied first when given."""
    route(*case)
    for cache in caches:
        cache.cache_clear()
    tracemalloc.start()
    try:
        route(*case)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


NEW_CACHES = (bernstein._order_table, bernstein._cascade)
REFERENCE_CACHES = (reference_phi_moments, reference_central_moments, reference_cascade)


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
@pytest.mark.parametrize("case", [SAMPLE_CAP, MOST_KEPT], ids=["sample_cap", "most_kept"])
def test_peak_memory_within_the_reference(case, cold):
    new = _peak_bytes(pyramid_coefficient, case, NEW_CACHES if cold else ())
    ref = _peak_bytes(reference_pyramid, case, REFERENCE_CACHES if cold else ())
    assert new <= 1.05 * ref, (new, ref)
