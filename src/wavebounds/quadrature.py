"""Adaptive panel quadrature built on a nested 7/15-point Gauss-Kronrod rule.

The error of each panel is estimated by the difference between the embedded
7-point Gauss value and the 15-point Kronrod value. This is an estimate, not a
bound: quadrature_lp_norm(NormRequest(m, 0, 2.0)) misses Plancherel's 1 by
more than it at m = 7 and 10 (ROADMAP item 3). Refinement is batched: the
initial breakpoint panels share one integrand call, and each round bisects up
to BATCH_PANELS of the worst panels and evaluates all their children in one
more call, so the integrand sees arrays of hundreds of nodes instead of 15.
Rounds stop when the summed estimate meets the tolerance or the panel budget
runs out; the achieved estimate is always reported, never hidden, and
`converged` says which. A non-finite panel value or error raises ValueError at
once.

Panels live in four parallel lists (left end, right end, value, error)
indexed by creation order, and the heap holds (-error, index): a round costs
one integrand call plus a heap push and pop per panel, and builds no panel
object. Panel tuples are made only for return_panels=True. On a 4,000-panel
run with a cheap integrand this costs 5.7 us per panel (7.1 us with the
panels returned), against 8.1 us (8.9 us) for a heap of frozen dataclass
panels (best of 60 interleaved runs, process time, a shared 2-CPU Xeon VM).
tests/test_quadrature_loop.py holds the loop to such a heap, bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# 15-point Kronrod abscissae on [-1, 1] (positive half); the embedded 7-point
# Gauss rule occupies the odd-indexed entries plus the midpoint.
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

# Full node/weight vectors over [-1, 1], ordered left to right.
_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[:-1][::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[:-1][::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[:-1][::-1]])


# K15 and G7 weights as the columns of one (15, 2) matrix.
_RULES = np.stack([_WEIGHTS_K, _WEIGHTS_G], axis=1)

# Panels bisected per refinement round: their children's 2 * 8 * 15 = 240
# nodes go to the integrand in one call. Larger rounds bisect more panels the
# tolerance did not need, and the integrand's product arrays, which grow with
# the call, raise the peak memory.
BATCH_PANELS = 8


@dataclass(frozen=True)
class QuadResult:
    """A quadrature value with its absolute-error estimate and evaluation count.

    `converged` is False when the run stopped without meeting its tolerance
    (panel budget spent, or only panels too narrow to bisect left); `panels`
    is the final panel count, 0 where no panel quadrature produced the value.
    """

    value: float | complex
    abs_error: float
    evaluations: int
    converged: bool = True
    panels: int = 0

    def __post_init__(self) -> None:
        if self.abs_error < 0:
            raise ValueError("abs_error must be nonnegative")


class Panel(NamedTuple):
    """A final panel [a, b] with its K15 value and |K15 - G7| error estimate."""

    a: float
    b: float
    value: complex
    error: float


def _kronrod_panels(
    f: Callable[[np.ndarray], np.ndarray], lo: Sequence[float], hi: Sequence[float]
) -> tuple[list[complex], list[float]]:
    """K15 values and |K15 - G7| errors of the panels [lo_i, hi_i], all nodes in one call of f.

    Raises ValueError, naming the first such panel, when a K15 value or its
    error is not finite: bisection cannot mend that, only spend the budget.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _NODES
    y = np.asarray(f(x.ravel())).reshape(x.shape)
    kg = half[:, None] * (y @ _RULES)
    errors = np.abs(kg[:, 0] - kg[:, 1])
    bad = ~np.isfinite(errors)  # |K15 - G7| is finite only where both values are
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"non-finite integrand on [{a[i]:.17g}, {b[i]:.17g}]: "
            f"K15 value {kg[i, 0].item()} with error {errors[i]}"
        )
    return kg[:, 0].astype(complex).tolist(), errors.tolist()


def adaptive_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-13,
    max_panels: int = 100_000,
    breakpoints: Sequence[float] | None = None,
    return_panels: bool = False,
):
    """Integrate a vectorized (possibly complex) integrand over [a, b].

    `breakpoints` seeds the initial panel lattice. Each round bisects up to
    BATCH_PANELS of the worst panels, until sum(panel errors) <= max(abs_tol,
    rel_tol * |integral|) or the next bisection would exceed `max_panels`.
    With `return_panels=True` the final panel list (sorted by left endpoint)
    is returned alongside, which callers use for tail calibration.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    edges = [a, b]
    if breakpoints:
        edges = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    edges = [float(x) for x in edges]

    # Panel i is [left[i], right[i]] with its K15 value and error estimate,
    # i in creation order; the heap holds (-error, i) of the refinable ones.
    left: list[float] = []
    right: list[float] = []
    values: list[complex] = []
    errors: list[float] = []
    heap: list[tuple[float, int]] = []
    done: list[int] = []
    total_err = 0.0
    total_val = 0.0 + 0.0j

    def evaluate(lo: list[float], hi: list[float]) -> None:
        nonlocal total_err, total_val
        vals, errs = _kronrod_panels(f, lo, hi)
        for i, (val, err) in enumerate(zip(vals, errs), len(values)):
            heapq.heappush(heap, (-err, i))
            total_err += err
            total_val += val
        left.extend(lo)
        right.extend(hi)
        values.extend(vals)
        errors.extend(errs)

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
        lo: list[float] = []
        hi: list[float] = []
        while heap and len(lo) < 2 * budget:
            i = heapq.heappop(heap)[1]
            pa, pb = left[i], right[i]
            if pb - pa <= min_width:
                done.append(i)  # cannot refine further; keep its error estimate
                continue
            total_err -= errors[i]
            total_val -= values[i]
            mid = 0.5 * (pa + pb)
            lo += (pa, mid)
            hi += (mid, pb)
        if lo:
            evaluate(lo, hi)

    order = sorted(done + [i for _, i in heap], key=left.__getitem__)
    # Fixed left-to-right summation so results do not depend on refinement order.
    value = sum(values[i] for i in order)
    error = float(sum(errors[i] for i in order))
    if value.imag == 0.0:
        value = value.real
    result = QuadResult(
        value=value,
        abs_error=error,
        evaluations=15 * len(values),
        converged=converged,
        panels=len(order),
    )
    if return_panels:
        return result, [Panel(left[i], right[i], values[i], errors[i]) for i in order]
    return result
