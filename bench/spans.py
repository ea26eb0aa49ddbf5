"""In-memory spans around the library's public functions, for the traced run.

Spans are recorded only here, in the benchmark: `instrument` wraps the public
functions a pass calls directly and rebinds the names through which library
modules call each other's public functions (for example `norms` calling
`adaptive_quadrature`). The library itself is not changed. A span is
[name, start, end, parent index, info]; the layer is the part of the name
before the first dot. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

LAYERS = (
    "daub_filters",
    "spectral_eval",
    "quadrature",
    "norms",
    "bernstein",
    "bound_formulas",
    "reporting",
)
CHECKS = ("theorem1", "theorem2", "corollary1", "corollary2", "corollary3", "bernstein")
INTEGRANDS = ("spectral_eval.abs2", "spectral_eval.tap", "bernstein.test_function")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, info=None):
        """`fn` inside a span; `info(args, result)` fills the span's info field."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced


def _points(args, result) -> int:
    return int(getattr(args[0], "size", 1))


def _bernstein_integrand(f) -> str:
    # The coefficient integrand evaluates psi_hat by the tap route; the
    # transform-norm integrand evaluates only the Gaussian test function.
    if f.__qualname__.startswith("_transform_norm_quad"):
        return "bernstein.test_function"
    return "spectral_eval.tap"


def instrument(tracer: Tracer, api: SimpleNamespace) -> tuple[SimpleNamespace, list[str]]:
    """Traced api for the pass, and the rebinding sites the library no longer has."""
    from wavebounds import bernstein, daub_filters, norms, quadrature, spectral_eval

    construct = tracer.wrap("daub_filters.construct_filter", daub_filters.construct_filter)
    decay = tracer.wrap("spectral_eval.estimate_decay", spectral_eval.estimate_decay)
    norm = tracer.wrap("norms.weighted_lp_norm", norms.weighted_lp_norm)

    def quad(integrand_name):
        original = quadrature.adaptive_quadrature

        def run(f, *args, **kwargs):
            return original(tracer.wrap(integrand_name(f), f, _points), *args, **kwargs)

        return tracer.wrap("quadrature.adaptive_quadrature", run)

    sites = [
        (spectral_eval, "construct_filter", construct),
        (norms, "estimate_decay", decay),
        (norms, "weighted_lp_norm", norm),
        (bernstein, "weighted_lp_norm", norm),
        (norms, "adaptive_quadrature", quad(lambda f: "spectral_eval.abs2")),
        (bernstein, "adaptive_quadrature", quad(_bernstein_integrand)),
    ]
    missing = []
    for module, attr, wrapper in sites:
        if hasattr(module, attr):
            setattr(module, attr, wrapper)
        else:
            missing.append(f"{module.__name__}.{attr}")
    traced = SimpleNamespace(
        construct_filter=construct,
        scaling_hat=tracer.wrap("spectral_eval.scalar", api.scaling_hat),
        wavelet_hat=tracer.wrap("spectral_eval.scalar", api.wavelet_hat),
        wavelet_hat_abs2=tracer.wrap("spectral_eval.scalar", api.wavelet_hat_abs2),
        estimate_decay=decay,
        compute_bound_set=tracer.wrap("bound_formulas.compute_bound_set", api.compute_bound_set),
        verify_sweep=tracer.wrap("bernstein.verify_sweep", api.verify_sweep, lambda a, r: a[0]),
        rows_to_csv_bytes=tracer.wrap("reporting.rows_to_csv_bytes", api.rows_to_csv_bytes, lambda a, r: len(r)),
    )
    return traced, missing


def _rank(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer counts, times and self times of one traced pass.

    A span's self time is its duration minus its children's; the self times of
    all layers plus `trace.remainder_s` (time outside every span) add up to
    `trace.wall_s`.
    """
    covered = [0.0] * len(spans)
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    info_sum: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    roots = 0.0
    quad_points = [0] * len(spans)
    for name, start, end, parent, info in spans:
        if parent >= 0:
            covered[parent] += end - start
            if name in INTEGRANDS:
                quad_points[parent] += info
    norm_evals: dict[int, int] = {}
    sweep_s = dict.fromkeys(CHECKS, 0.0)
    row_ms: list[float] = []
    for i, (name, start, end, parent, info) in enumerate(spans):
        dur = end - start
        self_s[name.split(".", 1)[0]] += dur - covered[i]
        if parent < 0:
            roots += dur
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        if isinstance(info, int):
            info_sum[name] = info_sum.get(name, 0) + info
        if name == "quadrature.adaptive_quadrature" and parent >= 0:
            if spans[parent][0] == "norms.weighted_lp_norm":
                norm_evals[parent] = norm_evals.get(parent, 0) + quad_points[i]
        if name == "bernstein.verify_sweep":
            sweep_s[info] = sweep_s.get(info, 0.0) + dur
            row_ms.append(1e3 * dur)

    def per(numerator: float, base: int, scale: float = 1.0) -> float:
        return scale * numerator / base if base else 0.0

    integrand_calls = sum(count.get(name, 0) for name in INTEGRANDS)
    evals = sum(info_sum.get(name, 0) for name in INTEGRANDS)
    requests = count.get("norms.weighted_lp_norm", 0)
    out = {
        "daub_filters.construct_s": total.get("daub_filters.construct_filter", 0.0),
        "daub_filters.construct_calls": count.get("daub_filters.construct_filter", 0),
        "spectral_eval.abs2_points": info_sum.get("spectral_eval.abs2", 0),
        "spectral_eval.abs2_s": total.get("spectral_eval.abs2", 0.0),
        "spectral_eval.abs2_us_per_point": per(
            total.get("spectral_eval.abs2", 0.0), info_sum.get("spectral_eval.abs2", 0), 1e6
        ),
        "spectral_eval.tap_points": info_sum.get("spectral_eval.tap", 0),
        "spectral_eval.tap_s": total.get("spectral_eval.tap", 0.0),
        "spectral_eval.tap_us_per_point": per(
            total.get("spectral_eval.tap", 0.0), info_sum.get("spectral_eval.tap", 0), 1e6
        ),
        "spectral_eval.scalar_calls": count.get("spectral_eval.scalar", 0),
        "spectral_eval.scalar_us_per_call": per(
            total.get("spectral_eval.scalar", 0.0), count.get("spectral_eval.scalar", 0), 1e6
        ),
        "spectral_eval.decay_fits": count.get("spectral_eval.estimate_decay", 0),
        "spectral_eval.decay_s": total.get("spectral_eval.estimate_decay", 0.0),
        "quadrature.runs": count.get("quadrature.adaptive_quadrature", 0),
        "quadrature.integrand_calls": integrand_calls,
        "quadrature.evals": evals,
        "quadrature.evals_per_call": per(evals, integrand_calls),
        "norms.requests": requests,
        "norms.computed": len(norm_evals),
        "norms.hit_ratio": per(requests - len(norm_evals), requests),
        "norms.s": total.get("norms.weighted_lp_norm", 0.0),
        "norms.evals_max": max(norm_evals.values(), default=0),
        "bernstein.rows": len(row_ms),
        "bernstein.row_ms_p50": _rank(row_ms, 0.5),
        "bernstein.row_ms_p90": _rank(row_ms, 0.9),
        **{f"bernstein.sweep_s.{check}": sweep_s[check] for check in CHECKS},
        "bound_formulas.calls": count.get("bound_formulas.compute_bound_set", 0),
        "bound_formulas.s": total.get("bound_formulas.compute_bound_set", 0.0),
        "reporting.emit_s": total.get("reporting.rows_to_csv_bytes", 0.0),
        "reporting.bytes": info_sum.get("reporting.rows_to_csv_bytes", 0),
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
        "trace.wall_s": wall_s,
        "trace.remainder_s": wall_s - roots,
        "trace.spans": len(spans),
    }
    return out
