"""Benchmark workloads: seeded inputs, one timed pass, and the output checks.

A workload pass calls the library only through an `api` namespace, so the
traced run (spans.py) can hand in wrapped functions while the untraced run
calls the library directly. Inputs are generated before the pass and checks
run after it; neither is timed.

An operation is one sweep row or one point evaluation (plus, in point_eval,
one filter build, one decay fit and one bound set per order). Each check miss
marks its operation failed; run.py adds a miss for every operation whose
output differs from the first pass of the same seed.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import wavebounds as wb
from wavebounds import bernstein
from wavebounds.norms import DEFAULT_OMEGA_MAX

WORKLOADS = ("verify_suite", "bernstein_grid", "point_eval")

# The five verify checks in CLI order, each with the library grid it sweeps.
VERIFY_CHECKS = (
    ("theorem1", bernstein.theorem1_grid),
    ("theorem2", bernstein.theorem2_grid),
    ("corollary1", bernstein.corollary1_grid),
    ("corollary2", bernstein.theorem1_grid),
    ("corollary3", bernstein.theorem2_grid),
)

# Theorem1 norms (m, k, p) whose reported abs_error is smaller than their
# distance to a rel_tol=1e-13 reference. The benchmark has no cheap oracle for
# that miss, so it does not count it; the cases stay in the grid so that a fix
# to the error estimate shows in the timings.
UNORACLED_CASES = ((2, 1, 2.0), (6, 1, 1.5))

POINT_ORDERS = range(1, 17)
POINTS_PER_ORDER = 64
POINT_OMEGA_MAX = 1e3

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# |wavelet_hat|^2 (tap route) against wavelet_hat_abs2 (magnitude route):
# both truncate their products to 1 + O(1e-12) relative, and the worst gap
# seen over m = 1..16 and |w| <= 1e3 is 8e-13 against a peak of 1/(2 pi).
# Tiny values make a relative test meaningless, so the test is absolute.
_ABS2_TOL = 1e-10
# Order 1 against the closed form; the worst gap seen is 7e-15.
_HAAR_TOL = 1e-12


def plain_api() -> SimpleNamespace:
    """The library entry points a workload pass calls, unwrapped."""
    return SimpleNamespace(
        construct_filter=wb.construct_filter,
        scaling_hat=wb.scaling_hat,
        wavelet_hat=wb.wavelet_hat,
        wavelet_hat_abs2=wb.wavelet_hat_abs2,
        estimate_decay=wb.estimate_decay,
        compute_bound_set=wb.compute_bound_set,
        verify_sweep=wb.verify_sweep,
        rows_to_csv_bytes=wb.rows_to_csv_bytes,
    )


def _stratified(rng: random.Random, lo: float, hi: float, n: int, name: str) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], in an order
    that depends on `name` only."""
    slices = list(range(n))
    random.Random(f"slices:{name}").shuffle(slices)
    return [lo + (hi - lo) * (i + rng.random()) / n for i in slices]


def make_inputs(workload: str, seed: int) -> list:
    """Seeded inputs: the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_suite":
        # The grids are the paper's; the seed only permutes the case order.
        sweeps = []
        for check, grid in VERIFY_CHECKS:
            cases = grid()
            rng.shuffle(cases)
            sweeps.append((check, cases))
        present = {(c["m"], c["k"], c["p"]) for c in sweeps[0][1]}
        missing = [case for case in UNORACLED_CASES if case not in present]
        if missing:
            raise SystemExit(f"theorem1 grid lacks the required cases {missing}")
        return sweeps
    if workload == "bernstein_grid":
        # Each row draws its own Gaussian. A row's cost depends on sigma (the
        # transform widens as it shrinks) together with j and nu, so free
        # draws made the pass cost vary by 8% from seed to seed. The draws
        # are therefore stratified: [0.5, 2] and [-1, 1] are cut into 170
        # equal slices, a fixed shuffle gives each row one slice of each, and
        # the seed draws the row's sigma and center inside its slices.
        grid = [(j, nu) for j in range(-3, 7) for nu in range(-8, 9)]
        sigmas = _stratified(rng, 0.5, 2.0, len(grid), "sigma")
        centers = _stratified(rng, -1.0, 1.0, len(grid), "center")
        cases = [
            {"m": 2, "k": 1, "p": 2.0, "sigma": sigma, "center": center, "j": j, "nu": nu}
            for (j, nu), sigma, center in zip(grid, sigmas, centers)
        ]
        return [("bernstein", cases)]
    if workload == "point_eval":
        orders = []
        for m in POINT_ORDERS:
            omegas = [
                rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, math.log10(POINT_OMEGA_MAX))
                for _ in range(POINTS_PER_ORDER)
            ]
            bound = {
                "k": rng.randint(0, m),
                "p": rng.choice((1.5, 2.0, 3.0, 4.0)),
                "eps": rng.uniform(0.5, math.pi),
            }
            orders.append({"m": m, "omegas": omegas, "bound": bound})
        return orders
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failing operation is counted, never raised
        return exc


def _sweep_pass(sweeps: list, api, between) -> list:
    """One row per verify_sweep call, so the trace can time rows one by one."""
    out = []
    for check, cases in sweeps:
        rows = []
        for case in cases:
            rows.extend(api.verify_sweep(check, [case]))
            between()
        out.append((rows, api.rows_to_csv_bytes(rows)))
    return out


def _point(api, m: int, w: float) -> tuple:
    return api.scaling_hat(m, w), api.wavelet_hat(m, w), api.wavelet_hat_abs2(m, w)


def _bounds(api, m: int, bound: dict, fit):
    c, c_tilde = (fit.c, fit.C_tilde) if isinstance(fit, wb.DecayFit) else (1.0, None)
    params = wb.BoundParams(m=m, k=bound["k"], p=bound["p"], c=c, eps=bound["eps"], c_tilde=c_tilde)
    return api.compute_bound_set(params)


def _point_pass(orders: list, api, between) -> list:
    out = []
    for case in orders:
        m = case["m"]
        spec = _attempt(api.construct_filter, m)
        between()
        points = []
        for w in case["omegas"]:
            points.append(_attempt(_point, api, m, w))
            between()
        # The fitted exponent c is undefined for order 1 (log m = 0).
        fit = _attempt(api.estimate_decay, m, 4.0 * math.pi, DEFAULT_OMEGA_MAX, 128) if m >= 2 else None
        between()
        out.append((spec, points, fit, _attempt(_bounds, api, m, case["bound"], fit)))
        between()
    return out


def nothing() -> None:
    pass


def run_pass(workload: str, inputs: list, api, between=nothing):
    """The timed region: every library call the workload makes.

    `between()` is called after each operation; the untraced run times the
    reference computation there (reference.Interleaver).
    """
    if workload == "point_eval":
        return _point_pass(inputs, api, between)
    return _sweep_pass(inputs, api, between)


def check_pass(workload: str, inputs: list, out) -> tuple[list[str], list[int]]:
    """Per-operation output records (compared across passes) and failed indices."""
    if workload == "point_eval":
        return _check_points(inputs, out)
    return _check_sweeps(out)


def _unit_norm(m: int) -> wb.QuadResult:
    return wb.weighted_lp_norm(wb.NormRequest(m, 0, 2.0))


def _check_sweeps(out) -> tuple[list[str], list[int]]:
    records: list[str] = []
    failed: list[int] = []
    orders: dict[int, list[int]] = {}
    for rows, csv_bytes in out:
        lines = csv_bytes.decode("utf-8").splitlines()[1:]
        aligned = len(lines) == len(rows)
        for row, line in zip(rows, lines if aligned else [""] * len(rows)):
            if not aligned or row.status not in ("pass", "vacuous"):
                failed.append(len(records))
            orders.setdefault(row.m, []).append(len(records))
            records.append(line)
    # Plancherel: ||psi_hat||_2 = 1 for every order, within the reported error.
    # The norm is cached by the pass, so this costs no quadrature; a miss fails
    # every row of that order.
    for m, indices in orders.items():
        norm = _attempt(_unit_norm, m)
        if not isinstance(norm, wb.QuadResult) or not abs(norm.value - 1.0) <= norm.abs_error:
            failed.extend(indices)
    return records, sorted(set(failed))


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(abs(v)) for v in values)


def _check_points(orders: list, out) -> tuple[list[str], list[int]]:
    records: list[str] = []
    failed: list[int] = []

    def record(text: str, ok: bool) -> None:
        if not ok:
            failed.append(len(records))
        records.append(text)

    for case, (spec, points, fit, bounds) in zip(orders, out):
        m = case["m"]
        if isinstance(spec, wb.FilterSpec):
            ok = len(spec.taps) == 2 * m and _finite(*spec.taps)
            ok = ok and abs(sum(spec.taps) - math.sqrt(2.0)) <= 1e-12
            record(f"filter {m} {spec.taps!r}", ok)
        else:
            record(f"filter {m} {spec!r}", False)
        for w, value in zip(case["omegas"], points):
            if isinstance(value, Exception):
                record(f"point {m} {w!r} {value!r}", False)
                continue
            phi, psi, abs2 = value
            ok = _finite(phi, psi, abs2) and abs(phi) <= _INV_SQRT_2PI * (1.0 + 1e-12)
            ok = ok and abs(abs(psi) ** 2 - abs2) <= _ABS2_TOL
            if m == 1 and ok:
                closed = math.sin(w / 4.0) ** 2 / (math.sqrt(2.0 * math.pi) * abs(w / 4.0))
                ok = abs(abs(psi) - closed) <= _HAAR_TOL and abs(math.sqrt(abs2) - closed) <= _HAAR_TOL
            record(f"point {m} {w!r} {phi!r} {psi!r} {abs2!r}", ok)
        if m >= 2:
            ok = isinstance(fit, wb.DecayFit) and _finite(fit.c, fit.C_tilde)
            record(f"decay {m} {fit!r}", ok)
        ok = isinstance(bounds, wb.BoundSet)
        if ok:
            values = [bounds.A, bounds.B, bounds.D, bounds.E, bounds.F, bounds.G]
            ok = _finite(*(v for v in values if v is not None))
        record(f"bounds {m} {bounds!r}", ok)
    return records, failed
