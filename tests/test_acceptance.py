"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 9's non-vacuous-fraction clause fails by design of the
closed-form constants themselves: the lower constant E satisfies E <= 0 for
every admissible parameter choice (its bracket's third term alone equals the
leading term raised to the p-th power), so no corollary row can ever be
upper-binding. The membership checks it gates are therefore vacuously green
and the fraction requirement is honestly red; see the README.
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import quad

from wavebounds.bernstein import verify_sweep
from wavebounds.daub_filters import (
    construct_filter,
    eval_H,
    magnitude_squared_H,
    magnitude_squared_H_integral,
)
from wavebounds.norms import DEFAULT_OMEGA_MAX, NormRequest, weighted_lp_norm
from wavebounds.reporting import exit_code, rows_to_csv_bytes, rows_to_json_bytes, summarize
from wavebounds.spectral_eval import estimate_decay, scaling_hat, wavelet_hat

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE criterion {name}: {verdict}{suffix}")


def test_criterion_1_filter_correctness():
    started = time.perf_counter()
    grid = np.linspace(-math.pi, math.pi, 2048)
    worst_resid = 0.0
    worst_sum = 0.0
    worst_orth = 0.0
    for m in range(1, 11):
        spec = construct_filter(m)
        taps = np.array(spec.taps)
        resid = float(
            np.max(np.abs(np.abs(eval_H(spec, grid)) ** 2 - magnitude_squared_H(m, grid)))
        )
        worst_resid = max(worst_resid, resid)
        worst_sum = max(worst_sum, abs(float(taps.sum()) - SQRT2))
        for n in range(m):
            target = 1.0 if n == 0 else 0.0
            inner = float(np.dot(taps[: len(taps) - 2 * n], taps[2 * n :]))
            worst_orth = max(worst_orth, abs(inner - target))
    expected_db2 = (
        (1 + math.sqrt(3)) / (4 * SQRT2),
        (3 + math.sqrt(3)) / (4 * SQRT2),
        (3 - math.sqrt(3)) / (4 * SQRT2),
        (1 - math.sqrt(3)) / (4 * SQRT2),
    )
    db2_gap = max(abs(a - b) for a, b in zip(construct_filter(2).taps, expected_db2))
    elapsed = time.perf_counter() - started
    ok = worst_resid < 1e-10 and worst_sum < 1e-12 and worst_orth < 1e-10 and db2_gap < 1e-12 and elapsed < 5.0
    _report(
        "1 (filter correctness)",
        ok,
        f"resid={worst_resid:.2e} sum={worst_sum:.2e} orth={worst_orth:.2e} "
        f"db2={db2_gap:.2e} {elapsed:.2f}s",
    )
    assert worst_resid < 1e-10
    assert worst_sum < 1e-12
    assert worst_orth < 1e-10
    assert db2_gap < 1e-12
    assert elapsed < 5.0


def test_criterion_2_dual_form_filter_identity():
    grid = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 512)
    worst = 0.0
    for m in range(1, 9):
        for w in grid:
            gap = abs(magnitude_squared_H(m, float(w)) - magnitude_squared_H_integral(m, float(w)))
            worst = max(worst, gap)
    _report("2 (dual-form filter identity)", worst < 1e-10, f"max gap {worst:.2e}")
    assert worst < 1e-10


def test_criterion_3_plancherel():
    started = time.perf_counter()
    worst = 0.0
    for m in range(1, 9):
        omega_max = 2.0**15 * math.pi if m <= 2 else DEFAULT_OMEGA_MAX
        result = weighted_lp_norm(NormRequest(m, 0, 2.0, omega_max=omega_max))
        worst = max(worst, abs(result.value - 1.0))
    elapsed = time.perf_counter() - started
    _report("3 (Plancherel)", worst < 1e-6 and elapsed < 60.0, f"max |norm-1| {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 60.0


def test_criterion_4_haar_closed_forms():
    grid = np.linspace(-50.0, 50.0, 201)
    worst_phi = 0.0
    worst_psi = 0.0
    for w in grid:
        w = float(w)
        phi_ref = INV_SQRT_2PI * (abs(math.sin(w / 2) / (w / 2)) if w else 1.0)
        psi_ref = INV_SQRT_2PI * (math.sin(w / 4) ** 2 / abs(w / 4) if w else 0.0)
        worst_phi = max(worst_phi, abs(abs(scaling_hat(1, w)) - phi_ref))
        worst_psi = max(worst_psi, abs(abs(wavelet_hat(1, w)) - psi_ref))
    ok = worst_phi < 1e-10 and worst_psi < 1e-10
    _report("4 (Haar closed forms)", ok, f"phi {worst_phi:.2e}, psi {worst_psi:.2e}")
    assert worst_phi < 1e-10
    assert worst_psi < 1e-10


def test_criterion_5_sinc_power_integrals(sinc_power_integral):
    exact_gap = max(
        abs(sinc_power_integral(2) - math.pi / 2), abs(sinc_power_integral(4) - math.pi / 3)
    )
    worst = 0.0
    for n in (2, 4, 6, 8, 10, 12):
        T = 10_000.0
        pieces = [
            quad(lambda t: (math.sin(t) / t) ** n if t else 1.0, a, b, limit=4000)
            for a, b in ((0.0, 50.0), (50.0, 1000.0), (1000.0, T))
        ]
        numeric = sum(p[0] for p in pieces)
        slack = sum(p[1] for p in pieces)
        if n == 2:
            numeric += 1.0 / (2.0 * T)
            slack += 2.0 / T**2
        else:
            slack += T ** (1 - n) / (n - 1)
        gap = abs(sinc_power_integral(n) - numeric)
        worst = max(worst, gap - slack)
    ok = worst < 1e-8 and exact_gap < 1e-12
    _report("5 (sinc power integrals)", ok, f"oracle gap {worst:.2e}, exact gap {exact_gap:.2e}")
    assert worst < 1e-8
    assert exact_gap < 1e-12


def test_criterion_6_theorem1_sandwich():
    started = time.perf_counter()
    rows = verify_sweep("theorem1")
    elapsed = time.perf_counter() - started
    counts = summarize(rows)
    bad = [r for r in rows if r.status not in ("pass", "vacuous")]
    vacuous_lower = sum(1 for r in rows if "lower" in r.vacuous_flags)
    ok = not bad and counts["total"] == 45 and elapsed < 600.0
    _report(
        "6 (theorem-1 sandwich)",
        ok,
        f"{counts['pass']} pass / {vacuous_lower} vacuous-lower rows, {elapsed:.1f}s",
    )
    assert counts["total"] == 45
    assert not bad, [f"{r.m},{r.k},{r.p}: {r.status} {r.note}" for r in bad]
    assert elapsed < 600.0


def test_criterion_7_theorem2_sandwich():
    rows = verify_sweep("theorem2")
    counts = summarize(rows)
    bad = [r for r in rows if r.status != "pass"]
    slack_recorded = all(r.slack == 0.5 for r in rows)
    ok = not bad and counts["total"] == 10 and slack_recorded
    _report(
        "7 (theorem-2 sandwich)",
        ok,
        f"{counts['pass']}/{counts['total']} pass, slack 0.5 recorded in every row",
    )
    assert counts["total"] == 10
    assert not bad, [f"{r.m},{r.p}: {r.status} {r.note}" for r in bad]
    assert slack_recorded


def test_criterion_8_coefficient_inequality():
    started = time.perf_counter()
    rows = verify_sweep("bernstein")
    elapsed = time.perf_counter() - started
    counts = summarize(rows)
    bad = [r for r in rows if r.status != "pass"]
    worst_margin = min(r.margin for r in rows if r.margin is not None)
    ok = not bad and counts["total"] == 170 and elapsed < 300.0
    _report(
        "8 (coefficient inequality)",
        ok,
        f"{counts['pass']}/170 pass, worst margin {worst_margin:.3e}, {elapsed:.1f}s",
    )
    assert counts["total"] == 170
    assert not bad, [f"j={r.j},nu={r.nu}: {r.status} {r.note}" for r in bad]
    assert elapsed < 300.0


def _corollary_rows():
    return verify_sweep("corollary2") + verify_sweep("corollary3")


def test_criterion_9_corollary_sandwich_membership():
    rows = _corollary_rows()
    violations = []
    for r in rows:
        if "upper" not in r.vacuous_flags:  # E > 0: the stated interval applies
            if not (r.lower_bound - 1e-9 <= r.value <= r.upper_bound + 1e-9):
                violations.append(r)
    hard_failures = [r for r in rows if r.status in ("fail", "error")]
    ok = not violations and not hard_failures
    _report(
        "9a (corollary interval membership)",
        ok,
        f"{len(rows)} rows, {len(violations)} interval violations, "
        f"{len(hard_failures)} binding-side failures",
    )
    assert not violations
    assert not hard_failures


def test_criterion_9_nonvacuous_fraction():
    rows = _corollary_rows()
    non_vacuous = [r for r in rows if "upper" not in r.vacuous_flags]
    fraction = len(non_vacuous) / len(rows)
    ok = fraction >= 0.5
    _report(
        "9b (>= half the corollary grid non-vacuous)",
        ok,
        f"{len(non_vacuous)}/{len(rows)} rows have a positive lower constant E",
    )
    # The closed-form lower constant E is never positive: its bracket contains
    # the term (2 pi)^(1 - p/2), whose p-th root is exactly the leading term
    # (2 pi)^(1/p - 1/2), so E <= 0 identically in (m, p, c). Every row is
    # therefore upper-vacuous and this requirement cannot be met by any
    # implementation of the stated formulas. Kept red deliberately; the
    # interval checks it gates are covered by the membership test above.
    assert fraction >= 0.5, (
        f"only {len(non_vacuous)} of {len(rows)} corollary rows are non-vacuous: "
        "E <= 0 holds identically (bracket term (2 pi)^(1-p/2) alone already "
        "matches the leading term), so the >=50% requirement is unattainable"
    )


def test_criterion_10_decay_fit_sanity():
    exponents = {}
    for m in (2, 4, 8):
        fit = estimate_decay(m, 4.0 * math.pi, DEFAULT_OMEGA_MAX, 128)
        assert fit.c > 0.0
        exponents[m] = fit.c * math.log(m)
    increasing = exponents[2] < exponents[4] < exponents[8]
    _report(
        "10 (decay fit sanity)",
        increasing,
        "alpha = " + ", ".join(f"{m}:{a:.3f}" for m, a in exponents.items()),
    )
    assert increasing


def test_criterion_11_determinism(tmp_path):
    # In-process: identical rows and bytes for repeated sweeps.
    rows_a = verify_sweep("theorem2")
    rows_b = verify_sweep("theorem2")
    same_bytes = (
        rows_to_csv_bytes(rows_a) == rows_to_csv_bytes(rows_b)
        and rows_to_json_bytes(rows_a) == rows_to_json_bytes(rows_b)
    )

    # Cross-process: two fresh CLI invocations must emit identical files.
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cmd = [sys.executable, "-m", "wavebounds.cli", "verify", "theorem2", "--m-list", "1", "2"]
    proc_a = subprocess.run([*cmd, "--out", str(out_a)], capture_output=True)
    proc_b = subprocess.run([*cmd, "--out", str(out_b)], capture_output=True)
    cross_process_identical = out_a.read_bytes() == out_b.read_bytes()
    exit_codes_ok = proc_a.returncode == 0 and proc_b.returncode == 0

    # Exit codes track row statuses.
    from wavebounds.reporting import VerificationRow

    fail_row = VerificationRow(check="theorem1", status="fail")
    codes_reflect = exit_code(rows_a) == 0 and exit_code([fail_row]) == 1

    ok = same_bytes and cross_process_identical and exit_codes_ok and codes_reflect
    _report(
        "11 (determinism & exit codes)",
        ok,
        f"bytes identical={same_bytes and cross_process_identical}, exit codes ok={exit_codes_ok and codes_reflect}",
    )
    assert same_bytes
    assert cross_process_identical
    assert exit_codes_ok
    assert codes_reflect
