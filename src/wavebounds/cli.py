"""Command-line interface: filters, eval, decay, norm, bounds, verify, bernstein.

Verification subcommands exit 0 only when every row passed or was vacuous, and
write byte-identical reports for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bernstein import (
    CHECKS,
    GaussianTestFunction,
    SweepSettings,
    bound_params,
    verify_sweep,
)
from .bound_formulas import BoundParams, compute_bound_set, require_k_below_m
from .daub_filters import FilterConstructionError, construct_filter
from .norms import DEFAULT_OMEGA_MAX, NormRequest, default_decay, weighted_lp_norm
from .reporting import exit_code, fmt17, rows_to_csv_bytes, rows_to_json_bytes, summarize
from .spectral_eval import scaling_hat, wavelet_hat, wavelet_hat_abs2


def _parse_int_span(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavebounds",
        description="Daubechies wavelet spectra, weighted Lp norms, and bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_filters = sub.add_parser("filters", help="print filter taps")
    p_filters.add_argument("--m", type=int, required=True)
    fmt = p_filters.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    p_eval = sub.add_parser("eval", help="evaluate the wavelet transform at one frequency")
    p_eval.add_argument("--m", type=int, required=True)
    p_eval.add_argument("--omega", type=float, required=True)
    p_eval.add_argument("--abs2", action="store_true", help="print |psi_hat|^2 instead")

    p_decay = sub.add_parser("decay", help="print the decay fit that bounds and sweeps use")
    p_decay.add_argument("--m", type=int, required=True)
    p_decay.add_argument("--json", action="store_true")

    p_norm = sub.add_parser("norm", help="weighted Lp norm of the wavelet transform")
    p_norm.add_argument("--m", type=int, required=True)
    p_norm.add_argument("--k", type=int, required=True)
    p_norm.add_argument("--p", type=float, required=True)
    p_norm.add_argument(
        "--omega-max",
        type=float,
        default=DEFAULT_OMEGA_MAX,
        help="tail cutoff of the quadrature route; p = 2 and p = 4 take the exact route, "
        "which has no cutoff and ignores it",
    )
    p_norm.add_argument("--json", action="store_true")

    p_bounds = sub.add_parser("bounds", help="closed-form sandwich constants")
    p_bounds.add_argument("--m", type=int, required=True)
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--p", type=float, required=True)
    p_bounds.add_argument("--eps", type=float, default=math.pi)
    p_bounds.add_argument("--c", type=float, default=None, help="decay exponent (default: fitted)")
    fmt = p_bounds.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("check", choices=[check for check in CHECKS if check != "bernstein"])
    p_verify.add_argument("--m-list", type=int, nargs="+", default=None)
    p_verify.add_argument("--k-list", type=int, nargs="+", default=None)
    p_verify.add_argument("--p-list", type=float, nargs="+", default=None)
    p_verify.add_argument("--eps", type=float, default=math.pi)
    p_verify.add_argument("--tol", type=float, default=1e-9, help="tolerance pad added to abs_error")
    p_verify.add_argument("--out", type=Path, default=None)
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")

    p_bern = sub.add_parser("bernstein", help="verify the coefficient-decay inequality")
    p_bern.add_argument("--m", type=int, default=2)
    p_bern.add_argument("--k", type=int, default=1)
    p_bern.add_argument("--p", type=float, default=2.0)
    p_bern.add_argument("--sigma", type=float, default=1.0)
    p_bern.add_argument("--j-range", type=_parse_int_span, default=(-3, 6))
    p_bern.add_argument("--nu-range", type=_parse_int_span, default=(-8, 8))
    p_bern.add_argument("--tol", type=float, default=1e-9)
    p_bern.add_argument("--out", type=Path, default=None)
    p_bern.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _cmd_filters(args) -> int:
    spec = construct_filter(args.m)
    if args.json:
        payload = {"m": spec.m, "taps": [fmt17(t) for t in spec.taps]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.csv:
        print("index,tap")
        for i, tap in enumerate(spec.taps):
            print(f"{i},{fmt17(tap)}")
    else:
        for i, tap in enumerate(spec.taps):
            print(f"h({i}) = {fmt17(tap)}")
    return 0


def _cmd_eval(args) -> int:
    if args.abs2:
        print(fmt17(wavelet_hat_abs2(args.m, args.omega)))
    else:
        phi = scaling_hat(args.m, args.omega)
        psi = wavelet_hat(args.m, args.omega)
        print(f"phi_hat = {fmt17(phi.real)} {fmt17(phi.imag)}j")
        print(f"psi_hat = {fmt17(psi.real)} {fmt17(psi.imag)}j")
    return 0


def _print_record(record: dict, args) -> int:
    """Print a record as JSON (--json), a CSV header and line (--csv), or `key = value` lines."""
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    elif getattr(args, "csv", False):
        print(",".join(record.keys()))
        print(",".join(str(v) for v in record.values()))
    else:
        for key, val in record.items():
            print(f"{key} = {val}")
    return 0


def _cmd_decay(args) -> int:
    fit = default_decay(args.m, DEFAULT_OMEGA_MAX)
    record = {
        "m": args.m,
        "C_tilde": fmt17(fit.C_tilde),
        "c": fmt17(fit.c),
        "total_exponent": fmt17(fit.c * math.log(args.m)),
        "fit_lo": fmt17(fit.fit_range[0]),
        "fit_hi": fmt17(fit.fit_range[1]),
        "residual": fmt17(fit.residual),
    }
    return _print_record(record, args)


def _cmd_norm(args) -> int:
    result = weighted_lp_norm(NormRequest(args.m, args.k, args.p, args.omega_max))
    record = {
        "value": fmt17(result.value),
        "abs_error": fmt17(result.abs_error),
        "evaluations": result.evaluations,
    }
    return _print_record(record, args)


def _cmd_bounds(args) -> int:
    if args.c is None:
        params = bound_params(args.m, args.k, args.p, args.eps)
    else:
        params = BoundParams(m=args.m, k=args.k, p=args.p, c=args.c, eps=args.eps)
    bounds = compute_bound_set(params)
    record = {
        "m": args.m,
        "k": args.k,
        "p": fmt17(args.p),
        "eps": fmt17(args.eps),
        "c": fmt17(params.c),
        "c_tilde": fmt17(params.c_tilde),
        "A": fmt17(bounds.A),
        "B": fmt17(bounds.B),
        "D": fmt17(bounds.D),
        "E": fmt17(bounds.E),
        "F": fmt17(bounds.F),
        "G": fmt17(bounds.G),
        "flags": ";".join(bounds.flags),
    }
    return _print_record(record, args)


def _restrict_grid(cases: list[dict], args) -> list[dict]:
    def keep(case: dict) -> bool:
        if args.m_list is not None and case.get("m") not in args.m_list:
            return False
        if args.k_list is not None and case.get("k") not in args.k_list:
            return False
        if args.p_list is not None and case.get("p") not in args.p_list:
            return False
        return True

    return [case for case in cases if keep(case)]


def _report_sweep(check: str, cases: list[dict], settings: SweepSettings, args) -> int:
    """Run one sweep, write its report to --out or stdout, and return the exit code.

    With --out, a one-line summary goes to stdout: the row statuses, and how
    many rows checked each side (a bound present and not flagged vacuous).
    """
    rows = verify_sweep(check, cases, settings)
    data = rows_to_csv_bytes(rows) if args.format == "csv" else rows_to_json_bytes(rows)
    if args.out is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        args.out.write_bytes(data)
        counts = summarize(rows)
        lower = sum(r.lower_bound is not None and "lower" not in r.vacuous_flags for r in rows)
        upper = sum(r.upper_bound is not None and "upper" not in r.vacuous_flags for r in rows)
        print(
            f"{check}: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['vacuous']} vacuous, {counts['error']} error -> {args.out}; "
            f"lower checked in {lower} of {len(rows)} rows, upper in {upper} of {len(rows)}"
        )
    return exit_code(rows)


def _grid_values(cases: list[dict]) -> str:
    """The m, k and p values a grid holds, as 'm in 2 3, k in 1, p in 1.5 2'."""
    return ", ".join(
        f"{key} in " + " ".join(f"{value:g}" for value in sorted({case[key] for case in cases}))
        for key in ("m", "k", "p")
    )


def _cmd_verify(args) -> int:
    settings = SweepSettings(eps=args.eps, tol_pad=args.tol)
    grid = CHECKS[args.check][1]()
    cases = _restrict_grid(grid, args)
    if not cases:
        raise ValueError(
            f"no {args.check} case matches the filters; its grid has {_grid_values(grid)}"
        )
    return _report_sweep(args.check, cases, settings, args)


def _cmd_bernstein(args) -> int:
    settings = SweepSettings(tol_pad=args.tol)
    # Every row shares m, k, p and sigma: reject a value no row can use here,
    # not once per row.
    construct_filter(args.m)
    NormRequest(args.m, args.k, args.p)
    require_k_below_m(args.m, args.k)
    GaussianTestFunction(sigma=args.sigma)
    cases = [
        {"m": args.m, "k": args.k, "p": args.p, "sigma": args.sigma, "j": j, "nu": nu}
        for j in range(args.j_range[0], args.j_range[1] + 1)
        for nu in range(args.nu_range[0], args.nu_range[1] + 1)
    ]
    return _report_sweep("bernstein", cases, settings, args)


_COMMANDS = {
    "filters": _cmd_filters,
    "eval": _cmd_eval,
    "decay": _cmd_decay,
    "norm": _cmd_norm,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "bernstein": _cmd_bernstein,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; bad input ends in a one-line `wavebounds: error:` and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FilterConstructionError) as exc:
        print(f"wavebounds: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
