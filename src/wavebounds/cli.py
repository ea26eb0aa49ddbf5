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

from .bernstein import CHECKS, bernstein_grid, bound_params, verify_sweep
from .bound_formulas import BoundParams, compute_bound_set
from .daub_filters import construct_filter
from .norms import NormRequest, default_decay, weighted_lp_norm
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

    # A sweep flag left out (None) leaves its axis to the grid function's default.
    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("check", choices=[check for check in CHECKS if check != "bernstein"])
    p_verify.add_argument("--m-list", dest="ms", metavar="M", type=int, nargs="+")
    p_verify.add_argument("--k-list", dest="ks", metavar="K", type=int, nargs="+")
    p_verify.add_argument("--p-list", dest="ps", metavar="P", type=float, nargs="+")

    p_bern = sub.add_parser("bernstein", help="verify the coefficient-decay inequality")
    p_bern.add_argument("--m", type=int)
    p_bern.add_argument("--k", type=int)
    p_bern.add_argument("--p", type=float)
    p_bern.add_argument("--sigma", type=float)
    p_bern.add_argument("--j-range", type=_parse_int_span)
    p_bern.add_argument("--nu-range", type=_parse_int_span)
    for sweep in (p_verify, p_bern):
        sweep.add_argument("--out", type=Path, default=None)
        sweep.add_argument("--format", choices=("csv", "json"), default="csv")
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
    fit = default_decay(args.m)
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
    result = weighted_lp_norm(NormRequest(args.m, args.k, args.p))
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


def _report_sweep(check: str, rows: list, args) -> int:
    """Write one sweep's report to --out or stdout, and return the exit code.

    With --out, a one-line summary goes to stdout: the row statuses, and how
    many rows checked each side (a bound present and not flagged vacuous).
    """
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


def _grid_axes(args) -> dict:
    """The sweep axes given on the command line, named as the grid function names them."""
    report = ("command", "check", "out", "format")
    return {key: val for key, val in vars(args).items() if val is not None and key not in report}


def _cmd_verify(args) -> int:
    cases = CHECKS[args.check][1](**_grid_axes(args))
    return _report_sweep(args.check, verify_sweep(args.check, cases), args)


def _cmd_bernstein(args) -> int:
    cases = bernstein_grid(**_grid_axes(args))
    # Both coefficient routes get harder as j falls, so input no row can use
    # (a Gaussian too narrow for them, a p whose conjugate norm is out of
    # range) shows in the first row, at the lowest j: reject it as input.
    rows = verify_sweep("bernstein", cases[:1])
    if rows[0].status == "error":
        sigma, j = cases[0]["sigma"], cases[0]["j"]
        raise ValueError(f"the first row (sigma={sigma:g}, j={j}) fails: {rows[0].note}")
    return _report_sweep("bernstein", rows + verify_sweep("bernstein", cases[1:]), args)


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
    except ValueError as exc:
        print(f"wavebounds: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
