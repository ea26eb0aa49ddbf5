"""sha256 of each check's default report and of the off-grid probe, for one source tree or two.

    python3 tools/report_digest.py ROOT
    python3 tools/report_digest.py PARENT CHANGE [--checks theorem1 bernstein-offgrid]

Each ROOT is the root of a source tree. A fresh interpreter imports the
library from ROOT/src, runs `verify_sweep` on each report's grid and hashes
`rows_to_csv_bytes` and `rows_to_json_bytes` of the rows: the bytes
`wavebounds verify CHECK` and `wavebounds bernstein` write. A check's report
runs its default grid. The probe, bernstein-offgrid, runs the bernstein
sweep off its default grid, on 2,550 cases in this order: m in
{2, 3, 4, 6, 8, 12, 20, 32}, then 0 <= k <= min(m-1, 4), p in
{4/3, 1.5, 2, 3, 4}, sigma in {0.05, 1, 20} and j in {-6, -2, 0, 3, 8}, all
at nu = 1; it takes about 20 s a tree. Without --checks every check the tree
defines is run, and the probe: seven grids and fourteen reports.

With one root the tool prints one `digest  report` line per report, and
after a CSV report's name its rows' counts by status. With two it prints the
reports whose digests differ, with both digests, and exits 1 if any report
differs or is missing from one tree. Under each CSV report that differs it
prints both trees' status counts and every row whose cells changed: its key
(m, k, p, j, nu), or (m, k, p, sigma, j, nu) for the probe, the columns that
changed, the old and new value and abs_error, and |delta value| as a share of
the parent's abs_error, flagging any status change. A row only one tree has
is printed as added or removed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

# Run in the tree's own interpreter: reads {report: [check, cases]}, the named
# grids, from stdin; runs the reports named in argv, or every check and grid;
# prints [{report name: sha256 hex digest}, {CSV report name: its text}].
_DIGESTS = """
import hashlib, json, pathlib, sys
import wavebounds
from wavebounds.bernstein import CHECKS, verify_sweep
from wavebounds.reporting import rows_to_csv_bytes, rows_to_json_bytes
if not pathlib.Path(wavebounds.__file__).resolve().is_relative_to(sys.argv[1]):
    sys.exit(f"wavebounds was imported from {wavebounds.__file__}, not from {sys.argv[1]}")
grids = json.load(sys.stdin)
digests, texts = {}, {}
for name in sys.argv[2:] or [*CHECKS, *grids]:
    check, cases = grids.get(name, (name, None))
    rows = verify_sweep(check, cases)
    csv_bytes = rows_to_csv_bytes(rows)
    texts[name + ".csv"] = csv_bytes.decode()
    digests[name + ".csv"] = hashlib.sha256(csv_bytes).hexdigest()
    digests[name + ".json"] = hashlib.sha256(rows_to_json_bytes(rows)).hexdigest()
print(json.dumps([digests, texts]))
"""

# The columns that name a row within one report, and within the probe.
_KEY = ("m", "k", "p", "j", "nu")
_LABEL = ("m", "k", "p", "sigma", "j", "nu")

OFFGRID = "bernstein-offgrid"
ORDERS = (2, 3, 4, 6, 8, 12, 20, 32)
EXPONENTS = (4.0 / 3.0, 1.5, 2.0, 3.0, 4.0)
SIGMAS = (0.05, 1.0, 20.0)
SCALES = (-6, -2, 0, 3, 8)


def probe_cases() -> list[dict]:
    """The cases of the bernstein-offgrid report, in its order."""
    return [
        {"m": m, "k": k, "p": p, "sigma": sigma, "j": j, "nu": 1}
        for m in ORDERS
        for k in range(min(m - 1, 4) + 1)
        for p in EXPONENTS
        for sigma in SIGMAS
        for j in SCALES
    ]


def tree_reports(
    root: Path, names: list[str], grids: dict[str, tuple[str, list[dict]]]
) -> tuple[dict[str, str], dict[str, str]]:
    """The tree's report digests, by '<name>.csv' and '<name>.json', and its CSV texts.

    Each name is a check, run on its default grid, or a key of grids, whose
    (check, cases) value it runs; no names run every check and every grid.
    """
    src = root / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-c", _DIGESTS, str(src), *names]
    stdin = json.dumps(grids)
    proc = subprocess.run(cmd, cwd=root, env=env, input=stdin, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"the reports of {root} could not be made (exit code {proc.returncode})")
    digests, texts = json.loads(proc.stdout.splitlines()[-1])
    return digests, texts


def _keyed_rows(text: str, labels: list[str] | None) -> dict[str, dict[str, str]]:
    """The CSV report's rows by labels[i] for the i-th row, or by their key,
    written '(m,k,p,j,nu)' without empty cells.
    """
    rows = {}
    for i, row in enumerate(csv.DictReader(io.StringIO(text))):
        key = labels[i] if labels else "(" + ",".join(row[col] for col in _KEY if row[col]) + ")"
        rows[key] = row
    return rows


def status_counts(text: str) -> str:
    """The CSV report's rows counted by status: 'N pass, N vacuous, N fail, N error'."""
    counts = dict.fromkeys(("pass", "vacuous", "fail", "error"), 0)
    counts.update(Counter(row["status"] for row in csv.DictReader(io.StringIO(text))))
    return ", ".join(f"{count} {status}" for status, count in counts.items())


def _share(delta: float, abs_error: str) -> str:
    """delta as a share of the parent's abs_error cell."""
    try:
        return f"{delta / float(abs_error):.2g}"
    except (ValueError, ZeroDivisionError):
        return "n/a"


def changed_rows(
    parent_text: str, change_text: str, labels: list[str] | None = None
) -> list[str]:
    """One line per row whose cells differ between two CSV reports of one check or grid.

    A named grid's rows need not have distinct keys: labels, one per case,
    name them instead.
    """
    parent, change = _keyed_rows(parent_text, labels), _keyed_rows(change_text, labels)
    lines = []
    for key in [*parent, *(key for key in change if key not in parent)]:
        old, new = parent.get(key), change.get(key)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"  {key}: {'added' if old is None else 'removed'}")
            continue
        try:
            delta = abs(float(new["value"]) - float(old["value"]))
            moved = f"|delta value| {delta:.2g} = {_share(delta, old['abs_error'])} of abs_error"
        except ValueError:
            moved = "|delta value| n/a"
        cols = ", ".join(col for col in old if old[col] != new.get(col))
        line = (
            f"  {key} changed {cols}: value {old['value']} -> {new['value']}, "
            f"abs_error {old['abs_error']} -> {new['abs_error']}, {moved}"
        )
        if old["status"] != new["status"]:
            line += f"; STATUS {old['status']} -> {new['status']}"
        lines.append(line)
    return lines


def source_roots(parser: argparse.ArgumentParser, roots: list[Path]) -> list[Path]:
    """The one or two roots, resolved; refused unless each holds src/wavebounds."""
    if not 1 <= len(roots) <= 2:
        parser.error(f"expected one or two roots, got {len(roots)}")
    roots = [root.resolve() for root in roots]
    for root in roots:
        if not (root / "src" / "wavebounds").is_dir():
            raise SystemExit(f"{root} has no src/wavebounds")
    return roots


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", type=Path, nargs="+", metavar="ROOT", help="one or two source trees")
    parser.add_argument("--checks", nargs="+", default=[], help="the reports to run (default: all)")
    args = parser.parse_args(argv)
    roots = source_roots(parser, args.roots)
    cases = probe_cases()
    reports = [tree_reports(root, args.checks, {OFFGRID: ("bernstein", cases)}) for root in roots]
    if len(reports) == 1:
        digests, texts = reports[0]
        for name, digest in digests.items():
            print(f"{digest}  {name}" + (f"  {status_counts(texts[name])}" if name in texts else ""))
        return 0
    labels = ["(" + ",".join(str(case[col]) for col in _LABEL) + ")" for case in cases]
    (parent, parent_texts), (change, change_texts) = reports
    names = [*parent, *(name for name in change if name not in parent)]
    differ = [name for name in names if parent.get(name) != change.get(name)]
    for name in differ:
        print(f"{name} differs: {parent.get(name, 'missing')} -> {change.get(name, 'missing')}")
        if name in parent_texts and name in change_texts:
            old, new = parent_texts[name], change_texts[name]
            print(f"  counts: {status_counts(old)} -> {status_counts(new)}")
            print(*changed_rows(old, new, labels if name == OFFGRID + ".csv" else None), sep="\n")
    print(f"{len(names) - len(differ)} of {len(names)} reports identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
