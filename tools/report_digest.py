"""sha256 of each check's default CSV and JSON report, for one source tree or two.

    python3 tools/report_digest.py ROOT
    python3 tools/report_digest.py PARENT CHANGE [--checks theorem1 bernstein]

Each ROOT is the root of a source tree. A fresh interpreter imports the
library from ROOT/src, runs `verify_sweep` on each check's default grid and
hashes `rows_to_csv_bytes` and `rows_to_json_bytes` of the rows: the bytes
`wavebounds verify CHECK` and `wavebounds bernstein` write with their default
arguments. Without --checks every check the tree defines is run, six checks
and twelve reports. `tree_reports` also runs a named grid off a check's
defaults, as tools/offgrid_probe.py does. With one root the tool prints one
`digest  report` line per report. With two it prints the reports whose
digests differ, with both digests, and exits 1 if any report differs or is
missing from one tree. Under each CSV report that differs it prints every
row whose cells changed: its key (m, k, p, j, nu), the columns that changed,
the old and new value and abs_error, and |delta value| as a share of the
parent's abs_error, flagging any status change. Rows are matched by key, or
by position under labels given for a named grid, and a row only one tree has
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
from pathlib import Path

# Run in the tree's own interpreter: reads {report: [check, cases]}, the named
# grids, from stdin; prints [{report name: sha256 hex digest}, {CSV report name:
# its text}].
_DIGESTS = """
import hashlib, json, pathlib, sys
import wavebounds
from wavebounds.bernstein import CHECKS, verify_sweep
from wavebounds.reporting import rows_to_csv_bytes, rows_to_json_bytes
if not pathlib.Path(wavebounds.__file__).resolve().is_relative_to(sys.argv[1]):
    sys.exit(f"wavebounds was imported from {wavebounds.__file__}, not from {sys.argv[1]}")
grids = json.load(sys.stdin)
digests, texts = {}, {}
for name in sys.argv[2:] or CHECKS:
    check, cases = grids.get(name, (name, None))
    rows = verify_sweep(check, cases)
    csv_bytes = rows_to_csv_bytes(rows)
    texts[name + ".csv"] = csv_bytes.decode()
    digests[name + ".csv"] = hashlib.sha256(csv_bytes).hexdigest()
    digests[name + ".json"] = hashlib.sha256(rows_to_json_bytes(rows)).hexdigest()
print(json.dumps([digests, texts]))
"""

# The columns that name a row within one report.
_KEY = ("m", "k", "p", "j", "nu")


def tree_reports(
    root: Path, names: list[str], grids: dict[str, tuple[str, list[dict]]] | None = None
) -> tuple[dict[str, str], dict[str, str]]:
    """The tree's report digests, by '<name>.csv' and '<name>.json', and its CSV texts.

    Each name is a check, run on its default grid, or a key of grids, whose
    (check, cases) value it runs.
    """
    src = root / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-c", _DIGESTS, str(src), *names]
    stdin = json.dumps(grids or {})
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
    parser.add_argument("--checks", nargs="+", default=[], help="the checks to run (default: all)")
    args = parser.parse_args(argv)
    roots = source_roots(parser, args.roots)
    reports = [tree_reports(root, args.checks) for root in roots]
    if len(reports) == 1:
        for name, digest in reports[0][0].items():
            print(f"{digest}  {name}")
        return 0
    (parent, parent_texts), (change, change_texts) = reports
    names = [*parent, *(name for name in change if name not in parent)]
    differ = [name for name in names if parent.get(name) != change.get(name)]
    for name in differ:
        print(f"{name} differs: {parent.get(name, 'missing')} -> {change.get(name, 'missing')}")
        if name in parent_texts and name in change_texts:
            print(*changed_rows(parent_texts[name], change_texts[name]), sep="\n")
    print(f"{len(names) - len(differ)} of {len(names)} reports identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
