"""Status counts and CSV digest of the off-grid bernstein probe, for one source tree or two.

    python3 tools/offgrid_probe.py ROOT
    python3 tools/offgrid_probe.py PARENT CHANGE

The probe is the report bernstein-offgrid: `verify_sweep("bernstein", cases)`
over 2,175 cases off the default grid, in this order: m in
{2, 3, 4, 6, 8, 12, 20}, then 0 <= k <= min(m-1, 4), p in {4/3, 1.5, 2, 3, 4},
sigma in {0.05, 1, 20} and j in {-6, -2, 0, 3, 8}, all at nu = 1. Each ROOT
is the root of a source tree, whose probe runs in a fresh interpreter by
tools/report_digest.py's runner, about 10 s a tree. With one root the tool
prints the rows' status counts and the sha256 of their CSV bytes
(`rows_to_csv_bytes`, the bytes `wavebounds bernstein` writes). With two it
prints both trees' lines; if the bytes differ it prints every changed row,
keyed (m, k, p, sigma, j, nu), and exits 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from collections import Counter
from pathlib import Path

import report_digest

REPORT = "bernstein-offgrid"
ORDERS = (2, 3, 4, 6, 8, 12, 20)
EXPONENTS = (4.0 / 3.0, 1.5, 2.0, 3.0, 4.0)
SIGMAS = (0.05, 1.0, 20.0)
SCALES = (-6, -2, 0, 3, 8)
_LABEL = ("m", "k", "p", "sigma", "j", "nu")


def probe_cases(every: int = 1) -> list[dict]:
    """Every `every`-th case of the probe, in its order."""
    cases = [
        {"m": m, "k": k, "p": p, "sigma": sigma, "j": j, "nu": 1}
        for m in ORDERS
        for k in range(min(m - 1, 4) + 1)
        for p in EXPONENTS
        for sigma in SIGMAS
        for j in SCALES
    ]
    return cases[::every]


def summary_line(digest: str, csv_text: str) -> str:
    """The CSV report's digest and its rows' counts by status."""
    counts = dict.fromkeys(("pass", "vacuous", "fail", "error"), 0)
    counts.update(Counter(row["status"] for row in csv.DictReader(io.StringIO(csv_text))))
    return f"{digest}  " + ", ".join(f"{count} {status}" for status, count in counts.items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", type=Path, nargs="+", metavar="ROOT", help="one or two source trees")
    roots = report_digest.source_roots(parser, parser.parse_args(argv).roots)
    cases = probe_cases()
    grids = {REPORT: ("bernstein", cases)}
    name = REPORT + ".csv"
    runs = [report_digest.tree_reports(root, [REPORT], grids) for root in roots]
    for root, (digests, texts) in zip(roots, runs):
        print(f"{summary_line(digests[name], texts[name])}  {root}")
    if len(runs) == 1:
        return 0
    (parent, parent_texts), (change, change_texts) = runs
    if parent[name] == change[name]:
        print("identical counts and bytes")
        return 0
    labels = ["(" + ",".join(str(case[col]) for col in _LABEL) + ")" for case in cases]
    print(*report_digest.changed_rows(parent_texts[name], change_texts[name], labels), sep="\n")
    print("the probes differ")
    return 1


if __name__ == "__main__":
    sys.exit(main())
