"""sha256 of each check's default CSV and JSON report, for one source tree or two.

    python3 tools/report_digest.py ROOT
    python3 tools/report_digest.py PARENT CHANGE [--checks theorem1 bernstein]

Each ROOT is the root of a source tree. A fresh interpreter imports the
library from ROOT/src, runs `verify_sweep` on each check's default grid and
hashes `rows_to_csv_bytes` and `rows_to_json_bytes` of the rows: the bytes
`wavebounds verify CHECK` and `wavebounds bernstein` write with their default
arguments. Without --checks every check the tree defines is run, six checks
and twelve reports. With one root the tool prints one `digest  report` line
per report. With two it prints the reports whose digests differ, with both
digests, and exits 1 if any report differs or is missing from one tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Run in the tree's own interpreter: prints {report name: sha256 hex digest}.
_DIGESTS = """
import hashlib, json, pathlib, sys
import wavebounds
from wavebounds.bernstein import CHECKS, verify_sweep
from wavebounds.reporting import rows_to_csv_bytes, rows_to_json_bytes
if not pathlib.Path(wavebounds.__file__).resolve().is_relative_to(sys.argv[1]):
    sys.exit(f"wavebounds was imported from {wavebounds.__file__}, not from {sys.argv[1]}")
digests = {}
for check in sys.argv[2:] or CHECKS:
    rows = verify_sweep(check)
    digests[check + ".csv"] = hashlib.sha256(rows_to_csv_bytes(rows)).hexdigest()
    digests[check + ".json"] = hashlib.sha256(rows_to_json_bytes(rows)).hexdigest()
print(json.dumps(digests))
"""


def report_digests(root: Path, checks: list[str]) -> dict[str, str]:
    """{'<check>.csv' and '<check>.json': sha256 hex digest} of the tree at root."""
    src = root / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-c", _DIGESTS, str(src), *checks]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"the reports of {root} could not be made (exit code {proc.returncode})")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", type=Path, nargs="+", metavar="ROOT", help="one or two source trees")
    parser.add_argument("--checks", nargs="+", default=[], help="the checks to run (default: all)")
    args = parser.parse_args(argv)
    if len(args.roots) > 2:
        parser.error(f"expected one or two roots, got {len(args.roots)}")
    roots = [root.resolve() for root in args.roots]
    for root in roots:
        if not (root / "src" / "wavebounds").is_dir():
            raise SystemExit(f"{root} has no src/wavebounds")
    digests = [report_digests(root, args.checks) for root in roots]
    if len(digests) == 1:
        for name, digest in digests[0].items():
            print(f"{digest}  {name}")
        return 0
    parent, change = digests
    names = [*parent, *(name for name in change if name not in parent)]
    differ = [name for name in names if parent.get(name) != change.get(name)]
    for name in differ:
        print(f"{name} differs: {parent.get(name, 'missing')} -> {change.get(name, 'missing')}")
    print(f"{len(names) - len(differ)} of {len(names)} reports identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
