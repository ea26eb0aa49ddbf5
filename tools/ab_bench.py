"""Alternating A/B pairs of bench/run.py between a parent tree and a change tree.

    python3 tools/ab_bench.py PARENT CHANGE --workload bernstein_grid --pairs 10 --seconds 8 --seed0 1

PARENT and CHANGE are the roots of two source trees, each with its own
bench/ and BENCHMARK.json. Pair i runs `python3 bench/run.py --workload W
--seed K+i --seconds S --trace 0` inside each root, one after the other,
and the side that goes first alternates from pair to pair. The last line of each run's
stdout is its JSON result. For every end-to-end metric of the parent's
BENCHMARK.json the tool prints each side's median and quartiles, the
relative change against the metric's bound, the pairs the change won (ties
count for neither side), and whether a gain may be claimed: the change wins
at least nine tenths of the pairs and the medians differ, in the metric's
better direction, by more than the parent's interquartile range.

The two roots must have absolute paths of equal length, because `wall_rel`
moves with the length of the name of the directory the sources sit in, and
the same BENCHMARK.json and bench/ files (bench/out/ aside), because a gain
is measured with identical benchmark code on both sides. The tool itself
writes nothing; each run writes its record to its own
bench/out/, as bench/run.py always does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads strictly better; ties count for neither side."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def gain_holds(parent: list[float], change: list[float], better: str) -> bool:
    """The change wins >= 9/10 of the pairs and its median beats the parent's by more than its IQR."""
    lo, hi = quartiles(parent)
    gap = statistics.median(parent) - statistics.median(change)
    if better != "lower":
        gap = -gap
    return wins(parent, change, better) >= GAIN_SHARE * len(parent) and gap > hi - lo


def benchmark_files(root: Path) -> dict[str, bytes]:
    """BENCHMARK.json and the files under bench/, by path relative to root.

    bench/out/, where runs write their records, and bytecode caches are left out.
    """
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "bench").rglob("*")):
        rel = path.relative_to(root)
        if path.is_file() and rel.parts[1] != "out" and "__pycache__" not in rel.parts:
            files[rel.as_posix()] = path.read_bytes()
    return files


def check_roots(parent: Path, change: Path) -> None:
    for root in (parent, change):
        if not (root / "bench" / "run.py").is_file():
            raise SystemExit(f"{root} has no bench/run.py")
    if len(str(parent)) != len(str(change)):
        raise SystemExit(
            f"the roots' paths differ in length ({len(str(parent))} and {len(str(change))} "
            "characters), and wall_rel moves with the directory name; use equally long paths"
        )
    ours, theirs = benchmark_files(parent), benchmark_files(change)
    differ = sorted(name for name in ours.keys() | theirs.keys() if ours.get(name) != theirs.get(name))
    if differ:
        raise SystemExit(
            f"the roots' benchmark code differs in {', '.join(differ)}; both sides must run "
            "the same benchmark"
        )


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The JSON result on the last stdout line of one bench/run.py run inside root."""
    cmd = [
        "python3", "bench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench/run.py exited with code {proc.returncode} in {root}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    parent, change = args.parent.resolve(), args.change.resolve()
    check_roots(parent, change)
    spec = json.loads((parent / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for side, root in order:
            result = run_once(root, args.workload, seed, args.seconds)
            runs[side].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"pair {i + 1} seed {seed} {side}: {values}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, seeds {args.seed0}..{args.seed0 + args.pairs - 1}")
    for metric in spec:
        name, better = metric["name"], metric["better"]
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        for side, values in sides.items():
            lo, hi = quartiles(values)
            print(f"  {name} {side:6s} median {statistics.median(values):.4f} {metric['unit']}, quartiles {lo:.4f}..{hi:.4f}")
        change_rel = statistics.median(sides["change"]) / statistics.median(sides["parent"]) - 1.0
        worse = change_rel if better == "lower" else -change_rel
        print(
            f"  {name} change {change_rel:+.1%} of the parent's median (bound {metric['bound']:.0%}"
            f"{', exceeded' if worse > metric['bound'] else ''}); change won "
            f"{wins(sides['parent'], sides['change'], better)} of {args.pairs}; "
            f"gain rule {'holds' if gain_holds(sides['parent'], sides['change'], better) else 'does not hold'}"
        )
    for side in runs:
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        print(f"  fail_frac {side:6s} {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
