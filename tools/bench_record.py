"""Write BENCH_<PR>.json: one benchmark record of a source tree, untraced and traced.

    python3 tools/bench_record.py PR [--tree ROOT]

For each workload of ROOT/BENCHMARK.json, in its order, the tool runs the
tree's own `python3 bench/run.py --workload W --seed 1 --seconds S` inside
ROOT (by default the tree the tool sits in), where S is the benchmark's
run_seconds, once with --trace 0 and once with --trace 1, through
ab_bench.run_once. It reads the JSON result of each run and the run record
that run.py writes to ROOT/bench/out/, and writes BENCH_<PR>.json at the root
of the tool's own tree:

- the tree's git SHA and source digest, the digest of its non-Python package
  files (the tap table, which the source digest does not cover), the Python
  and numpy versions, the host's CPU count, the seed and the run length;
- per workload, the untraced run's end-to-end medians and pass count, the
  traced run's counts and seconds (TRACED), and fail_frac, the share of
  operations that failed over both runs. TRACED ends with the host's speed
  during the run, trace.ref_s (the median reference time) and
  trace.untraced_wall_s, so that traced seconds from records made at
  different times can be compared per second of reference time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import ab_bench

OUT_DIR = Path(__file__).resolve().parents[1]
SEED = 1
TRACED = (
    "quadrature.runs",
    "quadrature.evals",
    "quadrature.integrand_calls",
    "norms.computed",
    "norms.evals_max",
    "daub_filters.construct_s",
    "spectral_eval.scalar_calls",
    "spectral_eval.scalar_us_per_call",
    "spectral_eval.abs2_us_per_point",
    "spectral_eval.decay_fits",
    "spectral_eval.decay_s",
    "bernstein.row_ms_p50",
    "bernstein.sweep_s.theorem1",
    "bernstein.sweep_s.theorem2",
    "bernstein.sweep_s.corollary1",
    "bernstein.sweep_s.corollary2",
    "bernstein.sweep_s.corollary3",
    "bernstein.sweep_s.bernstein",
    "trace.ref_s",
    "trace.untraced_wall_s",
)
TREE_KEYS = ("git_sha", "source_sha256", "python", "numpy", "nproc")


def tables_sha256(root: Path) -> str:
    """Digest of the files under ROOT/src/wavebounds that are not Python sources or bytecode.

    bench/run.py's source_sha256 hashes only the .py files under src/, so it
    does not tell apart two trees whose tap tables differ; this digest does.
    """
    digest = hashlib.sha256()
    package = root / "src" / "wavebounds"
    for path in sorted(package.rglob("*")):
        rel = path.relative_to(package)
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in rel.parts:
            digest.update(str(rel).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def run(root: Path, workload: str, seconds: float, trace: int) -> tuple[dict, dict]:
    """(the JSON result on the last stdout line, the run record in bench/out/) of one run."""
    result = ab_bench.run_once(root, workload, SEED, seconds, trace)
    record = root / "bench" / "out" / f"result_{workload}_seed{SEED}_trace{trace}.json"
    return result, json.loads(record.read_text())


def workload_entry(plain: tuple[dict, dict], traced: tuple[dict, dict]) -> dict:
    """One workload's entry from its untraced and its traced (result, record)."""
    (result, record), (traced_result, _) = plain, traced
    attempted = result["attempted"] + traced_result["attempted"]
    failed = result["failed"] + traced_result["failed"]
    return {
        "end_to_end": {name: entry["value"] for name, entry in result["metrics"].items()},
        "passes": record["passes"],
        "traced": {name: traced_result["metrics"][name]["value"] for name in TRACED},
        "fail_frac": failed / attempted,
    }


def assemble(pr: int, seconds: float, tables: str, runs: dict[str, tuple]) -> dict:
    """The BENCH_<PR>.json content from each workload's (untraced, traced) pair of runs.

    Every run must come from the same tree: their TREE_KEYS must agree.
    """
    records = [record for pair in runs.values() for _, record in pair]
    tree = {key: records[0][key] for key in TREE_KEYS}
    for record in records:
        differ = [key for key in TREE_KEYS if record[key] != tree[key]]
        if differ:
            raise ValueError(f"the runs disagree on {', '.join(differ)}")
    return {
        "pr": pr,
        **tree,
        "tables_sha256": tables,
        "seed": SEED,
        "seconds": seconds,
        "workloads": {name: workload_entry(*pair) for name, pair in runs.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int)
    parser.add_argument("--tree", type=Path, default=OUT_DIR)
    args = parser.parse_args(argv)
    root = args.tree.resolve()
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    runs = {
        workload["name"]: tuple(run(root, workload["name"], seconds, trace) for trace in (0, 1))
        for workload in benchmark["workloads"]
    }
    record = assemble(args.pr, seconds, tables_sha256(root), runs)
    (OUT_DIR / f"BENCH_{args.pr}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
