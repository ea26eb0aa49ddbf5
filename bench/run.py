"""Benchmark for wavebounds: repeated cold-cache passes of one workload.

    python3 bench/run.py --workload verify_suite --seed 1 --seconds 40 --trace 0

Run from the root of a source tree; the library is imported from its `src`.
Each pass is a fresh interpreter (bench/worker.py), so every library cache
starts cold, with BLAS/OpenMP threads pinned to 1. Passes run one after
another and stop at the pass boundary nearest to --seconds. Between the
operations of each untraced pass, slices of the fixed reference computation
of reference.py run and are timed apart, and `wall_rel` is the pass time
over the reference time seen during it: the host's speed changes from minute
to minute, and this ratio cancels it. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json as medians over its passes; with
--trace 1 it alternates untraced and traced passes and reports the per-layer
metrics of the traced pass with the median wall time, plus the tracing
overhead. Every pass is checked; an operation (a sweep row or a point
evaluation) fails when a check misses or its output differs from the run's
first pass. The last line of stdout is the JSON result; the run record and
the chosen trace go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("verify_suite", "bernstein_grid", "point_eval")
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
MIN_PASSES = 3
# No pass starts unless it should end before this many seconds of the run,
# which must exit within 180 s.
DEADLINE_S = 150.0


def _git_sha() -> str | None:
    """HEAD of the source tree, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the library sources, which names the code where git cannot."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _run_worker(args, env: dict, deadline: float, trace_out: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"a {args.workload} pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"a {args.workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _count_failures(passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over all passes; a record differing from pass 1 fails."""
    reference = passes[0]["records"]
    attempted = failed = 0
    for result in passes:
        records = result["records"]
        bad = set(result["failed"])
        if len(records) != len(reference):
            bad = set(range(len(records)))
        else:
            bad.update(i for i, (a, b) in enumerate(zip(records, reference)) if a != b)
        attempted += len(records)
        failed += len(bad)
    return attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    begun = time.monotonic()
    if not (ROOT / "src" / "wavebounds" / "__init__.py").is_file():
        print(f"no wavebounds sources under {ROOT / 'src'}; run from a source tree", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    deadline = begun + DEADLINE_S
    # Untimed warm-up: byte-compiles the sources and fills the file cache, as
    # any installed copy would have them.
    subprocess.run([sys.executable, "-c", "import wavebounds"], cwd=ROOT, env=env, check=True, timeout=60)

    OUT.mkdir(exist_ok=True)
    plain: list[dict] = []
    traced: list[tuple[dict, Path]] = []
    longest = 0.0
    durations: list[float] = []
    start = time.monotonic()
    while True:
        enough = len(plain) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        if enough and time.monotonic() - start + 0.5 * statistics.median(durations) >= args.seconds:
            break
        if enough and time.monotonic() + 1.5 * longest > deadline:
            break
        t0 = time.monotonic()
        if args.trace and len(traced) < len(plain):
            path = OUT / f"pass-{os.getpid()}-{len(traced)}.json"
            traced.append((_run_worker(args, env, deadline + 20.0, path), path))
        else:
            plain.append(_run_worker(args, env, deadline + 20.0, None))
        durations.append(time.monotonic() - t0)
        longest = max(longest, durations[-1])

    passes = plain + [result for result, _ in traced]
    attempted, failed = _count_failures(passes)
    walls = [r["wall_s"] for r in plain]
    rels = [r["wall_s"] / r["ref_s"] for r in plain]
    setups = [r["setup_s"] for r in passes]
    if args.trace:
        traced.sort(key=lambda item: item[0]["wall_s"])
        chosen, chosen_path = traced[(len(traced) - 1) // 2]
        trace_path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        chosen_path.replace(trace_path)
        for _, path in traced:
            path.unlink(missing_ok=True)
        measured = dict(chosen["layers"])
        measured["trace.untraced_wall_s"] = statistics.median(walls)
        measured["trace.ref_s"] = statistics.median(r["ref_s"] for r in plain)
        measured["trace.overhead_s"] = chosen["wall_s"] - statistics.median(walls)
        missing = chosen["missing_sites"]
    else:
        measured = {
            "wall_rel": statistics.median(rels),
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        missing = []
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": THREAD_ENV,
        "attempted": attempted,
        "failed": failed,
        "missing_trace_sites": missing,
        "wall_s_passes": walls,
        "ref_s_passes": [r["ref_s"] for r in plain],
        "setup_s_passes": setups,
        "metrics": metrics,
    }
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"run: {args.workload} seed={args.seed} trace={args.trace} passes={len(plain)}+{len(traced)} "
        f"git={record['git_sha']} python={record['python']} numpy={record['numpy']} "
        f"nproc={record['nproc']} threads=1"
    )
    if missing:
        print(f"warning: trace sites absent from the library: {', '.join(missing)}")
    if not args.trace:
        lo, hi = _quartiles(rels)
        print(f"wall_rel    {measured['wall_rel']:.4f} x   median of {len(rels)} passes, quartiles {lo:.4f}..{hi:.4f}")
        lo, hi = _quartiles(walls)
        print(f"wall_s      {measured['wall_s']:.4f} s   median of {len(walls)} passes, quartiles {lo:.4f}..{hi:.4f}")
        print(f"setup_s     {measured['setup_s']:.4f} s   median of {len(setups)} imports")
        print(f"peak_rss_mb {measured['peak_rss_mb']:.2f} MB")
    else:
        for key, entry in metrics.items():
            print(f"{key:38s} {entry['value']:.6g} {entry['unit']}")
    print(f"fail_frac   {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
