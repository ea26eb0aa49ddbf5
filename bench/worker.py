"""One cold pass of one workload, in the fresh interpreter run.py starts.

The first statements time `import wavebounds`, the set-up every new process
pays. Then the seeded inputs are made, one pass runs with every library cache
cold, and the checks run after the clock stops. An untraced pass runs slices
of the reference computation (reference.py) between its operations and
reports their time apart from its own. The last line of stdout is a JSON
object for run.py. With --trace-out the pass runs traced, without the
reference, and its spans are written to that file.

    PYTHONPATH=src python3 bench/worker.py --workload point_eval --seed 1
"""

import sys
import time

_start = time.perf_counter()
import wavebounds  # noqa: E402

SETUP_S = time.perf_counter() - _start

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", type=Path, help="run traced and write the spans here")
    args = parser.parse_args()

    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(wavebounds.__file__).resolve().is_relative_to(src):
        print(f"wavebounds was imported from {wavebounds.__file__}, not from {src}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    api = workloads.plain_api()
    tracer = missing = None
    if args.trace_out is not None:
        tracer = spans.Tracer()
        api, missing = spans.instrument(tracer, api)

    between = reference.Interleaver() if tracer is None else workloads.nothing
    start = time.perf_counter()
    out = workloads.run_pass(args.workload, inputs, api, between)
    between()
    wall_s = time.perf_counter() - start
    if tracer is None:
        wall_s -= between.spent
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is None:
        result["ref_s"] = between.ref_s()
    else:
        result["layers"] = spans.layer_metrics(tracer.spans, wall_s)
        result["missing_sites"] = missing
        rows = [[n, s - start, e - start, p, i] for n, s, e, p, i in tracer.spans]
        args.trace_out.write_text(json.dumps({"wall_s": wall_s, "spans": rows}))
    result["records"], result["failed"] = workloads.check_pass(args.workload, inputs, out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
