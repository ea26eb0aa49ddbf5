"""The benchmark in bench/ calls library names directly: removing one must fail here.

It runs in a subprocess because `spans.instrument` rebinds names inside the
library modules, which would leak into every later test of this process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import spans, workloads
inputs = workloads.make_inputs("point_eval", 1)
out = workloads.run_pass("point_eval", inputs, workloads.plain_api())
records, failed = workloads.check_pass("point_eval", inputs, out)
_, missing = spans.instrument(spans.Tracer(), workloads.plain_api())
print(json.dumps({{"records": len(records), "failed": [records[i] for i in failed],
                  "missing": missing}}))
"""


def test_bench_finds_every_name_it_uses_and_a_point_pass_succeeds():
    script = _SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    assert result["records"] > 0 and result["failed"] == []
