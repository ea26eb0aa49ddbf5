"""tools/bench_record.py: how one record is assembled from bench/run.py's output, with no run started."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "tools"))
import ab_bench  # noqa: E402
import bench_record  # noqa: E402

BENCHMARK = json.loads((_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
TREE = {"git_sha": "a20c144", "source_sha256": "ab" * 32, "python": "3.11.7", "numpy": "2.4.6", "nproc": 2}
TABLES = "ef" * 32
# The host's speed that bench/run.py reports beside a traced run's layers.
HOST_SPEED = {"trace.ref_s": 0.125, "trace.untraced_wall_s": 2.5}
# The decay-fit layer of a traced pass: its estimate_decay calls and their seconds.
DECAY_FITS = {"spectral_eval.decay_fits": 15, "spectral_eval.decay_s": 0.004}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    """A canned (last stdout line, run record) of bench/run.py, shaped as run.py writes them."""
    if trace:
        names = bench_record.TRACED + ("trace.wall_s",)
        metrics = {name: {"value": float(i), "unit": "s"} for i, name in enumerate(names)}
        metrics.update({name: {"value": value, "unit": "s"} for name, value in HOST_SPEED.items()})
        metrics.update({name: {"value": value, "unit": "s"} for name, value in DECAY_FITS.items()})
    else:
        metrics = {
            "wall_rel": {"value": 0.75, "unit": "x"},
            "setup_s": {"value": 0.15, "unit": "s"},
            "peak_rss_mb": {"value": 32.5, "unit": "MB"},
        }
    failed = 2 if workload == "point_eval" and trace else 0
    result = {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}
    record = {"workload": workload, "trace": trace, "passes": 7 + trace, **TREE, "metrics": metrics}
    return result, record


def _runs() -> dict:
    return {name: (_run(name, 0), _run(name, 1)) for name in WORKLOADS}


def test_assembles_tree_medians_counts_and_fail_frac():
    record = bench_record.assemble(31, 40, TABLES, _runs())
    assert record == {
        "pr": 31,
        **TREE,
        "tables_sha256": TABLES,
        "seed": 1,
        "seconds": 40,
        "workloads": {
            name: {
                "end_to_end": {"wall_rel": 0.75, "setup_s": 0.15, "peak_rss_mb": 32.5},
                "passes": 7,
                "traced": {
                    **{key: float(i) for i, key in enumerate(bench_record.TRACED)},
                    **HOST_SPEED,
                    **DECAY_FITS,
                },
                "fail_frac": 0.01 if name == "point_eval" else 0.0,
            }
            for name in WORKLOADS
        },
    }
    assert list(record["workloads"]) == ["verify_suite", "bernstein_grid", "point_eval"]


def test_every_traced_name_is_a_per_layer_metric_of_the_benchmark():
    per_layer = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert [name for name in bench_record.TRACED if name not in per_layer] == []


def test_runs_from_different_trees_are_refused():
    runs = _runs()
    runs["point_eval"][1][1]["source_sha256"] = "cd" * 32
    with pytest.raises(ValueError, match="disagree on source_sha256"):
        bench_record.assemble(31, 40, TABLES, runs)


def _tree(root: Path) -> Path:
    package = root / "src" / "wavebounds"
    (package / "__pycache__").mkdir(parents=True)
    (package / "daub_taps.txt").write_text("1 0x1.6a09e667f3bcdp-1 0x1.6a09e667f3bcdp-1\n")
    (package / "daub_filters.py").write_text("")
    (package / "__pycache__" / "daub_filters.cpython-311.pyc").write_bytes(b"\0")
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return root


def test_tables_digest_covers_the_tap_table_only(tmp_path):
    root = _tree(tmp_path)
    package = root / "src" / "wavebounds"
    before = bench_record.tables_sha256(root)
    (package / "daub_filters.py").write_text("x = 1\n")
    (package / "__pycache__" / "daub_filters.cpython-311.pyc").write_bytes(b"\1")
    assert bench_record.tables_sha256(root) == before
    (package / "daub_taps.txt").write_text("1 0x1.6a09e667f3bccp-1 0x1.6a09e667f3bcdp-1\n")
    assert bench_record.tables_sha256(root) != before


def test_run_passes_the_trace_flag_and_reads_the_run_record(tmp_path, monkeypatch):
    result, record = _run("point_eval", 1)
    (tmp_path / "bench" / "out").mkdir(parents=True)
    (tmp_path / "bench" / "out" / "result_point_eval_seed1_trace1.json").write_text(json.dumps(record))
    calls = []

    def fake_subprocess_run(cmd, cwd, capture_output, text):
        calls.append((cmd, cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout="log line\n" + json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_subprocess_run)
    assert bench_record.run(tmp_path, "point_eval", 40, 1) == (result, record)
    assert calls == [
        (
            [
                "python3", "bench/run.py", "--workload", "point_eval", "--seed", "1",
                "--seconds", "40", "--trace", "1",
            ],
            tmp_path,
        )
    ]


def test_main_runs_each_benchmark_workload_untraced_and_traced(tmp_path, monkeypatch):
    root = _tree(tmp_path / "tree")
    out = tmp_path / "out"
    out.mkdir()
    calls = []

    def fake_run(root, workload, seconds, trace):
        calls.append((root, workload, seconds, trace))
        return _run(workload, trace)

    monkeypatch.setattr(bench_record, "run", fake_run)
    monkeypatch.setattr(bench_record, "OUT_DIR", out)
    assert bench_record.main(["9", "--tree", str(root)]) == 0
    seconds = BENCHMARK["run_seconds"]
    assert calls == [(root.resolve(), name, seconds, trace) for name in WORKLOADS for trace in (0, 1)]
    expected = bench_record.assemble(9, seconds, bench_record.tables_sha256(root), _runs())
    assert json.loads((out / "BENCH_9.json").read_text()) == expected
