"""tools/ab_bench.py: the gain rule, and the refusal of roots with unequal path lengths or benchmarks."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    change = [0.7] * 9 + [1.2]
    assert ab_bench.wins(parent, change, "lower") == 9
    assert ab_bench.gain_holds(parent, change, "lower")
    assert not ab_bench.gain_holds(parent, [0.7] * 8 + [1.2, 1.2], "lower")
    # A higher-is-better metric wins in the other direction.
    assert ab_bench.gain_holds(change, parent, "higher")


def test_ties_count_for_neither_side():
    assert ab_bench.wins([1.0, 2.0], [1.0, 1.5], "lower") == 1


def test_gain_needs_a_gap_wider_than_the_parent_spread():
    parent = [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0]
    change = [p - 0.5 for p in parent]
    assert ab_bench.wins(parent, change, "lower") == 10
    assert not ab_bench.gain_holds(parent, change, "lower")


def _make_root(root: Path) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text("{}")
    return root


def test_roots_of_unequal_path_length_are_refused(tmp_path):
    roots = [_make_root(tmp_path / name) for name in ("par", "chg", "change")]
    ab_bench.check_roots(roots[0], roots[1])
    with pytest.raises(SystemExit, match="differ in length"):
        ab_bench.check_roots(roots[0], roots[2])


def test_roots_with_different_benchmark_code_are_refused(tmp_path):
    parent, change = _make_root(tmp_path / "par"), _make_root(tmp_path / "chg")
    # Run records and bytecode caches may differ.
    (parent / "bench" / "out").mkdir()
    (parent / "bench" / "out" / "run.json").write_text("{}")
    (change / "bench" / "__pycache__").mkdir()
    (change / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"x")
    ab_bench.check_roots(parent, change)

    (change / "bench" / "workloads.py").write_text("")
    with pytest.raises(SystemExit, match="differs in bench/workloads.py"):
        ab_bench.check_roots(parent, change)
    (parent / "bench" / "workloads.py").write_text("")
    (change / "BENCHMARK.json").write_text('{"run_seconds": 8}')
    with pytest.raises(SystemExit, match="differs in BENCHMARK.json"):
        ab_bench.check_roots(parent, change)
