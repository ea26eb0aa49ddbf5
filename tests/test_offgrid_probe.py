"""tools/offgrid_probe.py: the off-grid bernstein probe's cases, summary and tree comparison.

The full probe takes about 10 s a tree, so these tests run every 109th case,
20 rows, in this process: main's tree runner is replaced by one that sweeps
the grid it is given here.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from wavebounds.bernstein import verify_sweep
from wavebounds.reporting import rows_to_csv_bytes

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "tools"))
import offgrid_probe  # noqa: E402

EVERY = 109
CSV = offgrid_probe.REPORT + ".csv"
probe_cases = offgrid_probe.probe_cases


@pytest.fixture(scope="module")
def slice_text():
    return rows_to_csv_bytes(verify_sweep("bernstein", probe_cases(EVERY))).decode()


@pytest.fixture
def trees(monkeypatch, slice_text):
    """Runs main on the slice; a root named 'other' gets the slice with its fifth row failing."""

    def tree_reports(root, names, grids):
        assert names == [offgrid_probe.REPORT]
        assert grids == {offgrid_probe.REPORT: ("bernstein", probe_cases(EVERY))}
        lines = slice_text.splitlines(keepends=True)
        if root.name == "other":
            lines[5] = lines[5].replace(",pass,", ",fail,")
        text = "".join(lines)
        return {CSV: hashlib.sha256(text.encode()).hexdigest()}, {CSV: text}

    monkeypatch.setattr(offgrid_probe, "probe_cases", lambda: probe_cases(EVERY))
    monkeypatch.setattr(offgrid_probe.report_digest, "tree_reports", tree_reports)


def test_the_probe_has_2175_distinct_cases():
    cases = probe_cases()
    assert len(cases) == 2175
    assert len({tuple(case.items()) for case in cases}) == 2175
    assert {case["nu"] for case in cases} == {1}
    assert all(0 <= case["k"] <= min(case["m"] - 1, 4) for case in cases)
    assert len(probe_cases(EVERY)) == 20


def test_a_slice_passes_through_the_summary(slice_text):
    digest = hashlib.sha256(slice_text.encode()).hexdigest()
    line = offgrid_probe.summary_line(digest, slice_text)
    assert line == f"{digest}  20 pass, 0 vacuous, 0 fail, 0 error"


def test_one_tree_prints_its_summary(trees, slice_text, capsys):
    assert offgrid_probe.main([str(_ROOT)]) == 0
    digest = hashlib.sha256(slice_text.encode()).hexdigest()
    assert capsys.readouterr().out == f"{digest}  20 pass, 0 vacuous, 0 fail, 0 error  {_ROOT}\n"


def test_two_equal_trees_exit_0(trees, tmp_path, capsys):
    same = tmp_path / "same"
    (same / "src" / "wavebounds").mkdir(parents=True)
    assert offgrid_probe.main([str(_ROOT), str(same)]) == 0
    parent, change, verdict = capsys.readouterr().out.splitlines()
    assert parent.split("  ")[:2] == change.split("  ")[:2]
    assert verdict == "identical counts and bytes"


def test_two_trees_that_differ_list_the_row_with_its_sigma(trees, tmp_path, capsys):
    other = tmp_path / "other"
    (other / "src" / "wavebounds").mkdir(parents=True)
    assert offgrid_probe.main([str(_ROOT), str(other)]) == 1
    parent, change, row, verdict = capsys.readouterr().out.splitlines()
    assert parent.split("  ")[0] != change.split("  ")[0]
    assert change.endswith("  19 pass, 0 vacuous, 1 fail, 0 error  " + str(other))
    case = probe_cases(EVERY)[4]
    label = f"({case['m']},{case['k']},{case['p']},{case['sigma']},{case['j']},1)"
    assert row.startswith(f"  {label} changed status: value ")
    assert row.endswith(" = 0 of abs_error; STATUS pass -> fail")
    assert verdict == "the probes differ"


@pytest.mark.parametrize("argv", [[], ["a", "b", "c"]])
def test_bad_arguments_are_refused(argv):
    with pytest.raises(SystemExit):
        offgrid_probe.main(argv)


def test_a_tree_without_the_library_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="has no src/wavebounds"):
        offgrid_probe.main([str(_ROOT), str(tmp_path)])
