"""tools/report_digest.py: report digests of one tree, and the reports two trees differ in.

The off-grid probe takes about 20 s a tree, so its tests run every 128th
case, 20 rows, in this process: main's tree runner is replaced by one that
returns that slice's report.
"""

import hashlib
import importlib.util
import re
import shutil
from pathlib import Path

import pytest

from wavebounds.bernstein import verify_sweep
from wavebounds.reporting import rows_to_csv_bytes, rows_to_json_bytes

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("report_digest", _ROOT / "tools" / "report_digest.py")
report_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_digest)

CHECKS = ["theorem2", "bernstein"]
OFFGRID = report_digest.OFFGRID
EVERY = 128
SLICE = report_digest.probe_cases()[::EVERY]
COUNTS = r"\d+ pass, \d+ vacuous, \d+ fail, \d+ error"


def _copy_tree(root: Path) -> Path:
    shutil.copytree(_ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_one_tree_prints_a_digest_per_report(capsys):
    assert report_digest.main([str(_ROOT), "--checks", *CHECKS]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = ["theorem2.csv", "theorem2.json", "bernstein.csv", "bernstein.json"]
    assert [line.split("  ")[1] for line in lines] == names
    assert all(re.fullmatch(rf"[0-9a-f]{{64}}  \S+\.csv  {COUNTS}", line) for line in lines[::2])
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+\.json", line) for line in lines[1::2])


def test_two_trees_list_the_reports_that_differ(tmp_path, capsys):
    same = _copy_tree(tmp_path / "same")
    assert report_digest.main([str(_ROOT), str(same), "--checks", *CHECKS]) == 0
    assert capsys.readouterr().out == "4 of 4 reports identical\n"

    # A changed note in the theorem2 rows changes both of its reports, and only
    # those; each theorem2 row is listed with its note as the changed column.
    other = _copy_tree(tmp_path / "other")
    path = other / "src" / "wavebounds" / "bernstein.py"
    text = path.read_text()
    assert text.count("carries the asymptotic slack factor") == 1
    path.write_text(text.replace("carries the asymptotic slack factor", "carries a slack factor"))
    assert report_digest.main([str(_ROOT), str(other), "--checks", *CHECKS]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("theorem2.csv differs: ")
    assert out[-2].startswith("theorem2.json differs: ")
    assert out[-1] == "2 of 4 reports identical"
    assert re.fullmatch(rf"  counts: ({COUNTS}) -> \1", out[1])
    keys = [f"({m},{m},{p})" for m in range(1, 6) for p in (2, 4)]
    assert [line.split(" ")[2] for line in out[2:-2]] == keys
    pattern = re.compile(
        r"  \(\d,\d,\d\) changed note: value (\S+) -> \1, abs_error (\S+) -> \2, "
        r"\|delta value\| 0 = 0 of abs_error"
    )
    assert all(pattern.fullmatch(line) for line in out[2:-2])


def test_a_tree_without_the_library_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="has no src/wavebounds"):
        report_digest.main([str(_ROOT), str(tmp_path)])


def test_rows_lists_each_changed_row_and_flags_status_changes(tmp_path, capsys):
    # Quadrupling every bernstein value moves each nonzero row, and the rows
    # above a quarter of their bound now fail.
    other = _copy_tree(tmp_path / "other")
    path = other / "src" / "wavebounds" / "bernstein.py"
    text = path.read_text()
    old = "abs(coef.value), None, rhs.value"
    assert text.count(old) == 1
    path.write_text(text.replace(old, "4.0 * abs(coef.value), None, rhs.value"))
    assert report_digest.main([str(_ROOT), str(other), "--checks", "bernstein"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("bernstein.csv differs: ")
    assert out[-2].startswith("bernstein.json differs: ")
    assert out[-1] == "0 of 2 reports identical"
    assert re.fullmatch(rf"  counts: {COUNTS} -> {COUNTS}", out[1])
    pattern = re.compile(
        r"  \(2,1,2,-?\d+,-?\d+\) changed [a-z_, ]+: value (\S+) -> (\S+), abs_error (\S+) -> \3, "
        r"\|delta value\| (\S+) = \S+ of abs_error(; STATUS pass -> fail)?"
    )
    matches = [pattern.fullmatch(line) for line in out[2:-2]]
    assert matches and all(matches)
    for match in matches:
        old_value, new_value = float(match[1]), float(match[2])
        assert new_value == pytest.approx(4.0 * old_value, rel=1e-15)
        assert float(match[4]) == pytest.approx(3.0 * old_value, rel=0.05)
    assert 0 < sum(bool(match[5]) for match in matches) < len(matches)


def test_changed_rows_reports_added_removed_and_valueless_rows():
    header = "m,k,p,j,nu,value,abs_error,status\n"
    parent = header + "1,0,2,,,1.5,0.01,pass\n2,0,2,,,,,error\n3,0,2,,,7,0,pass\n"
    change = header + "1,0,2,,,1.5,0.01,pass\n2,0,2,,,0.5,0.1,pass\n4,0,2,,,1,0,pass\n"
    assert report_digest.changed_rows(parent, change) == [
        "  (2,0,2) changed value, abs_error, status: value  -> 0.5, abs_error  -> 0.1, "
        "|delta value| n/a; STATUS error -> pass",
        "  (3,0,2): removed",
        "  (4,0,2): added",
    ]


def test_changed_rows_names_a_grid_s_rows_by_their_labels():
    # Two rows with one key, told apart only by the labels, matched by position.
    header = "m,k,p,j,nu,value,abs_error,status\n"
    parent = header + "2,1,2,0,1,1,0.1,pass\n2,1,2,0,1,2,0.1,pass\n"
    change = header + "2,1,2,0,1,1,0.1,pass\n2,1,2,0,1,3,0.1,pass\n"
    assert report_digest.changed_rows(parent, change, ["(a)", "(b)"]) == [
        "  (b) changed value: value 2 -> 3, abs_error 0.1 -> 0.1, |delta value| 1 = 10 of abs_error"
    ]


def test_a_named_grid_runs_its_cases_in_the_tree():
    cases = [{"m": 2, "k": 1, "p": 2.0, "sigma": sigma, "j": 0, "nu": 1} for sigma in (0.05, 1.0)]
    digests, texts = report_digest.tree_reports(_ROOT, ["probe"], {"probe": ("bernstein", cases)})
    rows = verify_sweep("bernstein", cases)
    assert texts == {"probe.csv": rows_to_csv_bytes(rows).decode()}
    assert digests == {
        "probe.csv": hashlib.sha256(rows_to_csv_bytes(rows)).hexdigest(),
        "probe.json": hashlib.sha256(rows_to_json_bytes(rows)).hexdigest(),
    }


@pytest.fixture(scope="module")
def slice_text():
    return rows_to_csv_bytes(verify_sweep("bernstein", SLICE)).decode()


@pytest.fixture
def probe_trees(monkeypatch, slice_text):
    """Runs main on the slice; a root named 'other' gets the slice with its fifth row failing."""

    def tree_reports(root, names, grids):
        assert names == [] and grids == {OFFGRID: ("bernstein", SLICE)}
        lines = slice_text.splitlines(keepends=True)
        if root.name == "other":
            lines[5] = lines[5].replace(",pass,", ",fail,")
        text = "".join(lines)
        return {OFFGRID + ".csv": hashlib.sha256(text.encode()).hexdigest()}, {OFFGRID + ".csv": text}

    monkeypatch.setattr(report_digest, "probe_cases", lambda: SLICE)
    monkeypatch.setattr(report_digest, "tree_reports", tree_reports)


def test_the_probe_has_2550_distinct_cases_in_order():
    cases = report_digest.probe_cases()
    assert len(cases) == 2550
    assert len({tuple(case.items()) for case in cases}) == 2550
    assert {case["m"] for case in cases} == {2, 3, 4, 6, 8, 12, 20, 32}
    assert {case["nu"] for case in cases} == {1}
    assert all(0 <= case["k"] <= min(case["m"] - 1, 4) for case in cases)
    axes = [("p", report_digest.EXPONENTS), ("sigma", report_digest.SIGMAS), ("j", report_digest.SCALES)]
    order = [(case["m"], case["k"], *(axis.index(case[col]) for col, axis in axes)) for case in cases]
    assert order == sorted(order)
    assert len(SLICE) == 20


def test_a_slice_s_status_counts(slice_text):
    assert report_digest.status_counts(slice_text) == "20 pass, 0 vacuous, 0 fail, 0 error"


def test_one_tree_prints_the_probe_s_digest_and_counts(probe_trees, slice_text, capsys):
    assert report_digest.main([str(_ROOT)]) == 0
    digest = hashlib.sha256(slice_text.encode()).hexdigest()
    expected = f"{digest}  {OFFGRID}.csv  20 pass, 0 vacuous, 0 fail, 0 error\n"
    assert capsys.readouterr().out == expected


def test_two_equal_probes_exit_0(probe_trees, tmp_path, capsys):
    same = tmp_path / "same"
    (same / "src" / "wavebounds").mkdir(parents=True)
    assert report_digest.main([str(_ROOT), str(same)]) == 0
    assert capsys.readouterr().out == "1 of 1 reports identical\n"


def test_a_probe_row_turned_fail_is_listed_by_its_sigma(probe_trees, tmp_path, capsys):
    other = tmp_path / "other"
    (other / "src" / "wavebounds").mkdir(parents=True)
    assert report_digest.main([str(_ROOT), str(other)]) == 1
    header, counts, row, verdict = capsys.readouterr().out.splitlines()
    assert header.startswith(f"{OFFGRID}.csv differs: ")
    assert counts == "  counts: 20 pass, 0 vacuous, 0 fail, 0 error -> 19 pass, 0 vacuous, 1 fail, 0 error"
    case = SLICE[4]
    label = f"({case['m']},{case['k']},{case['p']},{case['sigma']},{case['j']},1)"
    assert row.startswith(f"  {label} changed status: value ")
    assert row.endswith(" = 0 of abs_error; STATUS pass -> fail")
    assert verdict == "0 of 1 reports identical"


@pytest.mark.parametrize("argv", [[], ["a", "b", "c"]])
def test_bad_arguments_are_refused(argv):
    with pytest.raises(SystemExit):
        report_digest.main(argv)
