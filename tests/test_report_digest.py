"""tools/report_digest.py: report digests of one tree, and the reports two trees differ in."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("report_digest", _ROOT / "tools" / "report_digest.py")
report_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_digest)

CHECKS = ["theorem2", "bernstein"]


def _copy_tree(root: Path) -> Path:
    shutil.copytree(_ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_one_tree_prints_a_digest_per_report(capsys):
    assert report_digest.main([str(_ROOT), "--checks", *CHECKS]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = ["theorem2.csv", "theorem2.json", "bernstein.csv", "bernstein.json"]
    assert [line.split("  ")[1] for line in lines] == names
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)


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
    keys = [f"({m},{m},{p})" for m in range(1, 6) for p in (2, 4)]
    assert [line.split(" ")[2] for line in out[1:-2]] == keys
    pattern = re.compile(
        r"  \(\d,\d,\d\) changed note: value (\S+) -> \1, abs_error (\S+) -> \2, "
        r"\|delta value\| 0 = 0 of abs_error"
    )
    assert all(pattern.fullmatch(line) for line in out[1:-2])


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
    pattern = re.compile(
        r"  \(2,1,2,-?\d+,-?\d+\) changed [a-z_, ]+: value (\S+) -> (\S+), abs_error (\S+) -> \3, "
        r"\|delta value\| (\S+) = \S+ of abs_error(; STATUS pass -> fail)?"
    )
    matches = [pattern.fullmatch(line) for line in out[1:-2]]
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
