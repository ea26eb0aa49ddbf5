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

    # A changed note in the theorem2 rows changes both of its reports, and only those.
    other = _copy_tree(tmp_path / "other")
    path = other / "src" / "wavebounds" / "bernstein.py"
    text = path.read_text()
    assert text.count("carries the asymptotic slack factor") == 1
    path.write_text(text.replace("carries the asymptotic slack factor", "carries a slack factor"))
    assert report_digest.main([str(_ROOT), str(other), "--checks", *CHECKS]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in out[:-1]] == ["theorem2.csv", "theorem2.json"]
    assert out[-1] == "2 of 4 reports identical"


def test_a_tree_without_the_library_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="has no src/wavebounds"):
        report_digest.main([str(_ROOT), str(tmp_path)])
