"""Design rule: no library module imports another module's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavebounds"


def test_no_private_cross_module_imports():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources found under {PACKAGE}"
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "wavebounds"
            for alias in node.names:
                if internal and alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert not offenders, "private cross-module imports: " + ", ".join(offenders)
