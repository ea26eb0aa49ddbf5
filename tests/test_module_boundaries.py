"""Design rules of the library modules.

No module imports another module's private names, and the unit roundoff and
gamma_n are defined in special_math alone.
"""

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


def _is_unit_roundoff(node: ast.AST) -> bool:
    """2**-53 or 2.0**-53, however parenthesized."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 2
        and isinstance(node.right, ast.UnaryOp)
        and isinstance(node.right.op, ast.USub)
        and isinstance(node.right.operand, ast.Constant)
        and node.right.operand.value == 53
    )


def test_rounding_constants_defined_once():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "special_math.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if _is_unit_roundoff(node):
                offenders.append(f"{path.name}:{node.lineno} writes 2**-53")
            if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") in ("gamma", "gamma_n"):
                offenders.append(f"{path.name}:{node.lineno} defines {node.name}")
    assert not offenders, "use special_math.UNIT_ROUNDOFF and gamma_n: " + ", ".join(offenders)
