"""Design rules of the library modules.

No module imports another module's private names, the unit roundoff and
gamma_n are defined in special_math alone, only norms knows the tail cutoff,
the (m, k, p) domain is checked in special_math alone, and one spectral_eval
function runs every truncated product and every factor call; norms hands
its quadrature integrand to adaptive_quadrature and never calls it itself,
and evaluates |psi_hat|^2 only through its memo.
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


def test_tail_cutoff_known_to_norms_alone():
    # The package __init__ only re-exports it.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("norms.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name == "DEFAULT_OMEGA_MAX":
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, "DEFAULT_OMEGA_MAX outside norms: " + ", ".join(offenders)


def test_norm_domain_checked_in_special_math_alone():
    holders = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if "p must lie in (1, inf)" in path.read_text()
    )
    assert holders == ["special_math.py"]


def test_one_truncated_product_in_spectral_eval():
    path = PACKAGE / "spectral_eval.py"
    callers = set()
    for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and ast.unparse(node) in (
                "np.prod",
                "np.multiply.outer",
            ):
                callers.add(func.name)
    assert callers == {"_truncated_product"}


def test_factor_functions_called_in_the_truncated_product_alone():
    # spectral_eval hands eval_H and magnitude_squared_H to _truncated_product,
    # whose one factor call also evaluates the band factor.
    path = PACKAGE / "spectral_eval.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    factors = ("eval_H", "magnitude_squared_H")
    handed = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "_truncated_product":
            handed.update(id(node) for arg in call.args for node in ast.walk(arg))
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in factors]
    stray = [f"{node.id} at line {node.lineno}" for node in uses if id(node) not in handed]
    assert uses and not stray, "factor calls outside _truncated_product: " + ", ".join(stray)


def test_norm_integrand_called_by_the_quadrature_alone():
    path = PACKAGE / "norms.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    handed = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "adaptive_quadrature":
            handed.update(id(arg) for arg in call.args)
    uses = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "integrand" and isinstance(node.ctx, ast.Load)
    ]
    stray = [f"line {node.lineno}" for node in uses if id(node) not in handed]
    assert uses and not stray, "integrand used outside adaptive_quadrature: " + ", ".join(stray)


def test_norms_evaluates_abs2_only_through_its_memo():
    tree = ast.parse((PACKAGE / "norms.py").read_text())
    memo = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "_Abs2Memo"
    )
    inside = {id(node) for node in ast.walk(memo)}
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "wavelet_hat_abs2"
    ]
    assert calls, "norms.py no longer calls wavelet_hat_abs2"
    outside = [node.lineno for node in calls if id(node) not in inside]
    assert not outside, f"norms.py calls wavelet_hat_abs2 outside _Abs2Memo at lines {outside}"
