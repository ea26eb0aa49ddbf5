"""Design rules of the library modules.

No module imports another module's private names, the unit roundoff and
gamma_n are defined in special_math alone, only norms knows the tail cutoff,
the (m, k, p) domain and the order range are checked in special_math alone,
no module imports fractions, and one spectral_eval function runs every
truncated product and every factor call; norms hands its quadrature
integrand to adaptive_quadrature and never calls it itself, and evaluates
|psi_hat|^2 only through its memo; the CLI builds no sweep case of its own;
norms takes the rule's node count from quadrature, which keeps each
integrand's number type; and every public top-level name is used by other
library code or exported.
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
    for message in ("p must lie in (1, inf)", "the order must satisfy"):
        holders = sorted(path.name for path in PACKAGE.glob("*.py") if message in path.read_text())
        assert holders == ["special_math.py"], message


def test_no_module_imports_fractions():
    # Integer true division rounds correctly, as Fraction.__float__ does.
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "fractions" in names:
                importers.append(f"{path.name}:{node.lineno}")
    assert not importers, "fractions imported at " + ", ".join(importers)


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
    # spectral_eval hands eval_H and magnitude_squared_rows to _truncated_product,
    # whose one factor call also evaluates the band factor.
    path = PACKAGE / "spectral_eval.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    factors = ("eval_H", "magnitude_squared_rows")
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


def test_cli_builds_no_sweep_case():
    # The grid functions in bernstein are the one declaration of a grid: the
    # CLI hands them its flags and lists no case of its own. A case is a dict
    # with an "m" key in a list or a comprehension; the one-record outputs of
    # filters, decay and bounds stand alone.
    path = PACKAGE / "cli.py"
    cases = [
        element.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.List, ast.ListComp, ast.GeneratorExp, ast.SetComp))
        for element in (node.elts if isinstance(node, ast.List) else [node.elt])
        if isinstance(element, ast.Dict)
        and any(isinstance(key, ast.Constant) and key.value == "m" for key in element.keys)
    ]
    assert not cases, f"cli.py builds sweep cases at lines {cases}"


def test_node_count_stated_in_quadrature_alone():
    # norms reads the Gauss-Kronrod rule's node count for its memo rows and
    # writes no 15 of its own.
    tree = ast.parse((PACKAGE / "norms.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "quadrature"
        for alias in node.names
    }
    assert "NODES_PER_PANEL" in imported
    fifteens = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 15
    ]
    assert not fifteens, f"norms.py writes the node count 15 at lines {fifteens}"


def test_quadrature_keeps_the_integrand_type():
    # A real integrand gives float panels and a complex one complex panels:
    # quadrature.py converts no values with astype.
    path = PACKAGE / "quadrature.py"
    casts = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "astype"
    ]
    assert not casts, f"quadrature.py calls astype at lines {casts}"


def _named(node: ast.AST) -> str | None:
    """The name a Name, an Attribute or an import alias refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_every_public_definition_is_used_or_exported():
    # A public top-level function or class is named by other library code (a
    # name, an attribute or an import outside its own definition) or is
    # listed in the package's __all__.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    exported = {
        element.value
        for node in trees["__init__.py"].body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for element in node.value.elts
    }
    unused = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            if definition.name.startswith("_") or definition.name in exported:
                continue
            inside = {id(node) for node in ast.walk(definition)}
            uses = [
                node
                for other in trees.values()
                for node in ast.walk(other)
                if _named(node) == definition.name and id(node) not in inside
            ]
            if not uses:
                unused.append(f"{module}:{definition.lineno} {definition.name}")
    assert not unused, "public names no library code uses or exports: " + ", ".join(unused)


def test_bernstein_reads_the_taps_in_one_place():
    # Every number the pyramid takes from the taps comes from the integers of
    # _moment_integers, through the per-order table: every order that
    # check_norm_domain admits has taps, so no other function needs them.
    tree = ast.parse((PACKAGE / "bernstein.py").read_text())
    readers = []
    for definition in tree.body:
        for node in ast.walk(definition):
            if isinstance(node, ast.Name) and node.id == "construct_filter":
                readers.append(getattr(definition, "name", f"line {definition.lineno}"))
    assert readers == ["_moment_integers"], readers
