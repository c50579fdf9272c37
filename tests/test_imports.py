"""Import rules of the package, read off its source with ast: sympy is a
test-only dependency, so no module of src/rorc imports it, and the exact
layer (matrices.py) stays an independent oracle for the mod-p kernels, so it
does not import _kernels."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rorc"


def _imported(path: Path) -> set[str]:
    """The dotted names a module imports: each imported module, and for a
    from-import each ``module.name``, relative ones with their leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names.add(module)
            names.update(f"{module.rstrip('.')}.{alias.name}" for alias in node.names)
    return names


def test_no_module_imports_sympy():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "matrices.py" in modules
    for path in modules:
        roots = {name.split(".")[0] for name in _imported(path)}
        assert "sympy" not in roots, path.name


def test_exact_layer_does_not_import_the_kernels():
    def parts(module):
        return {part for name in _imported(SRC / module) for part in name.split(".")}

    assert "_kernels" in parts("strata.py")     # the rule sees a relative import
    assert "_kernels" not in parts("matrices.py")
