"""Module layout: no charquo module imports a private (_-prefixed, not
dunder) name from a sibling module; what is shared is public in its one
owner."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "charquo"


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "charquo"
        if sibling:
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    yield f"{path.name}:{node.lineno} imports {name} " \
                          f"from {'.' * node.level}{node.module or ''}"


def test_no_private_cross_module_imports():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = [hit for path in modules for hit in _private_imports(path)]
    assert not found, "\n".join(found)


def test_no_asserts_in_package():
    # python -O strips assert statements; every check in the package
    # must be an explicit raise
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements: " + ", ".join(found)
