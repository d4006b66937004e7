"""Module layout: no charquo module imports a private (_-prefixed, not
dunder) name from a sibling module; what is shared is public in its one
owner."""

import ast
import importlib
import inspect
import types
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


def _definitions(path):
    """(name, first line, last line) of every function, class and method
    in a module, dunders left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno, node.end_lineno


def _references(path):
    """(name, line) of every use of a name in a module: plain names,
    attributes, imported names and string constants (monkeypatch
    targets)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_no_unreferenced_definitions():
    # a definition counts as used only when its name appears in src/ or
    # tests/ outside its own body, so dead helpers (recursive ones too)
    # are caught
    files = sorted(SRC.glob("*.py")) + sorted((SRC.parent.parent / "tests").glob("*.py"))
    uses = {}
    for path in files:
        for name, line in _references(path):
            uses.setdefault(name, []).append((path, line))
    found = [f"{path.name}:{first} {name}"
             for path in sorted(SRC.glob("*.py"))
             for name, first, last in _definitions(path)
             if not any(where != path or not first <= line <= last
                        for where, line in uses.get(name, ()))]
    assert not found, "unreferenced definitions: " + ", ".join(found)


def _computed_steps(path):
    """(line, call) of every range() call in a module whose step is not
    a literal."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "range" and len(node.args) == 3):
            try:
                ast.literal_eval(node.args[2])
            except ValueError:
                yield node.lineno, ast.unparse(node)


def test_slice_sizes_only_in_numutil():
    # a loop that steps by a computed size is a slice loop, and
    # numutil.slices owns slice sizes (SLICE_ENTRIES); literal steps,
    # such as range(0, 16, 4) or a countdown by -1, are not slice sizes
    found = [f"{path.name}:{line} {call}" for path in sorted(SRC.glob("*.py"))
             if path.stem != "numutil" for line, call in _computed_steps(path)]
    assert not found, "range() with a computed step outside numutil: " + ", ".join(found)


def _is_dataclass(node):
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(dec, "id", None) == "dataclass" or getattr(dec, "attr", None) == "dataclass":
            return True
    return False


def _dataclass_fields(path):
    """(class, field, line) of every annotated field of a dataclass."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id, stmt.lineno


def test_no_unread_dataclass_fields():
    # the rule of test_no_unreferenced_definitions for dataclass fields:
    # a field counts as read only when its name appears in src/ or tests/
    # outside its own declaration, so a field that is only ever filled in
    # is caught
    files = sorted(SRC.glob("*.py")) + sorted((SRC.parent.parent / "tests").glob("*.py"))
    uses = {}
    for path in files:
        for name, line in _references(path):
            uses.setdefault(name, []).append((path, line))
    found = [f"{path.name}:{line} {cls}.{name}"
             for path in sorted(SRC.glob("*.py"))
             for cls, name, line in _dataclass_fields(path)
             if not any((where, at) != (path, line) for where, at in uses.get(name, ()))]
    assert not found, "unread dataclass fields: " + ", ".join(found)


def test_exception_taxonomy():
    # the command line maps an exception to its exit code by base class:
    # ValueError 1, BudgetError 2, ArithmeticError 3; a class outside
    # these would reach the user as a traceback
    from charquo.numutil import BudgetError
    bases = (ValueError, BudgetError, ArithmeticError)
    classes = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "charquo" if path.stem == "__init__" else f"charquo.{path.stem}")
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
    assert len(classes) > 5
    found = [f"{cls.__module__}.{cls.__name__}" for cls in classes
             if sum(issubclass(cls, base) for base in bases) != 1]
    assert not found, "exceptions outside the exit-code taxonomy: " + ", ".join(found)


PERFBENCH = SRC.parent.parent / "perfbench"
MISSING = object()


def _resolve(node, env):
    """The object an expression names, from the charquo names bound in
    env: a name, an attribute of a resolved object (MISSING when absent),
    or a call of a resolved function (its return annotation)."""
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, env)
        return None if owner in (None, MISSING) else getattr(owner, node.attr, MISSING)
    if isinstance(node, ast.Call):
        fn = _resolve(node.func, env)
        if callable(fn):
            return inspect.signature(fn, eval_str=True).return_annotation
    return None


def _hook_targets(path):
    """(line, text, resolved) of every charquo attribute a perfbench
    file reads and of every tracer target w(owner, "name", ...) in it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    nodes = sorted((n for n in ast.walk(tree) if hasattr(n, "lineno")),
                   key=lambda n: (n.lineno, n.col_offset))
    env = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            env.update({a.asname or a.name: importlib.import_module(a.name)
                        for a in node.names if a.name.split(".")[0] == "charquo"})
        elif isinstance(node, ast.ImportFrom) and node.module == "charquo":
            env.update({a.asname or a.name: importlib.import_module(f"charquo.{a.name}")
                        for a in node.names})
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            value = _resolve(node.value, env)
            if value not in (None, MISSING):
                env[node.targets[0].id] = value
    for node in nodes:
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(_resolve(node.value, env), types.ModuleType)):
            yield node.lineno, ast.unparse(node), _resolve(node, env)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "w"):
            owner, attr = node.args[0], node.args[1].value
            target = _resolve(owner, env)
            resolved = (MISSING if target in (None, MISSING)
                        else getattr(target, attr, MISSING))
            yield node.lineno, f"{ast.unparse(owner)}.{attr}", resolved


def test_benchmark_hooks_resolve():
    # the benchmark's tracer wraps charquo functions by name, its child
    # calls them by name and its output checks revalidate with permgrp
    # by name: a renamed or deleted one must fail here, not only inside
    # a benchmark run
    found, checked = [], 0
    for name in ("tracing.py", "child.py", "checks.py"):
        for line, text, resolved in _hook_targets(PERFBENCH / name):
            checked += 1
            if resolved is MISSING:
                found.append(f"{name}:{line} {text}")
    assert checked > 30
    assert not found, "benchmark hooks that do not resolve: " + ", ".join(found)
