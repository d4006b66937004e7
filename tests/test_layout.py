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


PROCESS_CALLS = {"fork", "forkpty", "posix_spawn", "system", "wait", "wait3", "wait4",
                 "waitpid", "_exit"}
PROCESS_MODULES = {"multiprocessing", "subprocess"}


def _process_uses(tree):
    """(line, text) of every os process call and every use or import of
    multiprocessing or subprocess in a module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
                and getattr(node.value, "id", None) == "os"):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.Name) and node.id in PROCESS_MODULES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in PROCESS_MODULES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            names = {alias.name for alias in node.names}
            if root in PROCESS_MODULES or (root == "os" and names & PROCESS_CALLS):
                yield node.lineno, f"from {node.module} import {', '.join(sorted(names))}"


def test_processes_only_in_numutil_side_job():
    # a child process is started, waited for and ended in one place,
    # numutil.SideJob, which reaps every child it starts
    found, allowed = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        helper = None
        if path.stem == "numutil":
            helper = next(node for node in ast.walk(tree)
                          if isinstance(node, ast.ClassDef) and node.name == "SideJob")
        for line, text in _process_uses(tree):
            if helper is not None and helper.lineno <= line <= helper.end_lineno:
                allowed.add(text)
            else:
                found.append(f"{path.name}:{line} {text}")
    assert not found, "process calls outside numutil.SideJob: " + ", ".join(found)
    assert allowed == {"os.fork", "os.waitpid", "os._exit"}


def test_unchecked_gathers_only_in_permgrp_gather():
    # np.take(..., mode="clip") clips an index out of range instead of
    # refusing it; the one unchecked gather is permgrp._gather, whose
    # docstring states the precondition its callers keep (indices from
    # permutations that check_perm accepted).  A mode= that is not the
    # literal "raise" counts as unchecked, a computed one too.
    found, allowed, doc = [], 0, ""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        gather = None
        if path.stem == "permgrp":
            gather = next(node for node in ast.walk(tree)
                          if isinstance(node, ast.FunctionDef) and node.name == "_gather")
            doc = ast.get_docstring(gather)
        for node in ast.walk(tree):
            if (isinstance(node, ast.keyword) and node.arg == "mode"
                    and not (isinstance(node.value, ast.Constant) and node.value.value == "raise")):
                line = node.value.lineno
                if gather is not None and gather.lineno <= line <= gather.end_lineno:
                    allowed += 1
                else:
                    found.append(f"{path.name}:{line} mode={ast.unparse(node.value)}")
    assert not found, "unchecked gathers outside permgrp._gather: " + ", ".join(found)
    assert allowed == 1 and "Precondition: every entry of idx is below len(a)" in doc


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


def _reach(module, start, names):
    """Walk the module-level functions of charquo.<module> from those in
    start through every function each one names.  Returns the functions
    reached and "module.function:line name" for each use of a name in
    names (whose functions are not walked on)."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo, found = set(), list(start), []
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            used = getattr(node, "id", None) or getattr(node, "attr", None)
            if used in names:
                found.append(f"{module}.{name}:{node.lineno} {used}")
            elif used in functions:
                todo.append(used)
    return reached, found


ENGINE = {"enumerate_orbit", "apply_letter_np", "fast_keys", "make_checker",
          "verify_edges", "epsilon_perm"}
TRACE_KEY = {"canon_keys_np", "trace_coords"}


def test_oracles_use_neither_the_engine_nor_the_trace_key():
    # the X-class and exact-key oracles check the orbit engine and the
    # injectivity of the trace key, so no witness function that they
    # reach may name an engine function or the trace key
    reached, found = _reach("witness", ["enumerate_x_classes", "orbit_exact_keys"],
                            ENGINE | TRACE_KEY)
    assert {"_exact_keys_np", "_list_pairs", "_rebuild_rows", "_m2_representatives"} <= reached
    assert not found, "oracle code naming the engine or the trace key: " + ", ".join(found)


def test_search_helper_calls_nothing_the_tracer_wraps():
    # perfbench's Tracer keeps one span stack for all threads, so the
    # helper thread of permgrp._first_hit may call no function that
    # tracing.py wraps: no permgrp function it reaches names one
    wrapped = {obj.__name__ for _, _, obj in _hook_targets(PERFBENCH / "tracing.py")
               if inspect.isfunction(obj)}
    reached, found = _reach("permgrp", ["_first_hit"], wrapped)
    assert {"cycle_lengths", "sign", "is_transitive", "revalidate"} <= wrapped
    assert {"_window_cycle", "_word_perm", "_cycle_labels", "_power", "_gather"} <= reached
    assert not found, "search code naming a traced function: " + ", ".join(found)


def test_bfs_names_no_exact_checker():
    # the BFS only enumerates: verify_edges checks its edges, so no orbit
    # function that enumerate_orbit reaches names the exact checker
    reached, found = _reach("orbit", ["enumerate_orbit"],
                            {"make_checker", "_ExactChecker", "equivalent"})
    assert {"_expand", "_letter_perms", "validate_start", "_on_x_mask"} <= reached
    assert not found, "BFS code naming the exact checker: " + ", ".join(found)


def test_pipeline_never_counts():
    # |X| in a report is witness.x_size, a theorem: the O(p^5) scan
    # count_x stays the count subcommand's, so no witness function that
    # run_pipeline reaches names it
    reached, found = _reach("witness", ["run_pipeline"], {"count_x"})
    assert {"build", "check_assumptions"} <= reached
    assert not found, "pipeline code naming count_x: " + ", ".join(found)


def test_budget_rule_only_in_check_budget():
    # n <= x_size(p) is known before the BFS, so check_budget is the one
    # size rule of the orbit engine: orbit.py raises BudgetError nowhere
    # else, enumerate_orbit calls it for every caller, and run_pipeline
    # does not call it again
    tree = ast.parse((SRC / "orbit.py").read_text())
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "check_budget")
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and "BudgetError" in ast.unparse(node.exc)]
    found = [f"orbit.py:{node.lineno}" for node in raises
             if not rule.lineno <= node.lineno <= rule.end_lineno]
    assert len(raises) > len(found)
    assert not found, "BudgetError raised outside check_budget: " + ", ".join(found)
    assert "check_budget" in _reach("orbit", ["enumerate_orbit"], set())[0]
    _, found = _reach("witness", ["run_pipeline"], {"check_budget"})
    assert not found, "run_pipeline calls check_budget: " + ", ".join(found)


def test_no_array_resize():
    # ndarray.resize(refcheck=False) moves an array under any view of it;
    # the BFS sizes its buffers once from x_size(p) instead
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "resize"]
    assert not found, "resize calls: " + ", ".join(found)
