import ast
import inspect
import subprocess
import sys
from pathlib import Path

import evenpairs

SOURCES = sorted(Path(evenpairs.__file__).parent.glob("*.py"))


def _public_names_bound_in_init():
    """The public names the package's ``__init__.py`` binds by import or
    assignment; the submodules themselves are not among them."""
    tree = ast.parse(Path(evenpairs.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_names_the_public_surface_once():
    exported = evenpairs.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(evenpairs, name), name
    assert set(exported) == _public_names_bound_in_init()


def test_no_cross_check_raises_a_bare_assertion():
    # every failed internal cross-check raises TheoremContradictionError,
    # the one exception the CLI maps to exit 3; an ``assert`` would also
    # vanish under ``python -O``
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert len(SOURCES) > 10 and found == []


def test_no_module_imports_dataclasses_or_typing():
    # result classes are plain ``_Record`` values: a dataclass execs its
    # generated methods again in every process that imports it
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in modules
                      if m.split(".")[0] in ("dataclasses", "typing")]
    assert len(SOURCES) > 10 and found == []


def _loaded_by_cli_import(modules):
    """Which of ``modules`` a fresh ``import evenpairs.cli`` loads; -S keeps
    site .pth hooks, which may preload some of them, out of it."""
    src = str(Path(evenpairs.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import evenpairs.cli; "
            "print(*sorted(set(sys.argv[2:]) & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, src, *modules],
                         capture_output=True, text=True, check=True)
    return run.stdout.split()


def test_cli_import_loads_neither_dataclasses_nor_typing():
    assert _loaded_by_cli_import(["dataclasses", "typing"]) == []


def test_cli_import_loads_neither_the_corpus_nor_random():
    # only verify needs the instance generators, and they alone need random
    assert _loaded_by_cli_import(["evenpairs.corpus", "random"]) == []


# Public names that no library module, demo or benchmark refers to, each
# with the reason it stays public.
UNREFERENCED_PUBLIC_NAMES = {
    "induced": "the paper's induced-subtrigraph operation, which the tests use",
}


def _referenced_names(paths):
    """The names the code of ``paths`` refers to, by a name, an attribute or
    an import; a docstring or other string mentions nothing."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def _paths_outside_the_tests():
    """The library modules but ``__init__.py``, the demos and the benchmark."""
    root = Path(__file__).resolve().parents[1]
    return ([p for p in SOURCES if p.name != "__init__.py"]
            + sorted((root / "demos").glob("*.py"))
            + sorted((root / "perfbench").glob("*.py")))


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public name that only the tests use is dead surface: delete it, or
    # list it above with its reason
    unreferenced = set(evenpairs.__all__) - _referenced_names(_paths_outside_the_tests())
    assert unreferenced == set(UNREFERENCED_PUBLIC_NAMES)


# Defaulted public parameters that no library module, demo or benchmark
# varies, each with the reason it stays.
UNVARIED_PUBLIC_PARAMETERS = {
    ("components", "X"): "the bipartition-scan tests use components as their "
                         "definition-level reference, on subsets and in both modes",
    ("components", "mode"): "the same reference, for anticonnectivity",
}


def _calls_by_name(paths):
    """The calls in ``paths``, by the name they call, whether a bare name
    or an attribute."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    calls.setdefault(name, []).append(node)
    return calls


def _passed(call, index, param):
    """What ``call`` passes for ``param``, the index-th parameter (None when
    it is keyword-only): None for the default, a literal's repr, or
    "varies" for any other expression or an unpacked argument list."""
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg is None for kw in call.keywords)):
        return "varies"
    expr = next((kw.value for kw in call.keywords if kw.arg == param.name), None)
    if expr is None and index is not None and index < len(call.args):
        expr = call.args[index]
    if expr is None:
        return None
    try:
        return repr(ast.literal_eval(expr))
    except ValueError:
        return "varies"


def test_every_defaulted_public_parameter_is_varied_outside_the_tests():
    # a default that no caller overrides, or a parameter that every caller
    # sets to the same literal, is one value dressed as an option: make it
    # a constant, or list it above with its reason.  Exceptions have no
    # signature of their own and are skipped.
    calls = _calls_by_name(_paths_outside_the_tests())
    unvaried = set()
    for name in evenpairs.__all__:
        obj = getattr(evenpairs, name)
        if not callable(obj):
            continue
        try:
            params = list(inspect.signature(obj).parameters.values())
        except ValueError:
            continue
        for i, param in enumerate(params):
            if param.default is param.empty:
                continue
            index = i if param.kind is param.POSITIONAL_OR_KEYWORD else None
            seen = {_passed(call, index, param) for call in calls.get(name, [])}
            if seen <= {None} or (len(seen) == 1 and not seen & {None, "varies"}):
                unvaried.add((name, param.name))
    assert unvaried == set(UNVARIED_PUBLIC_PARAMETERS)
