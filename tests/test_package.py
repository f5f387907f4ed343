import ast
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


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public name that only the tests use is dead surface: delete it, or
    # list it above with its reason
    root = Path(__file__).resolve().parents[1]
    paths = ([p for p in SOURCES if p.name != "__init__.py"]
             + sorted((root / "demos").glob("*.py"))
             + sorted((root / "perfbench").glob("*.py")))
    unreferenced = set(evenpairs.__all__) - _referenced_names(paths)
    assert unreferenced == set(UNREFERENCED_PUBLIC_NAMES)
