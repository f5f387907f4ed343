import ast
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
