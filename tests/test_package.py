import ast
from pathlib import Path

import evenpairs


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
