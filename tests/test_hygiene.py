"""Static checks over the package source, stdlib only: no module-level import
goes unread, and no private module-level name goes unreferenced, so code
that no caller needs shows up as a failure here."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chowreg"
# __init__.py only re-exports the public names
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _references(tree):
    """Every name a module reads, as a bare name, as an attribute or in an
    import."""
    refs = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _defined(node):
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AnnAssign,
                                                       ast.AugAssign))
               else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    tree = _tree(path)
    loaded = _loaded_names(tree)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    assert [name for name in bound if name not in loaded] == []


def test_every_private_module_level_name_is_referenced():
    trees = {path: _tree(path) for path in MODULES}
    refs = set().union(*map(_references, trees.values()))
    unused = [f"{path.name}:{name}" for path in MODULES
              for node in trees[path].body for name in _defined(node)
              if name.startswith("_") and not name.startswith("__")
              and name not in refs]
    assert unused == []
