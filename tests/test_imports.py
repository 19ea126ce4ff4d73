"""Import lint: every name a package module imports is used there, and the
package's own imports are exactly its `__all__`."""

import ast
from pathlib import Path

import pytest

import wassprop

PACKAGE = Path(wassprop.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def _imported_names(tree: ast.Module):
    """Each name an import statement binds, anywhere in the module, except
    `from __future__` features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_every_imported_name_is_used(module):
    tree = _parse(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{module} imports names it does not use: {unused}"


def test_package_imports_are_its_all():
    tree = _parse("__init__.py")
    imported = list(_imported_names(tree))
    assert len(imported) == len(set(imported))
    assert sorted(imported) == sorted(wassprop.__all__)
