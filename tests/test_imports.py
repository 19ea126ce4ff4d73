"""Import lint: every name a package module imports is used there, the
package's own imports are exactly its `__all__`, and the package imports no
scipy module but the ones it is allowed."""

import ast
import importlib.util
from pathlib import Path

import pytest

import wassprop

PACKAGE = Path(wassprop.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
# scipy.sparse holds every sparse matrix and scipy.linalg the dense Cholesky
# solve; the spectral gap's Lanczos and the CG solve are numpy code, so no
# command pays the start-up of scipy.sparse.linalg
ALLOWED_SCIPY = ("scipy.sparse", "scipy.linalg")


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


def _scipy_modules(tree: ast.Module):
    """Each scipy submodule an import statement loads, anywhere in the
    module: `from m import name` loads m, and m.name too when that is a
    module.  The top-level package is loaded by every submodule, so it is
    left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy":
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names
                                     if importlib.util.find_spec(f"{node.module}.{alias.name}")]
        else:
            continue
        yield from (name for name in names if name.startswith("scipy."))


def test_scipy_lint_sees_every_import_form():
    source = ("import scipy.sparse.linalg as spla\nfrom scipy.sparse import linalg, csr_matrix\n"
              "from scipy import stats\nimport scipy\nimport scipy.sparse as sp\n")
    assert list(_scipy_modules(ast.parse(source))) == [
        "scipy.sparse.linalg", "scipy.sparse", "scipy.sparse.linalg", "scipy.stats", "scipy.sparse"]


@pytest.mark.parametrize("module", MODULES)
def test_only_allowed_scipy_modules(module):
    banned = sorted(set(_scipy_modules(_parse(module))) - set(ALLOWED_SCIPY))
    assert not banned, f"{module} imports {banned}; the package may import only {ALLOWED_SCIPY}"
