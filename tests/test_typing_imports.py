"""Every import under ``if TYPE_CHECKING:`` in the package resolves.

Those imports never run, so nothing else notices when the module or the
name they point at moves.  Each one is found with ``ast``, then its
module is imported and the name looked up.
"""

import ast
import importlib
import importlib.util
import pkgutil

import pytest

import repro


def _typing_imports():
    """``(module, imported module, name or None)`` for every import in an
    ``if TYPE_CHECKING:`` block of the package."""
    names = ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")]
    found = []
    for name in sorted(names):
        path = importlib.util.find_spec(name).origin
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.If)
                    and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.ImportFrom):
                    found.extend((name, stmt.module, alias.name)
                                 for alias in stmt.names)
                elif isinstance(stmt, ast.Import):
                    found.extend((name, alias.name, None)
                                 for alias in stmt.names)
    return found


TYPING_IMPORTS = _typing_imports()


def test_the_package_has_typing_imports():
    assert len(TYPING_IMPORTS) > 20


@pytest.mark.parametrize(
    "importer,target,name", TYPING_IMPORTS,
    ids=[f"{importer}:{target}.{name or ''}"
         for importer, target, name in TYPING_IMPORTS])
def test_typing_import_resolves(importer, target, name):
    module = importlib.import_module(target)
    if name is None or hasattr(module, name):
        return
    # ``from package import submodule``
    importlib.import_module(f"{target}.{name}")
