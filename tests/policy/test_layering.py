"""The policy package sits below the platforms, the cluster and the
autoscaler: its modules import nothing from ``repro`` except
:mod:`repro.errors` and each other.

Each module under ``src/repro/policy/`` is parsed with ``ast``, so
imports inside functions count too.
"""

import ast
import os

import pytest

import repro.policy

POLICY_DIR = os.path.dirname(repro.policy.__file__)
MODULES = sorted(name for name in os.listdir(POLICY_DIR)
                 if name.endswith(".py"))


def _allowed(module: str) -> bool:
    return (module.split(".")[0] != "repro" or module == "repro.errors"
            or module.startswith("repro.policy."))


def _imported_modules(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            yield node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name


def test_the_package_has_modules():
    assert "placement.py" in MODULES and "keepalive.py" in MODULES


@pytest.mark.parametrize("filename", MODULES)
def test_imports_stay_inside_the_policy_package(filename):
    path = os.path.join(POLICY_DIR, filename)
    outside = [module for module in _imported_modules(path)
               if not _allowed(module)]
    assert outside == [], f"{filename} imports {outside}"
