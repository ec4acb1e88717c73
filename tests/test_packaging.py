import ast
import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import mmfnd

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PACKAGE = Path(mmfnd.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def test_every_console_script_target_imports():
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    """An import cycle fails only when one of its modules is imported first,
    so each module gets an interpreter of its own. Warnings are errors there,
    as they are in the test run."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import mmfnd.{module}"], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr


def _identifiers(path):
    """Every name a module uses: bare names, attribute names and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_tensor_function_has_a_caller_in_another_module():
    """An op that only the tests use belongs in the tests, not in the package."""
    tree = ast.parse((PACKAGE / "tensor.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set().union(*(_identifiers(PACKAGE / f"{m}.py") for m in MODULES if m != "tensor"))
    assert public and sorted(public - used) == []
