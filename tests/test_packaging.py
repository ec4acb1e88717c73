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


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(path):
    """Private names of other ``mmfnd`` modules that a module reads:
    ``alias._name`` on a module it imported, or ``from .module import _name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "mmfnd"):
            for alias in node.names:
                if node.module in (None, "mmfnd"):
                    modules.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    reads.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and _is_private(node.attr):
                reads.append(f"{node.value.id}.{node.attr}")
    return reads


def test_no_module_reads_a_private_name_of_another():
    """A module that needs another's private kernel is a second code path
    in the making: what one module shares with another is public."""
    reads = {m: _private_reads(PACKAGE / f"{m}.py") for m in MODULES}
    assert {m: r for m, r in reads.items() if r} == {}


def _private_definitions(tree):
    """(name, node) of each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if _is_private(name))


def _reads(node, name):
    return (
        (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    )


def test_every_private_module_name_has_a_reader_in_the_package():
    """A private helper or constant that nothing in ``src/mmfnd`` reads,
    apart from its own definition, is dead code left behind by a change."""
    trees = [ast.parse((PACKAGE / f"{m}.py").read_text(encoding="utf-8")) for m in MODULES]
    unread = []
    for module, tree in zip(MODULES, trees):
        for name, definition in _private_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(id(node) not in own and _reads(node, name) for t in trees for node in ast.walk(t)):
                unread.append(f"{module}.{name}")
    assert unread == []


def _unread_imports(path):
    """Names a module imports but never reads; ``from __future__`` imports
    are directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_every_import_is_read_in_its_module():
    """A change that deletes the last use of a name should delete its import."""
    unread = {m: _unread_imports(PACKAGE / f"{m}.py") for m in ["__init__", *MODULES]}
    assert {m: names for m, names in unread.items() if names} == {}
