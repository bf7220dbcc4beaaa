"""Exports stay in step with the code: every name in a module's __all__
exists and star-imports, and every name the package imports is listed in the
__all__ of the module it comes from."""

import ast
import importlib
from pathlib import Path

import pytest

import digitseq

PACKAGE = Path(digitseq.__file__).resolve().parent
MODULES = {path.stem: importlib.import_module(f"digitseq.{path.stem}")
           for path in sorted(PACKAGE.glob("*.py")) if not path.stem.startswith("_")}
EXPORTING = sorted(name for name, module in MODULES.items() if hasattr(module, "__all__"))


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_exist_and_star_import(name):
    exported = MODULES[name].__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    namespace: dict = {}
    exec(f"from digitseq.{name} import *", namespace)
    assert set(exported) <= namespace.keys()


def _package_imports() -> list[tuple[str, str]]:
    """(module, name) for every `from .module import name` in __init__.py."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_imports_only_exported_names():
    imports = _package_imports()
    assert imports
    stale = [f"{module}.{name}" for module, name in imports
             if name not in getattr(MODULES[module], "__all__", ())]
    assert stale == []
