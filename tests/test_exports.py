"""Exports stay in step with the code: every name in a module's __all__
exists and star-imports, every name the package imports is listed in the
__all__ of the module it comes from, and every exported function and method
runs in some golden case, so code no subcommand reaches cannot pile up."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import digitseq
from digitseq.cli import dispatch
from test_cli_golden import CASES

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


# Exported functions no golden case calls, each with its reason to stay.
UNREACHED = {
    "expsums.window_exp_sum": "perfbench traces it as the window-sum span",
    "sequences.GrowthFunction.floor_exact": "perfbench traces it as the floor_exact span",
    "digits.digit_sum": "scalar oracle of digit_sum_array",
    "digits.zeckendorf_digit_sum": "scalar oracle of zeckendorf_digit_sum_array",
    "digits.thue_morse_sign": "scalar oracle of thue_morse_sign_array; perfbench "
                              "checks its traced signs against it",
    "digits.fibonacci": "scalar oracle of the Fibonacci table",
    "sequences.beatty_floor": "runs only when a Beatty floor is a near-tie",
}


def _exported_functions() -> dict[str, object]:
    """Code objects of every function in a module's __all__ and of every
    method its exported classes define in the source (generated dataclass
    methods excluded), keyed module.name or module.Class.method."""
    out = {}
    for stem, module in MODULES.items():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                members = {f"{name}.{attr}": value for attr, value in vars(obj).items()}
            else:
                members = {name: obj}
            for label, value in members.items():
                # the function behind a classmethod, property or cached_property
                value = (getattr(value, "__func__", None) or getattr(value, "fget", None)
                         or getattr(value, "func", None) or value)
                if inspect.isfunction(value) and value.__code__.co_filename == module.__file__:
                    out[f"{stem}.{label}"] = value.__code__
    return out


def test_every_exported_function_runs_in_a_golden_case(tmp_path):
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        for argv in CASES.values():
            for fmt in ("csv", "json"):
                assert dispatch([*argv, "--format", fmt, "--threads", "1",
                                 "--out", str(tmp_path / "out")]) == 0
    finally:
        sys.setprofile(None)
    functions = _exported_functions()
    unreached = sorted(label for label, code in functions.items() if code not in called)
    assert [label for label in unreached if label not in UNREACHED] == []
    assert sorted(set(UNREACHED) - set(functions)) == []
