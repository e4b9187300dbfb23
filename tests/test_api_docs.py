"""The README's API table and ``domcount.__all__`` name only what exists,
and the package exports no function that is neither documented nor
called."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import domcount

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "domcount"


def key_function_rows() -> list[tuple[str, list[str]]]:
    """(module, names) for each row of the README "Key functions by module"
    table; a name is the first word of each backticked entry."""
    text = README.read_text(encoding="utf-8")
    table = text.split("Key functions by module:", 1)[1].strip().split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines()[2:]:  # skip the header and rule rows
        module, contents = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((module.strip("`"), re.findall(r"`(\w+)", contents)))
    return rows


ROWS = key_function_rows()


def test_readme_table_is_found():
    assert ROWS and all(names for _, names in ROWS)


@pytest.mark.parametrize("module, names", ROWS, ids=[module for module, _ in ROWS])
def test_readme_key_functions_exist(module, names):
    loaded = importlib.import_module(module)
    assert [name for name in names if not hasattr(loaded, name)] == []


def test_readme_module_references_import():
    """Every `domcount.<module>` the README names can be imported."""
    named = set(re.findall(r"`(domcount\.\w+)`", README.read_text(encoding="utf-8")))
    missing = []
    for module in sorted(named):
        try:
            importlib.import_module(module)
        except ImportError:
            missing.append(module)
    assert named and missing == []


def test_all_names_resolve():
    assert [name for name in domcount.__all__ if not hasattr(domcount, name)] == []


def _calls(node, enclosing=()):
    """Names called under ``node``, except a function's calls to itself."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, enclosing + (child.name,))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name and name not in enclosing:
                yield name
        yield from _calls(child, enclosing)


def test_every_exported_function_is_documented_or_called():
    documented = {name for _, names in ROWS for name in names}
    called = {
        name
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for name in _calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    functions = [
        name for name in domcount.__all__
        if inspect.isfunction(getattr(domcount, name))
    ]
    assert [n for n in functions if n not in documented | called] == []
