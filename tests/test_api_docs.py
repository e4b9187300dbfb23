"""The README's API table and ``domcount.__all__`` name only what exists."""

import importlib
import re
from pathlib import Path

import pytest

import domcount

README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_all_names_resolve():
    assert [name for name in domcount.__all__ if not hasattr(domcount, name)] == []
