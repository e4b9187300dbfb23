"""Mutation ledger: each row breaks one rule of the package on purpose and
names the tests that must catch it.

    python tests/mutants.py          # every row
    python tests/mutants.py 0 3      # rows 0 and 3

For each row the script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, replaces the row's old text in its file (where
it must occur exactly once) by the new text, runs ``pytest -x`` there on the
row's test files or node ids, and prints one JSON line: the row, whether
the mutant was ``killed`` (pytest failed) or ``survived``, and the
seconds.  The exit code is 1 when a mutant survived.  A survivor is a rule
that no test guards: it needs a test that fails on the mutant, never the
removal of its row.

pytest does not collect this script; ``tests/test_mutants.py`` checks only
that every row's old text occurs exactly once in its file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/domcount, exact old text, new text, tests that must fail)
ROWS = [
    # graph6_cuts cuts the stream at whole base64 quads
    ("graph6.py", "cut = width - width % 24", "cut = width",
     ["tests/test_graph6.py::TestWriterCuts"]),
    # _data_bytes pads a stream to whole quads
    ("graph6.py", "-(-width // 24) * 3", "width // 24 * 3",
     ["tests/test_graph6.py::TestWriterCuts"]),
    # the last cut keeps the bytes that hold bits
    ("graph6.py", "[: (width + 5) // 6]", "[: width // 6]",
     ["tests/test_graph6.py::TestWriterCuts"]),
    # the bit-reversal table
    ("graphs.py", "x | 0x80 >> _k", "x | 1 << _k",
     ["tests/test_graph6.py::TestWriterCuts"]),
    # _lex_key reverses a witness mask's 64 bits
    ("domination.py", 'mask.to_bytes(8, "little")', 'mask.to_bytes(8, "big")',
     ["tests/test_domination.py"]),
    # add_text reads only the ASCII lines of a canonical line's length
    ("scanning.py", "len(line) == len(fill) and line.isascii()",
     "len(line) == len(fill)",
     ["tests/test_corpus_scan.py::TestLineTypes"]),
]


def source(name: str) -> str:
    return (ROOT / "src" / "domcount" / name).read_text()


def occurrences(row: tuple) -> int:
    """How often a row's old text occurs in its file."""
    name, old, _, _ = row
    return source(name).count(old)


def run_row(index: int) -> dict:
    name, old, new, tests = ROWS[index]
    if occurrences(ROWS[index]) != 1:
        raise SystemExit(f"row {index}: {old!r} does not occur once in {name}")
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "domcount" / name
        target.write_text(source(name).replace(old, new))
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        seconds = time.perf_counter() - start
    if result.returncode not in (0, 1, 2):  # 2: a collection error, also a kill
        raise SystemExit(f"row {index}: pytest exited with {result.returncode}")
    return {
        "row": index, "file": name, "old": old, "new": new, "tests": tests,
        "outcome": "survived" if result.returncode == 0 else "killed",
        "seconds": round(seconds, 1),
    }


def main(argv: list[str]) -> int:
    indices = [int(arg) for arg in argv] or range(len(ROWS))
    survived = False
    for index in indices:
        row = run_row(index)
        survived |= row["outcome"] == "survived"
        print(json.dumps(row), flush=True)
    return int(survived)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
