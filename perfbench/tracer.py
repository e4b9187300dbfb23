"""Run one `domcount` job in a fresh interpreter with spans around the public
functions of each package module.

Usage: python3 -X importtime tracer.py OUT DOMCOUNT-ARGS...

The job runs as the CLI would run it, through `cli.run_cli`, except a corpus
scan, whose records are parsed up front so that parsing is not inside the
`extremal_scan` span.  Spans (name, start, end, parent) are kept in memory
and written to OUT as JSON at the end, with the exit code and the report the
job printed.
"""

import sys
import time

import domcount.cli  # noqa: F401  (first, so -X importtime sees its full cost)

import base64  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from array import array  # noqa: E402

from domcount import cli, constructions, domination, graph6, partitions, scanning  # noqa: E402

# Every module that calls a spanned function through its own namespace.
MODULES = (cli, constructions, domination, graph6, partitions, scanning)


def _record_bytes(args, result):
    return len(args[0])


def _graphs_scanned(args, result):
    return result.graphs_scanned


# module -> public functions that get a span, with the work each call did.
SPANNED = {
    graph6: {"parse_graph6": _record_bytes, "write_graph6": None,
             "parse_edge_list": None, "write_edge_list": None},
    domination: {"domination_number": None, "total_domination_number": None,
                 "count_sets": None, "count_sets_with_witnesses": None},
    constructions: {"build_component_graph": None},
    partitions: {"optimize_allocation": None},
    scanning: {"scan_labeled": _graphs_scanned, "extremal_scan": _graphs_scanned},
    cli: {"run_cli": None},
}


class Spans:
    """Spans in parallel float64 arrays: name id, parent span index (-1 at
    the top), start, end, and the work the call did."""

    FIELDS = ("name", "parent", "start", "end", "work")

    def __init__(self):
        self.names: list[str] = []
        for field in self.FIELDS:
            setattr(self, field, array("d"))
        self._stack = [-1]

    def wrap(self, name: str, fn, measure):
        name_id = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter

        def spanned(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            self.work.append(0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if measure is not None:
                self.work[index] = measure(args, result)
            return result

        return spanned

    def install(self) -> None:
        """Replace each spanned function in every module that holds it."""
        for module, functions in SPANNED.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for fname, measure in functions.items():
                original = getattr(module, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original, measure)
                for holder in MODULES:
                    if getattr(holder, fname, None) is original:
                        setattr(holder, fname, wrapped)

    def as_json(self) -> dict:
        """Names as a list; each array as base64 of its native float64 bytes."""
        arrays = {f: base64.b64encode(getattr(self, f).tobytes()).decode("ascii")
                  for f in self.FIELDS}
        return {"names": self.names, **arrays}


def run_corpus_scan(argv: list[str]) -> tuple[int, str]:
    path = argv[argv.index("--corpus") + 1]
    mode = "total" if "--total" in argv else "dominating"
    start = time.perf_counter()
    with open(path, encoding="ascii") as handle:
        parsed = [graph6.parse_graph6(line.strip()) for line in handle if line.strip()]
    record = scanning.extremal_scan(parsed, mode)
    report = {"n": record.n, "mode": record.mode, "gamma": record.target_gamma,
              "count": record.max_count, "witness": record.witness,
              "graphs_scanned": record.graphs_scanned,
              "elapsed_ms": int((time.perf_counter() - start) * 1000)}
    return 0, json.dumps(report)


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    spans = Spans()
    spans.install()
    stdout = io.StringIO()
    if argv[0] == "scan" and "--corpus" in argv:
        rc, report = run_corpus_scan(argv)
    else:
        with contextlib.redirect_stdout(stdout):
            rc = cli.run_cli(argv)
        report = stdout.getvalue()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"rc": rc, "stdout": report, "spans": spans.as_json()}, handle)


if __name__ == "__main__":
    main()
