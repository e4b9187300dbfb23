"""Command-line interface: every capability behind one JSON-reporting tool.

Reports are printed to stdout as a single JSON document with keys in a fixed
order (each handler builds its dict in that order, and ``elapsed_ms`` comes
last); integer values larger than 2**53 are rendered as decimal strings so
consumers using binary floating point cannot lose digits.  Diagnostics go to
stderr as one line.  Exit codes: 0 success, 1 usage error, 2 parse error
(including non-ASCII input and an empty corpus), 3 infeasible parameters,
4 size limit exceeded.

A ``domcount`` process ends in :func:`main`, which flushes both standard
streams and leaves with ``os._exit``: the interpreter's teardown of the
loaded modules is skipped.  :func:`run_cli` is the same tool in-process,
returning the exit code.
"""

from __future__ import annotations

import argparse
import codecs
import io
import json
import os
import sys
import time
import warnings
from contextlib import contextmanager, nullcontext, suppress
from itertools import chain
from typing import Any, Iterator

from .constructions import PartitionPlan, build_component_graph, component_plan
from .constructions import efficiency_ratio, max_total_dominating_pairs
from .domination import (
    check_countable,
    count_minimum,
    count_sets_with_witnesses,
    domination_number,
    total_domination_number,
)
from .errors import (
    GraphParseError,
    InfeasibleOrderError,
    MixedOrderError,
    SizeLimitError,
    UndefinedTotalDominationError,
)
from .graph6 import edge_list_lines, edge_list_rows, first_record, graph6_order
from .graph6 import parse_graph6, read_edges, read_vertex_count, text_blocks
from .graph6 import write_graph6
from .graphs import Graph
from .partitions import optimize_allocation
from .scanning import scan_corpus, scan_labeled

_JSON_SAFE_MAX = 2**53


def _num(value: int) -> int | str:
    """Integers beyond 2**53 become decimal strings (lossless in JSON).

    ``str`` refuses integers past the interpreter's int-to-string digit
    limit (4300 by default); ``Decimal`` converts exactly at any length."""
    if -_JSON_SAFE_MAX <= value <= _JSON_SAFE_MAX:
        return value
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(value))


def _fraction(value: Fraction) -> dict[str, int | str]:
    return {"num": _num(value.numerator), "den": _num(value.denominator)}


def _plan_json(plan: PartitionPlan) -> list[dict[str, Any]]:
    return [
        {"kind": c.kind, "size": c.size, "count": _num(c.count)}
        for c in plan.components
    ]


def _mode(args: argparse.Namespace) -> str:
    return "total" if getattr(args, "total", False) else "dominating"


def _decoded(raw: io.BufferedIOBase) -> Iterator[str]:
    """The text of ``raw`` as ``io.TextIOWrapper(raw, "ascii")`` decodes it
    line by line, with the same pair of decoders: ASCII under universal
    newlines, one piece per ``read1`` of ``io.DEFAULT_BUFFER_SIZE`` bytes.
    So a byte the decoder rejects is met at the same read."""
    decoder = codecs.getincrementaldecoder("ascii")()
    decoder = io.IncrementalNewlineDecoder(decoder, translate=True)
    while data := raw.read1(io.DEFAULT_BUFFER_SIZE):
        if text := decoder.decode(data):
            yield text
    if text := decoder.decode(b"", final=True):
        yield text


@contextmanager
def _open_text(path: str) -> Iterator[Iterator[str]]:
    """The decoded text (:func:`_decoded`) of a file, or of stdin (left
    open) for '-'."""
    if path == "-" and sys.stdin is None:  # the process started without fd 0
        raise OSError("standard input is closed")
    with nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as raw:
        try:
            yield _decoded(raw)
        except UnicodeDecodeError as exc:  # its position counts from the last read
            message = f"'ascii' codec can't decode byte {exc.object[exc.start]:#04x}"
            raise GraphParseError(message) from None


def _load_graph(args: argparse.Namespace, counting: bool = False) -> Graph:
    """The --in graph, read in blocks of whole lines: an edge list line by
    line, its count line first (with ``counting``, an order past the
    counting cap is refused there, before any edge is read), and a graph6
    input up to its first record's text block.  Whatever ends the reading,
    the rest of the input is then decoded, not kept, in a ``finally``, so a
    byte the decoder rejects is the error, wherever it is; a graph6 record
    is parsed only after that, so no ``--lenient`` warning comes before
    it."""
    with _open_text(args.infile) as pieces:
        blocks = text_blocks(pieces)
        try:
            if args.format == "edges":
                lines = edge_list_lines(blocks)
                n = read_vertex_count(lines)
                if counting:
                    check_countable(n)
                return read_edges(n, lines)
            head = first_record(blocks)
        finally:
            # piece by piece rather than in lines, which can be long, and
            # then the blocks raise a failed read they held back
            for _ in chain(pieces, blocks):
                pass
    if not head:
        raise GraphParseError("no graph6 record found in input")
    order = graph6_order(head[0])
    if counting and order is not None:
        check_countable(order)
    return parse_graph6(head[0], strict=not args.lenient)


def _cmd_gamma(args: argparse.Namespace) -> dict[str, Any]:
    graph = _load_graph(args)
    mode = _mode(args)
    number = total_domination_number if mode == "total" else domination_number
    return {"n": graph.n, "m": graph.m, "mode": mode, "gamma": number(graph)}


def _cmd_count(args: argparse.Namespace) -> dict[str, Any]:
    graph = _load_graph(args, counting=True)
    mode = _mode(args)
    report: dict[str, Any] = {"n": graph.n, "m": graph.m, "mode": mode}
    cap = args.witness_cap if args.witness_cap is not None else 0
    if args.size is None:
        minimum = count_minimum(graph, mode, cap)
        report["gamma"] = minimum.gamma
        count, witnesses = minimum.count, minimum.witnesses
    else:
        count, witnesses = count_sets_with_witnesses(graph, args.size, mode, cap)
    report["count"] = _num(count)
    if args.witness_cap is not None:
        report["witnesses"] = [list(w.vertices()) for w in witnesses]
    return report


def _cmd_construct(args: argparse.Namespace) -> dict[str, Any]:
    graph, plan = build_component_graph(args.n, args.gamma)
    report: dict[str, Any] = {
        "n": graph.n,
        "m": graph.m,
        "gamma": args.gamma,
        "plan": _plan_json(plan),
        "predicted": _num(plan.total_count),
    }
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            if args.format == "g6":
                handle.write(write_graph6(graph))
                handle.write("\n")
            else:
                handle.writelines(edge_list_rows(graph))
    else:
        report["graph6"] = write_graph6(graph)
    return report


def _cmd_formula(args: argparse.Namespace) -> dict[str, Any]:
    n, x = args.n, args.gamma
    mode = _mode(args)
    if mode == "total":
        if x != 2:
            raise InfeasibleOrderError(
                "total-domination closed forms exist only for gamma = 2"
            )
        count = max_total_dominating_pairs(n)
    else:
        # gamma <= 2 gives one K_n or one pair component: the closed forms
        count = component_plan(n, x).total_count
    return {"n": n, "mode": mode, "gamma": x, "count": _num(count)}


def _cmd_optimize(args: argparse.Namespace) -> dict[str, Any]:
    optimal = optimize_allocation(args.n, args.gamma)
    prescribed = component_plan(args.n, args.gamma)
    return {
        "n": args.n,
        "gamma": args.gamma,
        "count": _num(optimal.total_count),
        "plan": _plan_json(optimal),
        "predicted": _num(prescribed.total_count),
        "prescribed_plan": _plan_json(prescribed),
    }


def _cmd_scan(args: argparse.Namespace) -> dict[str, Any]:
    mode = _mode(args)
    if args.corpus:
        with _open_text(args.corpus) as pieces:
            # the first record: --n must match its order and the counting cap
            # admit it; the scan takes its block from it on, then the others
            blocks = text_blocks(pieces)
            head = first_record(blocks)
            order = graph6_order(head[0]) if head else None
            if order is not None:
                if args.n is not None and order != args.n:
                    raise MixedOrderError(
                        f"corpus has order {order}, --n {args.n} was requested"
                    )
                check_countable(order)
            record = scan_corpus(chain(head[1:], blocks), mode, strict=not args.lenient)
    else:
        if args.n is None:
            raise InfeasibleOrderError("scan needs --n or --corpus")
        record = scan_labeled(args.n, mode)
    report: dict[str, Any] = {
        "n": record.n,
        "mode": record.mode,
        "gamma": record.target_gamma,
        "count": _num(record.max_count),
    }
    if record.witness is not None:
        report["witness"] = record.witness
    report["graphs_scanned"] = _num(record.graphs_scanned)
    return report


def _cmd_efficiency(args: argparse.Namespace) -> dict[str, Any]:
    result = efficiency_ratio(args.n, args.gamma)
    return {
        "n": args.n,
        "gamma": args.gamma,
        "ratio": _fraction(result.ratio),
        "asymptote": _fraction(result.ratio_limit),
    }


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for
    parse errors and uses 1 for usage."""

    def error(self, message: str):
        if sys.stderr is not None:  # print_usage(None) writes to stdout
            self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--in", dest="infile", required=True, metavar="FILE",
                     help="input graph file ('-' for stdin)")
    sub.add_argument("--format", choices=("g6", "edges"), default="g6",
                     help="input format (default: g6)")
    sub.add_argument("--lenient", action="store_true",
                     help="accept nonzero graph6 padding bits with a warning")


def _add_order_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--gamma", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="domcount",
                     description="Exact domination-set counting and "
                                 "extremal construction toolkit")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    sub = commands.add_parser("gamma", help="(total) domination number")
    _add_input_options(sub)
    sub.add_argument("--total", action="store_true")
    sub.set_defaults(handler=_cmd_gamma)

    sub = commands.add_parser("count", help="exact count of (total) dominating sets")
    _add_input_options(sub)
    sub.add_argument("--size", type=_nonnegative, default=None, metavar="K",
                     help="set size to count (default: the minimum size)")
    sub.add_argument("--total", action="store_true")
    sub.add_argument("--witness-cap", type=_nonnegative, default=None, metavar="M",
                     help="include up to M witness sets in the report")
    sub.set_defaults(handler=_cmd_count)

    sub = commands.add_parser("construct",
                              help="build the union construction for (n, gamma)")
    _add_order_options(sub)
    sub.add_argument("--out", metavar="FILE",
                     help="write the graph here instead of inlining graph6")
    sub.add_argument("--format", choices=("g6", "edges"), default="g6",
                     help="output format for --out (default: g6)")
    sub.set_defaults(handler=_cmd_construct)

    sub = commands.add_parser("formula",
                              help="closed-form maximum counts (gamma <= 2) or "
                                   "the construction's product count (gamma >= 3)")
    _add_order_options(sub)
    sub.add_argument("--total", action="store_true")
    sub.set_defaults(handler=_cmd_formula)

    sub = commands.add_parser("optimize",
                              help="exact-optimal component allocation vs the "
                                   "prescribed one")
    _add_order_options(sub)
    sub.set_defaults(handler=_cmd_optimize)

    sub = commands.add_parser("scan",
                              help="exhaustive extremal scan (built-in labeled "
                                   "enumeration or a graph6 corpus)")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--total", action="store_true")
    sub.add_argument("--corpus", metavar="FILE",
                     help="graph6 file, one record per line")
    sub.add_argument("--lenient", action="store_true")
    sub.set_defaults(handler=_cmd_scan)

    sub = commands.add_parser("efficiency",
                              help="exact dominating fraction of x-subsets and "
                                   "its fixed-x limit")
    _add_order_options(sub)
    sub.set_defaults(handler=_cmd_efficiency)

    return parser


def _diagnose(line: str) -> None:
    """Write one diagnostic line to stderr.  It is lost, as with
    ``warnings.showwarning``, when the process has no stderr or the write
    fails; it never falls back to stdout, the report stream."""
    if sys.stderr is not None:  # None when the process starts without fd 2
        with suppress(OSError):
            sys.stderr.write(f"domcount: {line}\n")


def _warn(message: Warning | str, seen: set[str]) -> None:
    """Write a warning as one stderr line, unless ``seen`` holds it."""
    line = f"warning: {message}"
    if line not in seen:
        seen.add(line)
        _diagnose(line)


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    seen: set[str] = set()
    try:
        with warnings.catch_warnings():  # one line per warning, whatever the filters
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *_: _warn(message, seen)
            report = args.handler(args)
        report["elapsed_ms"] = int((time.perf_counter() - start) * 1000)
        if sys.stdout is None:  # the process started without fd 1
            raise OSError("standard output is closed")
        print(json.dumps(report, indent=2), flush=True)
    except (GraphParseError, MixedOrderError) as exc:
        _diagnose(f"parse error: {exc}")
        return 2
    except SizeLimitError as exc:
        _diagnose(f"size limit: {exc}")
        return 4
    except (InfeasibleOrderError, UndefinedTotalDominationError) as exc:
        _diagnose(f"infeasible: {exc}")
        return 3
    except OSError as exc:
        _diagnose(str(exc))
        return 1
    return 0


def main() -> None:
    """Run the tool on ``sys.argv`` and end the process with its exit code.

    After flushing stdout and stderr it leaves with ``os._exit``, which skips
    the interpreter's teardown of every loaded module.  Nothing else is
    skipped: the tool registers no ``atexit`` handler and writes ``--out``
    files only inside ``with`` blocks.  A stream that cannot be flushed loses
    what it holds, with no second failure at exit.  (``gc.freeze()`` before
    ``sys.exit`` saved less of the teardown.)  An uncaught exception still
    leaves before the ``os._exit`` and prints its traceback."""
    code = run_cli(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process starts without fd 1 or 2
            with suppress(OSError):
                stream.flush()
    os._exit(code)
