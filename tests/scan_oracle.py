"""Test oracle: the per-graph γ=2 extremal reduction.

Each graph is taken on its own, and each of its vertex pairs is tested
directly on the graph's rows, so this is independent of the kernel's
pair counting, its bit slicing and its block boundaries.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Iterator

from domcount import (
    ExtremalRecord,
    Graph,
    GraphParseError,
    MixedOrderError,
    iter_graph6,
    write_graph6,
)
from domcount.domination import check_countable


def oracle_extremal_scan(graphs: Iterable[Graph], mode: str) -> ExtremalRecord:
    """Maximum (total) dominating pair count over graphs with domination
    number exactly 2, one graph at a time: a pair {a, b} counts when the
    closed rows of a and b (open rows in total mode) cover every vertex."""
    n: int | None = None
    scanned = 0
    best_count = 0
    best_witness: str | None = None
    for g in graphs:
        if n is None:
            check_countable(g.n)  # the order is refused before any graph counts
            n = g.n
        elif g.n != n:
            raise MixedOrderError(
                f"graph stream mixes orders {n} and {g.n}"
            )
        scanned += 1
        full = (1 << g.n) - 1
        closed = [row | 1 << v for v, row in enumerate(g.rows)]
        if full in closed:
            continue  # a dominating vertex: domination number 1
        rows = g.rows if mode == "total" else closed
        count = sum(rows[a] | rows[b] == full for a, b in combinations(range(g.n), 2))
        if count == 0:
            continue  # domination number above 2, or no total dominating pair
        if count > best_count:
            best_count = count
            best_witness = write_graph6(g)
        elif count == best_count:
            record = write_graph6(g)
            if best_witness is None or record < best_witness:
                best_witness = record
    if n is None:
        raise ValueError("graph stream is empty")
    return ExtremalRecord(
        n=n,
        mode=mode,
        target_gamma=2,
        max_count=best_count,
        witness=best_witness,
        graphs_scanned=scanned,
    )


def split_lines(texts: Iterable[str | bytes]) -> Iterator[str | bytes]:
    """The lines of texts of whole lines, split at ``"\\n"`` and only
    there, each line keeping it."""
    for text in texts:
        end = "\n" if isinstance(text, str) else b"\n"
        *lines, last = text.split(end)
        yield from (line + end for line in lines)
        if last:
            yield last


def oracle_scan_corpus(
    texts: Iterable[str | bytes], mode: str, strict: bool = True
) -> ExtremalRecord:
    """The corpus scan as the CLI ran it before: every line of the texts
    through ``iter_graph6``, every graph through
    :func:`oracle_extremal_scan`."""
    graphs = iter_graph6(split_lines(texts), strict=strict)
    first = next(graphs, None)
    if first is None:
        raise GraphParseError("no graph6 record found in corpus")
    return oracle_extremal_scan(chain([first], graphs), mode)
