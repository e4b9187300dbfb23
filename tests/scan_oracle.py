"""Test oracle: the per-graph extremal reduction that ``extremal_scan`` ran
for every target before the γ=2 scans moved to one block kernel.

Each graph goes through ``count_sets`` on its own, so this is independent
of the kernel's pair counting, its bit slicing and its block boundaries.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from domcount import (
    ExtremalRecord,
    Graph,
    GraphParseError,
    MixedOrderError,
    count_sets,
    domination_number,
    iter_graph6,
    write_graph6,
)
from domcount.domination import check_countable


def oracle_extremal_scan(
    graphs: Iterable[Graph], mode: str, target_gamma: int = 2
) -> ExtremalRecord:
    """Maximum (total) dominating ``target_gamma``-set count over graphs
    with domination number exactly ``target_gamma``, one graph at a time."""
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
        if mode == "total" and g.has_isolated_vertex():
            continue
        if target_gamma == 2:
            full = (1 << g.n) - 1
            if any(row | 1 << v == full for v, row in enumerate(g.rows)):
                continue  # a dominating vertex: domination number 1
        count = count_sets(g, target_gamma, mode)
        if count == 0:
            continue  # domination number above target, or no total set
        if target_gamma != 2 and domination_number(g) < target_gamma:
            continue  # domination number below target
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
        target_gamma=target_gamma,
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
