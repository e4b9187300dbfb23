"""Exhaustive small-order scans and construction efficiency ratios.

``scan_labeled`` checks every labeled simple graph of a given order (feasible
through n = 7, i.e. 2^21 graphs) for the maximum number of (total) dominating
2-sets among graphs whose domination number is exactly 2.  ``extremal_scan``
answers the same question over any stream of graphs of one order, and
``scan_corpus`` over the lines of a graph6 corpus.  All three run one
bit-sliced block kernel on Python ints (:mod:`domcount.pairscan`) and
produce identical records on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, factorial
from typing import Iterable

from .constructions import component_plan
from .domination import Mode, check_mode
from .errors import GraphParseError, InfeasibleOrderError, SizeLimitError
from .graph6 import graph6_order, parse_graph6, write_graph6
from .graphs import Graph
from .pairscan import PairMaximum, edge_mask_blocks, line_blocks, pair_order
from .pairscan import smallest_reversed

# 2^C(7,2) = 2,097,152 labeled graphs; order 8 already has 2^28.
ENUMERATION_MAX_N = 7

# Labeled graphs per kernel call.  Planes of 2^17 lanes (16 KiB) keep a
# block's few dozen live planes within a core's L2 cache: on a 2-vCPU x86
# VM with 2 MiB of L2 per core, scan_labeled(7) takes 17-20 ms in a fresh
# process against 28-30 ms with all of order 7 in one block (2^21 lanes),
# at 11 MB less peak RSS.
DEFAULT_CHUNK_SIZE = 1 << 17


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """Graph whose edge set is the bits of ``mask`` in pair_order(n)."""
    rows = [0] * n
    for k, (i, j) in enumerate(pair_order(n)):
        if mask >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


@dataclass(frozen=True)
class ExtremalRecord:
    """Result of maximizing a (total) dominating set count over a scan.

    ``witness`` is the graph6 record of one maximizing graph (the smallest
    record byte-wise, which makes the reduction chunking-independent);
    ``graphs_scanned`` tallies every graph seen, filtered or not;
    ``target_gamma`` is always 2, the one domination number scans answer.
    """

    n: int
    mode: Mode
    target_gamma: int
    max_count: int
    witness: str | None
    graphs_scanned: int


def _record(best: PairMaximum) -> ExtremalRecord:
    best.flush()
    return ExtremalRecord(
        n=best.n,
        mode=best.mode,
        target_gamma=2,
        max_count=best.count,
        witness=best.witness,
        graphs_scanned=best.scanned,
    )


def extremal_scan(graphs: Iterable[Graph], mode: Mode) -> ExtremalRecord:
    """Scan a uniform-order graph stream for the maximum number of
    (total) dominating pairs among graphs whose ordinary domination number
    is exactly 2, with the bit-sliced pair kernel on blocks of graphs.

    The ordinary-domination filter applies in both modes: without it the
    total-mode maximum is trivially C(n, 2), attained by complete graphs,
    because every pair of K_n is totally dominating.  In total mode,
    graphs with no total dominating pair (in particular graphs with an
    isolated vertex) count toward ``graphs_scanned`` but cannot produce
    the maximum.
    """
    check_mode(mode)
    best: PairMaximum | None = None
    for g in graphs:
        if best is None:
            best = PairMaximum(g.n, mode)
        best.add_graph(g)
    if best is None:
        raise ValueError("graph stream is empty")
    return _record(best)


def scan_corpus(
    lines: Iterable[str], mode: Mode, strict: bool = True
) -> ExtremalRecord:
    """:func:`extremal_scan` (target 2) over a graph6 corpus, one record
    per line, blank lines skipped: the same record, errors and warnings as
    ``extremal_scan(iter_graph6(lines, strict), mode)``.

    Lines are read in bounded blocks.  Canonical records of the first
    record's order are read straight from their bytes and are their own
    witnesses; any other line goes through :func:`parse_graph6`, in file
    order.  Raises :class:`GraphParseError` when the corpus holds no
    record.
    """
    check_mode(mode)
    lines = iter(lines)
    head = []
    for line in lines:
        head.append(line)
        if line.strip():
            break
    else:
        raise GraphParseError("no graph6 record found in corpus")
    n = graph6_order(line.strip())
    if n is None:  # parse_graph6 rejects the record's size field
        n = parse_graph6(line.strip(), strict=strict).n
    best = PairMaximum(n, mode)
    for block in line_blocks(chain(head, lines)):
        best.add_lines(block, strict)
    return _record(best)


def scan_labeled(n: int, mode: Mode) -> ExtremalRecord:
    """Bit-sliced :func:`extremal_scan` over all labeled graphs on n
    vertices (target domination number 2), with the same filter: only
    graphs with ordinary domination number exactly 2 compete.  Graphs go
    through the kernel in blocks of ``DEFAULT_CHUNK_SIZE`` edge masks, read
    at call time; the record does not depend on it."""
    check_mode(mode)
    if n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"labeled enumeration supports n <= {ENUMERATION_MAX_N}; "
            "use a graph6 corpus for larger orders"
        )
    if n < 0:
        raise InfeasibleOrderError("vertex count must be nonnegative")
    best = PairMaximum(n, mode)
    for masks, planes in edge_mask_blocks(n, DEFAULT_CHUNK_SIZE):
        best.scanned += len(masks)
        # graph6 body bits follow pair_order, most significant first, so
        # among records of one order the byte-smallest has the smallest
        # bit-reversed edge mask: only that graph's record is written.
        best.add_planes(
            planes,
            (1 << len(masks)) - 1,
            lambda maximizers: write_graph6(
                graph_from_edge_mask(
                    n, masks[smallest_reversed(maximizers, planes)]
                )
            ),
        )
        del masks, planes  # freed before the next block is built
    return _record(best)


@dataclass(frozen=True)
class EfficiencyReport:
    """How close the union construction comes to all C(n, x) subsets.

    ``ratio`` is the exact fraction of x-subsets that dominate the (n, x)
    construction.  ``ratio_limit`` is its fixed-x limit as n grows:
    x! * 2^(x/2) / x^x for even x and x! * 2^((x-1)/2) / x^x for odd x.
    ``asymptotic_coefficient`` is the matching leading coefficient of the
    dominating-set count itself (count ~ coefficient * n^x).
    """

    n: int
    x: int
    ratio: Fraction
    ratio_limit: Fraction
    asymptotic_coefficient: Fraction


def efficiency_ratio(n: int, x: int) -> EfficiencyReport:
    """Exact fraction of x-subsets that dominate the (n, x) construction."""
    plan = component_plan(n, x)
    ratio = Fraction(plan.total_count, comb(n, x))
    coefficient = Fraction(2 ** (x // 2), x**x)
    return EfficiencyReport(
        n=n,
        x=x,
        ratio=ratio,
        ratio_limit=coefficient * factorial(x),
        asymptotic_coefficient=coefficient,
    )
