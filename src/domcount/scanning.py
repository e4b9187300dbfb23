"""Exhaustive small-order scans and construction efficiency ratios.

``scan_labeled`` checks every labeled simple graph of a given order (feasible
through n = 7, i.e. 2^21 graphs) for the maximum number of (total) dominating
2-sets among graphs whose (total) domination number is exactly 2.  The hot
path is vectorized with numpy over blocks of edge masks.  ``extremal_scan``
applies the same reduction to an arbitrary stream of graphs (for example a
graph6 corpus) using the per-graph counting engine; both paths produce
identical records on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Iterable, Iterator

import numpy as np

from .constructions import component_plan
from .domination import Mode, count_sets, domination_number
from .errors import MixedOrderError, SizeLimitError
from .graph6 import write_graph6
from .graphs import Graph

# 2^C(7,2) = 2,097,152 labeled graphs; order 8 already has 2^28.
ENUMERATION_MAX_N = 7

DEFAULT_CHUNK_SIZE = 1 << 18


def pair_order(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in upper-triangle column-major order:
    (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(n) for i in range(j)]


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """Graph whose edge set is the bits of ``mask`` in pair_order(n)."""
    rows = [0] * n
    for k, (i, j) in enumerate(pair_order(n)):
        if mask >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, once, in edge-mask counter
    order.  Refuses n > 7; ingest a graph6 corpus for larger orders."""
    if n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"labeled enumeration supports n <= {ENUMERATION_MAX_N}; "
            "use a graph6 corpus for larger orders"
        )
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    for mask in range(1 << comb(n, 2)):
        yield graph_from_edge_mask(n, mask)


@dataclass(frozen=True)
class ExtremalRecord:
    """Result of maximizing a (total) dominating set count over a scan.

    ``witness`` is the graph6 record of one maximizing graph (the smallest
    record byte-wise, which makes the reduction chunking-independent);
    ``graphs_scanned`` tallies every graph seen, filtered or not.
    """

    n: int
    mode: Mode
    target_gamma: int
    max_count: int
    witness: str | None
    graphs_scanned: int


def extremal_scan(
    graphs: Iterable[Graph], mode: Mode, target_gamma: int = 2
) -> ExtremalRecord:
    """Scan a uniform-order graph stream for the maximum number of
    (total) dominating sets of size ``target_gamma`` among graphs whose
    ordinary domination number is exactly ``target_gamma``.

    The ordinary-domination filter applies in both modes: without it the
    total-mode maximum is trivially C(n, 2), attained by complete graphs,
    because every pair of K_n is totally dominating.  In total mode,
    graphs with no total dominating set of the target size (in particular
    graphs with an isolated vertex) count toward ``graphs_scanned`` but
    cannot produce the maximum.
    """
    n: int | None = None
    scanned = 0
    best_count = 0
    best_witness: str | None = None
    for g in graphs:
        if n is None:
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


def _coverage_rows(masks: np.ndarray, n: int, mode: str) -> list[np.ndarray]:
    """Per-vertex coverage masks for a block of edge masks (uint8, n <= 7)."""
    rows = [np.zeros(masks.shape, dtype=np.uint8) for _ in range(n)]
    for k, (i, j) in enumerate(pair_order(n)):
        bit = ((masks >> np.uint32(k)) & np.uint32(1)).astype(np.uint8)
        rows[i] |= bit << np.uint8(j)
        rows[j] |= bit << np.uint8(i)
    if mode == "dominating":
        for v in range(n):
            rows[v] |= np.uint8(1 << v)
    return rows


def scan_labeled(
    n: int, mode: Mode, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> ExtremalRecord:
    """Vectorized :func:`extremal_scan` over all labeled graphs on n
    vertices (target domination number 2), with the same filter: only
    graphs with ordinary domination number exactly 2 compete.  Results are
    identical for any ``chunk_size``."""
    if mode not in ("dominating", "total"):
        raise ValueError(f"mode must be 'dominating' or 'total', got {mode!r}")
    if n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"labeled enumeration supports n <= {ENUMERATION_MAX_N}; "
            "use a graph6 corpus for larger orders"
        )
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    total = 1 << comb(n, 2)
    full = np.uint8((1 << n) - 1)
    vertex_pairs = list(combinations(range(n), 2))
    best_count = 0
    best_witness: str | None = None
    for start in range(0, total, chunk_size):
        masks = np.arange(start, min(start + chunk_size, total), dtype=np.uint32)
        rows = _coverage_rows(masks, n, mode)
        counts = np.zeros(masks.shape, dtype=np.uint8)
        for u, v in vertex_pairs:
            counts += (rows[u] | rows[v]) == full
        # a qualifying pair forces domination number <= 2 in either mode;
        # excluding graphs with a dominating vertex pins it to exactly 2
        eligible = counts > 0
        for v in range(n):
            closed = rows[v] | np.uint8(1 << v)
            eligible &= closed != full
        if not eligible.any():
            continue
        chunk_max = int(counts[eligible].max())
        if chunk_max < best_count:
            continue
        candidates = masks[eligible & (counts == chunk_max)]
        chunk_witness = min(
            write_graph6(graph_from_edge_mask(n, int(mask))) for mask in candidates
        )
        if chunk_max > best_count:
            best_count = chunk_max
            best_witness = chunk_witness
        elif best_witness is None or chunk_witness < best_witness:
            best_witness = chunk_witness
    return ExtremalRecord(
        n=n,
        mode=mode,
        target_gamma=2,
        max_count=best_count,
        witness=best_witness,
        graphs_scanned=total,
    )


def labeled_max_edges_gamma2(
    n: int, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> int:
    """Maximum edge count over all labeled n-vertex graphs with domination
    number >= 2, by exhaustive scan (n <= 7)."""
    if n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"labeled enumeration supports n <= {ENUMERATION_MAX_N}"
        )
    if n < 2:
        raise ValueError("domination number >= 2 needs n >= 2")
    total = 1 << comb(n, 2)
    full = np.uint8((1 << n) - 1)
    best = -1
    for start in range(0, total, chunk_size):
        masks = np.arange(start, min(start + chunk_size, total), dtype=np.uint32)
        rows = _coverage_rows(masks, n, "dominating")
        eligible = np.ones(masks.shape, dtype=bool)
        for v in range(n):
            eligible &= rows[v] != full
        if not eligible.any():
            continue
        best = max(best, int(np.bitwise_count(masks[eligible]).max()))
    if best < 0:
        raise ValueError(f"no graph on {n} vertices has domination number >= 2")
    return best


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
