"""Test oracles over the labeled enumeration: every labeled graph of an
order as a ``Graph``, its edge planes block by block, and the largest edge
count among graphs with domination number >= 2 (acceptance criterion 3).

The package answers the γ=2 question over all labeled graphs with
``scan_labeled`` alone, on runs of blocks that share their low planes;
these serve the tests that check a per-graph property exhaustively or
compare the closed form ``max_edges_gamma2`` against a scan.  The edge
count works block by block, apart from the scan kernel's shared planes:
every block gets its full list of edge planes (``edge_mask_blocks``), and
the dominating-vertex filter runs on them.  The enumerations refuse the
orders ``scan_labeled`` refuses, with the same errors.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from domcount import (
    Graph,
    InfeasibleOrderError,
    SizeLimitError,
    graph_from_edge_mask,
    scanning,
)
from domcount.scanning import lane_planes, lane_sum, maximum, pair_order


def counter_planes(start: int, k: int, bits: int) -> list[int]:
    """Bit planes 0 .. bits-1 of the counter start, start+1, ...,
    start+2^k-1, for k <= bits and ``start`` a multiple of 2^k: lane g of
    plane e holds bit e of start + g.  Below k these are the planes of the
    lane number g; from k up, lane g adds nothing, so plane e has every
    lane set or every lane clear, as bit e of ``start``."""
    lanes = (1 << (1 << k)) - 1
    return lane_planes(k) + [lanes if start >> e & 1 else 0 for e in range(k, bits)]


def _check_enumeration(n: int) -> None:
    if n > scanning.ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"labeled enumeration supports n <= {scanning.ENUMERATION_MAX_N}; "
            "use a graph6 corpus for larger orders"
        )
    if n < 0:
        raise InfeasibleOrderError("vertex count must be nonnegative")


def edge_mask_blocks(n: int) -> Iterator[tuple[range, list[int]]]:
    """Every labeled graph on n vertices in edge-mask counter order, as
    blocks of (edge masks, edge planes): lane g of plane e is bit e of
    mask ``masks[g]``, the edge ``pair_order(n)[e]``.  Block i holds the
    2^k masks from i * 2^k on, for k the smaller of
    ``scanning.CHUNK_BITS`` (read at call time) and C(n, 2)."""
    m = comb(n, 2)
    k = min(scanning.CHUNK_BITS, m)
    for start in range(0, 1 << m, 1 << k):
        yield range(start, start + (1 << k)), counter_planes(start, k, m)


def adjacency(n: int, planes: list[int]) -> list[list[int]]:
    """Edge planes, one per pair in ``pair_order(n)``, as an n x n matrix
    (the diagonal is 0)."""
    adj = [[0] * n for _ in range(n)]
    for (i, j), plane in zip(pair_order(n), planes):
        adj[i][j] = adj[j][i] = plane
    return adj


def no_dominating_vertex(adj: list[list[int]], lanes: int) -> int:
    """The ``lanes`` whose graph has no vertex adjacent to all the others,
    i.e. domination number >= 2."""
    found = 0
    for v, row in enumerate(adj):
        plane = lanes
        for w, edge in enumerate(row):
            if w != v:
                plane &= edge
                if not plane:
                    break
        found |= plane
    return lanes & ~found


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, once, in edge-mask counter
    order.  Refuses n > 7 and n < 0 when called."""
    _check_enumeration(n)
    return (graph_from_edge_mask(n, mask) for mask in range(1 << comb(n, 2)))


def labeled_max_edges_gamma2(n: int) -> int:
    """Maximum edge count over all labeled n-vertex graphs with domination
    number >= 2, by exhaustive scan (n <= 7): the edge planes of each block
    of 2^``scanning.CHUNK_BITS`` masks summed with the scan kernel's
    adder tree, over the lanes with no dominating vertex."""
    _check_enumeration(n)
    if n < 2:
        raise ValueError("domination number >= 2 needs n >= 2")
    best = -1
    for masks, planes in edge_mask_blocks(n):
        eligible = no_dominating_vertex(adjacency(n, planes), (1 << len(masks)) - 1)
        if eligible:
            best = max(best, maximum(lane_sum(planes), eligible)[0])
        del masks, planes  # freed before the next block is built
    if best < 0:
        raise ValueError(f"no graph on {n} vertices has domination number >= 2")
    return best
