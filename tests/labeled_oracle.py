"""Test oracles over the labeled enumeration: every labeled graph of an
order as a ``Graph``, and the largest edge count among those with
domination number >= 2 (acceptance criterion 3).

The package answers the γ=2 question over all labeled graphs with
``scan_labeled`` alone; these serve the tests that check a per-graph
property exhaustively or compare the closed form ``max_edges_gamma2``
against a scan.  Both refuse the orders ``scan_labeled`` refuses, with the
same errors.
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
from domcount.scanning import (
    adjacency,
    edge_mask_blocks,
    lane_sum,
    maximum,
    no_dominating_vertex,
)


def _check_enumeration(n: int) -> None:
    if n > scanning.ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"labeled enumeration supports n <= {scanning.ENUMERATION_MAX_N}; "
            "use a graph6 corpus for larger orders"
        )
    if n < 0:
        raise InfeasibleOrderError("vertex count must be nonnegative")


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
