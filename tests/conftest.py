import random
from functools import lru_cache
from typing import Sequence

from hypothesis import strategies as st

from domcount import Graph, pair_extremal_graph, write_graph6
from domcount.scanning import SCAN_BLOCK, graph_from_edge_mask


@st.composite
def labeled_graphs(draw, min_n: int = 0, max_n: int = 8):
    """Uniform-ish random labeled graph via a random edge mask."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_edge_mask(n, mask)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """The graph with vertex v renamed to perm[v]."""
    assert sorted(perm) == list(range(g.n)), "perm must be a permutation of 0..n-1"
    rows = [0] * g.n
    for v, row in enumerate(g.rows):
        rows[perm[v]] = sum(1 << perm[u] for u in range(g.n) if row >> u & 1)
    return Graph(g.n, tuple(rows))


@lru_cache(maxsize=None)
def tied_stream(n: int) -> tuple[Graph, ...]:
    """SCAN_BLOCK + 40 shuffled relabellings of ``pair_extremal_graph(n)``,
    all tied at the maximum in both modes.  The byte-smallest of them comes
    only after the first SCAN_BLOCK graphs, twice within one block.

    The graph's complement has at most n/2 + 1 edges, so each relabelling
    renames those and complements back.  A small order has few distinct
    relabellings (30 at n = 5), so they are drawn until SCAN_BLOCK + 38
    differ from the byte-smallest drawn, whatever SCAN_BLOCK is."""
    rng = random.Random(n)
    g = pair_extremal_graph(n)
    full = (1 << n) - 1
    missing = [(i, j) for j in range(n) for i in range(j) if not g.rows[i] >> j & 1]

    def relabelled() -> Graph:
        perm = rng.sample(range(n), n)
        rows = [full ^ 1 << v for v in range(n)]
        for i, j in missing:
            rows[perm[i]] ^= 1 << perm[j]
            rows[perm[j]] ^= 1 << perm[i]
        return Graph(n, tuple(rows))

    graphs = [relabelled() for _ in range(SCAN_BLOCK + 100)]
    while True:
        smallest = min(graphs, key=write_graph6)
        others = [h for h in graphs if h != smallest]
        if len(others) >= SCAN_BLOCK + 38:
            break
        graphs += [relabelled() for _ in range(100)]
    graphs = others[: SCAN_BLOCK + 38]
    graphs.insert(SCAN_BLOCK + 5, smallest)
    graphs.insert(SCAN_BLOCK + 20, smallest)
    return tuple(graphs)
