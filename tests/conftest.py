from typing import Sequence

from hypothesis import strategies as st

from domcount import Graph
from domcount.scanning import graph_from_edge_mask


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
