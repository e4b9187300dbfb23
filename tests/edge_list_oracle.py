"""The former bit-at-a-time edge walk and per-edge edge-list writer, kept
as test oracles.

The walk shifts each row right one bit at a time, and the writer formats
one ``u v`` string per edge.  ``Graph.edges`` must yield the same pairs in
the same order, and ``write_edge_list`` must write the same text.
"""

from domcount.graphs import Graph


def edges(g: Graph):
    """Yield edges (u, v) with u < v in lexicographic order."""
    for u in range(g.n):
        row = g.rows[u] >> (u + 1)
        v = u + 1
        while row:
            if row & 1:
                yield (u, v)
            row >>= 1
            v += 1


def write_edge_list(g: Graph) -> str:
    """Edge-list text for ``g``: vertex count, then one ``u v`` line per edge."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in edges(g))
    return "\n".join(lines) + "\n"
