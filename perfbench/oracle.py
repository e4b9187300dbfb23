"""Independent reference code the benchmark checks `domcount` outputs against.

Nothing here imports `domcount`: graph6 and edge-list encoding, the
prescribed component plan, the closed-form counts and a naive subset counter
are written out again from the paper's definitions, so a wrong answer from
the program cannot also be the expected answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import numpy as np


def pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(n) for i in range(j)]


def adjacency(n: int, edges) -> np.ndarray:
    adj = np.zeros((n, n), bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return adj


def graph6_of_adjacency(adj: np.ndarray) -> bytes:
    """graph6 record (no newline) of a symmetric boolean adjacency matrix.

    graph6 stores the bits (0,1), (0,2), (1,2), (0,3), ... six to a byte,
    offset 63, after a size field of one byte (n <= 62) or "~" and three.
    """
    n = len(adj)
    if n > 258047:
        raise ValueError("8-byte graph6 size field not supported")
    head = [n + 63] if n <= 62 else [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    bits = np.concatenate([adj[j, :j] for j in range(n)] + [np.zeros(0, bool)])
    bits = np.concatenate([bits, np.zeros(-len(bits) % 6, bool)]).astype(np.uint8)
    body = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], np.uint8) + 63
    return bytes(head) + body.astype(np.uint8).tobytes()


def encode_graph6(n: int, edges: set[tuple[int, int]]) -> str:
    return graph6_of_adjacency(adjacency(n, edges)).decode("ascii")


def decode_graph6(record: str) -> tuple[int, set[tuple[int, int]]]:
    """(n, edges) of a graph6 record with n <= 62 vertices."""
    data = record.strip().encode("ascii")
    n, body = data[0] - 63, data[1:]
    if n > 62:
        raise ValueError("small-graph decoder only")
    nbits = comb(n, 2)
    if len(body) != (nbits + 5) // 6:
        raise ValueError(f"graph6 body has {len(body)} bytes for n={n}")
    bits = "".join(format(b - 63, "06b") for b in body)
    if "1" in bits[nbits:]:
        raise ValueError("nonzero graph6 padding")
    return n, {p for p, bit in zip(pairs(n), bits) if bit == "1"}


def encode_edge_list(n: int, edges: set[tuple[int, int]]) -> str:
    return f"{n}\n" + "".join(f"{i} {j}\n" for i, j in sorted(edges))


def rows_of(n: int, edges: set[tuple[int, int]], closed: bool) -> list[int]:
    rows = [(1 << v) if closed else 0 for v in range(n)]
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def covers(rows: list[int], subset, n: int) -> bool:
    acc = 0
    for v in subset:
        acc |= rows[v]
    return acc == (1 << n) - 1


def count_covers(n: int, edges: set[tuple[int, int]], k: int, total: bool) -> int:
    """Naive count of k-subsets that (totally) dominate: try every subset."""
    rows = rows_of(n, edges, closed=not total)
    return sum(covers(rows, s, n) for s in combinations(range(n), k))


def is_connected(n: int, edges: set[tuple[int, int]]) -> bool:
    rows = rows_of(n, edges, closed=True)
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(n):
            if frontier >> v & 1:
                reach |= rows[v]
        frontier = reach & ~seen
        seen |= reach
    return seen == (1 << n) - 1


# Closed forms of the paper (maxima over n-vertex graphs with gamma = 2).
def max_dominating_pairs(n: int) -> int:
    return comb(n, 2) - (n % 2)


def max_total_dominating_pairs(n: int) -> int:
    return (n * (n - 2) - 3 * (n % 2)) // 2


def prescribed_plan(n: int, x: int) -> list[tuple[str, int]]:
    """The paper's component allocation for (n, x), as (kind, size) pairs."""
    if x == 1:
        return [("complete", n)]
    if x == 2:
        return [("pair", n)]
    if x % 2 == 0:
        base, extra = divmod(n, x // 2)
        return [("pair", base + (i < extra)) for i in range(x // 2)]
    q = (x - 1) // 2
    base, leftover = divmod(n, x)
    each, extra = divmod(leftover, q)
    return [("complete", base)] + [("pair", 2 * base + each + (i < extra)) for i in range(q)]


def component_count(kind: str, size: int, total: bool = False) -> int:
    if kind == "complete":
        return comb(size, 2) if total else size
    return max_total_dominating_pairs(size) if total else max_dominating_pairs(size)


def plan_count(plan, total: bool = False) -> int:
    product = 1
    for kind, size in plan:
        product *= component_count(kind, size, total)
    return product


def plan_edge_count(plan) -> int:
    m = 0
    for kind, size in plan:
        m += comb(size, 2)
        if kind == "pair":
            m -= size // 2 if size % 2 == 0 else 3 + (size - 3) // 2 - 1
    return m


def union_adjacency(plan) -> np.ndarray:
    """Adjacency of the disjoint union of the plan's components, in plan order.

    Each component is complete multipartite on consecutive vertices: a
    complete component has singleton parts, a pair component of even order r
    has parts {0,1}, {2,3}, ..., and one of odd order r has parts {0,1,2},
    {3,4}, ... plus the edge {0,1}.
    """
    component, part, extra = [], [], []
    for c, (kind, r) in enumerate(plan):
        offset = len(part)
        if kind == "complete":
            part += range(r)
        elif r % 2 == 0:
            part += [v // 2 for v in range(r)]
        else:
            part += [0, 0, 0] + [1 + (v - 3) // 2 for v in range(3, r)]
            extra.append(offset)
        component += [c] * r
    component, part = np.array(component), np.array(part)
    adj = (component[:, None] == component) & (part[:, None] != part)
    adj[extra, [v + 1 for v in extra]] = adj[[v + 1 for v in extra], extra] = True
    return adj


def union_edges(plan) -> tuple[int, set[tuple[int, int]]]:
    adj = union_adjacency(plan)
    return len(adj), {(int(i), int(j)) for i, j in np.argwhere(np.triu(adj, 1))}


def efficiency(n: int, x: int) -> tuple[Fraction, Fraction]:
    """Share of x-subsets dominating the construction, and its fixed-x limit."""
    return (
        Fraction(plan_count(prescribed_plan(n, x)), comb(n, x)),
        Fraction(factorial(x) * 2 ** (x // 2), x**x),
    )
