"""Exact domination predicates, numbers, and minimum-set counts.

Every number here comes from one walk, run on each connected component of
the graph in place, over bit masks.  Since adjacency is symmetric, the
vertices that cover ``u`` are exactly ``rows[u]``.  The walk branches on
covering: it picks the uncovered vertex with the fewest coverers still
allowed, and each branch takes one of them as the first chosen and drops
it from the later branches, so every k-subset is met once.  A node is cut
when a packing bound (Meir & Moon's 2-packing bound, rho <= gamma) shows
its open slots are too few: uncovered vertices whose allowed coverers are
pairwise disjoint each need a slot of their own.  Once the component is
covered, every filling of the open slots counts at once, and the last open
slot is not enumerated: its completions are the allowed vertices in the
intersection of ``rows[u]`` over the uncovered ``u``; only there, as an
empty intersection, can a node run out of coverers.  Covers arrive out of
lexicographic order, so the first ones in that order, the witnesses, are
selected as they arrive.

Minimum (total) dominating sets multiply across components (the domination
polynomial is multiplicative over disjoint unions), so the domination
number is the sum of per-component numbers, a minimum count is the product
of per-component counts, and a count at any size k convolves the
per-component counts.  Counts are exact, deterministic, and independent of
enumeration chunking.
"""

from __future__ import annotations

import math
from heapq import heappush, heapreplace
from itertools import combinations
from typing import Literal

from .errors import (
    InfeasibleOrderError,
    SizeLimitError,
    UndefinedTotalDominationError,
)
from .graphs import REVERSED, Frozen, Graph, VertexSet, select_bits

Mode = Literal["dominating", "total"]

COUNT_VERTEX_CAP = 64

DEFAULT_WITNESS_CAP = 1000


def check_mode(mode: str) -> None:
    """Refuse a mode other than 'dominating' or 'total'."""
    if mode not in ("dominating", "total"):
        raise ValueError(f"mode must be 'dominating' or 'total', got {mode!r}")


def check_countable(n: int) -> None:
    """Refuse an order past the counting cap, ``COUNT_VERTEX_CAP``."""
    if n > COUNT_VERTEX_CAP:
        raise SizeLimitError(
            f"counting supports n <= {COUNT_VERTEX_CAP}, got n={n}"
        )


def _cover_rows(g: Graph, mode: str) -> list[int]:
    """Per-vertex coverage masks: closed neighborhoods for 'dominating',
    open neighborhoods for 'total'."""
    if mode == "dominating":
        return [row | 1 << v for v, row in enumerate(g.rows)]
    return list(g.rows)


def _covers(g: Graph, s: VertexSet, mode: Mode) -> bool:
    """True iff the members' coverage masks (see :func:`_cover_rows`) cover
    every vertex of g."""
    if s.n != g.n:
        raise ValueError(f"vertex set is over n={s.n}, graph has n={g.n}")
    covered = 0
    for row in select_bits(s.mask, _cover_rows(g, mode)):
        covered |= row
    return covered == (1 << g.n) - 1


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex outside s has a neighbor in s (members count
    as covered by themselves)."""
    return _covers(g, s, "dominating")


def is_total_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex of g (members of s included) has a neighbor in s."""
    return _covers(g, s, "total")


def _components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, in order of their lowest
    vertex, by a bit-mask search over ``g.rows``."""
    rows = g.rows
    components = []
    rest = (1 << g.n) - 1
    while rest:
        component = frontier = rest & -rest
        # frontier: reached vertices whose neighbors are not yet added
        while frontier and component != rest:
            v = frontier.bit_length() - 1
            frontier ^= 1 << v
            new = rows[v] & ~component
            component |= new
            frontier |= new
        components.append(component)
        rest ^= component
    return components


def _lex_key(mask: int) -> int:
    """``mask`` with its 64 bits (counting takes n <= 64) reversed.  On sets
    of one size, lexicographic order is descending key order: the set that
    holds the lowest vertex of a symmetric difference has the larger key.
    The key of a key is the mask."""
    return int.from_bytes(mask.to_bytes(8, "little").translate(REVERSED), "big")


def _walk(
    rows: list[int], component: int, k: int, witness_cap: int = 0,
    first: bool = False,
) -> tuple[int, list[int]]:
    """Count the k-subsets of ``component`` whose coverage rows cover it.

    ``rows`` holds coverage masks for the whole graph; the rows of a
    component's vertices stay inside it, so the walk needs no relabelling.
    Also returns the first ``witness_cap`` such subsets, as vertex masks in
    lexicographic order.  With ``first`` the walk stops at the first cover,
    so the count is nonzero exactly when one exists.

    A node stands for the k-subsets that hold ``chosen`` and fill its open
    slots from ``allowed``.  It branches on an uncovered vertex u with the
    fewest coverers in ``allowed``, v1 < ... < vm: branch i takes vi and
    drops v1, ..., vi from ``allowed``.  A set of the node that covers u
    holds some vi, and only the branch of the first of them holds the set,
    so the walk meets each cover exactly once.  A node is cut only when
    none of its sets is a cover: when more uncovered vertices have pairwise
    disjoint coverers in ``allowed`` than there are open slots, since each
    needs a chosen vertex of its own, or at the last slot, when no allowed
    vertex covers every uncovered one.  Before that, an uncovered w keeps a
    coverer: it has one at the root, and in branch i, vi does not cover w,
    so at most i - 1 of its m or more allowed coverers were dropped.

    The witnesses are selected as the covers arrive: their
    :func:`_lex_key` keys go into a min-heap of at most ``witness_cap``,
    whose root is the kept cover that comes last in lexicographic order.
    The sets of a covered node share ``chosen`` and are offered in
    lexicographic order, so the first that cannot enter ends the offers.
    """
    total = 0
    size = component.bit_count()
    kept: list[int] = []
    singles = [1 << v for v in range(component.bit_length())]

    def rec(allowed: int, slots: int, acc: int, chosen: int) -> bool:
        """Count the covers that add ``slots`` >= 1 vertices of ``allowed``
        to ``chosen``; True means stop."""
        nonlocal total
        missing = component ^ acc
        if slots == 1:
            # rows are symmetric, so rows[u] is the set of u's coverers
            while missing:
                u = missing.bit_length() - 1
                allowed &= rows[u]
                if not allowed:
                    return False
                missing ^= 1 << u
        if not missing:
            count = math.comb(allowed.bit_count(), slots)
            total += count
            if witness_cap:
                for extra in combinations(select_bits(allowed, singles), slots):
                    key = _lex_key(chosen | sum(extra))
                    if len(kept) < witness_cap:
                        heappush(kept, key)
                    elif key > kept[0]:
                        heapreplace(kept, key)
                    else:
                        break
            return first and count > 0
        used = need = 0
        best, fewest = 0, size + 1
        while missing:
            low = missing & -missing
            missing ^= low
            row = rows[low.bit_length() - 1] & allowed
            if not row & used:
                used |= row
                need += 1
                if need > slots:
                    return False
            count = row.bit_count()
            if count < fewest:
                best, fewest = row, count
        while best:
            v = best & -best
            best ^= v
            allowed ^= v
            if rec(allowed, slots - 1, acc | rows[v.bit_length() - 1], chosen | v):
                return True
        return False

    if 0 < k <= size:
        rec(component, k, 0, 0)
    return total, [_lex_key(key) for key in sorted(kept, reverse=True)]


Minimum = tuple[int, tuple[int, list[int]]]


def _component_minima(
    rows: list[int], components: list[int], k: int, witness_cap: int | None = None,
) -> list[Minimum] | None:
    """Smallest cover size of each component, by iterative deepening, or
    None as soon as they cannot sum to at most k.  Every component takes
    at least one vertex, which bounds each deepening.

    Each size comes with the walk's result at that size.  With
    ``witness_cap`` None the walks stop at the first cover, and only the
    size counts.  Otherwise the deepening's last step is the full walk, so
    the result is the count and the first ``witness_cap`` covers at the
    minimum; below the minimum no cover exists, and there the full walk
    does exactly the work of the first-cover walk.
    """
    first = witness_cap is None
    spare = k - len(components)
    minima = []
    for component in components:
        for size in range(1, min(spare + 1, component.bit_count()) + 1):
            found = _walk(rows, component, size, witness_cap or 0, first)
            if found[0]:
                break
        else:
            return None
        spare -= size - 1
        minima.append((size, found))
    return minima


def _first_unions(pairs: list[tuple[list[int], list[int]]], cap: int) -> list[int]:
    """The first ``cap`` sets x | y, in lexicographic order, over pairs of
    sorted lists (xs, ys) whose sets lie in two disjoint vertex sets L, R.

    Two sets of one size compare by the lowest vertex of their symmetric
    difference: the set that holds it comes first.  So if W is among the
    first ``cap`` covers of L | R, W & L is among the first ``cap`` covers
    of L at its size.  Otherwise ``cap`` covers X of L precede W & L, and
    each (W - L) | X is a cover of L | R that precedes W, since it differs
    from W only inside L.  The same holds for R.  Hence when each list holds
    the first ``cap`` covers of its side at its size, the first ``cap``
    covers of L | R each join a listed x to a listed y.  x | y moves later
    as either x or y alone moves later, so xs[a] | ys[b] comes after the
    (a + 1) * (b + 1) - 1 other joins xs[a'] | ys[b'] with a' <= a and
    b' <= b; only joins with (a + 1) * (b + 1) <= cap can be among the
    first ``cap``, and sorting those finds them.
    """
    joins = [
        xs[a] | ys[b]
        for xs, ys in pairs
        for a in range(len(xs))
        for b in range(min(len(ys), cap // (a + 1)))
    ]
    return sorted(joins, key=_lex_key, reverse=True)[:cap]


Table = dict[int, tuple[int, list[int]]]


def _fold(left: Table, right: Table, top: int, cap: int) -> Table:
    """Cover table of the union of two disjoint vertex sets.

    A table maps a size s to ``(count, first)``: how many s-subsets cover
    the vertex set, and the first ``cap`` of them in lexicographic order, as
    masks.  Counts convolve and lists merge by :func:`_first_unions`; sizes
    above ``top`` are dropped.
    """
    counts: dict[int, int] = {}
    pairs: dict[int, list[tuple[list[int], list[int]]]] = {}
    for s, (left_count, xs) in left.items():
        for j, (right_count, ys) in right.items():
            if s + j <= top:
                counts[s + j] = counts.get(s + j, 0) + left_count * right_count
                pairs.setdefault(s + j, []).append((xs, ys))
    return {t: (count, _first_unions(pairs[t], cap)) for t, count in counts.items()}


def _count_union(
    rows: list[int], components: list[int], minima: list[Minimum], k: int,
    witness_cap: int,
) -> tuple[int, list[int]]:
    """Count of k-covers of the union of ``components`` and the first
    ``witness_cap`` of them, given each component's minimum from
    :func:`_component_minima` with the same ``witness_cap``.  Component C
    takes sizes from its own minimum up to k minus the other components'
    minimums."""
    slack = k - sum(gamma for gamma, _ in minima)
    table: Table = {0: (1, [0][:witness_cap])}
    floor = 0
    for component, (gamma, at_gamma) in zip(components, minima):
        floor += gamma
        sizes = range(gamma + 1, min(gamma + slack, component.bit_count()) + 1)
        part = {gamma: at_gamma}
        part.update((j, _walk(rows, component, j, witness_cap)) for j in sizes)
        table = _fold(table, part, floor + slack, witness_cap)
    return table.get(k, (0, []))


def _minimum_parts(
    g: Graph, mode: str, witness_cap: int | None = None,
) -> tuple[list[int], list[int], list[Minimum]]:
    """Coverage rows, components and per-component minima (see
    :func:`_component_minima`)."""
    if g.n < 1:
        prefix = "total " if mode == "total" else ""
        raise InfeasibleOrderError(
            f"{prefix}domination number is undefined for the empty graph"
        )
    if mode == "total" and g.has_isolated_vertex():
        raise UndefinedTotalDominationError(
            "total domination is undefined: graph has an isolated vertex"
        )
    rows = _cover_rows(g, mode)
    components = _components(g)
    return rows, components, _component_minima(rows, components, g.n, witness_cap)


def domination_number(g: Graph) -> int:
    """Smallest size of a dominating set: the sum over components."""
    return sum(gamma for gamma, _ in _minimum_parts(g, "dominating")[2])


def total_domination_number(g: Graph) -> int:
    """Smallest size of a total dominating set; requires no isolated vertex."""
    return sum(gamma for gamma, _ in _minimum_parts(g, "total")[2])


def _count_covers(
    g: Graph, k: int, mode: Mode, witness_cap: int
) -> tuple[int, list[int]]:
    """Count and first ``witness_cap`` masks behind :func:`count_sets` and
    :func:`count_sets_with_witnesses`."""
    check_mode(mode)
    check_countable(g.n)
    if k < 0:
        raise ValueError(f"subset size must be nonnegative, got {k}")
    if witness_cap < 0:
        raise ValueError("witness_cap must be nonnegative")
    rows = _cover_rows(g, mode)
    if k > g.n or 0 in rows:  # a vertex nothing covers: isolated, total mode
        return 0, []
    components = _components(g)
    if len(components) == 1:
        return _walk(rows, components[0], k, witness_cap)
    minima = _component_minima(rows, components, k, witness_cap)
    if minima is None:
        return 0, []
    return _count_union(rows, components, minima, k, witness_cap)


def count_sets(g: Graph, k: int, mode: Mode) -> int:
    """Exact number of k-subsets that are (total) dominating sets.

    Requires n <= 64.  The count is independent of vertex labeling and of
    any enumeration chunking.
    """
    return _count_covers(g, k, mode, 0)[0]


def count_sets_with_witnesses(
    g: Graph, k: int, mode: Mode, witness_cap: int
) -> tuple[int, tuple[VertexSet, ...]]:
    """Like :func:`count_sets`, also returning up to ``witness_cap`` of the
    qualifying sets in lexicographic order."""
    count, masks = _count_covers(g, k, mode, witness_cap)
    return count, tuple(VertexSet(g.n, mask) for mask in masks)


class DominationReport(Frozen):
    """Minimum (total) dominating set size, exact count, capped witnesses."""

    __slots__ = ("mode", "gamma", "count", "witnesses")
    mode: Mode
    gamma: int
    count: int
    witnesses: tuple[VertexSet, ...]


def count_minimum(
    g: Graph, mode: Mode, witness_cap: int = DEFAULT_WITNESS_CAP
) -> DominationReport:
    """Minimum set size for ``mode`` plus the exact number of minimum sets.

    Collects at most ``witness_cap`` witnesses in lexicographic order; pass 0
    to skip collection.
    """
    check_mode(mode)
    check_countable(g.n)
    if witness_cap < 0:
        raise ValueError("witness_cap must be nonnegative")
    rows, components, minima = _minimum_parts(g, mode, witness_cap)
    gamma = sum(size for size, _ in minima)
    count, masks = _count_union(rows, components, minima, gamma, witness_cap)
    witnesses = tuple(VertexSet(g.n, mask) for mask in masks)
    return DominationReport(mode=mode, gamma=gamma, count=count, witnesses=witnesses)
