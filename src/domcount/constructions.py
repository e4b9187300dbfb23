"""Extremal graph constructions and their closed-form set counts.

Two families do all the work:

* ``complete_graph(r)`` — domination number 1, with r minimum dominating sets.
* ``pair_extremal_graph(r)`` — domination number 2, attaining the maximum
  possible number of dominating (and total dominating) 2-sets at order r.
  For even r this is the cocktail party graph K_{2,...,2}; for odd r it is
  the complete multipartite graph with parts 3,2,...,2 plus one extra edge
  inside the size-3 part.

Graphs with any larger target domination number x are produced as disjoint
unions of these two kinds of components, with the domination numbers of the
components summing to x; minimum dominating sets then multiply across
components.  ``efficiency_ratio`` says how many of all x-subsets of such a
union dominate it: the exact fraction, and its limit as n grows.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial, prod
from typing import Callable, Sequence

from .errors import InfeasibleOrderError
from .graphs import Frozen, Graph, check_order, complete_graph, disjoint_union
from .graphs import set_field

KIND_COMPLETE = "complete"
KIND_PAIR = "pair"


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive vertex indices.

    Each vertex is adjacent to every vertex outside its own part, so its row
    is the full mask with the part's mask cleared.
    """
    if any(size < 1 for size in part_sizes):
        raise InfeasibleOrderError("every part must have at least one vertex")
    n = sum(part_sizes)
    check_order(n)
    full = (1 << n) - 1
    rows: list[int] = []
    for size in part_sizes:
        part = ((1 << size) - 1) << len(rows)
        rows.extend([full ^ part] * size)
    return Graph(n, tuple(rows))


def cocktail_party(n: int) -> Graph:
    """K_{2,...,2} with n/2 parts {2i, 2i+1}: K_n minus a perfect matching."""
    if n < 4 or n % 2:
        raise InfeasibleOrderError(f"cocktail party graph needs even n >= 4, got {n}")
    return complete_multipartite([2] * (n // 2))


def pair_extremal_graph(r: int) -> Graph:
    """Order-r graph maximizing the number of (total) dominating 2-sets.

    Even r: the cocktail party graph.  Odd r: parts {0,1,2}, {3,4}, ...,
    {r-2, r-1} made complete multipartite, plus the single extra edge {0,1}.
    Orders below 4 are rejected (r=3 would leave vertex 2 isolated, with no
    total dominating set at all).
    """
    if r < 4:
        raise InfeasibleOrderError(f"pair-extremal graph needs r >= 4, got {r}")
    if r % 2 == 0:
        return cocktail_party(r)
    rows = complete_multipartite([3] + [2] * ((r - 3) // 2)).rows
    return Graph(r, (rows[0] | 0b10, rows[1] | 0b01) + rows[2:])


def max_dominating_pairs(n: int) -> int:
    """Maximum number of dominating 2-sets over n-vertex graphs with
    domination number 2: C(n,2) for even n, C(n,2) - 1 for odd n."""
    if n < 4:
        raise InfeasibleOrderError(f"closed form needs n >= 4, got {n}")
    return comb(n, 2) if n % 2 == 0 else comb(n, 2) - 1


def max_total_dominating_pairs(n: int) -> int:
    """Maximum number of total dominating 2-sets over n-vertex graphs with
    (ordinary) domination number 2: n(n-2)/2 for even n, (n(n-2)-3)/2 for
    odd n.  Not over graphs with total domination number 2: K_n has that,
    and all C(n, 2) of its pairs are total dominating."""
    if n < 4:
        raise InfeasibleOrderError(f"closed form needs n >= 4, got {n}")
    if n % 2 == 0:
        return n * (n - 2) // 2
    return (n * (n - 2) - 3) // 2


def max_edges_gamma2(n: int) -> int:
    """Maximum edge count of an n-vertex graph with domination number >= 2:
    n(n-2)/2 for even n, (n(n-2)-1)/2 for odd n."""
    if n < 3:
        raise InfeasibleOrderError(f"edge bound needs n >= 3, got {n}")
    if n % 2 == 0:
        return n * (n - 2) // 2
    return (n * (n - 2) - 1) // 2


def component_count(kind: str, size: int) -> int:
    """Number of minimum dominating sets contributed by one component."""
    if kind == KIND_COMPLETE:
        if size < 1:
            raise InfeasibleOrderError("complete component needs size >= 1")
        return size
    if kind == KIND_PAIR:
        return max_dominating_pairs(size)
    raise ValueError(f"unknown component kind {kind!r}")


class Component(Frozen):
    """One component of a union construction: a complete graph (domination
    number 1, ``size`` minimum sets) or a pair-extremal graph (domination
    number 2, ``max_dominating_pairs(size)`` minimum sets)."""

    __slots__ = ("kind", "size")
    kind: str
    size: int

    def __init__(self, kind: str, size: int):
        component_count(kind, size)  # validates kind and size
        set_field(self, "kind", kind)
        set_field(self, "size", size)

    @property
    def gamma(self) -> int:
        return 1 if self.kind == KIND_COMPLETE else 2

    @property
    def count(self) -> int:
        return component_count(self.kind, self.size)


class PartitionPlan(Frozen):
    """A multiset of components realizing total order n and domination
    number x; ``total_count`` is the product of per-component counts."""

    __slots__ = ("n", "x", "components")
    n: int
    x: int
    components: tuple[Component, ...]

    def __init__(self, n: int, x: int, components: tuple[Component, ...]):
        if sum(c.size for c in components) != n:
            raise ValueError("component sizes must sum to n")
        if sum(c.gamma for c in components) != x:
            raise ValueError("component domination numbers must sum to x")
        set_field(self, "n", n)
        set_field(self, "x", x)
        set_field(self, "components", components)

    @property
    def total_count(self) -> int:
        # A balanced plan has few distinct component counts.  One power per
        # count takes a few squarings of large numbers; one multiplication
        # per component costs the square of the product's length in all.
        repeats = Counter(c.count for c in self.components)
        return prod(count**times for count, times in repeats.items())

    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted(c.size for c in self.components))


def require_feasible(n: int, x: int) -> None:
    """Raise unless some union construction with domination number x fits
    on exactly n vertices (see :func:`component_plan` for the bounds)."""
    if x < 1:
        raise InfeasibleOrderError(f"target domination number must be >= 1, got {x}")
    # x % 2 complete components of >= 1 vertex, x // 2 pair components of >= 4
    minimum = x % 2 + 4 * (x // 2)
    if n < minimum:
        raise InfeasibleOrderError(
            f"no construction with domination number {x} on {n} vertices "
            f"(needs n >= {minimum})"
        )


def balanced_split(total: int, parts: int) -> list[int]:
    """``total`` split into ``parts`` sizes that differ by at most 1, larger
    sizes first."""
    return [(total + i) // parts for i in reversed(range(parts))]


def union_plan(
    n: int, x: int, pair_split: Callable[[int, int], Sequence[int]]
) -> PartitionPlan:
    """Plan for (n, x) with one complete component of size floor(n/x) first
    when x is odd, then x//2 pair components whose sizes are
    ``pair_split(rest, x // 2)`` for the ``rest`` of the vertices."""
    require_feasible(n, x)
    complete = n // x if x % 2 else 0
    components = [Component(KIND_COMPLETE, complete)] if complete else []
    components += [Component(KIND_PAIR, s) for s in pair_split(n - complete, x // 2)]
    return PartitionPlan(n, x, tuple(components))


def component_plan(n: int, x: int) -> PartitionPlan:
    """The prescribed allocation of n vertices to components summing to
    domination number x: a :func:`union_plan` whose pair sizes are as equal
    as possible, larger sizes first.  So x=1 is one complete component and
    x=2 one pair component."""
    return union_plan(n, x, balanced_split)


class EfficiencyReport(Frozen):
    """How close the union construction comes to all C(n, x) subsets.

    ``ratio`` is the exact fraction of x-subsets that dominate the (n, x)
    construction.  ``ratio_limit`` is its fixed-x limit as n grows:
    x! * 2^(x/2) / x^x for even x and x! * 2^((x-1)/2) / x^x for odd x.
    ``asymptotic_coefficient`` is the matching leading coefficient of the
    dominating-set count itself (count ~ coefficient * n^x).
    """

    __slots__ = ("n", "x", "ratio", "ratio_limit", "asymptotic_coefficient")
    n: int
    x: int
    ratio: Fraction
    ratio_limit: Fraction
    asymptotic_coefficient: Fraction


def efficiency_ratio(n: int, x: int) -> EfficiencyReport:
    """Exact fraction of x-subsets that dominate the (n, x) construction."""
    from fractions import Fraction  # here, not at import: only this needs it

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


def graph_from_plan(plan: PartitionPlan) -> Graph:
    """Materialize a plan as the disjoint union of its components, in plan
    order (vertices of later components are offset by earlier sizes)."""
    if not plan.components:
        raise InfeasibleOrderError("plan has no components")
    build = {KIND_COMPLETE: complete_graph, KIND_PAIR: pair_extremal_graph}
    return disjoint_union(*[build[c.kind](c.size) for c in plan.components])


def build_component_graph(n: int, x: int) -> tuple[Graph, PartitionPlan]:
    """Build the union construction for (n, x) and return it with its plan.

    The result has domination number exactly x and ``plan.total_count``
    dominating x-sets.  The construction is intentionally disconnected for
    x >= 3; adding connector edges would change the counts.
    """
    require_feasible(n, x)
    check_order(n)  # before the plan, which takes O(x) time and memory
    plan = component_plan(n, x)
    return graph_from_plan(plan), plan
