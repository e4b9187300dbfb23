"""Exact optimization of the component decomposition.

Given n vertices and a target domination number x, search every way of
splitting the vertices into complete components (domination number 1, at
least 1 vertex) and pair-extremal components (domination number 2, at least
4 vertices) so the per-component domination numbers sum to x, and maximize
the product of per-component minimum-set counts.

The search uses exact parity-aware counts (C(r,2) - 1 for odd pair sizes),
so the optimum can differ from an equal split by one vertex: for example
(n=10, x=4) the best sizes are {4, 6} with 6*15 = 90, beating the equal
split {5, 5} with 9*9 = 81.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .constructions import (
    KIND_COMPLETE,
    KIND_PAIR,
    Component,
    PartitionPlan,
    max_dominating_pairs,
    require_feasible,
)
from .errors import InfeasibleOrderError, SizeLimitError
from .graphs import check_order

ORACLE_MAX_N = 30
ORACLE_MAX_X = 6


@lru_cache(maxsize=None)
def _best_complete_split(q: int, total: int) -> tuple[int, tuple[int, ...]] | None:
    """Best way to split ``total`` vertices into q complete components:
    (max product of sizes, lexicographically smallest sorted size tuple)."""
    if q == 0:
        return (1, ()) if total == 0 else None
    best = None
    for s in range(1, total - (q - 1) + 1):
        sub = _best_complete_split(q - 1, total - s)
        if sub is None:
            continue
        cand = (s * sub[0], tuple(sorted(sub[1] + (s,))))
        if best is None or (-cand[0], cand[1]) < (-best[0], best[1]):
            best = cand
    return best


@lru_cache(maxsize=None)
def _best_pair_split(q: int, total: int) -> tuple[int, tuple[int, ...]] | None:
    """Best way to split ``total`` vertices into q pair-extremal components."""
    if q == 0:
        return (1, ()) if total == 0 else None
    best = None
    for s in range(4, total - 4 * (q - 1) + 1):
        sub = _best_pair_split(q - 1, total - s)
        if sub is None:
            continue
        cand = (max_dominating_pairs(s) * sub[0], tuple(sorted(sub[1] + (s,))))
        if best is None or (-cand[0], cand[1]) < (-best[0], best[1]):
            best = cand
    return best


def optimize_allocation(n: int, x: int) -> PartitionPlan:
    """Plan maximizing the product count over all decompositions.

    The search covers every number of complete and pair components
    consistent with x and every vertex split between them.  Ties go to
    fewer components, then to the lexicographically smallest sorted size
    list.  Feasibility is as in :func:`constructions.component_plan`; n is
    capped at ``MAX_VERTICES``, as for a construction, since the search is
    quadratic in n.
    """
    require_feasible(n, x)
    check_order(n)
    best_key = None
    best_split: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for pair_count in range(x // 2 + 1):
        complete_count = x - 2 * pair_count
        if complete_count + 4 * pair_count > n:
            continue
        pair_totals = (
            range(4 * pair_count, n - complete_count + 1) if pair_count else (0,)
        )
        for pair_total in pair_totals:
            sub_c = _best_complete_split(complete_count, n - pair_total)
            sub_p = _best_pair_split(pair_count, pair_total)
            if sub_c is None or sub_p is None:
                continue
            product = sub_c[0] * sub_p[0]
            merged = tuple(sorted(sub_c[1] + sub_p[1]))
            key = (-product, complete_count + pair_count, merged)
            if best_key is None or key < best_key:
                best_key = key
                best_split = (sub_c[1], sub_p[1])
    if best_split is None:
        raise InfeasibleOrderError(f"no decomposition exists for (n={n}, x={x})")
    complete_sizes, pair_sizes = best_split
    components = tuple(Component(KIND_COMPLETE, s) for s in complete_sizes) + tuple(
        Component(KIND_PAIR, s) for s in pair_sizes
    )
    return PartitionPlan(n, x, components)


def exhaustive_decomposition_oracle(n: int, x: int) -> int:
    """Independent brute-force maximum of the product count.

    Enumerates every multiset of (kind, size) components directly, with no
    shared machinery with :func:`optimize_allocation`.  Capped at n <= 30,
    x <= 6.
    """
    if n > ORACLE_MAX_N or x > ORACLE_MAX_X:
        raise SizeLimitError(
            f"oracle supports n <= {ORACLE_MAX_N}, x <= {ORACLE_MAX_X}"
        )
    if n < 0 or x < 0:
        raise ValueError("n and x must be nonnegative")
    best: int | None = None

    def extend_pairs(n_left: int, x_left: int, min_size: int, product: int) -> None:
        nonlocal best
        if x_left == 0:
            if n_left == 0 and (best is None or product > best):
                best = product
            return
        if x_left % 2:
            return
        for s in range(min_size, n_left + 1):
            extend_pairs(n_left - s, x_left - 2, s, product * max_dominating_pairs(s))

    def extend_completes(n_left: int, x_left: int, min_size: int, product: int) -> None:
        extend_pairs(n_left, x_left, 4, product)
        if x_left >= 1:
            for s in range(min_size, n_left + 1):
                extend_completes(n_left - s, x_left - 1, s, product * s)

    extend_completes(n, x, 1, 1)
    if best is None:
        raise InfeasibleOrderError(f"no decomposition exists for (n={n}, x={x})")
    return best


def check_pairing_inequality(r: int, r_prime: int) -> bool:
    """True iff C(r + r', 2) >= r * r': merging two complete components of
    sizes r, r' into one pair component never loses count."""
    if r < 1 or r_prime < 1:
        raise ValueError("component sizes must be >= 1")
    return comb(r + r_prime, 2) >= r * r_prime


def check_balance_inequality(r: int, a: int) -> bool:
    """True iff C(r+a,2) * C(r-a,2) <= C(r,2)^2: unbalancing two equal pair
    components by a vertices each never gains count."""
    if a < 1:
        raise ValueError("imbalance must be >= 1")
    if a >= r:
        raise ValueError(f"imbalance {a} must be smaller than size {r}")
    return comb(r + a, 2) * comb(r - a, 2) <= comb(r, 2) ** 2


@dataclass(frozen=True)
class AllocationComparison:
    """Counts of the two candidate decompositions for target 4 on n vertices:
    two pair components of size n/2, versus two complete components of size
    n/4 plus one pair component of size n/2."""

    n: int
    two_pair_count: int
    mixed_count: int

    @property
    def two_pairs_win(self) -> bool:
        return self.two_pair_count > self.mixed_count


def quad_split_comparison(n: int) -> AllocationComparison:
    """Exact comparison behind preferring pair components for target 4."""
    if n < 16 or n % 4:
        raise InfeasibleOrderError(f"comparison needs n divisible by 4, n >= 16, got {n}")
    half = n // 2
    quarter = n // 4
    return AllocationComparison(
        n=n,
        two_pair_count=max_dominating_pairs(half) ** 2,
        mixed_count=quarter * quarter * max_dominating_pairs(half),
    )
