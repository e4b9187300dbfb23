"""Exact optimization of the component decomposition.

Given n vertices and a target domination number x, find the split of the
vertices into complete components (domination number 1, at least 1 vertex)
and pair-extremal components (domination number 2, at least 4 vertices)
whose domination numbers sum to x and whose product of per-component
minimum-set counts is largest.  An exchange argument (see
:func:`optimize_allocation`) pins the optimum down to one balanced rule,
computed directly.

The counts are exact and parity-aware (C(r,2) - 1 for odd pair sizes), so
the optimum can differ from an equal split by one vertex: for example
(n=10, x=4) the best sizes are {4, 6} with 6*15 = 90, beating the equal
split {5, 5} with 9*9 = 81.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .constructions import (
    PartitionPlan,
    balanced_split,
    max_dominating_pairs,
    union_plan,
)
from .errors import InfeasibleOrderError, SizeLimitError
from .graphs import check_order

ORACLE_MAX_N = 30
ORACLE_MAX_X = 6


def _pair_sizes(rest: int, pairs: int) -> list[int]:
    """Pair sizes of the optimal plan (see :func:`optimize_allocation`),
    ascending."""
    sizes = [2 * s for s in balanced_split(rest // 2, pairs)]
    if rest % 2:
        sizes[-1] += 1
    return sorted(sizes)


def optimize_allocation(n: int, x: int) -> PartitionPlan:
    """Plan maximizing the product count over all decompositions.

    A :func:`constructions.union_plan`: odd x gets one complete component
    of size floor(n/x), even x none.  The ``rest`` of the vertices go to
    x//2 pair components: floor(rest/2) is split as evenly as possible,
    each part is doubled, and an odd ``rest`` adds its last vertex to one
    of the smallest parts.  The plan lists the complete component first,
    then the pair sizes in ascending order.

    Among plans with the largest product, ties go to fewer components, then
    to the lexicographically smallest sorted size list.  The rule is exact
    by three exchanges:

    1. Two complete components of sizes r, r' never beat one pair
       component of size r + r' >= 4: C(r + r', 2) - 1 >= r * r' (the
       pairing inequality, :func:`check_pairing_inequality`), and the merge
       leaves one component fewer.  So there is at most one complete
       component, and x fixes how many: x mod 2.
    2. For any two pair components, the best split of their total is
       unique: two even sizes that differ by at most 2, or two consecutive
       sizes when the total is odd.  So at most one pair size is odd, and
       the multiset of pair sizes is fixed by ``rest`` and x//2; it is the
       one built above.
    3. Trading vertices between the complete component and the pair
       components lands on floor(n/x).  Ties occur: (13, 3) gives 4 + 9 and
       5 + 8, both with count 140, and the smaller size list (4, 9) wins.

    The former search over every split is kept in the tests as an oracle;
    the rule matches it plan for plan (kinds, sizes and order).
    Feasibility is as in :func:`constructions.component_plan`; n is capped
    at ``MAX_VERTICES``, the same cap as a construction.
    """
    plan = union_plan(n, x, _pair_sizes)
    check_order(n)
    return plan


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
