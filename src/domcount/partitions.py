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

from .constructions import PartitionPlan, balanced_split, require_feasible, union_plan
from .graphs import check_order


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
       pairing inequality; acceptance criterion 6 checks
       C(r + r', 2) >= r * r' for r, r' <= 200), and the merge leaves one
       component fewer.  So there is at most one complete component, and x
       fixes how many: x mod 2.
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
    require_feasible(n, x)
    check_order(n)  # before the plan, which takes O(x) time and memory
    return union_plan(n, x, _pair_sizes)
