"""Two searches over every decomposition, kept as test oracles.

``dp_allocation`` is the package's former ``optimize_allocation``: for
each number of pair components it tries every vertex total for the pair
part, splits each part optimally with a memoized recursion, and keeps the
plan with the largest product (ties to fewer components, then to the
lexicographically smallest sorted size list).  It is O(x * n^2) and
recurses once per component, so tests call it only on small (n, x).  The
closed-form rule in ``domcount.partitions`` must return exactly the same
plan.

``exhaustive_decomposition_oracle`` enumerates every multiset of
components directly and returns only the best product, with no search
shared with either.
"""

from functools import lru_cache

from domcount.constructions import (
    KIND_COMPLETE,
    KIND_PAIR,
    Component,
    PartitionPlan,
    max_dominating_pairs,
)
from domcount.errors import InfeasibleOrderError, SizeLimitError

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


def dp_allocation(n: int, x: int) -> PartitionPlan:
    """Plan maximizing the product count over all decompositions, found by
    searching every component count and every vertex split."""
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
