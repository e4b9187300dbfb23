"""Whole-graph counting walk kept as a test oracle for witness order.

This is the package's former kernel: one pruned lexicographic k-subset walk
over the whole vertex set, with no component factoring and no intersection
step for the last slot.  The factored kernel must list exactly the same
first ``witness_cap`` sets.
"""

import math
from itertools import combinations


def whole_graph_walk(g, k, mode, witness_cap):
    """Count the k-subsets of g that (totally) dominate it, and return the
    first ``witness_cap`` of them in lexicographic order, as vertex masks."""
    if mode == "dominating":
        rows = [row | 1 << v for v, row in enumerate(g.rows)]
    else:
        rows = list(g.rows)
    n = len(rows)
    full = (1 << n) - 1
    if k > n:
        return 0, []
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | rows[i]
    total = 0
    witnesses = []

    def emit_completions(chosen, start, slots):
        room = witness_cap - len(witnesses)
        if room <= 0:
            return
        for rest in combinations(range(start, n), slots):
            mask = chosen
            for v in rest:
                mask |= 1 << v
            witnesses.append(mask)
            room -= 1
            if room == 0:
                return

    def rec(start, slots, acc, chosen):
        nonlocal total
        if acc == full:
            total += math.comb(n - start, slots)
            if witness_cap:
                emit_completions(chosen, start, slots)
            return
        if slots == 0:
            return
        for j in range(start, n - slots + 1):
            if acc | suffix[j] != full:
                return
            rec(j + 1, slots - 1, acc | rows[j], chosen | 1 << j)

    rec(0, k, 0, 0)
    return total, witnesses
