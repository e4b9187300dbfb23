"""Set-arithmetic domination count, kept as a test oracle.

The package counts dominating sets with one bit-mask walk per connected
component.  This re-implements the same contract with plain vertex lists
and set arithmetic and shares no counting code with it, so tests compare
the two on exhaustive small inputs.
"""

from itertools import combinations

from domcount.domination import Mode, check_countable, check_mode
from domcount.graphs import Graph


def count_sets_naive(g: Graph, k: int, mode: Mode) -> int:
    """Reference oracle for :func:`count_sets`.

    Works from explicit neighbor lists and Python sets with no bit packing,
    no pruning, and no shared code with the fast path.
    """
    check_mode(mode)
    check_countable(g.n)
    if k < 0:
        raise ValueError(f"subset size must be nonnegative, got {k}")
    if k > g.n:
        return 0
    neighbors = [{u for u in range(g.n) if g.rows[v] >> u & 1} for v in range(g.n)]
    everything = set(range(g.n))
    count = 0
    for subset in combinations(range(g.n), k):
        covered = set()
        for v in subset:
            covered |= neighbors[v]
            if mode == "dominating":
                covered.add(v)
        if covered == everything:
            count += 1
    return count
