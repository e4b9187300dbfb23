import math
import random
import sys
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from conftest import labeled_graphs, relabel
from domcount import (
    SizeLimitError,
    UndefinedTotalDominationError,
    VertexSet,
    build_component_graph,
    complete_graph,
    complete_multipartite,
    count_minimum,
    count_sets,
    count_sets_with_witnesses,
    disjoint_union,
    domination_number,
    from_edges,
    is_dominating,
    is_total_dominating,
    new_graph,
    pair_extremal_graph,
    total_domination_number,
)
from domcount import domination
from domcount.scanning import graph_from_edge_mask
from naive_oracle import count_sets_naive
from walk_oracle import whole_graph_walk


def cycle(n):
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def vs(g, *vertices):
    return VertexSet.from_vertices(g.n, vertices)


class TestPredicates:
    def test_whole_vertex_set_dominates(self):
        for g in (new_graph(3), cycle(5), complete_graph(4)):
            assert is_dominating(g, VertexSet(g.n, (1 << g.n) - 1))

    def test_cycle_pair_dominates(self):
        assert is_dominating(cycle(4), vs(cycle(4), 0, 1))

    def test_multipartite_triple_part_pair_fails(self):
        # without the extra edge, two vertices of the 3-part leave the third
        # vertex of their own part uncovered
        g = complete_multipartite([3, 2, 2])
        assert not is_dominating(g, vs(g, 0, 1))

    def test_total_k2(self):
        g = complete_graph(2)
        assert is_total_dominating(g, vs(g, 0, 1))

    def test_total_cycle_antipodal_pair_fails(self):
        g = cycle(4)
        assert not is_total_dominating(g, vs(g, 0, 2))

    def test_total_on_pair_extremal_graph(self):
        b5 = pair_extremal_graph(5)
        assert not is_total_dominating(b5, vs(b5, 0, 2))
        assert is_total_dominating(b5, vs(b5, 0, 3))

    def test_mismatched_universe_rejected(self):
        with pytest.raises(ValueError):
            is_dominating(new_graph(3), VertexSet(4, 0b1))


class TestNumbers:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_complete_graph_number_one(self, n):
        assert domination_number(complete_graph(n)) == 1

    def test_pair_extremal_needs_two(self):
        assert domination_number(pair_extremal_graph(6)) == 2

    def test_union_adds(self):
        g = disjoint_union(complete_graph(3), pair_extremal_graph(6))
        assert domination_number(g) == 3

    def test_total_k2(self):
        assert total_domination_number(complete_graph(2)) == 2

    def test_total_pair_extremal(self):
        assert total_domination_number(pair_extremal_graph(6)) == 2

    def test_total_rejects_isolated_vertex(self):
        with pytest.raises(UndefinedTotalDominationError):
            total_domination_number(new_graph(3))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            domination_number(new_graph(0))


class TestCountSets:
    def test_pair_extremal_even(self):
        b6 = pair_extremal_graph(6)
        assert count_sets(b6, 2, "total") == 12
        assert count_sets(b6, 2, "dominating") == 15

    def test_pair_extremal_odd(self):
        assert count_sets(pair_extremal_graph(5), 2, "dominating") == 9

    def test_complete_singletons(self):
        assert count_sets(complete_graph(4), 1, "dominating") == 4

    def test_oversized_subsets(self):
        assert count_sets(complete_graph(3), 5, "dominating") == 0

    def test_counting_cap(self):
        with pytest.raises(SizeLimitError):
            count_sets(new_graph(65), 1, "dominating")
        with pytest.raises(SizeLimitError):
            count_sets_naive(new_graph(65), 1, "dominating")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            count_sets(new_graph(1), 1, "both")

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda g: count_sets(g, -1, "dominating"),
             "subset size must be nonnegative, got -1"),
            (lambda g: count_sets_with_witnesses(g, -2, "total", 5),
             "subset size must be nonnegative, got -2"),
            (lambda g: count_sets_with_witnesses(g, 2, "dominating", -1),
             "witness_cap must be nonnegative"),
            (lambda g: count_minimum(g, "total", witness_cap=-1),
             "witness_cap must be nonnegative"),
        ],
    )
    def test_negative_size_or_witness_cap(self, call, message):
        with pytest.raises(ValueError) as caught:
            call(cycle(4))
        assert type(caught.value) is ValueError and str(caught.value) == message


class TestCountMinimum:
    def test_cycle_dominating(self):
        report = count_minimum(cycle(4), "dominating")
        assert (report.gamma, report.count) == (2, 6)

    def test_cycle_total(self):
        report = count_minimum(cycle(4), "total")
        assert (report.gamma, report.count) == (2, 4)

    def test_union_product(self):
        g = disjoint_union(complete_graph(3), pair_extremal_graph(6))
        report = count_minimum(g, "dominating")
        assert (report.gamma, report.count) == (3, 45)

    def test_witnesses_valid(self):
        g = pair_extremal_graph(7)
        report = count_minimum(g, "total")
        assert len(report.witnesses) == report.count == 16
        for w in report.witnesses:
            assert w.size == report.gamma
            assert is_total_dominating(g, w)

    def test_witness_cap(self):
        report = count_minimum(cycle(4), "dominating", witness_cap=3)
        assert report.count == 6 and len(report.witnesses) == 3
        # lexicographic enumeration order
        assert [w.vertices() for w in report.witnesses] == [(0, 1), (0, 2), (0, 3)]
        assert count_minimum(cycle(4), "dominating", witness_cap=0).witnesses == ()

    def test_count_sets_with_witnesses_at_size(self):
        count, witnesses = count_sets_with_witnesses(cycle(4), 3, "dominating", 2)
        assert count == 4 and len(witnesses) == 2


class TestNaiveOracle:
    def test_matches_on_pair_extremal(self):
        b6 = pair_extremal_graph(6)
        assert count_sets_naive(b6, 2, "dominating") == 15
        assert count_sets_naive(b6, 2, "total") == 12

    def test_single_vertex(self):
        assert count_sets_naive(new_graph(1), 1, "dominating") == 1

    def test_random_sweep(self):
        rng = random.Random(20240817)
        for _ in range(200):
            n = rng.randint(1, 10)
            mask = rng.randrange(1 << (n * (n - 1) // 2))
            g = graph_from_edge_mask(n, mask)
            for k in range(0, min(3, n) + 1):
                for mode in ("dominating", "total"):
                    assert count_sets(g, k, mode) == count_sets_naive(g, k, mode)


class TestInvariantProperties:
    @given(labeled_graphs(min_n=1, max_n=7), st.data())
    def test_total_implies_dominating(self, g, data):
        mask = data.draw(st.integers(0, (1 << g.n) - 1))
        s = VertexSet(g.n, mask)
        if is_total_dominating(g, s):
            assert is_dominating(g, s)

    @given(labeled_graphs(min_n=1, max_n=7), st.data())
    def test_monotone_under_superset(self, g, data):
        mask = data.draw(st.integers(0, (1 << g.n) - 1))
        extra = data.draw(st.integers(0, (1 << g.n) - 1))
        small, big = VertexSet(g.n, mask), VertexSet(g.n, mask | extra)
        for predicate in (is_dominating, is_total_dominating):
            if predicate(g, small):
                assert predicate(g, big)

    @given(labeled_graphs(min_n=1, max_n=7))
    def test_gamma_below_total_gamma(self, g):
        if g.has_isolated_vertex():
            return
        assert domination_number(g) <= total_domination_number(g)

    @given(labeled_graphs(min_n=2, max_n=7), st.data())
    def test_edge_monotone(self, g, data):
        non_edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.rows[u] >> v & 1
        ]
        if not non_edges:
            return
        u, v = data.draw(st.sampled_from(non_edges))
        larger = from_edges(g.n, list(g.edges()) + [(u, v)])
        assert domination_number(larger) <= domination_number(g)

    @settings(max_examples=60)
    @given(labeled_graphs(min_n=1, max_n=5), labeled_graphs(min_n=1, max_n=5))
    def test_union_additivity(self, g, h):
        union = disjoint_union(g, h)
        rg = count_minimum(g, "dominating", witness_cap=0)
        rh = count_minimum(h, "dominating", witness_cap=0)
        ru = count_minimum(union, "dominating", witness_cap=0)
        assert ru.gamma == rg.gamma + rh.gamma
        assert ru.count == rg.count * rh.count

    @given(labeled_graphs(min_n=1, max_n=7), st.data())
    def test_count_invariant_under_relabeling(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        h = relabel(g, perm)
        for k in (1, 2):
            for mode in ("dominating", "total"):
                assert count_sets(g, k, mode) == count_sets(h, k, mode)


@st.composite
def disjoint_unions(draw, max_n: int = 12):
    """Disjoint union of 1-4 random labeled graphs (K1 and graphs with
    isolated vertices included) on at most ``max_n`` vertices, relabelled at
    random so that the components interleave."""
    parts = [draw(labeled_graphs(min_n=1, max_n=6))]
    budget = max_n - parts[0].n
    for _ in range(draw(st.integers(0, 3))):
        if budget == 0:
            break
        parts.append(draw(labeled_graphs(min_n=1, max_n=min(6, budget))))
        budget -= parts[-1].n
    g = reduce(disjoint_union, parts)
    return relabel(g, draw(st.permutations(range(g.n))))


class TestFactoredKernel:
    @settings(max_examples=150, deadline=None)
    @given(disjoint_unions())
    def test_matches_naive_counts_and_whole_graph_walk(self, g):
        for mode in ("dominating", "total"):
            naive = [count_sets_naive(g, k, mode) for k in range(g.n + 1)]
            for k in range(g.n + 1):
                assert count_sets(g, k, mode) == naive[k]
                for cap in (1, 7, 1000):
                    count, witnesses = count_sets_with_witnesses(g, k, mode, cap)
                    assert count == naive[k]
                    _, expected = whole_graph_walk(g, k, mode, cap)
                    assert [w.mask for w in witnesses] == expected
            if mode == "total" and g.has_isolated_vertex():
                with pytest.raises(UndefinedTotalDominationError):
                    total_domination_number(g)
                with pytest.raises(UndefinedTotalDominationError):
                    count_minimum(g, mode)
                continue
            gamma = next(k for k, count in enumerate(naive) if count)
            if mode == "dominating":
                assert domination_number(g) == gamma
            else:
                assert total_domination_number(g) == gamma
            report = count_minimum(g, mode, witness_cap=7)
            assert (report.gamma, report.count) == (gamma, naive[gamma])
            expected = whole_graph_walk(g, gamma, mode, 7)[1]
            assert [w.mask for w in report.witnesses] == expected

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    def test_empty_graph_has_one_empty_set(self, mode):
        g = new_graph(0)
        assert count_sets(g, 0, mode) == 1
        assert count_sets_with_witnesses(g, 0, mode, 1) == (1, (VertexSet(0, 0),))

    def test_large_union_domination_number(self):
        # K_200 and two pair-extremal components of 400 vertices: far past
        # the counting cap, but each component takes only a short walk
        g, plan = build_component_graph(1000, 5)
        assert domination_number(g) == 5
        assert total_domination_number(g) == 2 * len(plan.components)


def path(n):
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def connected_gnp(n, p, seed):
    """First connected G(n, p) draw from the seeded generator."""
    rng = random.Random(seed)
    while True:
        g = from_edges(
            n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        )
        reached, frontier = {0}, [0]
        while frontier:
            row = g.rows[frontier.pop()]
            for w in range(n):
                if row >> w & 1 and w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if len(reached) == n:
            return g


# Connected graphs with domination numbers 4-7 (total 5-11): large enough
# that the walk's packing bound cuts subtrees, which it cannot do on the
# small unions above.
PRUNED = {
    "P14": path(14),
    "P17": path(17),
    "P20": path(20),
    "C15": cycle(15),
    "C18": cycle(18),
    "C21": cycle(21),
    "G16": connected_gnp(16, 0.2, 1),
    "G19": connected_gnp(19, 0.17, 2),
    "G22": connected_gnp(22, 0.15, 3),
    "P17 relabelled": relabel(path(17), random.Random(4).sample(range(17), 17)),
    "P8 + C10": disjoint_union(path(8), cycle(10)),
}


class TestPackingBound:
    @pytest.mark.parametrize("mode", ["dominating", "total"])
    @pytest.mark.parametrize("name", list(PRUNED))
    def test_matches_whole_graph_walk_and_naive(self, name, mode):
        g = PRUNED[name]
        gamma = next(k for k in range(1, g.n + 1) if whole_graph_walk(g, k, mode, 0)[0])
        number = domination_number if mode == "dominating" else total_domination_number
        assert number(g) == gamma
        for k in range(gamma, gamma + 3):
            count, expected = whole_graph_walk(g, k, mode, 1000)
            assert count_sets(g, k, mode) == count
            # the naive oracle enumerates every k-subset; keep it to the
            # sizes it finishes quickly
            if math.comb(g.n, k) <= 200_000:
                assert count_sets_naive(g, k, mode) == count
            for cap in (1, 7, 1000):
                got, witnesses = count_sets_with_witnesses(g, k, mode, cap)
                assert got == count
                assert [w.mask for w in witnesses] == expected[:cap]
            if k == gamma:
                report = count_minimum(g, mode, witness_cap=7)
                assert (report.gamma, report.count) == (gamma, count)
                assert [w.mask for w in report.witnesses] == expected[:7]

    @staticmethod
    def walk_calls(run):
        """``run()`` and the number of calls of the walk's inner ``rec``
        it made."""
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            code = frame.f_code
            if event == "call" and code.co_name == "rec" and (
                code.co_filename == domination.__file__
            ):
                calls += 1

        sys.setprofile(profile)
        try:
            result = run()
        finally:
            sys.setprofile(None)
        return result, calls

    def test_cuts_the_walk(self):
        """The walk's work on a sparse G(40, 0.15) with domination number 8,
        as calls of its inner ``rec``: 1962 with the bound and 4038 without
        it."""
        g = connected_gnp(40, 0.15, 1)
        gamma, calls = self.walk_calls(lambda: domination_number(g))
        assert gamma == 8
        assert calls <= 2500

    def test_bounded_work_above_gamma(self):
        """Counting above the minimum on a dense G(44, 0.3) with domination
        number 5: 130343 ``rec`` calls at size 7."""
        g = connected_gnp(44, 0.3, 1)
        assert domination_number(g) == 5
        count, calls = self.walk_calls(lambda: count_sets(g, 7, "dominating"))
        assert count == 443630
        assert calls <= 150_000

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    def test_witness_order_when_the_count_exceeds_the_cap(self, mode):
        # thousands of covers at gamma + 2 arrive out of lexicographic
        # order, so the kept witnesses are replaced many times
        g = connected_gnp(22, 0.3, 1)
        number = domination_number if mode == "dominating" else total_domination_number
        k = number(g) + 2
        count, expected = whole_graph_walk(g, k, mode, 1000)
        assert count > 2000
        for cap in (1, 7, 1000):
            got, witnesses = count_sets_with_witnesses(g, k, mode, cap)
            assert got == count
            assert [w.mask for w in witnesses] == expected[:cap]
