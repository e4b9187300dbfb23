import pytest
from hypothesis import given, settings, strategies as st

from domcount import (
    MAX_VERTICES,
    Component,
    Graph,
    GraphBuilder,
    InfeasibleOrderError,
    PartitionPlan,
    SizeLimitError,
    build_component_graph,
    cocktail_party,
    complete_graph,
    complete_multipartite,
    component_plan,
    constructions,
    count_minimum,
    count_sets,
    domination_number,
    graph_from_plan,
    max_dominating_pairs,
    max_edges_gamma2,
    max_total_dominating_pairs,
    pair_extremal_graph,
    parse_graph6,
    write_graph6,
)


def multipartite_reference(part_sizes, extra_edges=()):
    """Complete multipartite graph built one edge at a time: every pair of
    vertices in different parts, plus ``extra_edges``."""
    part = [index for index, size in enumerate(part_sizes) for _ in range(size)]
    builder = GraphBuilder(len(part))
    for v in range(len(part)):
        for u in range(v):
            if part[u] != part[v]:
                builder.add_edge(u, v)
    for u, v in extra_edges:
        builder.add_edge(u, v)
    return builder.build()


class TestRowMaskConstructions:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9), max_size=8))
    def test_complete_multipartite_matches_edge_by_edge(self, part_sizes):
        assert complete_multipartite(part_sizes).rows == (
            multipartite_reference(part_sizes).rows
        )

    @pytest.mark.parametrize("part_sizes", [[0], [2, 0, 3], [3, -1]])
    def test_complete_multipartite_refuses_an_empty_part(self, part_sizes):
        with pytest.raises(
            InfeasibleOrderError, match="^every part must have at least one vertex$"
        ):
            complete_multipartite(part_sizes)

    @pytest.mark.parametrize("r", range(4, 41))
    def test_pair_extremal_matches_edge_by_edge(self, r):
        if r % 2:
            want = multipartite_reference([3] + [2] * ((r - 3) // 2), [(0, 1)])
        else:
            want = multipartite_reference([2] * (r // 2))
        assert pair_extremal_graph(r).rows == want.rows

    @pytest.mark.parametrize("x", [6, 7])
    def test_graph6_round_trip_at_vertex_cap(self, x):
        graph = build_component_graph(MAX_VERTICES, x)[0]
        assert parse_graph6(write_graph6(graph)).rows == graph.rows


class TestCocktailParty:
    def test_order_four_is_a_four_cycle(self):
        g = cocktail_party(4)
        assert g.m == 4
        assert list(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_octahedron(self):
        g = cocktail_party(6)
        assert g.m == 12 == 6 * (6 - 2) // 2

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_infeasible_orders(self, n):
        with pytest.raises(InfeasibleOrderError):
            cocktail_party(n)

    @pytest.mark.parametrize("n", range(4, 42, 2))
    def test_edge_count_meets_gamma2_bound(self, n):
        assert cocktail_party(n).m == max_edges_gamma2(n)


class TestPairExtremalGraph:
    def test_even_is_cocktail_party(self):
        assert pair_extremal_graph(8).rows == cocktail_party(8).rows

    def test_order_five(self):
        b5 = pair_extremal_graph(5)
        # six multipartite edges plus the one extra edge inside {0,1,2}
        assert b5.m == 7
        assert b5.rows[0] >> 1 & 1
        assert count_sets(b5, 2, "total") == 6
        assert count_sets(b5, 2, "dominating") == 9

    def test_order_five_unique_failing_pair(self):
        b5 = pair_extremal_graph(5)
        from domcount import VertexSet, is_dominating

        failing = [
            (u, v)
            for u in range(5)
            for v in range(u + 1, 5)
            if not is_dominating(b5, VertexSet.from_vertices(5, [u, v]))
        ]
        assert failing == [(0, 1)]

    def test_order_seven(self):
        assert count_sets(pair_extremal_graph(7), 2, "total") == 16

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_infeasible_orders(self, r):
        with pytest.raises(InfeasibleOrderError):
            pair_extremal_graph(r)

    @pytest.mark.parametrize("r", range(4, 13))
    def test_counts_match_closed_forms(self, r):
        g = pair_extremal_graph(r)
        dom = count_minimum(g, "dominating", witness_cap=0)
        tot = count_minimum(g, "total", witness_cap=0)
        assert (dom.gamma, dom.count) == (2, max_dominating_pairs(r))
        assert (tot.gamma, tot.count) == (2, max_total_dominating_pairs(r))

    @pytest.mark.parametrize("r", [5, 7, 9])
    def test_extra_edge_irrelevant_for_total_counts(self, r):
        with_edge = pair_extremal_graph(r)
        without = complete_multipartite([3] + [2] * ((r - 3) // 2))
        assert count_sets(without, 2, "total") == count_sets(with_edge, 2, "total")
        assert (
            count_sets(without, 2, "dominating")
            == count_sets(with_edge, 2, "dominating") - 2
        )


class TestClosedForms:
    @pytest.mark.parametrize(
        "n,expected", [(4, 6), (5, 9), (6, 15), (7, 20), (8, 28)]
    )
    def test_max_dominating_pairs(self, n, expected):
        assert max_dominating_pairs(n) == expected

    @pytest.mark.parametrize(
        "n,expected", [(4, 4), (5, 6), (6, 12), (7, 16), (8, 24)]
    )
    def test_max_total_dominating_pairs(self, n, expected):
        assert max_total_dominating_pairs(n) == expected

    @pytest.mark.parametrize("n,expected", [(3, 1), (4, 4), (5, 7), (6, 12), (7, 17)])
    def test_max_edges(self, n, expected):
        assert max_edges_gamma2(n) == expected

    @pytest.mark.parametrize("n", range(4, 9))
    def test_total_form_is_not_over_total_domination_number_two(self, n):
        """K_n has total domination number 2, and all C(n, 2) of its pairs
        are total dominating: the closed form's maximum is over graphs with
        ordinary domination number 2."""
        assert count_sets(complete_graph(n), 2, "total") > max_total_dominating_pairs(n)

    def test_domain_errors(self):
        for fn in (max_dominating_pairs, max_total_dominating_pairs):
            with pytest.raises(InfeasibleOrderError):
                fn(3)
        with pytest.raises(InfeasibleOrderError):
            max_edges_gamma2(2)


class TestComponentPlan:
    def test_nine_three(self):
        plan = component_plan(9, 3)
        assert [(c.kind, c.size) for c in plan.components] == [
            ("complete", 3),
            ("pair", 6),
        ]
        assert plan.total_count == 45

    def test_eight_four(self):
        plan = component_plan(8, 4)
        assert plan.sizes() == (4, 4) and plan.total_count == 36

    def test_twelve_three(self):
        plan = component_plan(12, 3)
        assert plan.sizes() == (4, 8) and plan.total_count == 112

    def test_minimum_feasible_odd(self):
        # n = 2x-1 forces every leftover vertex onto the pair components
        plan = component_plan(5, 3)
        assert [(c.kind, c.size) for c in plan.components] == [
            ("complete", 1),
            ("pair", 4),
        ]

    def test_leftover_goes_to_pairs(self):
        plan = component_plan(14, 3)
        assert [(c.kind, c.size) for c in plan.components] == [
            ("complete", 4),
            ("pair", 10),
        ]
        assert plan.total_count == 180

    def test_leftover_split_between_pairs(self):
        plan = component_plan(13, 5)
        assert [(c.kind, c.size) for c in plan.components] == [
            ("complete", 2),
            ("pair", 6),
            ("pair", 5),
        ]
        assert plan.total_count == 2 * 15 * 9

    def test_even_x_equal_split(self):
        plan = component_plan(10, 4)
        assert plan.sizes() == (5, 5) and plan.total_count == 81

    @pytest.mark.parametrize("n,x", [(3, 2), (4, 3), (7, 4), (8, 5), (0, 1), (5, 0)])
    def test_infeasible(self, n, x):
        with pytest.raises(InfeasibleOrderError):
            component_plan(n, x)

    def test_x_one_is_complete(self):
        graph, plan = build_component_graph(6, 1)
        assert plan.components[0].kind == "complete"
        assert domination_number(graph) == 1 and plan.total_count == 6

    def test_x_two_is_pair_extremal(self):
        graph, plan = build_component_graph(7, 2)
        assert graph.rows == pair_extremal_graph(7).rows
        assert plan.total_count == 20

    def test_gamma_at_most_two_counts_are_the_closed_forms(self):
        # `formula` reads these plan counts for gamma 1 and 2
        for n in range(1, 201):
            assert component_plan(n, 1).total_count == n
        for n in range(4, 201):
            assert component_plan(n, 2).total_count == max_dominating_pairs(n)


class TestBuiltGraphs:
    @pytest.mark.parametrize("x", [3, 4, 5])
    def test_domination_number_and_count(self, x):
        for n in range(4, 15):
            try:
                graph, plan = build_component_graph(n, x)
            except InfeasibleOrderError:
                continue
            assert domination_number(graph) == x
            assert count_sets(graph, x, "dominating") == plan.total_count

    def test_plan_without_components(self):
        with pytest.raises(InfeasibleOrderError, match="^plan has no components$"):
            graph_from_plan(PartitionPlan(0, 0, ()))

    def test_plan_graph_round_trip(self):
        plan = component_plan(11, 5)
        graph = graph_from_plan(plan)
        assert graph.n == 11
        assert domination_number(graph) == 5

    def test_infeasible_and_oversized_are_refused_before_planning(self, monkeypatch):
        # the plan takes O(x) time and memory, so no refusal may build it
        def no_plan(total, parts):
            raise AssertionError(f"planned {parts} pair components")

        monkeypatch.setattr(constructions, "balanced_split", no_plan)
        for n, x in [(MAX_VERTICES + 1, 2), (MAX_VERTICES + 1, 3), (10**11, 1_000_000)]:
            with pytest.raises(SizeLimitError, match=f"vertex count {n} exceeds"):
                build_component_graph(n, x)
        # infeasibility is reported ahead of the vertex cap
        for n, x in [(10**11, 0), (5000, 4000), (-1, 2)]:
            with pytest.raises(InfeasibleOrderError):
                build_component_graph(n, x)

    def test_one_union_of_the_pieces(self, monkeypatch):
        made = []
        init = Graph.__init__

        def counted(graph, n, rows):
            made.append(n)
            init(graph, n, rows)

        monkeypatch.setattr(Graph, "__init__", counted)
        graph = graph_from_plan(component_plan(4096, 2048))
        assert made == [4] * 1024 + [4096] and graph.n == 4096


class TestPredictedCount:
    def test_manual_plans(self):
        k3_b6 = PartitionPlan(
            9, 3, (Component("complete", 3), Component("pair", 6))
        )
        assert k3_b6.total_count == 45
        b4_b6 = PartitionPlan(10, 4, (Component("pair", 4), Component("pair", 6)))
        assert b4_b6.total_count == 90
        b5_b5 = PartitionPlan(10, 4, (Component("pair", 5), Component("pair", 5)))
        assert b5_b5.total_count == 81

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            PartitionPlan(9, 3, (Component("complete", 3),))
        with pytest.raises(ValueError):
            PartitionPlan(9, 2, (Component("complete", 3), Component("pair", 6)))
        with pytest.raises(InfeasibleOrderError):
            Component("pair", 3)
        with pytest.raises(ValueError):
            Component("clique", 3)

    @pytest.mark.parametrize("x", [2, 3, 4, 5])
    def test_growth_order(self, x):
        # count stays within a constant of coefficient * n^x across the range
        if x % 2 == 0:
            coefficient = 2 ** (x // 2) / x**x
        else:
            coefficient = 2 ** ((x - 1) // 2) / x**x
        start = {2: 4, 3: 5, 4: 8, 5: 9}[x]
        for n in range(start, 121):
            plan = component_plan(n, x)
            assert plan.total_count >= coefficient * n**x / 4
