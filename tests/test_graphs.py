import inspect
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import edge_list_oracle
from conftest import labeled_graphs, relabel
from domcount import (
    MAX_VERTICES,
    DominationReport,
    EfficiencyReport,
    ExtremalRecord,
    GraphBuilder,
    InfeasibleOrderError,
    InvalidEdgeError,
    SizeLimitError,
    VertexSet,
    complete_graph,
    disjoint_union,
    domination_number,
    from_edges,
    new_graph,
)


def cycle(n):
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def degree_multiset(g):
    return sorted(row.bit_count() for row in g.rows)


def assert_symmetric(g):
    """Bit u of rows[v] matches bit v of rows[u] (loops and range are
    checked when the graph is built)."""
    for v, row in enumerate(g.rows):
        for u in range(g.n):
            assert (row >> u & 1) == (g.rows[u] >> v & 1), (u, v)


class TestConstruction:
    def test_new_graph_empty(self):
        g = new_graph(0)
        assert g.n == 0 and g.m == 0

    def test_new_graph_isolated(self):
        g = new_graph(3)
        assert g.rows == (0, 0, 0)
        assert new_graph(5).m == 0

    def test_add_edge(self):
        g = GraphBuilder(2).add_edge(0, 1).build()
        assert g.m == 1 and g.rows == (0b10, 0b01)

    def test_add_edge_idempotent(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1)
        b.add_edge(1, 0)
        assert b.build().m == 1

    def test_add_edge_rejects_loop(self):
        with pytest.raises(InvalidEdgeError):
            GraphBuilder(4).add_edge(2, 2)

    def test_add_edge_rejects_out_of_range(self):
        with pytest.raises(InvalidEdgeError):
            GraphBuilder(3).add_edge(0, 3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            new_graph(-1)

    def test_vertex_cap(self):
        with pytest.raises(SizeLimitError):
            new_graph(4097)

    def test_complete_graph(self):
        assert complete_graph(1).n == 1
        assert complete_graph(4).m == 6
        assert domination_number(complete_graph(7)) == 1

    def test_complete_graph_rejects_zero(self):
        with pytest.raises(InfeasibleOrderError):
            complete_graph(0)


class TestEdges:
    """``Graph.edges`` against the former bit-at-a-time walk."""

    @settings(deadline=None)
    @given(labeled_graphs(max_n=70))
    def test_matches_bit_walk(self, g):
        assert list(g.edges()) == list(edge_list_oracle.edges(g))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 66])
    def test_complete_and_edgeless(self, n):
        for g in (new_graph(n - 1), new_graph(n), complete_graph(n)):
            assert list(g.edges()) == list(edge_list_oracle.edges(g))


class TestDisjointUnion:
    def test_two_edges(self):
        k2 = complete_graph(2)
        g = disjoint_union(k2, k2)
        assert g.n == 4 and g.m == 2
        assert list(g.edges()) == [(0, 1), (2, 3)]

    def test_identity(self):
        g = cycle(5)
        assert disjoint_union(g, new_graph(0)).rows == g.rows

    def test_edge_counts_add(self):
        g = disjoint_union(complete_graph(3), cycle(4))
        assert g.n == 7 and g.m == 7

    @given(labeled_graphs(max_n=5), labeled_graphs(max_n=5), labeled_graphs(max_n=5))
    def test_associative_up_to_relabeling(self, a, b, c):
        left = disjoint_union(disjoint_union(a, b), c)
        right = disjoint_union(a, disjoint_union(b, c))
        assert left.n == right.n and left.m == right.m
        assert degree_multiset(left) == degree_multiset(right)
        # the vertex offsets compose identically, so this is actual equality
        assert left.rows == right.rows

    @given(st.lists(labeled_graphs(max_n=5), max_size=5))
    def test_variadic_matches_the_pairwise_fold(self, graphs):
        fold = reduce(lambda g, h: disjoint_union(g, h), graphs, new_graph(0))
        assert disjoint_union(*graphs) == fold

    def test_no_graphs_is_the_empty_graph(self):
        assert disjoint_union() == new_graph(0)

    def test_summed_order_past_the_cap(self):
        half = new_graph(MAX_VERTICES // 2)
        with pytest.raises(SizeLimitError, match=f"vertex count {MAX_VERTICES + 1} "):
            disjoint_union(half, half, new_graph(1))


class TestInvariants:
    @given(st.integers(min_value=1, max_value=9), st.data())
    def test_random_insertions_keep_invariants(self, n, data):
        pairs = st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)
        ).filter(lambda p: p[0] != p[1])
        edges = data.draw(st.lists(pairs, max_size=20))
        g = from_edges(n, edges)
        assert_symmetric(g)
        assert all(not g.rows[v] >> v & 1 for v in range(g.n))
        assert sum(row.bit_count() for row in g.rows) == 2 * g.m

    @given(labeled_graphs(max_n=8))
    def test_symmetry(self, g):
        assert_symmetric(g)

    def test_relabeled_preserves_shape(self):
        g = cycle(5)
        h = relabel(g, [4, 3, 2, 1, 0])
        assert h.m == g.m and degree_multiset(h) == degree_multiset(g)


class TestVertexSet:
    def test_from_vertices(self):
        s = VertexSet.from_vertices(5, [3, 0])
        assert s.mask == 0b01001 and s.size == 2 and s.vertices() == (0, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSet.from_vertices(3, [3])
        with pytest.raises(ValueError):
            VertexSet(3, 0b1000)

    def test_membership(self):
        s = VertexSet(4, 0b1010)
        assert 1 in s and 3 in s and 0 not in s
        assert list(s) == [1, 3]


class TestFieldBinding:
    """The result records have no constructor of their own: ``Frozen``
    binds their fields by position or by name."""

    RECORDS = [DominationReport, ExtremalRecord, EfficiencyReport]

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_position_name_and_mixed_binding_agree(self, cls):
        names = cls.__slots__
        values = tuple(range(len(names)))
        by_position = cls(*values)
        assert by_position == cls(**dict(zip(names, values)))
        assert by_position == cls(values[0], **dict(zip(names[1:], values[1:])))
        assert tuple(getattr(by_position, name) for name in names) == values
        assert str(inspect.signature(cls)) == "(*args, **kwargs)"

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_any_other_call_names_the_fields(self, cls):
        names = cls.__slots__
        values = tuple(range(len(names)))
        message = f"^{cls.__name__}\\(\\) takes the fields {', '.join(names)}$"
        for args, kwargs in [
            (values[:-1], {}),
            (values + (0,), {}),
            (values, {"extra": 0}),
            (values, {names[0]: 0}),
            (values[:-1], {names[0]: 0}),
            ((), {**dict(zip(names, values)), "extra": 0}),
        ]:
            with pytest.raises(TypeError, match=message):
                cls(*args, **kwargs)
