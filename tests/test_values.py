"""The value semantics of the seven immutable result and graph classes:
construction, validation, equality, hashing, repr, immutability, pickling,
copying, weak references and positional match patterns."""

import copy
import pickle
import weakref
from fractions import Fraction

import pytest

from domcount import (
    Component,
    DominationReport,
    EfficiencyReport,
    ExtremalRecord,
    Graph,
    InfeasibleOrderError,
    InvalidEdgeError,
    PartitionPlan,
    SizeLimitError,
    VertexSet,
)

PAIRS = (Component("complete", 2), Component("pair", 4))

# (class, field names, field values, repr)
VALUES = [
    (VertexSet, ("n", "mask"), (3, 5), "VertexSet(n=3, mask=5)"),
    (Graph, ("n", "rows"), (2, (2, 1)), "Graph(n=2, rows=(2, 1))"),
    (Component, ("kind", "size"), ("pair", 5), "Component(kind='pair', size=5)"),
    (
        PartitionPlan,
        ("n", "x", "components"),
        (6, 3, PAIRS),
        "PartitionPlan(n=6, x=3, components=(Component(kind='complete', size=2),"
        " Component(kind='pair', size=4)))",
    ),
    (
        DominationReport,
        ("mode", "gamma", "count", "witnesses"),
        ("dominating", 1, 2, (VertexSet(2, 1), VertexSet(2, 2))),
        "DominationReport(mode='dominating', gamma=1, count=2, "
        "witnesses=(VertexSet(n=2, mask=1), VertexSet(n=2, mask=2)))",
    ),
    (
        ExtremalRecord,
        ("n", "mode", "target_gamma", "max_count", "witness", "graphs_scanned"),
        (4, "total", 2, 4, "C]", 64),
        "ExtremalRecord(n=4, mode='total', target_gamma=2, max_count=4, "
        "witness='C]', graphs_scanned=64)",
    ),
    (
        EfficiencyReport,
        ("n", "x", "ratio", "ratio_limit", "asymptotic_coefficient"),
        (6, 2, Fraction(1), Fraction(1, 2), Fraction(1, 4)),
        "EfficiencyReport(n=6, x=2, ratio=Fraction(1, 1), "
        "ratio_limit=Fraction(1, 2), asymptotic_coefficient=Fraction(1, 4))",
    ),
]
IDS = [cls.__name__ for cls, *_ in VALUES]


@pytest.fixture(params=VALUES, ids=IDS)
def value(request):
    cls, names, values, text = request.param
    return cls(*values), names, values, text


def test_positional_and_keyword_construction(value):
    x, names, values, _ = value
    cls = type(x)
    assert cls(**dict(zip(names, values))) == x
    assert tuple(getattr(x, name) for name in names) == values


def test_equality_is_by_class_and_fields(value):
    x, names, values, _ = value
    assert x == type(x)(*values) and not x != type(x)(*values)
    assert x != values and not x == values
    assert x.__eq__(values) is NotImplemented
    other = VertexSet(1, 0) if not isinstance(x, VertexSet) else Graph(0, ())
    assert x != other and x.__eq__(other) is NotImplemented


def test_hash_is_the_hash_of_the_field_tuple(value):
    x, _, values, _ = value
    assert hash(x) == hash(values)
    assert len({x, type(x)(*values)}) == 1


def test_repr(value):
    x, _, _, text = value
    assert repr(x) == text


def test_fields_cannot_be_assigned_or_deleted(value):
    x, names, values, _ = value
    for name in names:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(x, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 0
    assert tuple(getattr(x, name) for name in names) == values


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(value, protocol):
    x = value[0]
    y = pickle.loads(pickle.dumps(x, protocol))
    assert type(y) is type(x) and y == x and repr(y) == repr(x)


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copy_round_trip(value, copier):
    x = value[0]
    y = copier(x)
    assert type(y) is type(x) and y == x and hash(y) == hash(x)


def test_weak_reference(value):
    x = value[0]
    assert weakref.ref(x)() is x


def test_match_args_are_the_fields(value):
    x, names, _, _ = value
    assert type(x).__match_args__ == names


def test_rows_given_as_a_list_are_kept_as_a_tuple():
    """A list was stored as given: the graph could be changed through it,
    did not hash, and was unequal to the same graph built from a tuple."""
    rows = [2, 1]
    g = Graph(2, rows)
    rows.append(0)
    assert g.rows == (2, 1) and type(g.rows) is tuple
    assert g == Graph(2, (2, 1)) and hash(g) == hash(Graph(2, (2, 1)))


def test_positional_match_pattern():
    match Graph(2, (2, 1)):
        case Graph(n, rows):
            assert (n, rows) == (2, (2, 1))
        case _:
            pytest.fail("Graph(n, rows) did not match")
    match VertexSet(3, 5):
        case VertexSet(3, mask):
            assert mask == 5
        case _:
            pytest.fail("VertexSet(3, mask) did not match")


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: VertexSet(-1, 0), ValueError, "vertex count must be nonnegative"),
        (lambda: VertexSet(2, 4), ValueError, "mask 0x4 sets bits outside 0..1"),
        (lambda: VertexSet(n=2, mask=-1), ValueError,
         "mask -0x1 sets bits outside 0..1"),
        (lambda: Graph(-1, ()), ValueError, "vertex count must be nonnegative, got -1"),
        (lambda: Graph(4097, ()), SizeLimitError, "vertex count 4097 exceeds cap 4096"),
        (lambda: Graph(2, (2,)), ValueError, "expected 2 adjacency rows, got 1"),
        (lambda: Graph(n=2, rows=(4, 1)), ValueError, "row 0 sets bits outside 0..1"),
        (lambda: Graph(2, (2, -1)), ValueError, "row 1 sets bits outside 0..1"),
        (lambda: Graph(2, (1, 0)), InvalidEdgeError, "loop at vertex 0"),
        (lambda: Component("complete", 0), InfeasibleOrderError,
         "complete component needs size >= 1"),
        (lambda: Component(kind="pair", size=3), InfeasibleOrderError,
         "closed form needs n >= 4, got 3"),
        (lambda: Component("star", 3), ValueError, "unknown component kind 'star'"),
        (lambda: PartitionPlan(7, 3, PAIRS), ValueError,
         "component sizes must sum to n"),
        (lambda: PartitionPlan(n=6, x=4, components=PAIRS), ValueError,
         "component domination numbers must sum to x"),
    ],
)
def test_validation_errors(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error and str(caught.value) == message
