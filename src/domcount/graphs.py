"""Immutable bit-packed graphs and vertex sets.

A graph stores one Python integer per vertex; bit ``u`` of ``rows[v]`` means
``u`` and ``v`` are adjacent.  Integers double as arbitrary-width bit masks,
so the same representation serves both small graphs (where subset enumeration
is the hot path) and larger constructed graphs up to ``MAX_VERTICES``.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter
from typing import Iterable, Iterator, Sequence, TypeVar

from .errors import InfeasibleOrderError, InvalidEdgeError, SizeLimitError

# Construction-time vertex cap; counting operations are further capped at 64.
MAX_VERTICES = 4096

T = TypeVar("T")

_SELECTOR = bytes.maketrans(b"01", b"\x00\x01")

# Byte b's bits in reverse order, at index b, so that little-endian bytes
# translated by it are an integer's bits read from bit 0 up.  Doubled a bit
# at a time, as every process builds it at import: 26-31 us, against
# 180-235 us for one f-string per byte (2-vCPU x86 VM).
REVERSED = b"\0"
for _k in range(8):
    REVERSED += bytes(x | 0x80 >> _k for x in REVERSED)


def select_bits(mask: int, items: Sequence[T]) -> Iterator[T]:
    """``items[i]`` for each set bit i of ``mask``, lowest first; one
    ``format`` of the whole mask picks them, with no shift per bit."""
    return compress(items, format(mask, "b")[::-1].encode().translate(_SELECTOR))


set_field = object.__setattr__


class Frozen:
    """Base of the package's immutable values.  A subclass names its fields
    in ``__slots__``; ``__init__`` binds them by position or name, unless the
    subclass checks its arguments in an ``__init__`` of its own that sets
    them with :data:`set_field`.  Values compare, hash and print as frozen
    dataclasses do, by class and the tuple of fields; pickling and copying
    go through ``__init__``, so its checks run again."""

    __slots__ = ("__weakref__",)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = (*args, *[kwargs.pop(k) for k in names[len(args) :] if k in kwargs])
        if len(values) != len(names) or kwargs:
            fields = ", ".join(names)
            raise TypeError(f"{type(self).__qualname__}() takes the fields {fields}")
        for name, value in zip(names, values):
            set_field(self, name, value)

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        # Called as self._fields(self): an attrgetter does not bind to the
        # instance.  Of two or more names, as every subclass has, it
        # returns a tuple.
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields(self)


def check_order(n: int) -> None:
    """Reject a negative vertex count or one past ``MAX_VERTICES``."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise SizeLimitError(f"vertex count {n} exceeds cap {MAX_VERTICES}")


class VertexSet(Frozen):
    """A subset of the vertices 0..n-1, stored as a bit mask."""

    __slots__ = ("n", "mask")
    n: int
    mask: int

    def __init__(self, n: int, mask: int):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} sets bits outside 0..{n - 1}")
        set_field(self, "n", n)
        set_field(self, "mask", mask)

    @classmethod
    def from_vertices(cls, n: int, vertices: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
            mask |= 1 << v
        return cls(n, mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def vertices(self) -> tuple[int, ...]:
        return tuple(select_bits(self.mask, range(self.n)))

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices())


class Graph(Frozen):
    """Immutable simple undirected graph on vertices 0..n-1.

    ``rows[v]`` is the neighbor bit mask of ``v``.  Instances are safe to
    share between threads.  Use :class:`GraphBuilder`, :func:`new_graph`,
    :func:`from_edges`, or the construction helpers to create one; rows must
    be symmetric and loop-free.
    """

    __slots__ = ("n", "rows")
    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: tuple[int, ...]):
        check_order(n)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        for v, row in enumerate(rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {v} sets bits outside 0..{n - 1}")
            if row >> v & 1:
                raise InvalidEdgeError(f"loop at vertex {v}")
        set_field(self, "n", n)
        set_field(self, "rows", tuple(rows))

    @property
    def m(self) -> int:
        """Edge count (derived from the adjacency rows)."""
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u, row in enumerate(self.rows):
            for v in select_bits(row >> (u + 1), range(u + 1, self.n)):
                yield (u, v)

    def has_isolated_vertex(self) -> bool:
        return 0 in self.rows


class GraphBuilder:
    """Mutable edge-insertion phase; ``build()`` freezes into a Graph.

    Builders are single-owner: not safe to share between threads.
    """

    def __init__(self, n: int):
        check_order(n)
        self.n = n
        self._rows = [0] * n

    def add_edge(self, u: int, v: int) -> "GraphBuilder":
        """Insert edge {u, v}; re-inserting an existing edge is a no-op."""
        if u == v:
            raise InvalidEdgeError(f"loop at vertex {u}")
        if not 0 <= u < self.n or not 0 <= v < self.n:
            raise InvalidEdgeError(f"edge ({u}, {v}) out of range for n={self.n}")
        self._rows[u] |= 1 << v
        self._rows[v] |= 1 << u
        return self

    def build(self) -> Graph:
        return Graph(self.n, tuple(self._rows))


def new_graph(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    check_order(n)
    return Graph(n, (0,) * n)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    builder = GraphBuilder(n)
    for u, v in edges:
        builder.add_edge(u, v)
    return builder.build()


def complete_graph(r: int) -> Graph:
    """K_r: every pair of the r vertices adjacent."""
    if r < 1:
        raise InfeasibleOrderError(f"complete graph needs r >= 1, got {r}")
    check_order(r)
    full = (1 << r) - 1
    return Graph(r, tuple(full ^ (1 << v) for v in range(r)))


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union in argument order; the vertices of each graph are
    offset by the orders of the graphs before it."""
    n = sum(g.n for g in graphs)
    check_order(n)
    rows: list[int] = []
    for g in graphs:
        offset = len(rows)
        rows.extend([row << offset for row in g.rows])
    return Graph(n, tuple(rows))
