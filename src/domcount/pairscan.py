"""The bit-sliced kernel behind every γ=2 scan.

One question -- the largest number of (total) dominating pairs among
graphs of one order whose domination number is exactly 2 -- has one
kernel, :func:`pair_counts`.  It takes a block of graphs bit-sliced into
Python ints (Biham, "A fast new DES implementation in software", FSE
1997): lane g of an int stands for graph g of the block, and the *edge
plane* of a vertex pair has lane g set when graph g has that edge.  A
block is counted with O(n^3) whole-int AND, OR and XOR operations, each
linear in the number of lanes, so the interpreter's cost is paid per
block, not per graph.
:class:`PairMaximum` folds blocks into the running maximum and its
byte-smallest graph6 witness.  Three sources feed it edge planes, one per
pair in :func:`pair_order`:

* :func:`edge_mask_blocks` -- every labeled graph of an order, as
  consecutive edge masks (``scan_labeled``).  The planes of a block are
  the bit planes of its masks, built by a recurrence on whole ints;
* :meth:`PairMaximum.add_graph` -- ``Graph`` objects, gathered into blocks
  of ``SCAN_BLOCK`` (``extremal_scan``).  The planes are read from the
  graphs' rows;
* :meth:`PairMaximum.add_lines` -- graph6 corpus lines.  Canonical records
  are read straight from their bytes, one byte column of the block at a
  time; any other line goes through ``parse_graph6``, in file order.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator

from .domination import COUNT_VERTEX_CAP, check_countable
from .errors import MixedOrderError
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, select_bits

# Graphs (or corpus lines) per kernel call outside the labeled enumeration.
# Measured on 25 000 order-8 records (2-vCPU x86, best of 7): 1024-line
# blocks scan in 16-20 ms, 256- and 512-line blocks in 23-28 ms and 2048-
# and 4096-line blocks in 18-20 ms; peak RSS is within 0.3 MB for all.
SCAN_BLOCK = 1024


def pair_order(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in upper-triangle column-major order:
    (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(n) for i in range(j)]


def counter_planes(start: int, size: int, bits: int) -> list[int]:
    """Bit planes 0 .. bits-1 of the counter start, start+1, ...,
    start+size-1: lane g of plane e holds bit e of start + g.

    The planes of the lane number g over 2^k lanes come from the top one
    down: plane k-1 has its low half clear and its high half set, and
    plane e is ``P ^ (P >> 2**e)`` for P = plane e+1.  ``start`` is then
    added to every lane at once by a bit-sliced ripple-carry adder.
    """
    lanes = (1 << size) - 1
    k = (size - 1).bit_length()
    index = [0] * bits
    if k:
        half = 1 << (k - 1)
        plane = ((1 << half) - 1) << half
        index[k - 1] = plane & lanes
        for e in range(k - 2, -1, -1):
            plane ^= plane >> (1 << e)
            index[e] = plane & lanes
    carry = 0
    for e, plane in enumerate(index):
        if start >> e & 1:
            index[e] = plane ^ carry ^ lanes
            carry |= plane
        else:
            index[e] = plane ^ carry
            carry &= plane
    return index


def edge_mask_blocks(n: int, chunk_size: int) -> Iterator[tuple[range, list[int]]]:
    """Every labeled graph on n vertices in edge-mask counter order, as
    blocks of (edge masks, edge planes): lane g of plane e is bit e of
    mask ``masks[g]``, the edge ``pair_order(n)[e]``.  Block k holds the
    masks from ``k * chunk_size`` on."""
    m = comb(n, 2)
    total = 1 << m
    for start in range(0, total, chunk_size):
        masks = range(start, min(start + chunk_size, total))
        yield masks, counter_planes(start, len(masks), m)


def lane_sum(planes: Iterable[int]) -> list[int]:
    """Per-lane sum of 0/1 planes, as binary digit planes (least
    significant first), by a carry-save adder tree: full adders take three
    planes of one weight to a sum of that weight and a carry of the next,
    until each weight holds one plane.  Planes are taken as they come, so
    at most two of each weight wait at a time."""
    digits = []
    column: Iterable[int] = planes
    while True:
        carries = []
        pending: list[int] = []
        for plane in column:
            pending.append(plane)
            if len(pending) == 3:
                a, b, c = pending
                half = a ^ b
                pending = [half ^ c]
                carries.append(a & b | half & c)
        if len(pending) == 2:
            a, b = pending
            pending = [a ^ b]
            carries.append(a & b)
        if not pending:
            return digits
        digits.append(pending[0])
        column = carries


def maximum(digits: list[int], lanes: int) -> tuple[int, int]:
    """The largest value among the nonzero set of ``lanes``, given as
    binary digit planes, and the lanes that hold it; read top digit
    first."""
    top = 0
    for k in range(len(digits) - 1, -1, -1):
        hit = lanes & digits[k]
        if hit:
            lanes, top = hit, top | 1 << k
    return top, lanes


def smallest_reversed(lanes: int, planes: list[int]) -> int:
    """The lane of the nonzero set ``lanes`` whose bits over ``planes``,
    read from plane 0 up, are smallest; the lanes must differ on some
    plane."""
    for plane in planes:
        rest = lanes & ~plane
        if rest:
            lanes = rest
    return lanes.bit_length() - 1


def adjacency(n: int, planes: list[int]) -> list[list[int]]:
    """Edge planes, one per pair in ``pair_order(n)``, as an n x n matrix
    (the diagonal is 0)."""
    adj = [[0] * n for _ in range(n)]
    for (i, j), plane in zip(pair_order(n), planes):
        adj[i][j] = adj[j][i] = plane
    return adj


def no_dominating_vertex(adj: list[list[int]], lanes: int) -> int:
    """The ``lanes`` whose graph has no vertex adjacent to all the others,
    i.e. domination number >= 2."""
    found = 0
    for v, row in enumerate(adj):
        plane = lanes
        for w, edge in enumerate(row):
            if w != v:
                plane &= edge
                if not plane:
                    break
        found |= plane
    return lanes & ~found


def pair_counts(
    n: int, planes: list[int], lanes: int, mode: str
) -> tuple[list[int], int]:
    """The γ=2 kernel.  For a block of order-n graphs given as edge
    planes, one per pair in ``pair_order(n)``, and the set ``lanes`` of
    lanes that hold a graph, return each graph's number of (total)
    dominating pairs as binary digit planes, and the lanes that compete
    for the maximum.

    A pair {a, b} dominates a lane when, for every other vertex w, the lane
    is set in ``E[a,w] | E[b,w]``; a total dominating pair must also be an
    edge.  A graph competes when it has a qualifying pair and no vertex is
    adjacent to all the others, that is, when its domination number is
    exactly 2 in either mode (a total dominating pair is also dominating).
    A graph with an isolated vertex has no total dominating pair, so it
    never competes in total mode.
    """
    adj = adjacency(n, planes)
    digits = lane_sum(_dominating_pairs(adj, lanes, mode))
    qualified = 0
    for digit in digits:
        qualified |= digit
    return digits, qualified & no_dominating_vertex(adj, lanes)


def _dominating_pairs(
    adj: list[list[int]], lanes: int, mode: str
) -> Iterator[int]:
    """Per pair {a, b}, the lanes it (totally) dominates."""
    n = len(adj)
    for a, b in combinations(range(n), 2):
        plane = adj[a][b] if mode == "total" else lanes
        row_a, row_b = adj[a], adj[b]
        for w in range(n):
            if w != a and w != b:
                plane &= row_a[w] | row_b[w]
                if not plane:
                    break
        yield plane


# Per bit t of a byte: b"1" where the byte has bit t set, else b"0" (runs
# of 2^t of each).
_BIT = [(b"0" * (1 << t) + b"1" * (1 << t)) * (128 >> t) for t in range(8)]
# Per graph6 body bit t (most significant first): b"1" where the byte,
# less 63, has bit 5 - t set; byte - 63 agrees with byte + 193 in its low
# eight bits.  Bytes outside [63, 126] map to either.
_SEXTET = [_BIT[5 - t][193:] + _BIT[5 - t][:193] for t in range(6)]


def _plane(column: bytes, table: bytes) -> int:
    """The plane whose lane g is ``table`` at byte g of ``column`` read
    from the end (the last byte is lane 0)."""
    return int(column.translate(table), 2)


def _bad_table(good: Iterable[int]) -> bytes:
    """b"0" for the bytes in ``good``, b"1" for the rest."""
    accepted = set(good)
    return bytes(b"10"[byte in accepted] for byte in range(256))


_IN_RANGE = _bad_table(range(63, 127))
_NEWLINE = _bad_table([ord("\n")])


def line_blocks(lines: Iterable[str]) -> Iterator[list[str]]:
    """Lines in blocks of at most ``SCAN_BLOCK``.

    A failed read (for example a byte the text decoder rejects) is raised
    only after the block read before it has been handed out, so an error in
    an earlier line still comes first, as when lines are taken one by one.
    """
    block: list[str] = []
    try:
        for line in lines:
            block.append(line)
            if len(block) == SCAN_BLOCK:
                yield block
                block = []
    except Exception:
        yield block
        raise
    yield block


class PairMaximum:
    """Running γ=2 maximum over a stream of graphs of order ``n``: the
    largest (total) dominating pair count among graphs with domination
    number exactly 2, its byte-smallest graph6 witness, and the number of
    graphs seen."""

    def __init__(self, n: int, mode: str):
        self.n = n
        self.mode = mode
        self.count = 0
        self.witness: str | None = None
        self.scanned = 0
        self._graphs: list[Graph] = []
        # A canonical record of order n has the size field and the length of
        # the empty graph's record, every body byte in [63, 126], zero
        # padding bits and a newline: one (byte position, table) check each.
        self._empty = ""
        self._checks: list[tuple[int, bytes]] = []
        if n <= COUNT_VERTEX_CAP:
            self._empty = empty = write_graph6(Graph(n, (0,) * n))
            size = len(empty)
            field = size - (comb(n, 2) + 5) // 6
            padding = (1 << 6 * (size - field) - comb(n, 2)) - 1
            self._checks = [(p, _bad_table([ord(empty[p])])) for p in range(field)]
            self._checks += [(p, _IN_RANGE) for p in range(field, size)]
            if padding:
                good = [b for b in range(63, 127) if not (b - 63) & padding]
                self._checks[-1] = (size - 1, _bad_table(good))
            self._checks.append((size, _NEWLINE))

    def add_planes(
        self, planes: list[int], lanes: int, witness_of: Callable[[int], str]
    ) -> None:
        """Fold in a block of graphs given as edge planes, with ``lanes``
        the lanes that hold a graph; ``witness_of(maximizers)`` is the
        byte-smallest canonical graph6 record among the graphs at the lanes
        ``maximizers``, asked for only for the block's maximizers."""
        digits, competes = pair_counts(self.n, planes, lanes, self.mode)
        if not competes:
            return
        top, maximizers = maximum(digits, competes)
        if top < self.count:
            return
        witness = witness_of(maximizers)
        if top > self.count or witness < self.witness:
            self.count, self.witness = top, witness

    def add_graph(self, g: Graph) -> None:
        """Take one graph of the stream, in stream order."""
        if g.n != self.n:
            raise MixedOrderError(f"graph stream mixes orders {self.n} and {g.n}")
        self.scanned += 1
        if self.n > COUNT_VERTEX_CAP:
            # Past the counting cap: a graph that could compete is refused,
            # one that cannot is only counted.
            full = (1 << g.n) - 1
            if (self.mode == "dominating" or not g.has_isolated_vertex()) and all(
                row | 1 << v != full for v, row in enumerate(g.rows)
            ):
                check_countable(g.n)
            return
        self._graphs.append(g)
        if len(self._graphs) == SCAN_BLOCK:
            self.flush()

    def flush(self) -> None:
        """Run the kernel on the graphs gathered by :meth:`add_graph`."""
        graphs, self._graphs = self._graphs, []
        if not graphs:
            return
        # Row i of every graph as `width` big-endian bytes, last graph
        # first: bit j of the row is a byte column of its own.
        width = (self.n + 7) // 8
        columns = [
            b"".join([g.rows[i].to_bytes(width, "big") for g in reversed(graphs)])
            for i in range(self.n)
        ]
        planes = [
            _plane(columns[i][width - 1 - j // 8 :: width], _BIT[j % 8])
            for i, j in pair_order(self.n)
        ]
        self.add_planes(
            planes,
            (1 << len(graphs)) - 1,
            lambda maximizers: min(map(write_graph6, select_bits(maximizers, graphs))),
        )

    def add_lines(self, block: list[str], strict: bool) -> None:
        """Take a block of graph6 corpus lines (blank lines skipped).

        Lines that are canonical records of order n -- the empty graph's
        size field and length, every byte in [63, 126], zero padding bits,
        a newline -- are read here and are their own witnesses.  Every
        other line is parsed by ``parse_graph6`` in file order; canonical
        lines never raise, so errors and warnings come out in file order.
        """
        at, data, ok = self._canonical(block)
        flags = format(ok, f"0{len(at)}b")[::-1]  # flags[r]: record r is canonical
        canonical = {i for i, flag in zip(at, flags) if flag == "1"}
        for i, line in enumerate(block):
            if i not in canonical:
                record = line.strip()
                if record:
                    self.add_graph(parse_graph6(record, strict=strict))
        if not ok:
            return
        self.scanned += ok.bit_count()
        stride = len(self._empty) + 1
        body = [
            data[p::stride][::-1]
            for p in range(stride - 1 - (comb(self.n, 2) + 5) // 6, stride - 1)
        ]
        self.add_planes(
            [_plane(body[k // 6], _SEXTET[k % 6]) for k in range(comb(self.n, 2))],
            ok,
            lambda maximizers: min(
                data[r * stride : (r + 1) * stride - 1]
                for r in select_bits(maximizers, range(len(at)))
            ).decode("ascii"),
        )

    def _canonical(self, block: list[str]) -> tuple[list[int], bytes, int]:
        """The lines of ``block`` with the length of a canonical record and
        its newline, their bytes joined, and the lanes (one per such line)
        that are canonical records."""
        if not self._checks:
            return [], b"", 0
        stride = len(self._empty) + 1
        at = [i for i, line in enumerate(block) if len(line) == stride]
        if not at:
            return [], b"", 0
        joined = "".join([block[i] for i in at])
        if not joined.isascii():
            return [], b"", 0
        data = joined.encode("ascii")
        bad = 0
        for p, table in self._checks:
            bad |= _plane(data[p::stride][::-1], table)
        return at, data, ((1 << len(at)) - 1) & ~bad
