"""Exhaustive γ=2 scans on one bit-sliced kernel.

Every scan asks one question -- the largest number of (total) dominating
pairs among graphs of one order with domination number exactly 2 -- of one
kernel, :func:`pair_counts`.  It takes a block of graphs bit-sliced into
Python ints (Biham, "A fast new DES implementation in software", FSE
1997): lane g of an int stands for graph g, and the *edge plane* of a
vertex pair has lane g set when graph g has that edge.  A block costs
O(n^3) whole-int AND, OR and XOR operations, so the interpreter's cost is
paid per block, not per graph.  :class:`PairMaximum` folds blocks into the
running maximum, its byte-smallest graph6 witness and the number of graphs
scanned.  Three entry points feed it edge planes, one per pair in
:func:`pair_order`, and give identical records on identical inputs:

* ``scan_labeled`` -- every labeled graph of an order through n = 7
  (2^21 graphs), as the bit planes of consecutive edge masks, built by a
  recurrence on whole ints (:func:`edge_mask_blocks`);
* ``extremal_scan`` -- a stream of ``Graph`` objects of one order, in
  blocks of ``SCAN_BLOCK``, with planes read from the graphs' rows;
* ``scan_corpus`` -- graph6 corpus lines.  Canonical records are read
  straight from their bytes, one byte column of a block at a time; any
  other line goes through ``parse_graph6``, in file order.
"""

from __future__ import annotations

from itertools import chain, combinations, islice
from math import comb
from typing import Iterable, Iterator

from .domination import COUNT_VERTEX_CAP, Mode, check_countable, check_mode
from .errors import GraphParseError, InfeasibleOrderError, MixedOrderError
from .errors import SizeLimitError
from .graph6 import graph6_order, graph6_records, iter_graph6, write_graph6
from .graphs import Frozen, Graph, from_edges, select_bits

# 2^C(7,2) = 2,097,152 labeled graphs; order 8 already has 2^28.
ENUMERATION_MAX_N = 7

# Labeled graphs per kernel call, as a power of two.  Planes of 2^17 lanes
# (16 KiB) keep a block's few dozen live planes within a core's L2 cache: on
# a 2-vCPU x86 VM with 2 MiB of L2 per core, scan_labeled(7) takes 17-20 ms
# in a fresh process against 28-30 ms with all of order 7 in one block (2^21
# lanes), at 11 MB less peak RSS.
CHUNK_BITS = 17

# Graphs (or corpus lines) per kernel call outside the labeled enumeration.
# Measured on 25 000 order-8 records (2-vCPU x86, best of 7): 1024-line
# blocks scan in 16-20 ms, 256- and 512-line blocks in 23-28 ms and 2048-
# and 4096-line blocks in 18-20 ms; peak RSS is within 0.3 MB for all.
SCAN_BLOCK = 1024


def pair_order(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in upper-triangle column-major order:
    (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(n) for i in range(j)]


def counter_planes(start: int, k: int, bits: int) -> list[int]:
    """Bit planes 0 .. bits-1 of the counter start, start+1, ...,
    start+2^k-1, for k <= bits and ``start`` a multiple of 2^k: lane g of
    plane e holds bit e of start + g.

    Below k these are the planes of the lane number g, built from the top
    one down: plane e is ``P ^ (P >> 2**e)`` for P plane e+1, or every lane
    set at e = k-1, which gives plane k-1 its clear low half and set high
    half.  From k up, lane g adds nothing, so plane e has every lane set or
    every lane clear, as bit e of ``start``.
    """
    lanes = plane = (1 << (1 << k)) - 1
    index = [0] * k
    for e in range(k - 1, -1, -1):
        plane ^= plane >> (1 << e)
        index[e] = plane
    return index + [lanes if start >> e & 1 else 0 for e in range(k, bits)]


def edge_mask_blocks(n: int) -> Iterator[tuple[range, list[int]]]:
    """Every labeled graph on n vertices in edge-mask counter order, as
    blocks of (edge masks, edge planes): lane g of plane e is bit e of
    mask ``masks[g]``, the edge ``pair_order(n)[e]``.  Block i holds the
    2^k masks from i * 2^k on, for k the smaller of ``CHUNK_BITS`` (read at
    call time) and C(n, 2)."""
    m = comb(n, 2)
    k = min(CHUNK_BITS, m)
    for start in range(0, 1 << m, 1 << k):
        yield range(start, start + (1 << k)), counter_planes(start, k, m)


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
    read from plane 0 up, are smallest.  Of lanes tied on every plane, the
    highest is returned; they hold the same graph, so any would do."""
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


def line_blocks(lines: Iterable[str | bytes]) -> Iterator[list[str | bytes]]:
    """Lines in blocks of at most ``SCAN_BLOCK``.

    A failed read (for example a byte the text decoder rejects) is raised
    only after the block read before it has been handed out, so an error in
    an earlier line still comes first, as when lines are taken one by one.
    """
    block: list[str | bytes] = []
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
    """Running γ=2 maximum over a stream of graphs of one order: the
    largest (total) dominating pair count among graphs with domination
    number exactly 2, its byte-smallest graph6 witness, and the number of
    graphs seen.  The order is the first graph's or the first record's,
    unless :meth:`set_order` is called first."""

    def __init__(self, mode: str):
        check_mode(mode)
        self.mode = mode
        self.n: int | None = None
        self.count = 0
        self.witness: str | None = None
        self.scanned = 0
        self._stride = 0
        self._body = range(0)
        self._checks: list[tuple[int, bytes]] = []

    def set_order(self, n: int) -> None:
        """Fix the stream's order and the layout of a canonical record of
        it: ``_stride`` bytes with the newline, the body at ``_body``, and a
        (byte position, table) check per byte -- the empty graph's size
        field, body bytes in [63, 126], zero padding bits, a newline."""
        self.n = n
        if n > COUNT_VERTEX_CAP:
            return
        empty = write_graph6(Graph(n, (0,) * n))
        size = len(empty)
        field = size - (comb(n, 2) + 5) // 6
        padding = (1 << 6 * (size - field) - comb(n, 2)) - 1
        self._stride = size + 1
        self._body = range(field, size)
        self._checks = [(p, _bad_table([ord(empty[p])])) for p in range(field)]
        self._checks += [(p, _IN_RANGE) for p in self._body]
        if padding:
            good = [b for b in range(63, 127) if not (b - 63) & padding]
            self._checks[-1] = (size - 1, _bad_table(good))
        self._checks.append((size, _NEWLINE))

    def add_planes(self, planes: list[int], lanes: int) -> None:
        """Fold in a block of graphs given as edge planes, with ``lanes``
        the lanes that hold a graph.  graph6 body bits follow
        ``pair_order``, most significant first, so among records of one
        order the byte-smallest has the smallest bit-reversed edge mask:
        only that maximizer's record is written, from its planes."""
        self.scanned += lanes.bit_count()
        digits, competes = pair_counts(self.n, planes, lanes, self.mode)
        if not competes:
            return
        top, maximizers = maximum(digits, competes)
        if top < self.count:
            return
        lane = smallest_reversed(maximizers, planes)
        mask = sum((plane >> lane & 1) << k for k, plane in enumerate(planes))
        witness = write_graph6(graph_from_edge_mask(self.n, mask))
        if top > self.count or witness < self.witness:
            self.count, self.witness = top, witness

    def add_graphs(self, graphs: Iterable[Graph]) -> None:
        """Take a block of graphs of the stream, in stream order: each is
        checked as it is taken, then the kernel runs once on those kept."""
        kept = []
        for g in graphs:
            if self.n is None:
                self.set_order(g.n)
            if g.n != self.n:
                raise MixedOrderError(f"graph stream mixes orders {self.n} and {g.n}")
            if self.n > COUNT_VERTEX_CAP:
                # Past the counting cap: a graph that could compete is
                # refused, one that cannot is only counted.
                full = (1 << g.n) - 1
                if (self.mode == "dominating" or not g.has_isolated_vertex()) and all(
                    row | 1 << v != full for v, row in enumerate(g.rows)
                ):
                    check_countable(g.n)
                self.scanned += 1
            else:
                kept.append(g)
        if not kept:
            return
        # Row i of every graph as `width` big-endian bytes, last graph
        # first: bit j of the row is a byte column of its own.
        width = (self.n + 7) // 8
        columns = [
            b"".join([g.rows[i].to_bytes(width, "big") for g in reversed(kept)])
            for i in range(self.n)
        ]
        planes = [
            _plane(columns[i][width - 1 - j // 8 :: width], _BIT[j % 8])
            for i, j in pair_order(self.n)
        ]
        self.add_planes(planes, (1 << len(kept)) - 1)

    def add_lines(self, block: list[str | bytes], strict: bool) -> None:
        """Take a block of graph6 corpus lines (blank lines skipped).

        Lines that are canonical records of order n -- the empty graph's
        size field and length, every byte in [63, 126], zero padding bits,
        a newline -- are read here, one byte column of the block at a time;
        a witness among them is written from its edge planes.  Every other
        line is parsed by ``parse_graph6`` in file order; canonical
        lines never raise, so errors and warnings come out in file order.
        """
        if self.n is None:
            # the first record's order; one it cannot read stays unset, and
            # iter_graph6 below raises that record's error in stream order
            n = graph6_order(next(graph6_records(block), ""))
            if n is not None:
                self.set_order(n)
        at, data, ok = self._canonical(block)
        canonical = set(select_bits(ok, at))
        rest = [line for i, line in enumerate(block) if i not in canonical]
        self.add_graphs(iter_graph6(rest, strict))
        if not ok:
            return
        stride = self._stride
        body = [data[p::stride][::-1] for p in self._body]
        self.add_planes(
            [_plane(body[k // 6], _SEXTET[k % 6]) for k in range(comb(self.n, 2))],
            ok,
        )

    def _canonical(self, block: list[str | bytes]) -> tuple[list[int], bytes, int]:
        """The lines of ``block`` with the length of a canonical record and
        its newline, their bytes joined, and the lanes (one per such line)
        that are canonical records."""
        if not self._checks:
            return [], b"", 0
        stride = self._stride
        at = [i for i, line in enumerate(block) if len(line) == stride]
        if not at:
            return [], b"", 0
        joined = block[at[0]][:0].join([block[i] for i in at])
        if not joined.isascii():
            return [], b"", 0
        data = joined.encode("ascii") if isinstance(joined, str) else joined
        bad = 0
        for p, table in self._checks:
            bad |= _plane(data[p::stride][::-1], table)
        return at, data, ((1 << len(at)) - 1) & ~bad


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """Graph whose edge set is the bits of ``mask`` in pair_order(n)."""
    return from_edges(n, select_bits(mask, pair_order(n)))


class ExtremalRecord(Frozen):
    """Result of maximizing a (total) dominating set count over a scan.

    ``witness`` is the graph6 record of one maximizing graph (the smallest
    record byte-wise, which makes the reduction chunking-independent);
    ``graphs_scanned`` tallies every graph seen, filtered or not;
    ``target_gamma`` is always 2, the one domination number scans answer.
    """

    __slots__ = ("n", "mode", "target_gamma", "max_count", "witness", "graphs_scanned")
    n: int
    mode: Mode
    target_gamma: int
    max_count: int
    witness: str | None
    graphs_scanned: int


def _record(best: PairMaximum) -> ExtremalRecord:
    return ExtremalRecord(
        n=best.n,
        mode=best.mode,
        target_gamma=2,
        max_count=best.count,
        witness=best.witness,
        graphs_scanned=best.scanned,
    )


def extremal_scan(graphs: Iterable[Graph], mode: Mode) -> ExtremalRecord:
    """Scan a uniform-order graph stream for the maximum number of
    (total) dominating pairs among graphs whose ordinary domination number
    is exactly 2, with the bit-sliced pair kernel on blocks of graphs.

    The ordinary-domination filter applies in both modes: without it the
    total-mode maximum is trivially C(n, 2), attained by complete graphs,
    because every pair of K_n is totally dominating.  In total mode,
    graphs with no total dominating pair (in particular graphs with an
    isolated vertex) count toward ``graphs_scanned`` but cannot produce
    the maximum.
    """
    best = PairMaximum(mode)
    stream = iter(graphs)
    for g in stream:
        best.add_graphs(chain([g], islice(stream, SCAN_BLOCK - 1)))
    if best.n is None:
        raise ValueError("graph stream is empty")
    return _record(best)


def scan_corpus(
    lines: Iterable[str | bytes], mode: Mode, strict: bool = True
) -> ExtremalRecord:
    """:func:`extremal_scan` (target 2) over a graph6 corpus, one record
    per line, blank lines skipped: the same record, errors and warnings as
    ``extremal_scan(iter_graph6(lines, strict), mode)``.

    Lines are read in bounded blocks.  Canonical records of the first
    record's order are read straight from their bytes into edge planes, and
    the witness is written from those planes; any other line goes through
    :func:`parse_graph6`, in file order.  Raises :class:`GraphParseError`
    when the corpus holds no record.
    """
    best = PairMaximum(mode)
    for block in line_blocks(lines):
        best.add_lines(block, strict)
    if best.n is None:
        raise GraphParseError("no graph6 record found in corpus")
    return _record(best)


def scan_labeled(n: int, mode: Mode) -> ExtremalRecord:
    """Bit-sliced :func:`extremal_scan` over all labeled graphs on n
    vertices (target domination number 2), with the same filter: only
    graphs with ordinary domination number exactly 2 compete.  Graphs go
    through the kernel in blocks of 2^``CHUNK_BITS`` edge masks, read at
    call time; the record does not depend on it."""
    best = PairMaximum(mode)
    if n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"labeled enumeration supports n <= {ENUMERATION_MAX_N}; "
            "use a graph6 corpus for larger orders"
        )
    if n < 0:
        raise InfeasibleOrderError("vertex count must be nonnegative")
    best.set_order(n)
    for masks, planes in edge_mask_blocks(n):
        best.add_planes(planes, (1 << len(masks)) - 1)
        del masks, planes  # freed before the next block is built
    return _record(best)
