"""Exhaustive γ=2 scans on one bit-sliced kernel.

Every scan asks one question -- the largest number of (total) dominating
pairs among graphs of one order with domination number exactly 2 -- of one
kernel, :func:`pair_counts`.  It takes blocks of graphs bit-sliced into
Python ints (Biham, "A fast new DES implementation in software", FSE
1997): lane g of an int stands for graph g, and the *edge plane* of a
vertex pair has lane g set when graph g has that edge.  A block costs
O(n^3) whole-int AND, OR and XOR operations, so the interpreter's cost is
paid per block, not per graph.  The kernel takes a run of aligned blocks
that share their low edge planes, with every higher plane all set or all
clear in a block: each pair's product over the shared planes is taken
once per run, and a block pays only for the factors its constant planes
leave.  :class:`PairMaximum` folds runs into the running maximum, its
byte-smallest graph6 witness and the number of graphs scanned.  Three
entry points feed it edge planes, one per pair in :func:`pair_order`, and
give identical records on identical inputs:

* ``scan_labeled`` -- every labeled graph of an order through n = 7
  (2^21 graphs) as one run: blocks of 2^k consecutive edge masks share
  the k planes of the lane number (:func:`counter_planes`), and the
  block's start sets the rest;
* ``extremal_scan`` -- a stream of ``Graph`` objects of one order, in
  blocks of ``SCAN_BLOCK``, with planes read from the graphs' rows, each
  a run of one block with no constant plane;
* ``scan_corpus`` -- graph6 corpus lines, likewise.  Canonical records
  are read straight from their bytes, one byte column of a block at a
  time; any other line goes through ``parse_graph6``, in file order.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, combinations, islice
from math import comb
from operator import and_
from typing import Iterable, Iterator, Sequence

from .domination import COUNT_VERTEX_CAP, Mode, check_countable, check_mode
from .errors import GraphParseError, InfeasibleOrderError, MixedOrderError
from .errors import SizeLimitError
from .graph6 import graph6_order, graph6_records, iter_graph6, write_graph6
from .graphs import Frozen, Graph, from_edges, select_bits

# 2^C(7,2) = 2,097,152 labeled graphs; order 8 already has 2^28.
ENUMERATION_MAX_N = 7

# Labeled graphs per block, as a power of two.  scan_labeled(7) keeps about
# 60 planes of a block's size live: the shared lane planes, each pair's and
# vertex's product over them, and the adder tree's.  Fresh processes on a
# 2-vCPU x86 VM with 2 MiB of L2 per core, median of 12 runs, dominating /
# total, and peak RSS:
#   2^15 lanes  4.6 / 4.2 ms    15.3 MB
#   2^16        4.0 / 4.0 ms    15.2 MB
#   2^17        4.7 / 4.6 ms    15.7 MB
#   2^18        6.5 / 6.7 ms    17.2 MB
#   2^19        9.4 / 11.3 ms   20.5 MB
#   2^20       17.3 / 17.8 ms   26.8 MB
#   2^21       29.4 / 31.7 ms   33.8-37.1 MB (all of order 7 in one block)
CHUNK_BITS = 16

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
        rest = lanes ^ (lanes & plane)
        if rest:
            lanes = rest
    return lanes.bit_length() - 1


def _products(
    pairs: list[tuple[int, list[tuple[int, int]]]], start: int
) -> Iterator[int]:
    """The nonzero products split by :func:`pair_counts`, in the block at
    ``start``: each ``fixed`` ANDed with the plane of every (mask, plane)
    of its ``rest`` whose mask has no bit set in ``start``."""
    for fixed, rest in pairs:
        for mask, plane in rest:
            if not start & mask:
                fixed &= plane
        if fixed:
            yield fixed


def pair_counts(
    n: int, planes: list[int], lanes: int, mode: str, starts: Iterable[int]
) -> Iterator[tuple[int, list[int], int]]:
    """The γ=2 kernel, over a run of aligned blocks of order-n graphs that
    share their low planes.  Edge e of ``pair_order(n)`` has the plane
    ``planes[e]`` in every block for e < len(planes); from there up it is
    constant in a block: every lane set in the block at ``start`` when bit
    e of ``start`` is set, none when it is clear.  ``lanes`` is the set of
    lanes that hold a graph; other lanes of ``planes`` are ignored.
    Yields, per start, each graph's number of (total) dominating pairs as
    binary digit planes, and the lanes that compete for the maximum.

    A pair {a, b} dominates a lane when, for every other vertex w, the lane
    is set in ``E[a,w] | E[b,w]``; a total dominating pair must also be an
    edge.  A graph competes when it has a qualifying pair and no vertex is
    adjacent to all the others, that is, when its domination number is
    exactly 2 in either mode (a total dominating pair is also dominating).
    A graph with an isolated vertex has no total dominating pair, so it
    never competes in total mode.

    Each of these products is split once per run.  ``fixed`` is its value
    in a block where every constant plane is set, so that the factors over
    a constant plane are no-ops in it.  Where the constant planes of such a
    factor are clear, it is the OR of its shared planes, or zero if it has
    none: ``rest`` holds it as the mask of its constant edges and that
    plane.  So a block pays only for ``rest``.  A vertex's product has no
    shared plane in such a factor, so its ``rest`` is one mask: it holds in
    the blocks that have all of it set.
    """
    shared = len(planes)
    # E[v,w], with every lane set at w = v and on a constant edge's plane
    closed = [[lanes] * n for _ in range(n)]
    masks = [[0] * n for _ in range(n)]  # 1 << e for a constant edge e, else 0
    for e, (i, j) in enumerate(pair_order(n)):
        if e < shared:
            closed[i][j] = closed[j][i] = planes[e]
        else:
            masks[i][j] = masks[j][i] = 1 << e
    needs = [sum(row) for row in masks]
    vertices = [(reduce(and_, row), need) for row, need in zip(closed, needs)]

    def clear(v: int, w: int) -> int:
        """E[v,w] in a block where its plane is clear if it is constant."""
        return 0 if masks[v][w] else closed[v][w]

    total = mode == "total"
    pairs = []
    for a, b in combinations(range(n), 2):
        row_a, row_b = closed[a], closed[b]
        fixed, rest = lanes, []
        for w in range(n):
            if w != a and w != b:
                fixed &= row_a[w] | row_b[w]
        if needs[a] | needs[b]:
            for w in range(n):
                mask = masks[a][w] | masks[b][w]
                if mask and w != a and w != b:
                    rest.append((mask, clear(a, w) or clear(b, w)))
        if total:
            fixed &= closed[a][b]
            if masks[a][b]:
                rest.append((masks[a][b], 0))
        pairs.append((fixed, rest))
    for start in starts:
        digits = lane_sum(_products(pairs, start))
        qualified = 0
        for digit in digits:
            qualified |= digit
        dominated = 0
        for fixed, need in vertices:
            if start & need == need:
                dominated |= fixed
        yield start, digits, qualified ^ (qualified & dominated)


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
    """Lines in blocks of ``SCAN_BLOCK``, the last one shorter.

    A failed read (for example a byte the text decoder rejects) is raised
    only after the lines read before it in its block have been handed out
    (``list.extend`` keeps what it appended before the error), so an error
    in an earlier line still comes first, as when lines are taken one by
    one.
    """
    stream = iter(lines)
    while True:
        block: list[str | bytes] = []
        try:
            block.extend(islice(stream, SCAN_BLOCK))
        except Exception:
            yield block
            raise
        yield block
        if len(block) < SCAN_BLOCK:
            return


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

    def add_run(self, planes: list[int], lanes: int, starts: Iterable[int]) -> None:
        """Fold in a run of aligned blocks of graphs that share their low
        planes, as :func:`pair_counts` takes them, with ``lanes`` the lanes
        that hold a graph in each block.  graph6 body bits follow
        ``pair_order``, most significant first, so among records of one
        order the byte-smallest has the smallest bit-reversed edge mask:
        only that maximizer's record is written.  The planes above the
        shared ones are constant in a block and cannot separate its lanes,
        so the maximizer is found on the shared planes, and its mask is
        ``start`` with its bits there."""
        size = lanes.bit_count()
        for start, digits, competes in pair_counts(
            self.n, planes, lanes, self.mode, starts
        ):
            self.scanned += size
            if not competes:
                continue
            top, maximizers = maximum(digits, competes)
            if top < self.count:
                continue
            lane = smallest_reversed(maximizers, planes)
            mask = start | sum((p >> lane & 1) << e for e, p in enumerate(planes))
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
        self.add_run(planes, (1 << len(kept)) - 1, [0])

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
        if ok != (1 << len(block)) - 1:
            canonical = set(select_bits(ok, at))
            rest = [line for i, line in enumerate(block) if i not in canonical]
            self.add_graphs(iter_graph6(rest, strict))
        if not ok:
            return
        stride = self._stride
        body = [data[p::stride][::-1] for p in self._body]
        self.add_run(
            [_plane(body[k // 6], _SEXTET[k % 6]) for k in range(comb(self.n, 2))],
            ok,
            [0],
        )

    def _canonical(
        self, block: list[str | bytes]
    ) -> tuple[Sequence[int], bytes, int]:
        """The positions in ``block`` of the lines with the length of a
        canonical record and its newline, their bytes joined, and the lanes
        (one per such line) that are canonical records.  A block that mixes
        ``str`` and ``bytes`` lines of that length has none."""
        if not self._checks:
            return [], b"", 0
        stride = self._stride
        if set(map(len, block)) == {stride}:
            at: Sequence[int] = range(len(block))
            lines = block
        else:
            at = [i for i, line in enumerate(block) if len(line) == stride]
            lines = [block[i] for i in at]
        if not lines:
            return [], b"", 0
        try:
            joined = lines[0][:0].join(lines)
        except TypeError:
            return [], b"", 0
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
    through the kernel as one run of blocks of 2^``CHUNK_BITS`` edge
    masks, read at call time; the record does not depend on it."""
    best = PairMaximum(mode)
    if n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"labeled enumeration supports n <= {ENUMERATION_MAX_N}; "
            "use a graph6 corpus for larger orders"
        )
    if n < 0:
        raise InfeasibleOrderError("vertex count must be nonnegative")
    best.set_order(n)
    m = comb(n, 2)
    k = min(CHUNK_BITS, m)
    best.add_run(counter_planes(0, k, k), (1 << (1 << k)) - 1, range(0, 1 << m, 1 << k))
    return _record(best)
