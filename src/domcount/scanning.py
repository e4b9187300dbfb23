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
  the k planes of the lane number (:func:`lane_planes`), and the
  block's start sets the rest;
* ``extremal_scan`` -- a stream of ``Graph`` objects of one order, in
  blocks of ``SCAN_BLOCK``, each graph checked as it is read, with planes
  read from the graphs' rows, each a run of one block with no constant
  plane;
* ``scan_corpus`` -- a graph6 corpus, as texts of whole lines, each made a
  ``str`` with ``"\\n"`` line ends once, as it is read
  (``graph6.corpus_texts``), and taken in blocks of whole lines of about
  ``TEXT_BLOCK`` characters (``graph6.text_blocks``), as the CLI reads a
  file; one long text is cut into such blocks.  A block that is a run of
  canonical records of the corpus order is read straight from its bytes
  by ``graph6.canonical_reader`` and goes through the kernel whole, with
  no ``str`` per line.  Any other block is split into lines once: its
  lines of a canonical record's length go through the same reader in one
  call, and every line it does not take goes through ``parse_graph6``, in
  file order, and on to the kernel in blocks of ``SCAN_BLOCK`` graphs.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, combinations, islice
from math import comb
from operator import and_, or_
from typing import Iterable, Iterator

from .domination import COUNT_VERTEX_CAP, Mode, check_countable, check_mode
from .errors import GraphParseError, InfeasibleOrderError, MixedOrderError
from .errors import SizeLimitError
from .graph6 import _BIT, _plane, canonical_reader, corpus_texts, first_record
from .graph6 import graph6_bits, graph6_order, iter_graph6, text_blocks
from .graph6 import write_graph6
from .graphs import Frozen, Graph, VertexSet, check_order, from_edges
from .graphs import select_bits

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

# Parsed graphs per kernel call: the graphs of an `extremal_scan` stream,
# and the lines of a corpus text block that the canonical reader did not
# take.  Chosen, against 256 to 8192, when every line of a canonical corpus
# went through groups of this size (`scan --corpus` on the benchmark's
# 25 000 order-8 records, fresh processes on a 2-vCPU x86 VM): past 1024
# each doubling saved at most 1 ms of 7 and added peak RSS.  Canonical
# records now reach the kernel a text block at a time, so neither path
# that reads this value was part of that measurement.
SCAN_BLOCK = 1024


def pair_order(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in upper-triangle column-major order:
    (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(n) for i in range(j)]


def lane_planes(k: int) -> list[int]:
    """Bit planes 0 .. k-1 of the lane number over 2^k lanes: lane g of
    plane e holds bit e of g.

    They are built from the top one down: plane e is ``P ^ (P >> 2**e)``
    for P plane e+1, or every lane set at e = k-1, which gives plane k-1
    its clear low half and set high half.
    """
    plane = (1 << (1 << k)) - 1
    planes = [0] * k
    for e in range(k - 1, -1, -1):
        plane ^= plane >> (1 << e)
        planes[e] = plane
    return planes


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
    vertices = [(reduce(and_, row), sum(mask)) for row, mask in zip(closed, masks)]

    def clear(v: int, w: int) -> int:
        """E[v,w] in a block where its plane is clear if it is constant."""
        return 0 if masks[v][w] else closed[v][w]

    total = mode == "total"
    pairs = []
    for a, b in combinations(range(n), 2):
        fixed, rest = lanes, []
        for w in range(n):
            if w != a and w != b:
                fixed &= closed[a][w] | closed[b][w]
                if mask := masks[a][w] | masks[b][w]:
                    rest.append((mask, clear(a, w) or clear(b, w)))
        if total:
            fixed &= closed[a][b]
            if masks[a][b]:
                rest.append((masks[a][b], 0))
        pairs.append((fixed, rest))
    for start in starts:
        digits = lane_sum(_products(pairs, start))
        qualified = reduce(or_, digits, 0)
        dominated = 0
        for fixed, need in vertices:
            if start & need == need:
                dominated |= fixed
        yield start, digits, qualified ^ (qualified & dominated)


class PairMaximum:
    """Running γ=2 maximum over a stream of graphs of one order: the
    largest (total) dominating pair count among graphs with domination
    number exactly 2, its byte-smallest graph6 witness, and the number of
    graphs seen.  The order ``n`` is the first graph's, or the first
    record's (:meth:`read_order`), unless it is set first.  An order past
    the counting cap is refused there."""

    def __init__(self, mode: str):
        check_mode(mode)
        self.mode = mode
        self.n: int | None = None
        self.count = 0
        self.witness: str | None = None
        self.scanned = 0
        self._read = None  # canonical_reader of the corpus order
        self._stride = 0  # the length of its lines

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

    def add_graphs(self, graphs: Iterable[Graph]) -> int:
        """Take a block of graphs of the stream, in stream order, and return
        how many it took: each is checked as it is read, then the kernel
        runs once on the block."""
        block = []
        for g in graphs:
            if self.n is None:
                check_countable(g.n)
                self.n = g.n
            if g.n != self.n:
                raise MixedOrderError(f"graph stream mixes orders {self.n} and {g.n}")
            block.append(g)
        if not block:
            return 0
        # Row i of every graph as `width` big-endian bytes, last graph
        # first: bit j of the row is a byte column of its own.
        width = (self.n + 7) // 8
        columns = [
            b"".join([g.rows[i].to_bytes(width, "big") for g in reversed(block)])
            for i in range(self.n)
        ]
        planes = [
            _plane(columns[i][width - 1 - j // 8 :: width], _BIT[j % 8])
            for i, j in pair_order(self.n)
        ]
        self.add_run(planes, (1 << len(block)) - 1, [0])
        return len(block)

    def add_stream(self, graphs: Iterable[Graph]) -> None:
        """Take graphs of the stream, in stream order, in blocks of
        ``SCAN_BLOCK`` (:meth:`add_graphs`)."""
        graphs = iter(graphs)
        while self.add_graphs(islice(graphs, SCAN_BLOCK)) == SCAN_BLOCK:
            pass

    def read_order(self, record: str, strict: bool) -> None:
        """Take the stream's order from its first graph6 record, and the
        reader of canonical records of that order.  An order past the
        counting cap is refused here, after the record's own error or
        warning from ``parse_graph6``, as parsing it first would give."""
        self.n = graph6_order(record)
        if self.n is None or self.n > COUNT_VERTEX_CAP:
            graph6_bits(record, strict)  # raises or warns, as parse_graph6
        check_countable(self.n)
        self._stride, self._read = canonical_reader(self.n)

    def add_text(self, text: str, strict: bool) -> None:
        """Take a text of whole graph6 corpus lines (blank lines skipped),
        once the order is set.

        A run of canonical records of the stream's order, read by its
        ``canonical_reader``, goes through the kernel whole.  Any other text
        is split into lines once, at ``"\\n"`` only, and read in one pass:
        its ASCII lines of a canonical line's length go through the reader in
        one call, each in its place, with spaces in place of every other line,
        and the canonical records among them go through the kernel as one
        block, with a witness written from their edge planes.  Every other
        line is parsed by ``parse_graph6`` in file order, and the graphs go
        to :meth:`add_stream`; canonical records never raise, so errors and
        warnings come out in file order.
        """
        ok, planes = self._read(text)
        if not ok or ok != (1 << len(text) // self._stride) - 1:
            lines = text.split("\n")
            fill = " " * (self._stride - 1)  # in place of every other line
            shaped = [line if len(line) == len(fill) and line.isascii() else fill
                      for line in lines]
            ok, planes = self._read("\n".join(shaped) + "\n")
            rest = select_bits(((1 << len(lines)) - 1) ^ ok, lines)
            self.add_stream(iter_graph6(rest, strict))
        if ok:
            self.add_run(planes, ok, [0])


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """Graph whose edge set is the bits of ``mask`` in pair_order(n)."""
    check_order(n)
    pairs = VertexSet(comb(n, 2), mask)  # refuses bits past the last pair
    return from_edges(n, select_bits(pairs.mask, pair_order(n)))


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
    the maximum.  The stream is read in blocks of ``SCAN_BLOCK``, and each
    graph is checked as it is read.
    """
    best = PairMaximum(mode)
    best.add_stream(graphs)
    if best.n is None:
        raise ValueError("graph stream is empty")
    return _record(best)


def scan_corpus(
    texts: Iterable[str | bytes], mode: Mode, strict: bool = True
) -> ExtremalRecord:
    """:func:`extremal_scan` (target 2) over a graph6 corpus, one record
    per line, blank lines skipped, given as texts of whole lines (single
    lines, or blocks of them), each split at ``"\\n"`` only: the same
    record, errors and warnings as
    ``extremal_scan(iter_graph6(lines, strict), mode)`` on those lines.

    Texts may be ``str``, ``bytes`` or ``bytearray``, each with ``"\\n"``
    or ``"\\r\\n"`` line ends and with or without a final one; each is
    made a ``str`` with ``"\\n"`` line ends once, as it is read
    (``graph6.corpus_texts``), so every form takes the same path.  One
    text on its own, not in a list, is refused with :class:`TypeError`.

    The texts are taken in blocks of whole lines of about ``TEXT_BLOCK``
    characters (``graph6.text_blocks``), read up to the block that holds
    the first record, whose size field sets the order:
    :class:`SizeLimitError` past the counting cap, after that record's own
    error or warning and before anything past its block is read.  That
    block is scanned whole from the record on, then the others.  A block
    that is a run of canonical records of that order is read straight from
    its bytes into edge planes, and the witness is written from those
    planes; any other block is split into lines, and any line that is not
    a canonical record goes through :func:`parse_graph6`, in file order.
    Raises :class:`GraphParseError` when the corpus holds no record.
    """
    best = PairMaximum(mode)
    blocks = text_blocks(corpus_texts(texts))
    head = first_record(blocks)
    if not head:
        raise GraphParseError("no graph6 record found in corpus")
    best.read_order(head[0], strict)
    for block in chain(head[1:], blocks):
        best.add_text(block, strict)
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
    best.n = n
    m = comb(n, 2)
    k = min(CHUNK_BITS, m)
    best.add_run(lane_planes(k), (1 << (1 << k)) - 1, range(0, 1 << m, 1 << k))
    return _record(best)
