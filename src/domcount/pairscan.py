"""The numpy block kernel behind every γ=2 scan.

One question -- the largest number of (total) dominating pairs among
graphs of one order whose domination number is exactly 2 -- has one
kernel, :func:`pair_counts`.  It takes a block of graphs as per-vertex
open-neighbourhood rows, an (n, B) array of the smallest unsigned dtype
that holds n bits, and counts every graph's covering pairs at once.
:class:`PairMaximum` folds blocks into the running maximum and its
byte-smallest graph6 witness.  Three sources feed it blocks:

* :func:`edge_mask_blocks` -- every labeled graph of an order, as
  consecutive edge masks (``scan_labeled``).  Rows are built by vertex
  extension: the rows of every graph on the first n-1 vertices once, then
  each neighbourhood of the last vertex ORed into a slice of them;
* :meth:`PairMaximum.add_graph` -- ``Graph`` objects, gathered into blocks
  of ``SCAN_BLOCK`` (``extremal_scan``);
* :meth:`PairMaximum.add_lines` -- graph6 corpus lines.  Canonical
  records are decoded straight from their bytes; any other line goes
  through ``parse_graph6``, in file order.

This module imports numpy; the rest of the package loads it only when a
scan runs.
"""

from __future__ import annotations

from itertools import combinations, compress
from math import comb
from typing import Callable, Iterable, Iterator

import numpy as np

from .domination import COUNT_VERTEX_CAP, check_countable
from .errors import MixedOrderError
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph
from .scanning import pair_order

# Graphs (or corpus lines) per kernel call outside the labeled enumeration.
# Measured on 25 000 order-8 records (2-vCPU x86): 1024 lines a block keep
# peak RSS within 0.1 MB of 64-line blocks and the scan within a few ms of
# 4096-line blocks, which cost 0.3 MB more.
SCAN_BLOCK = 1024


def _row_dtype(n: int) -> np.dtype:
    """Smallest unsigned dtype that holds an n-bit row (n <= 64)."""
    return np.min_scalar_type((1 << n) - 1)


def _rows_from_pair_bits(
    n: int, pair_bits: Iterable[np.ndarray], size: int
) -> np.ndarray:
    """Open-neighbourhood rows (n x size) of a block of graphs, from one
    0/1 array per vertex pair in ``pair_order(n)``."""
    dtype = _row_dtype(n)
    rows = np.zeros((n, size), dtype)
    for (i, j), bit in zip(pair_order(n), pair_bits):
        bit = bit.astype(dtype, copy=False)
        rows[i] |= bit << dtype.type(j)
        rows[j] |= bit << dtype.type(i)
    return rows


def edge_mask_blocks(
    n: int, chunk_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every labeled graph on n <= 7 vertices in edge-mask counter order,
    as blocks of (edge masks, open-neighbourhood rows); block k starts at
    mask ``k * chunk_size``.

    Rows are built by vertex extension.  ``pair_order`` is column-major, so
    the low C(n-1, 2) bits of a mask are an order-(n-1) edge mask b and the
    top n-1 bits are the neighbourhood S of the last vertex.  The rows of
    every b are built once, as the one block of the order-(n-1) enumeration;
    a run of masks sharing S is then a slice of them with bit n-1 set in
    row u when u is in S, plus the constant last row S.  A block is filled
    with one such slice per S it overlaps.
    """
    if n == 0:
        yield np.zeros(1, np.uint32), np.zeros((0, 1), _row_dtype(0))
        return
    run = 1 << comb(n - 1, 2)  # masks per neighbourhood S of the last vertex
    _, base = next(edge_mask_blocks(n - 1, run))
    dtype = _row_dtype(n)
    total = run << (n - 1)
    for start in range(0, total, chunk_size):
        stop = min(start + chunk_size, total)
        rows = np.empty((n, stop - start), dtype)
        for s in range(start // run, (stop - 1) // run + 1):
            lo, hi = max(start, s * run), min(stop, (s + 1) * run)
            lift = np.array([(s >> u & 1) << (n - 1) for u in range(n - 1)], dtype)
            np.bitwise_or(
                base[:, lo - s * run : hi - s * run],
                lift[:, None],
                out=rows[: n - 1, lo - start : hi - start],
            )
            rows[n - 1, lo - start : hi - start] = s
        yield np.arange(start, stop, dtype=np.uint32), rows


def _close(rows: np.ndarray) -> np.generic:
    """Turn open-neighbourhood rows into closed ones, in place; return the
    all-vertices mask."""
    n = len(rows)
    rows |= (rows.dtype.type(1) << np.arange(n, dtype=rows.dtype))[:, None]
    return rows.dtype.type((1 << n) - 1)


def _without_dominating_vertex(closed: np.ndarray, full: np.generic) -> np.ndarray:
    keep = np.ones(closed.shape[1], dtype=bool)
    for row in closed:
        keep &= row != full
    return keep


def no_dominating_vertex(rows: np.ndarray) -> np.ndarray:
    """Per graph of a block of open-neighbourhood rows (n x B): no vertex is
    adjacent to all others, i.e. domination number >= 2.  ``rows`` is
    overwritten with the closed rows."""
    return _without_dominating_vertex(rows, _close(rows))


def pair_counts(rows: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """The γ=2 kernel.  For a block of graphs given as open-neighbourhood
    rows (n x B), return per graph the number of (total) dominating pairs
    and whether the graph competes for the maximum.  ``rows`` is
    overwritten with the closed rows, so a block needs no second copy.

    A graph competes when it has a qualifying pair and no dominating vertex,
    that is, when its domination number is exactly 2 in either mode (a
    total dominating pair is also dominating).  A graph with an isolated
    vertex has no total dominating pair, so it never competes in total mode.
    """
    n = len(rows)
    if mode == "dominating":
        full = _close(rows)
    else:
        full = rows.dtype.type((1 << n) - 1)
    counts = np.zeros(rows.shape[1], dtype=np.min_scalar_type(comb(n, 2)))
    for u, v in combinations(range(n), 2):
        counts += (rows[u] | rows[v]) == full
    if mode == "total":
        _close(rows)
    return counts, (counts > 0) & _without_dominating_vertex(rows, full)


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
        # the empty graph's record.
        self._empty = ""
        if n <= COUNT_VERTEX_CAP:
            self._empty = write_graph6(Graph(n, (0,) * n))

    def add_rows(
        self, rows: np.ndarray, witness_of: Callable[[np.ndarray], str]
    ) -> None:
        """Fold in a block of graphs; ``witness_of(indices)`` is the
        byte-smallest canonical graph6 record among the block's graphs at
        ``indices``, asked for only for the block's maximizers."""
        counts, competes = pair_counts(rows, self.mode)
        if not competes.any():
            return
        top = int(counts[competes].max())
        if top < self.count:
            return
        witness = witness_of(np.flatnonzero(competes & (counts == top)))
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
        if graphs:
            rows = np.array([g.rows for g in graphs], dtype=_row_dtype(self.n)).T
            self.add_rows(
                np.ascontiguousarray(rows),
                lambda indices: min(write_graph6(graphs[i]) for i in indices),
            )

    def add_lines(self, block: list[str], strict: bool) -> None:
        """Take a block of graph6 corpus lines (blank lines skipped).

        Lines that are canonical records of order n -- the empty graph's
        size field and length, every byte in [63, 126], zero padding bits,
        a newline -- are decoded here and are their own witnesses.  Every
        other line is parsed by ``parse_graph6`` in file order; canonical
        lines never raise, so errors and warnings come out in file order.
        """
        canonical, records = self._canonical(block)
        for i in np.flatnonzero(~canonical):
            record = block[i].strip()
            if record:
                self.add_graph(parse_graph6(record, strict=strict))
        if len(records):
            self.scanned += len(records)
            self.add_rows(
                self._decode(records),
                lambda indices: min(
                    records[i].tobytes().decode("ascii") for i in indices
                ),
            )

    def _canonical(self, block: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Which lines of ``block`` are canonical records, and those records
        (without the newline) as a uint8 array, one row per record."""
        canonical = np.zeros(len(block), dtype=bool)
        size = len(self._empty)
        if self.n > COUNT_VERTEX_CAP:
            return canonical, np.zeros((0, size), np.uint8)
        lengths = np.fromiter(map(len, block), np.intp, len(block))
        candidate = lengths == size + 1
        joined = "".join(compress(block, candidate))
        if not joined.isascii():
            return canonical, np.zeros((0, size), np.uint8)
        data = np.frombuffer(joined.encode("ascii"), np.uint8).reshape(-1, size + 1)
        field = size - (comb(self.n, 2) + 5) // 6
        body = data[:, field:size]
        ok = (data[:, size] == ord("\n")) & (
            data[:, :field] == np.frombuffer(self._empty[:field].encode(), np.uint8)
        ).all(axis=1)
        ok &= ((body >= 63) & (body <= 126)).all(axis=1)
        padding = 6 * (size - field) - comb(self.n, 2)
        if padding:
            ok &= ((body[:, -1] - 63) & ((1 << padding) - 1)) == 0
        canonical[np.flatnonzero(candidate)[ok]] = True
        return canonical, data[ok, :size]

    def _decode(self, records: np.ndarray) -> np.ndarray:
        """Open-neighbourhood rows of canonical records of order n."""
        field = records.shape[1] - (comb(self.n, 2) + 5) // 6
        body = np.ascontiguousarray((records[:, field:] - 63).T)  # 6 bits a byte
        bits = (
            (body[k // 6] >> np.uint8(5 - k % 6)) & np.uint8(1)
            for k in range(comb(self.n, 2))
        )
        return _rows_from_pair_bits(self.n, bits, len(records))
