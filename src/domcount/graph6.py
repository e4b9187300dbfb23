"""Bit-exact graph6 parsing and writing, plus a plain edge-list format.

A graph6 record is an optional ``>>graph6<<`` header, a size field N(n)
(one byte 63+n for n <= 62, or ``~`` plus three bytes for n <= 258047, or
``~~`` plus six bytes beyond that), then ceil(C(n,2)/6) bytes.  Each byte
holds six upper-triangle adjacency bits, column-major -- (0,1), (0,2),
(1,2), (0,3), ... -- most significant bit first, offset by 63.  Trailing
padding bits must be zero; ``strict=False`` downgrades nonzero padding to
a warning.

The codec works on whole words, not single bits.  A data byte is 63 plus a
6-bit value, and base64 spells the same 6-bit values with its own 64-letter
alphabet, so one ``bytes.translate`` maps between the two and ``binascii``
converts the body to and from big integers.  The writer holds the bit
stream as one integer, first bit lowest: column j is the low j bits of
``rows[j]``, shifted past the columns before it.  Every 64 Ki bits or so it
converts a cut of whole base64 quads (24 bits): the cut's little-endian
bytes, each with its bits reversed by one ``bytes.translate``, are the
stream in order.  So no bit is a character, and the integer never holds
much more than a cut.  :func:`graph6_cuts` yields the record a cut at a
time, so a file can be written a cut at a time; :func:`write_graph6` joins
them.  The parser reads the body as one integer and lays its columns out as
the lower triangle of a row-major n x n character matrix; row v is then its
own slice of row v plus the strided slice down column v, so C does the
transpose.

A scan reads canonical records many at once (:func:`canonical_reader`),
from one text of records back to back, in the one form
:func:`corpus_texts` gives every corpus text: each byte column is a
strided slice, which one ``bytes.translate`` and ``int(..., 2)`` turn into
a bit plane, one lane per record, to check a byte rule or to read an
edge.

Both formats are read from texts of whole lines by one rule: a line ends
at ``"\\n"`` and nowhere else, so a text is split with ``str.split`` or
``io.StringIO`` there, never with ``str.splitlines``.  Text, read in pieces
or given whole, is made such texts by :func:`text_blocks`, in blocks of
about ``TEXT_BLOCK`` characters, so no reader holds a whole file or a whole
long text.
Line ends are made ``"\\n"`` before that: ``"\\r\\n"`` and ``"\\r"`` by the
CLI's decoder and by :func:`parse_edge_list`, ``"\\r\\n"`` by
:func:`corpus_texts`.  An edge list is read a line at a time
(:func:`edge_list_lines`, numbered across the texts): its count line
(:func:`read_vertex_count`), then its edges (:func:`read_edges`), so a
caller can act on the order before any edge is read.

The edge-list writer works on whole rows the same way.  Row u's neighbours
above u come from one ``format`` of ``rows[u] >> (u + 1)``, whose reversed
digits select from a table of vertex labels, and one join writes the row's
lines.  :func:`edge_list_rows` yields each row's text as it is made, so a
file can be written a row at a time; :func:`write_edge_list` joins them.
"""

from __future__ import annotations

import binascii
import io
import warnings
from math import comb
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import GraphParseError, SizeLimitError
from .graphs import MAX_VERTICES, REVERSED, Graph, select_bits

HEADER = b">>graph6<<"

_GRAPH6_DIGITS = bytes(range(63, 127))
_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_GRAPH6_DIGITS, _BASE64_DIGITS)
_TO_GRAPH6 = bytes.maketrans(_BASE64_DIGITS, _GRAPH6_DIGITS)
_BLANK = "\t\n\v\f\r\x1c\x1d\x1e\x1f "  # what str.strip() removes from ASCII
_BLANK_BYTES = _BLANK.encode("ascii")


def _decode_size(data: bytes, base: int) -> tuple[int, int]:
    """Decode the N(n) size field at ``base``; return (n, bytes consumed)."""
    if data[base] != 126:
        return data[base] - 63, 1
    # "~~" then six bytes, or "~" then three
    start, consumed = (2, 8) if data[base + 1 : base + 2] == b"~" else (1, 4)
    if len(data) < base + consumed:
        raise GraphParseError("truncated size field", position=base)
    n = 0
    for b in data[base + start : base + consumed]:
        n = n << 6 | (b - 63)
    return n, consumed


def _record_data(record: str | bytes) -> tuple[bytes, int]:
    """A record's bytes without line ending, and the offset after the
    optional header.  A ``str`` is encoded with ``"surrogateescape"``, so a
    text :func:`corpus_texts` decoded gives back the bytes it was read from."""
    if isinstance(record, str):
        try:
            data = record.encode("ascii", "surrogateescape")
        except UnicodeEncodeError as exc:
            raise GraphParseError(f"non-ASCII graph6 record: {exc}") from None
    else:
        data = bytes(record)
    data = data.rstrip(b"\r\n")
    base = len(HEADER) if data.startswith(HEADER) else 0
    if base == len(data):
        raise GraphParseError("empty graph6 record", position=base)
    return data, base


def graph6_order(record: str | bytes) -> int | None:
    """The order a graph6 record's size field declares, read without its
    adjacency bytes; None when :func:`parse_graph6` would reject the header
    or the size field itself (non-ASCII, empty, truncated, a byte out of
    range, past the vertex cap)."""
    try:
        data, base = _record_data(record)
        n, consumed = _decode_size(data, base)
    except GraphParseError:
        return None
    if data[base : base + consumed].translate(None, _GRAPH6_DIGITS):
        return None
    return n if n <= MAX_VERTICES else None


def parse_graph6(record: str | bytes, strict: bool = True) -> Graph:
    """Parse one graph6 record into a Graph.

    Raises :class:`GraphParseError` (with a byte offset) on bytes outside
    [63, 126], a truncated or over-long record, or nonzero padding bits in
    strict mode; raises :class:`SizeLimitError` past the vertex cap.
    """
    n, stream = graph6_bits(record, strict)
    nbits = comb(n, 2)
    bits = format(stream, f"0{nbits}b")
    zeros = "0" * n
    # Row j holds column j of the stream: (i, j) at j*n + i for i < j.
    matrix = "".join(
        bits[j * (j - 1) // 2 : j * (j + 1) // 2] + zeros[j:] for j in range(n)
    )
    rows = [
        int((matrix[v * n : v * n + v] + matrix[v * n + v :: n])[::-1], 2)
        for v in range(n)
    ]
    return Graph(n, tuple(rows))


def graph6_bits(record: str | bytes, strict: bool = True) -> tuple[int, int]:
    """A graph6 record's order and its C(n, 2) body bits as one integer,
    first bit most significant, with every check (and warning) of
    :func:`parse_graph6` but without the graph."""
    data, base = _record_data(record)
    if bad := data[base:].translate(None, _GRAPH6_DIGITS):  # bytes out of range
        offset = data.index(bad[:1], base)
        raise GraphParseError(
            f"byte {bad[0]} out of graph6 range [63, 126] at offset {offset}",
            position=offset,
        )
    n, consumed = _decode_size(data, base)
    if n > MAX_VERTICES:
        raise SizeLimitError(f"graph6 record has n={n}, cap is {MAX_VERTICES}")
    body = data[base + consumed :]
    nbits = comb(n, 2)
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise GraphParseError(
            f"truncated graph6 record: expected {nbytes} adjacency bytes, "
            f"got {len(body)}",
            position=len(data),
        )
    if len(body) > nbytes:
        raise GraphParseError(
            f"trailing bytes after graph6 record (expected {nbytes} "
            f"adjacency bytes, got {len(body)})",
            position=base + consumed + nbytes,
        )
    encoded = body.translate(_TO_BASE64)
    encoded += b"A" * (-len(encoded) % 4)  # "A" is six zero bits
    stream = int.from_bytes(binascii.a2b_base64(encoded), "big")
    padding = 6 * len(encoded) - nbits
    if stream & ((1 << padding) - 1):
        message = "nonzero padding bits in graph6 record"
        if strict:
            raise GraphParseError(message, position=base + consumed + nbytes - 1)
        warnings.warn(message)
    return n, stream >> padding


def _size_field(n: int) -> bytes:
    """The size field N(n) of a canonical record, n <= MAX_VERTICES < 258048."""
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])


# graph6_cuts converts the stream to data bytes once it holds this many
# bits, up to the last whole base64 quad; a record of fewer bits is
# converted once, at the end.
_CUT_BITS = 1 << 16


def _data_bytes(bits: int, width: int) -> bytes:
    """graph6 data bytes of a stream of ``width`` bits held first bit
    lowest, zero-padded to whole base64 quads.  Its little-endian bytes,
    each with its bits reversed, are the stream read from its first bit."""
    words = bits.to_bytes(-(-width // 24) * 3, "little").translate(REVERSED)
    return binascii.b2a_base64(words, newline=False).translate(_TO_GRAPH6)


def graph6_cuts(g: Graph) -> Iterator[str]:
    """The text of :func:`write_graph6` a cut at a time: the size field,
    then the data bytes of each cut of about ``_CUT_BITS`` bits (whole
    base64 quads), then those of the rest, each text made as it is read."""
    yield _size_field(g.n).decode("ascii")
    bits = width = 0  # the stream since the last cut, its first bit lowest
    for j, row in enumerate(g.rows):
        # Column j is the low j bits of rows[j], vertex 0 first.
        bits |= (row & ((1 << j) - 1)) << width
        width += j
        if width >= _CUT_BITS:
            cut = width - width % 24
            yield _data_bytes(bits & ((1 << cut) - 1), cut).decode("ascii")
            bits >>= cut
            width -= cut
    # padded to whole quads, so no "=", then cut to the bytes that hold bits
    yield _data_bytes(bits, width)[: (width + 5) // 6].decode("ascii")


def write_graph6(g: Graph) -> str:
    """Canonical graph6 record (no header, no newline) for ``g``."""
    return "".join(graph6_cuts(g))


# Per bit t of a byte: b"1" where the byte has bit t set, else b"0" (runs
# of 2^t of each).
_BIT = [(b"0" * (1 << t) + b"1" * (1 << t)) * (128 >> t) for t in range(8)]
# Per body bit t of a data byte (most significant first): b"1" where the
# byte, less 63, has bit 5 - t set.  Bytes outside [63, 126] map to either.
_SEXTET = [_BIT[5 - t][-63:] + _BIT[5 - t][:-63] for t in range(6)]


def _plane(column: bytes, table: bytes) -> int:
    """The plane whose lane g is ``table`` at byte g of ``column`` read
    from the end (the last byte is lane 0)."""
    return int(column.translate(table), 2)


def _bad_table(good: Iterable[int]) -> bytes:
    """b"0" for the bytes in ``good``, b"1" for the rest."""
    accepted = set(good)
    return bytes(b"10"[byte in accepted] for byte in range(256))


def canonical_reader(n: int) -> tuple[int, Callable[[str], tuple[int, list[int]]]]:
    """The length of a canonical order-n line, and a reader of a text of
    such lines back to back.

    A line is a canonical record when it is ``write_graph6`` of a graph of
    order n plus ``"\\n"``: that size field and length, every body byte in
    [63, 126], zero padding bits and the newline.  The reader reads a text
    as lines of that length, at positions 0, 1, ..., without splitting it:
    where every one is canonical, those are the text's lines.  It returns
    the lanes (lane i for position i) that hold canonical records and the
    lines' C(n, 2) edge planes in body (column-major) order.  A text whose
    length is not a multiple of the line's, an empty one and a non-ASCII
    one get neither: ``(0, [])``.
    """
    field = _size_field(n)
    nbits = comb(n, 2)
    body = range(len(field), len(field) + (nbits + 5) // 6)
    stride = body.stop + 1
    in_range = _bad_table(_GRAPH6_DIGITS)
    checks = [(p, _bad_table([byte])) for p, byte in enumerate(field)]
    checks += [(p, in_range) for p in body]
    if padding := (1 << 6 * len(body) - nbits) - 1:
        good = [byte for byte in _GRAPH6_DIGITS if not (byte - 63) & padding]
        checks[-1] = (body.stop - 1, _bad_table(good))
    checks.append((body.stop, _bad_table(b"\n")))

    def read(text: str) -> tuple[int, list[int]]:
        count, left = divmod(len(text), stride)
        if left or not count or not text.isascii():
            return 0, []
        data = text.encode("ascii")
        columns = [data[p::stride][::-1] for p in range(stride)]
        bad = 0
        for p, table in checks:
            bad |= _plane(columns[p], table)
        planes = [_plane(columns[body[k // 6]], _SEXTET[k % 6]) for k in range(nbits)]
        return ((1 << count) - 1) & ~bad, planes

    return stride, read


_T = TypeVar("_T")


def _each(items: Iterable[_T]) -> Iterable[_T]:
    """``items``, refused when it is one text: its characters or bytes
    would be read as lines."""
    if isinstance(items, (str, bytes, bytearray)):
        raise TypeError(
            f"expected lines or a list of texts, not one {type(items).__name__}: "
            "pass text.splitlines(keepends=True) or [text]"
        )
    return items


def graph6_records(lines: Iterable[str | bytes]) -> Iterator[str | bytes]:
    """graph6 records: each line stripped of ``_BLANK``, if anything is left."""
    for line in lines:
        if record := line.strip(_BLANK if isinstance(line, str) else _BLANK_BYTES):
            yield record


def corpus_texts(texts: Iterable[str | bytes]) -> Iterator[str]:
    """Texts of whole corpus lines in one form, each made as it is read: a
    ``str`` (``bytes`` and ``bytearray`` decoded as ASCII with
    ``"surrogateescape"``, which :func:`_record_data` undoes, so a byte out
    of range is still reported as that byte), with ``"\\r\\n"`` line ends
    made ``"\\n"`` and a ``"\\n"`` after its last line."""
    # map, unlike a generator, keeps no text alive between reads
    return map(_corpus_text, _each(texts))


def _corpus_text(text: str | bytes) -> str:
    if not isinstance(text, str):
        text = text.decode("ascii", "surrogateescape")
    # on 64 KiB, 1 us against the replace's 100 us (2-vCPU x86 VM)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    return text if text[-1:] == "\n" or not text else text + "\n"


def first_record(blocks: Iterable[str]) -> tuple[str, ...]:
    """The first graph6 record in blocks of whole lines, as
    :func:`graph6_records` strips it, and its block from that record on;
    the blocks are read up to the one that holds it.  Where only its
    ``"\\n"`` would be stripped, the record is handed back as its line,
    ``"\\n"`` and all, which a record's parse strips, so a block that is
    one long record's line is not copied.  Empty when there is no record."""
    for block in blocks:
        if block := block.lstrip(_BLANK):
            line = block[: block.find("\n") + 1 or None]
            record = line.rstrip(_BLANK)
            return (line if line[len(record) :] == "\n" else record), block
    return ()


# Characters per text block: the whole lines read once this much text has
# been read.  `scan --corpus` on 25 000 order-8 records (175 000 bytes) on a
# 2-vCPU x86 VM: scan ms dominating / total and the process's peak RSS
# (fresh processes, median of 15; the RSS varies by about 0.2 MB from run
# to run), then the traced peak of a second scan in one process:
#   8 KiB     7.9 / 8.6 ms   15.5 MB    110 KB
#   16 KiB    6.8 / 7.1 ms   15.6 MB    147 KB
#   32 KiB    6.7 / 6.8 ms   15.6 MB    230 KB
#   64 KiB    5.9 / 5.9 ms   15.5 MB    410 KB
#   128 KiB   5.8 / 5.8 ms   15.6 MB    671 KB
#   256 KiB   6.6 / 5.6 ms   15.7 MB   1027 KB
# Blocks of 1024 lines, a str each, took 12.3 / 11.6 ms, 15.5 MB and 186 KB.
# Past 64 KiB a block saves no time, and the traced peak keeps growing.
TEXT_BLOCK = 1 << 16


def text_blocks(pieces: Iterable[str]) -> Iterator[str]:
    """Text, read in pieces, in blocks of whole lines: the whole lines read
    so far, once the text read comes to ``TEXT_BLOCK`` characters, then the
    rest.  A line is kept whole, however long.  A piece of whole lines read
    with no line pending is kept as it is, and the whole lines before it
    are handed out first if it would take them past ``TEXT_BLOCK``: blocks
    pass through as they are.  Pieces of up to ``TEXT_BLOCK`` characters,
    such as the CLI's reads, make blocks shorter than ``2 * TEXT_BLOCK``
    unless a line is longer.  A longer block is cut after the line that
    holds each ``TEXT_BLOCK``-th character, so no block holds more than
    ``TEXT_BLOCK`` characters and one line.  A failed read is raised only
    after the whole lines read before it have been handed out, so an error
    in an earlier line still comes first."""
    whole: list[str] = []  # pieces up to the last "\n" read
    part: list[str] = []  # the line read since
    size = 0
    try:
        for piece in pieces:
            if piece[-1:] == "\n" and not part:
                if whole and size + len(piece) > TEXT_BLOCK:
                    yield "".join(whole)
                    whole, size = [], 0
                whole.append(piece)
            elif end := piece.rfind("\n") + 1:
                whole += part
                whole.append(piece[:end])
                part = [piece[end:]] if end < len(piece) else []
            elif piece:
                part.append(piece)
            size += len(piece)
            if whole and size >= TEXT_BLOCK:
                block, whole = "".join(whole), []
                size -= len(block)
                # only a long piece or a long line makes a block this long
                step = TEXT_BLOCK if len(block) > 2 * TEXT_BLOCK else len(block)
                start = 0
                while start < len(block):
                    end = block.find("\n", start + step - 1) + 1 or len(block)
                    yield block[start:end]
                    start = end
    except Exception:
        if whole:
            yield "".join(whole)
        raise
    if rest := "".join(whole + part):
        yield rest


def iter_graph6(lines: Iterable[str | bytes], strict: bool = True) -> Iterator[Graph]:
    """Parse a stream of graph6 records, one per line; blank lines skipped.
    One text is refused with :class:`TypeError`: pass its lines."""
    records = graph6_records(_each(lines))
    return (parse_graph6(record, strict=strict) for record in records)


def _integer(token: str) -> int:
    """``int(token)``, for ASCII digits after an optional ``-`` only."""
    if token.isascii() and token.removeprefix("-").isdigit():
        return int(token)
    raise ValueError(f"not an integer: {token!r}")


def edge_list_lines(
    texts: Iterable[str],
) -> Iterator[tuple[int, list[str], Callable[[str], int]]]:
    """(1-based line number, tokens, endpoint reader) of each line of an
    edge list's texts of whole lines that is not blank or a comment,
    numbered across the texts, each made as it is read.  Each text is split
    at ``"\\n"`` only, by an ``io.StringIO`` of its own (four bytes a
    character) that goes before the next text is read.  The endpoint reader
    takes what :func:`_integer` takes."""
    line_number = 0
    for text in texts:
        # int also takes "+", "_" and non-ASCII digits; where the text holds
        # none of them, even in a comment, it takes what _integer takes, faster
        plain = text.isascii() and "+" not in text and "_" not in text
        number = int if plain else _integer
        first = line_number + 1
        for line_number, line in enumerate(io.StringIO(text, newline="\n"), first):
            if tokens := line.split("#", 1)[0].split():
                yield line_number, tokens, number


def _line_error(message: str, line_number: int) -> GraphParseError:
    """An edge-list error that names its 1-based line and carries it as
    the position."""
    return GraphParseError(f"{message} on line {line_number}", position=line_number)


def read_vertex_count(lines: Iterator[tuple[int, list[str], Callable]]) -> int:
    """The vertex count on the first of an edge list's
    :func:`edge_list_lines`, taken from ``lines``; :func:`read_edges`
    reads the rest."""
    first = next(lines, None)
    if first is None:
        raise GraphParseError("missing vertex count line")
    line_number, tokens, _ = first
    if len(tokens) != 1:
        raise _line_error("expected a single vertex count", line_number)
    try:
        n = _integer(tokens[0])
    except ValueError:
        raise _line_error(f"invalid vertex count {tokens[0]!r}", line_number) from None
    if n < 0:
        raise _line_error("negative vertex count", line_number)
    if n > MAX_VERTICES:
        raise SizeLimitError(f"edge list has n={n}, cap is {MAX_VERTICES}")
    return n


def read_edges(n: int, lines: Iterable[tuple[int, list[str], Callable]]) -> Graph:
    """The order-n graph of an edge list's ``u v`` lines, the
    :func:`edge_list_lines` after its count line."""
    rows = [0] * n
    for line_number, tokens, number in lines:
        if len(tokens) != 2:
            raise _line_error("expected 'u v'", line_number)
        try:
            u, v = number(tokens[0]), number(tokens[1])
        except ValueError:
            raise _line_error("non-integer endpoint", line_number) from None
        if u == v:
            raise _line_error(f"loop {u}-{v}", line_number)
        if not (0 <= u < n and 0 <= v < n):
            raise _line_error(f"edge ({u}, {v}) out of range for n={n}", line_number)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: a vertex count line, then ``u v`` lines.

    ``#`` starts a comment; blank lines are skipped; duplicate edges are
    ignored.  A line ends at ``\\n``, ``\\r\\n`` or ``\\r``.  Errors carry
    1-based line numbers.  :func:`text_blocks` cuts the text into blocks of
    whole lines of about ``TEXT_BLOCK`` characters, which are read one at a
    time, as the CLI reads a file.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = edge_list_lines(text_blocks([text]))
    return read_edges(read_vertex_count(lines), lines)


def edge_list_rows(g: Graph) -> Iterator[str]:
    """The text of :func:`write_edge_list` one row at a time: the vertex
    count line, then each vertex u's ``u v`` lines for its neighbours
    v > u, each text made as it is read."""
    labels = [str(v) for v in range(g.n)]
    yield f"{g.n}\n"
    for u, row in enumerate(g.rows):
        if above := row >> (u + 1):
            between = f"\n{u} "
            yield f"{u} {between.join(select_bits(above, labels[u + 1 :]))}\n"


def write_edge_list(g: Graph) -> str:
    """Edge-list text for ``g``: vertex count, then one ``u v`` line per edge."""
    return "".join(edge_list_rows(g))
