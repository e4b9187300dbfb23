"""The former bit-by-bit graph6 codec, kept as a test oracle.

It expands every adjacency byte into six bits and visits every vertex pair
one at a time.  The package's word-level codec must write the same bytes,
parse the same rows and raise the same errors at the same positions.
"""

import warnings
from math import comb

from domcount import MAX_VERTICES, GraphBuilder, GraphParseError, SizeLimitError

HEADER = b">>graph6<<"

_BYTE_BITS = [tuple(value >> (5 - i) & 1 for i in range(6)) for value in range(64)]


def _decode_size(data, base):
    """Decode the N(n) size field at ``base``; return (n, bytes consumed)."""
    if data[base] != 126:
        return data[base] - 63, 1
    if len(data) >= base + 2 and data[base + 1] == 126:
        if len(data) < base + 8:
            raise GraphParseError("truncated size field", position=base)
        n = 0
        for b in data[base + 2 : base + 8]:
            n = n << 6 | (b - 63)
        return n, 8
    if len(data) < base + 4:
        raise GraphParseError("truncated size field", position=base)
    n = 0
    for b in data[base + 1 : base + 4]:
        n = n << 6 | (b - 63)
    return n, 4


def parse_graph6(record, strict=True):
    """Parse one graph6 record into a Graph.

    Raises :class:`GraphParseError` (with a byte offset) on bytes outside
    [63, 126], a truncated or over-long record, or nonzero padding bits in
    strict mode; raises :class:`SizeLimitError` past the vertex cap.
    """
    if isinstance(record, str):
        try:
            data = record.encode("ascii")
        except UnicodeEncodeError as exc:
            raise GraphParseError(f"non-ASCII graph6 record: {exc}") from None
    else:
        data = bytes(record)
    data = data.rstrip(b"\r\n")
    base = 0
    if data.startswith(HEADER):
        base = len(HEADER)
    if base == len(data):
        raise GraphParseError("empty graph6 record", position=base)
    for offset in range(base, len(data)):
        if not 63 <= data[offset] <= 126:
            raise GraphParseError(
                f"byte {data[offset]} out of graph6 range [63, 126] "
                f"at offset {offset}",
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
    bits = []
    for b in body:
        bits.extend(_BYTE_BITS[b - 63])
    if any(bits[nbits:]):
        message = "nonzero padding bits in graph6 record"
        if strict:
            raise GraphParseError(message, position=base + consumed + nbytes - 1)
        warnings.warn(message)
    builder = GraphBuilder(n)
    k = 0
    for j in range(n):
        for i in range(j):
            if bits[k]:
                builder.add_edge(i, j)
            k += 1
    return builder.build()


def write_graph6(g):
    """Canonical graph6 record (no header, no newline) for ``g``."""
    n = g.n
    if n <= 62:
        out = [n + 63]
    elif n <= 258047:
        out = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:  # unreachable under MAX_VERTICES, kept for the format's sake
        out = [126, 126] + [(n >> (6 * k) & 63) + 63 for k in range(5, -1, -1)]
    acc = 0
    width = 0
    for j in range(n):
        column = g.rows[j]
        for i in range(j):
            acc = acc << 1 | (column >> i & 1)
            width += 1
            if width == 6:
                out.append(acc + 63)
                acc = 0
                width = 0
    if width:
        out.append((acc << (6 - width)) + 63)
    return bytes(out).decode("ascii")
