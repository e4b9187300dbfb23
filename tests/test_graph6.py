import random
import re
import tracemalloc
import warnings
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import edge_list_oracle
import graph6_oracle as oracle
from labeled_oracle import enumerate_labeled_graphs
from domcount import (
    Graph,
    GraphParseError,
    SizeLimitError,
    build_component_graph,
    cocktail_party,
    complete_graph,
    from_edges,
    iter_graph6,
    new_graph,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from domcount.graph6 import _CUT_BITS, TEXT_BLOCK, canonical_reader, corpus_texts
from domcount.graph6 import edge_list_lines
from domcount.graph6 import edge_list_rows, read_edges, read_vertex_count
from domcount.graph6 import first_record, graph6_order, graph6_records
from domcount.graphs import MAX_VERTICES
from domcount.scanning import graph_from_edge_mask, pair_order


@st.composite
def graphs_by_density(draw, max_n: int = 80):
    """Random graph with n <= max_n, each edge present with a drawn
    probability from 0 to 1, so sparse, dense, empty and complete graphs
    all occur at every order."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]) | st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
    return from_edges(n, edges)


def boundary_graphs(n: int) -> list:
    """The edgeless and complete graphs of order n, and the complete graphs
    with vertex 0 or the last vertex isolated."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return [
        new_graph(n),
        from_edges(n, pairs),
        from_edges(n, [(i, j) for i, j in pairs if i > 0]),
        from_edges(n, [(i, j) for i, j in pairs if j < n - 1]),
    ]


def sparse_and_dense(n: int) -> list:
    """A random graph of order n with about 20 n edges, and its complement."""
    rng = random.Random(n)
    sparse = from_edges(n, (rng.sample(range(n), 2) for _ in range(20 * n)))
    full = (1 << n) - 1
    dense = Graph(n, tuple(full ^ 1 << v ^ row for v, row in enumerate(sparse.rows)))
    return [sparse, dense]


def first_cut_order() -> int:
    """The least order whose graph6 body the writer converts in more than
    one cut: C(n, 2) bits reach ``_CUT_BITS``."""
    return next(n for n in range(2, MAX_VERTICES) if comb(n, 2) >= _CUT_BITS)


def parse_outcome(parse, data, strict):
    """What parsing ``data`` did: the rows and any warning messages, or the
    error's type, message and position."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rows = parse(data, strict=strict).rows
        except (GraphParseError, SizeLimitError) as exc:
            return type(exc), str(exc), getattr(exc, "position", None)
    return rows, [str(w.message) for w in caught]


def malformed_variants(record: bytes, cut: int, byte: int) -> dict[str, bytes]:
    """Broken copies of a valid record: a byte out of range, cut short,
    one byte too many, and (when there are padding bits) a padding bit set."""
    n = oracle.parse_graph6(record).n
    variants = {
        "out_of_range": record[:cut] + bytes([byte]) + record[cut + 1 :],
        "truncated": record[: cut % len(record)],
        "trailing": record + b"?",
    }
    if n * (n - 1) // 2 % 6:
        variants["padding"] = record[:-1] + bytes([(record[-1] - 63 | 1) + 63])
    return variants


class TestParseGraph6:
    def test_complete_four(self):
        g = parse_graph6("C~")
        assert g.rows == complete_graph(4).rows

    def test_four_cycle(self):
        g = parse_graph6("Cl")
        assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_empty_graph(self):
        g = parse_graph6("?")
        assert g.n == 0

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<C~").rows == complete_graph(4).rows

    def test_bytes_input_and_newline(self):
        assert parse_graph6(b"C~\n").rows == complete_graph(4).rows

    def test_byte_out_of_range(self):
        with pytest.raises(GraphParseError) as info:
            parse_graph6("C %")
        assert info.value.position == 1

    def test_offset_counts_header(self):
        with pytest.raises(GraphParseError) as info:
            parse_graph6(">>graph6<<C %")
        assert info.value.position == 11

    def test_truncated(self):
        with pytest.raises(GraphParseError):
            parse_graph6("D?")  # n=5 needs two adjacency bytes

    def test_trailing_bytes(self):
        with pytest.raises(GraphParseError):
            parse_graph6("C~~")

    def test_padding_strict_vs_lenient(self):
        # n=2: one adjacency bit, five padding bits; 'N' = 63 + 0b001111
        with pytest.raises(GraphParseError):
            parse_graph6("AN")
        with pytest.warns(UserWarning):
            g = parse_graph6("AN", strict=False)
        assert g.n == 2 and g.m == 0

    def test_size_cap(self):
        record = "~" + "".join(chr(63 + v) for v in (1, 0, 1))  # n = 4097
        with pytest.raises(SizeLimitError):
            parse_graph6(record)

    def test_empty_record(self):
        with pytest.raises(GraphParseError):
            parse_graph6("")


class TestWriteGraph6:
    def test_complete_four(self):
        assert write_graph6(complete_graph(4)) == "C~"

    def test_cocktail_party_four(self):
        # canonical parts {0,1}, {2,3}: edges 02 03 12 13 -> bits 011110
        assert write_graph6(cocktail_party(4)) == "C]"

    def test_edgeless_five(self):
        assert write_graph6(new_graph(5)) == "D??"

    def test_extended_size_field(self):
        for n in (63, 100, 200):
            g = new_graph(n)
            record = write_graph6(g)
            assert record.startswith("~")
            parsed = parse_graph6(record)
            assert parsed.n == n and parsed.m == 0

    def test_round_trip_exhaustive_small(self):
        for n in range(0, 5):
            for g in enumerate_labeled_graphs(n):
                assert parse_graph6(write_graph6(g)).rows == g.rows

    def test_round_trip_random_larger(self):
        rng = random.Random(1729)
        for _ in range(10_000):
            n = rng.randint(0, 40)
            mask = rng.randrange(1 << (n * (n - 1) // 2)) if n > 1 else 0
            g = graph_from_edge_mask(n, mask)
            assert parse_graph6(write_graph6(g)).rows == g.rows

    def test_round_trip_extended_with_edges(self):
        g = from_edges(70, [(0, 69), (1, 2), (68, 69)])
        assert parse_graph6(write_graph6(g)).rows == g.rows


class TestWriterCuts:
    """The graph6 writer converts its bit stream in cuts of whole base64
    quads, and the edge-list writer yields one text per row; both write
    the bytes of the former bit-by-bit and per-edge writers."""

    ORDERS = [first_cut_order() + k for k in range(-2, 4)] + [MAX_VERTICES]

    def test_first_cut_order(self):
        """``tests/cli_parity.py`` writes files at one order past it."""
        assert first_cut_order() == 363

    @pytest.mark.parametrize("n", ORDERS)
    def test_graph6_matches_oracle(self, n):
        for graph in sparse_and_dense(n):
            record = write_graph6(graph)
            assert record == oracle.write_graph6(graph)
            assert parse_graph6(record).rows == graph.rows

    @pytest.mark.parametrize("n", ORDERS)
    def test_edge_rows_match_oracle(self, n):
        # the dense edge list of order 4096 is 80 MB of oracle text
        for graph in sparse_and_dense(n)[: 1 if n == MAX_VERTICES else 2]:
            rows = list(edge_list_rows(graph))
            assert rows[0] == f"{n}\n" and all(row[-1:] == "\n" for row in rows)
            above = [row >> (u + 1) for u, row in enumerate(graph.rows)]
            assert len(rows) == 1 + sum(map(bool, above))
            assert "".join(rows) == edge_list_oracle.write_edge_list(graph)


class TestOracleEquivalence:
    """The word-level codec against the former bit-by-bit one, on orders
    0 to 80, across the 62/63 size-field switch."""

    @settings(max_examples=300, deadline=None)
    @given(
        graph=graphs_by_density(),
        cut=st.integers(0, 2**16),
        byte=st.sampled_from([0, 10, 32, 62, 127, 200, 255]),
    )
    def test_matches_oracle(self, graph, cut, byte):
        record = write_graph6(graph)
        assert record == oracle.write_graph6(graph)
        data = record.encode()
        for framed in (data, b">>graph6<<" + data + b"\n"):
            assert parse_graph6(framed).rows == graph.rows
            assert oracle.parse_graph6(framed).rows == graph.rows
        for name, variant in malformed_variants(data, cut % len(data), byte).items():
            strict = parse_outcome(parse_graph6, variant, True)
            assert strict == parse_outcome(oracle.parse_graph6, variant, True), name
            assert strict[0] in (GraphParseError, SizeLimitError), name
            lenient = parse_outcome(parse_graph6, variant, False)
            assert lenient == parse_outcome(oracle.parse_graph6, variant, False), name
            if name == "padding":
                assert lenient == (graph.rows, ["nonzero padding bits in graph6 record"])

    @pytest.mark.parametrize("n", [0, 1, 2, 12, 13, 62, 63])
    def test_complete_and_edgeless_at_boundaries(self, n):
        for graph in (new_graph(n), from_edges(n, [(i, j) for j in range(n) for i in range(j)])):
            record = write_graph6(graph)
            assert record == oracle.write_graph6(graph)
            assert parse_graph6(record).rows == graph.rows


class TestDeclaredOrder:
    """``graph6_order`` reads the order a parser would find without reading
    the body, None only when the parser rejects the header itself; the
    edge-list reader's count-line step, ``read_vertex_count``, reads it
    without reading the edge lines, and raises what the parser raises when
    the count line is bad."""

    @settings(max_examples=200, deadline=None)
    @given(
        graph=graphs_by_density(max_n=70),
        cut=st.integers(0, 2**16),
        byte=st.sampled_from([0, 10, 32, 62, 127, 200, 255]),
    )
    def test_graph6_size_field(self, graph, cut, byte):
        data = write_graph6(graph).encode()
        variants = malformed_variants(data, cut % len(data), byte)
        variants.update(valid=data, framed=b">>graph6<<" + data + b"\r\n")
        for name, variant in variants.items():
            order = graph6_order(variant)
            try:
                parsed = parse_graph6(variant)
            except (GraphParseError, SizeLimitError):
                assert order in (None, graph.n), name
            else:
                assert order == parsed.n == graph.n, name
            if name == "out_of_range" and cut % len(data) == 0:
                assert order is None  # the size field itself is bad

    @pytest.mark.parametrize(
        "record", ["", ">>graph6<<", "~", "~??", "~~?????", "caf\u00e9", "\x1f"]
    )
    def test_graph6_malformed_size_field(self, record):
        assert graph6_order(record) is None
        with pytest.raises(GraphParseError):
            parse_graph6(record)

    def test_graph6_past_vertex_cap(self):
        record = "~@MG"  # n = 1 * 4096 + 14 * 64 + 8 = 5000
        assert graph6_order(record) is None
        with pytest.raises(SizeLimitError):
            parse_graph6(record)

    @pytest.mark.parametrize(
        "text, order",
        [
            ("4\n0 1\n", 4),
            ("# c\n\n  100 # n\n0 1\nbad\n", 100),
            ("7", 7),
            ("x\r\n# 3\r\n3\n", None),
            ("3 4\n", None),
            ("-1\n", None),
            ("5000\n", None),
            ("# only a comment\n", None),
            ("", None),
            ("1_1\n0 1_0\n+2 3\n", None),
            ("+2\n", None),
            ("--2\n", None),
            ("-\n", None),
            ("\u0663\n", None),
            ("# +1_0 \u0663\n007\n0 1\n", 7),
        ],
    )
    def test_edge_list_count_line(self, text, order):
        try:
            parsed = parse_edge_list(text)
        except (GraphParseError, SizeLimitError) as exc:
            error = exc
            assert order is None or text.startswith("#")
        else:
            assert parsed.n == order
        for texts in ([text], whole_lines(text)):
            if order is None:
                with pytest.raises(type(error)) as raised:
                    count_line(texts)
                assert str(raised.value) == str(error)
            else:
                assert count_line(texts) == order

    def test_edge_list_count_line_after_a_long_header(self):
        """The count line is found however far into the text it starts."""
        text = "#" * 70_000 + "\n9\n"
        assert parse_edge_list(text).n == 9
        assert count_line([text]) == 9
        # the count line "70" straddles the first 64 KiB: read whole, not "7"
        text = "#" * ((1 << 16) - 2) + "\n70\n0 1\n"
        assert parse_edge_list(text).n == 70
        assert count_line([text]) == 70
        text = "9\n" + "0 1\n" * 20_000
        assert count_line([text]) == 9


def count_line(texts):
    """The vertex count of an edge list's texts of whole lines."""
    return read_vertex_count(edge_list_lines(texts))


def whole_lines(text):
    """``text`` as one text per line, each with its ``"\\n"``."""
    return re.findall(r"[^\n]*\n|[^\n]+", text)


def test_the_endpoint_rule_is_chosen_per_text():
    """``int`` reads a text with no ``+``, ``_`` or non-ASCII character;
    a later text that has one is read by the strict rule."""
    plain = "10\n" + "0 1\n" * 100
    for late in ("3 1_0\n", "3 +2\n", "3 \u0663\n"):
        lines = edge_list_lines([plain, late])
        n = read_vertex_count(lines)
        with pytest.raises(GraphParseError, match="^non-integer endpoint on line 102$"):
            read_edges(n, lines)
    lines = edge_list_lines(["# 1_0 +2\n10\n", "0 1\n", "0 2 # \u0663\n"])
    graph = read_edges(read_vertex_count(lines), lines)
    assert sorted(graph.edges()) == [(0, 1), (0, 2)]


class TestNetworkxCrossCheck:
    """networkx's graph6 codec is an independent implementation of the spec."""

    def check(self, graph):
        nx = pytest.importorskip("networkx")
        theirs = nx.Graph()
        theirs.add_nodes_from(range(graph.n))
        theirs.add_edges_from(graph.edges())
        record = write_graph6(graph)
        assert nx.to_graph6_bytes(theirs, header=False) == (record + "\n").encode()
        parsed = nx.from_graph6_bytes(record.encode())
        assert {tuple(sorted(e)) for e in parsed.edges()} == set(
            parse_graph6(record).edges()
        )

    @settings(max_examples=60, deadline=None)
    @given(graph=graphs_by_density())
    def test_random_graphs(self, graph):
        self.check(graph)

    def test_construction(self):
        self.check(build_component_graph(300, 7)[0])


class TestIterGraph6:
    def test_multiline_stream(self):
        text = ">>graph6<<C~\n\nCl\nD??\n"
        graphs = list(iter_graph6(text.splitlines()))
        assert [g.n for g in graphs] == [4, 4, 5]
        assert graphs[0].m == 6

    def test_records_are_stripped_non_blank_lines(self):
        lines = re.split(r"\r\n|\r|\n", "\n C~ \r\n\t\rC]\x1c\nC?\vC~\n")
        assert lines == ["", " C~ ", "\t", "C]\x1c", "C?\vC~", ""]
        assert list(graph6_records(lines)) == ["C~", "C]", "C?\vC~"]

    @pytest.mark.parametrize("kind", [str, bytes])
    def test_one_strip_rule_for_str_and_bytes(self, kind):
        """bytes lines once kept \x1c-\x1f, which str.strip() removes, and
        str lines lost non-ASCII whitespace such as \xa0."""
        def line(text):
            return text if kind is str else text.encode("latin-1")

        blank = "\t\n\v\f\r\x1c\x1d\x1e\x1f "
        lines = [line(blank + "C~" + blank), line(blank), line("\x1cC]\x1f")]
        assert list(graph6_records(lines)) == [line("C~"), line("C]")]
        assert [g.m for g in iter_graph6(lines)] == [6, 4]
        with pytest.raises(GraphParseError, match="non-ASCII|out of graph6 range"):
            list(iter_graph6([line("C~\xa0")]))

    def test_first_record_of_texts(self):
        """The first record of blocks of whole lines, stripped as
        graph6_records strips it, and its block from that record on; the
        blocks after the one that holds it are left unread.  Where only
        its "\\n" would be stripped, the record is its line, with the
        "\\n", which a record's parse strips: a one-line block is handed
        back as it is, not copied."""
        blank = "\t\n\v\f\r\x1c\x1d\x1e\x1f "
        blocks = iter(["", "\n \n", blank + "C~\x1c \r\nC]\n\n", "C?\n"])
        assert first_record(blocks) == ("C~", "C~\x1c \r\nC]\n\n")
        assert list(blocks) == ["C?\n"]
        assert first_record(["\n", " C~ "]) == ("C~", "C~ ")
        assert first_record(["\n", " C~"]) == ("C~", "C~")
        assert first_record(["\nC~\nC]\n"]) == ("C~\n", "C~\nC]\n")
        assert first_record(["\n", blank]) == ()
        block = "".join(["C~", "\n"])  # a string of its own, as read
        record, rest = first_record([block])
        assert record is block and rest is block
        assert parse_graph6(record) == parse_graph6("C~")


def reader_variants(n: int, rng: random.Random) -> dict[str, bytes]:
    """Lines for the canonical reader at order n: canonical records with
    their newline, and copies broken in one way each -- a wrong size field
    byte, a byte out of range in each body column, a padding bit set, no
    or another line end, a wrong length, a header, another order."""
    lines = {}
    for density in (0.0, 0.5, 1.0):
        pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
        record = write_graph6(from_edges(n, pairs)).encode()
        field = len(record) - (comb(n, 2) + 5) // 6
        lines[f"canonical_{density}"] = record + b"\n"
        for p in range(field):
            byte = record[p] + 1 if record[p] < 126 else record[p] - 1
            lines[f"size_field_{p}_{density}"] = (
                record[:p] + bytes([byte]) + record[p + 1 :] + b"\n"
            )
        for p in range(field, len(record)):
            byte = [32, 33, 62, 127][p % 4]
            lines[f"out_of_range_{p}_{density}"] = (
                record[:p] + bytes([byte]) + record[p + 1 :] + b"\n"
            )
        if comb(n, 2) % 6:
            last = bytes([(record[-1] - 63 | 1) + 63])
            lines[f"padding_{density}"] = record[:-1] + last + b"\n"
        lines[f"no_line_end_{density}"] = record
        lines[f"cr_{density}"] = record + b"\r"
        lines[f"crlf_{density}"] = record + b"\r\n"
        lines[f"truncated_{density}"] = record[:-1] + b"\n"
        lines[f"over_long_{density}"] = record + b"?\n"
        lines[f"header_{density}"] = b">>graph6<<" + record + b"\n"
    for other in {n + 1, abs(n - 1)} - {n}:
        lines[f"order_{other}"] = write_graph6(new_graph(other)).encode() + b"\n"
    return lines


def canonical_graph(line: str, n: int):
    """The graph ``parse_graph6`` reads from ``line`` when the line is that
    graph's canonical order-n record plus a newline, else None."""
    try:
        g = parse_graph6(line)
    except (GraphParseError, SizeLimitError):
        return None
    return g if g.n == n and line == write_graph6(g) + "\n" else None


def reader_lines(lines, kind):
    """bytes lines as ``str`` lines: decoded, for ``str``, or as the scan
    reads them, through ``corpus_texts``, for ``bytes``, which ends the
    CRLF and unended lines with ``"\\n"``."""
    if kind is str:
        return [line.decode("ascii") for line in lines]
    return list(corpus_texts(lines))


class TestCanonicalReader:
    """``canonical_reader`` line by line against ``parse_graph6``: the lines
    of a block of a canonical line's length are joined into one text, and a
    line is accepted exactly when it is ``write_graph6`` of the graph parsed
    from it, plus a newline, and its lane of the planes holds that graph's
    edges in ``pair_order``."""

    ORDERS = [0, 1, 2, 3, 4, 5, 8, 12, 13, 62, 63, 64]
    # reader_variants that corpus_texts makes canonical
    ENDED = ("canonical", "crlf", "no_line_end")

    @staticmethod
    def check(n, block):
        stride, read = canonical_reader(n)
        assert stride == len(write_graph6(new_graph(n))) + 1
        at = [i for i, line in enumerate(block) if len(line) == stride]
        ok, planes = read("".join([block[i] for i in at]))
        assert ok >> len(at) == 0
        assert len(planes) == (comb(n, 2) if at else 0)
        for lane, i in enumerate(at):
            g = canonical_graph(block[i], n)
            assert (ok >> lane & 1) == (g is not None), block[i]
            if g is not None:
                assert [plane >> lane & 1 for plane in planes] == [
                    g.rows[a] >> b & 1 for a, b in pair_order(n)
                ], block[i]
        return ok

    @pytest.mark.parametrize("kind", [str, bytes])
    @pytest.mark.parametrize("n", ORDERS[:-3])  # test_one_block takes the wide ones
    def test_each_line_alone(self, n, kind):
        for name, line in reader_variants(n, random.Random(n)).items():
            (line,) = reader_lines([line], kind)
            ok = self.check(n, [line])
            canonical = name.startswith(self.ENDED if kind is bytes else "canonical")
            assert ok == canonical, name

    @pytest.mark.parametrize("kind", [str, bytes])
    @pytest.mark.parametrize("n", ORDERS)
    def test_one_block(self, n, kind):
        lines = list(reader_variants(n, random.Random(n)).values())
        random.Random(-n).shuffle(lines)
        block = reader_lines(lines, kind)
        assert self.check(n, block).bit_count() == (3 if kind is str else 9)

    @pytest.mark.parametrize("kind", [str, bytes])
    @pytest.mark.parametrize("n", ORDERS)
    def test_a_text_reads_as_its_lines(self, n, kind):
        """A text of lines of the record's length, back to back, reads as
        those lines, each read alone; a text of another length reads as
        none."""
        stride, read = canonical_reader(n)
        variants = reader_variants(n, random.Random(n)).values()
        lines = [line for line in reader_lines(variants, kind) if len(line) == stride]
        random.Random(-n).shuffle(lines)
        text = "".join(lines)
        ok, planes = read(text)
        for lane, line in enumerate(lines):
            alone, alone_planes = read(line)
            assert ok >> lane & 1 == alone, line
            assert [plane >> lane & 1 for plane in planes] == alone_planes, line
        assert ok.bit_count() == (3 if kind is str else 9)
        for other in (text[:-1], text + text[:1], text[:0]):
            assert read(other) == (0, [])

    @pytest.mark.parametrize("kind", [str, bytes])
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_non_ascii_text_has_none(self, n, kind):
        record = write_graph6(complete_graph(n)) + "\n"
        # the canonical length, with an e-acute (one character or byte)
        other = record[:1] + "\u00e9" + record[2:]
        if kind is bytes:
            (other,) = corpus_texts([other.encode("latin-1")])
        assert canonical_graph(other, n) is None
        _, read = canonical_reader(n)
        assert read(other)[0] == 0
        assert read(record + other)[0] == 0


class TestEdgeList:
    def test_four_cycle(self):
        g = parse_edge_list("4\n0 1\n1 2\n2 3\n0 3\n")
        assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_loop_reports_line(self):
        with pytest.raises(GraphParseError) as info:
            parse_edge_list("3\n0 0\n")
        assert info.value.position == 2

    def test_comment_lines(self):
        g = parse_edge_list("2\n# comment\n0 1\n")
        assert g.m == 1

    def test_inline_comment_and_duplicates(self):
        g = parse_edge_list("3\n0 1 # twice\n1 0\n")
        assert g.m == 1

    def test_out_of_range(self):
        with pytest.raises(GraphParseError) as info:
            parse_edge_list("2\n0 5\n")
        assert info.value.position == 2

    def test_malformed_line(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("2\n0 1 2\n")
        with pytest.raises(GraphParseError):
            parse_edge_list("2\nnope 1\n")
        # a token is ASCII digits after an optional "-", whatever int takes
        for text, message in [
            ("1_1\n0 1_0\n+2 3\n", "invalid vertex count '1_1' on line 1"),
            ("+3\n0 1\n", "invalid vertex count '+3' on line 1"),
            ("\u0663\n0 1\n", "invalid vertex count '\u0663' on line 1"),
            ("3\n0 1\n+2 1\n", "non-integer endpoint on line 3"),
            ("12\n0 1_0\n", "non-integer endpoint on line 2"),
            ("3\n# a + b\n0 1_0\n", "non-integer endpoint on line 3"),
            ("3\n0 \u0662\n", "non-integer endpoint on line 2"),
            ("3\n--1 2\n", "non-integer endpoint on line 2"),
            ("3\n- 2\n", "non-integer endpoint on line 2"),
            ("3\n-1 2\n", "edge (-1, 2) out of range for n=3 on line 2"),
            ("-3\n", "negative vertex count on line 1"),
        ]:
            with pytest.raises(GraphParseError) as info:
                parse_edge_list(text)
            assert str(info.value) == message, text

    @pytest.mark.parametrize(
        "separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
    )
    def test_only_newlines_end_a_line(self, separator):
        with pytest.raises(GraphParseError) as info:
            parse_edge_list(f"4{separator}0 1\n1 2\n2 3\n")
        assert str(info.value) == "expected a single vertex count on line 1"
        assert info.value.position == 1

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_every_universal_newline_ends_a_line(self, newline):
        text = newline.join(["4", "0 1", "1 2", "2 3", ""])
        assert parse_edge_list(text).rows == from_edges(4, [(0, 1), (1, 2), (2, 3)]).rows

    def test_missing_count(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("# nothing here\n")

    def test_traced_peak_does_not_grow_with_the_text(self):
        """The text is read in blocks of whole lines.  Read whole through
        one io.StringIO, four bytes a character, these 2 MB peaked at about
        8 MB.  Lines are still numbered across the blocks."""
        rng = random.Random(7)
        edges = [tuple(rng.sample(range(64), 2)) for _ in range(10_000)]
        text = "64\n" + "".join(f"{u} {v}  # {'-' * 190}\n" for u, v in edges)
        assert len(text) > 30 * TEXT_BLOCK
        tracemalloc.start()
        try:
            g = parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.rows == from_edges(64, edges).rows
        assert peak < 2 * 2**20
        with pytest.raises(GraphParseError, match="endpoint on line 10002$"):
            parse_edge_list(text + "0 x\n")

    def test_round_trip(self):
        g = cocktail_party(8)
        assert parse_edge_list(write_edge_list(g)).rows == g.rows

    def test_write_format(self):
        g = from_edges(3, [(0, 2)])
        assert write_edge_list(g) == "3\n0 2\n"


class TestEdgeListWriter:
    """The row-at-a-time writer against the former per-edge one, byte for
    byte, on rows that end on either side of the 64-bit word boundary."""

    def check(self, graph):
        text = write_edge_list(graph)
        assert text == edge_list_oracle.write_edge_list(graph)
        assert parse_edge_list(text).rows == graph.rows

    @settings(max_examples=300, deadline=None)
    @given(graph=graphs_by_density(max_n=70))
    def test_random_graphs(self, graph):
        self.check(graph)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 62, 63, 64, 65, 66, 67, 70])
    def test_boundary_graphs(self, n):
        for graph in boundary_graphs(n):
            self.check(graph)

    @pytest.mark.parametrize("n", [299, 300, 301])
    def test_constructions(self, n):
        for x in range(3, 8):
            self.check(build_component_graph(n, x)[0])
