"""``scan --corpus`` against the per-graph oracle.

The CLI is run twice on each corpus: as shipped, and with its corpus scan
replaced by ``oracle_scan_corpus`` (``iter_graph6`` plus the per-graph
reduction).  The JSON report (``elapsed_ms`` aside), stderr (warning lines
included) and exit code must be the same.
"""

import contextlib
import io
import json
import random
import sys
import tempfile
import tracemalloc
import warnings
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import tied_stream
from domcount import (
    GraphParseError,
    complete_graph,
    count_sets,
    extremal_scan,
    from_edges,
    iter_graph6,
    new_graph,
    parse_graph6,
    write_graph6,
)
from domcount.cli import _decoded, run_cli
from domcount import graph6, scanning
from domcount.errors import MixedOrderError, SizeLimitError
from domcount.graph6 import TEXT_BLOCK, text_blocks
from domcount.scanning import SCAN_BLOCK, PairMaximum, scan_corpus
from scan_oracle import oracle_scan_corpus

MODES = ([], ["--total"], ["--lenient"], ["--total", "--lenient"])
K65 = write_graph6(complete_graph(65)).encode() + b"\n"


def cli_outcome(argv):
    """Exit code, report (``elapsed_ms`` aside) and stderr text; ``run_cli``
    writes its warnings to stderr itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        del report["elapsed_ms"]
    return code, report, err.getvalue()


def assert_matches_oracle(path, extra=()):
    for mode in MODES:
        argv = ["scan", "--corpus", str(path), *mode, *extra]
        shipped = cli_outcome(argv)
        with mock.patch("domcount.cli.scan_corpus", oracle_scan_corpus):
            assert shipped == cli_outcome(argv), argv


def assert_stdin_matches_oracle(monkeypatch, path):
    """:func:`assert_matches_oracle` with the corpus fed through stdin, where
    both scans must also report what they report on the file."""
    for mode in MODES:
        from_file = cli_outcome(["scan", "--corpus", str(path), *mode])
        for scan in (scan_corpus, oracle_scan_corpus):
            stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()))
            monkeypatch.setattr(sys, "stdin", stdin)
            with mock.patch("domcount.cli.scan_corpus", scan):
                assert cli_outcome(["scan", "--corpus", "-", *mode]) == from_file, (
                    mode, scan
                )


def cli_text_blocks(data):
    """The text blocks the CLI hands the scan for a corpus file's bytes
    (the first record's block from that record on)."""
    return list(text_blocks(_decoded(io.BytesIO(data))))


def parsed_blocks(monkeypatch):
    """The list to which every block of graphs ``PairMaximum.add_graphs``
    takes is appended from now on: the graphs a corpus scan parsed."""
    parsed = []
    add_graphs = PairMaximum.add_graphs

    def spy(self, graphs):
        parsed.append(list(graphs))
        return add_graphs(self, parsed[-1])

    monkeypatch.setattr(PairMaximum, "add_graphs", spy)
    return parsed


def canonical_reads(monkeypatch):
    """The list to which every text the corpus order's canonical reader
    reads is appended from now on."""
    reads = []
    reader = scanning.canonical_reader

    def spy(n):
        stride, read = reader(n)

        def counted(text):
            reads.append(text)
            return read(text)

        return stride, counted

    monkeypatch.setattr(scanning, "canonical_reader", spy)
    return reads


def random_record(rng, n, density=None):
    density = rng.choice([0.5, 0.7, 0.85, 1.0]) if density is None else density
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
    return write_graph6(from_edges(n, edges)).encode()


def mutate(record, kind, n, rng):
    """One malformed or non-canonical variant of a canonical record, or of
    a line an earlier mutation left, which "truncated" can leave empty."""
    if kind == "header":
        return b">>graph6<<" + record
    if kind == "padding":
        if comb(n, 2) % 6 == 0 or not record:
            return record + b"?"
        return record[:-1] + bytes([(record[-1] - 63 | 1) + 63])
    if kind == "out_of_range":
        at = rng.randrange(len(record) or 1)
        return record[:at] + bytes([rng.choice([32, 33, 62, 127])]) + record[at + 1 :]
    if kind == "truncated":
        return record[:-1]
    if kind == "over_long":
        return record + b"?"
    if kind == "other_order":
        return random_record(rng, n + 1)
    if kind == "whitespace":
        return b" " + record + b"\t"
    if kind == "long_size_field":
        if n > 62:
            return record
        return b"~??" + bytes([63 + n]) + record[1:]
    if kind == "lone_cr":
        return record + b"\r" + record
    if kind == "non_ascii":
        return record + b"\xc3\xa9"
    raise AssertionError(kind)


KINDS = ["header", "padding", "out_of_range", "truncated", "over_long",
         "other_order", "whitespace", "long_size_field", "lone_cr", "non_ascii",
         "blank"]


def corpus_lines(rng, n, count, kinds):
    """``count`` canonical records of order n with ``kinds`` applied: each
    mutation to a random record line, then each blank line inserted, so
    that no mutation is applied to a blank line."""
    lines = [random_record(rng, n) for _ in range(count)]
    for kind in kinds:
        if kind != "blank":
            at = rng.randrange(len(lines))
            lines[at] = mutate(lines[at], kind, n, rng)
    for _ in range(kinds.count("blank")):
        lines.insert(rng.randrange(len(lines)), rng.choice([b"", b"  "]))
    return lines


@st.composite
def corpora(draw):
    """Bytes of a graph6 corpus: mostly canonical records of one order
    (0-12, sometimes 13-64), with a few of the lines broken or framed
    differently, blank lines, and LF or CRLF line ends."""
    n = draw(st.integers(0, 12) | st.sampled_from([13, 20, 33, 62, 63, 64]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    count = draw(st.integers(1, 40 if n <= 12 else 4))
    lines = corpus_lines(
        rng, n, count, draw(st.lists(st.sampled_from(KINDS), max_size=3))
    )
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, b""]))


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(corpus=corpora())
    def test_random_corpora(self, corpus):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.g6"
            path.write_bytes(corpus)
            assert_matches_oracle(path)

    @pytest.mark.parametrize("kind", ["padding", "out_of_range"])
    def test_blank_line_before_a_mutation(self, tmp_path, kind):
        # with the blank line inserted first, the mutation picks the empty
        # line and fails on 6 of these 40 seeds
        for seed in range(40):
            lines = corpus_lines(random.Random(seed), 20, 1, ["blank", kind])
            assert sum(not line.strip() for line in lines) == 1
            path = tmp_path / "corpus.g6"
            path.write_bytes(b"\n".join(lines) + b"\n")
            assert_matches_oracle(path)

    @pytest.mark.parametrize(
        "at", [0, SCAN_BLOCK - 2, SCAN_BLOCK - 1, SCAN_BLOCK, 2 * SCAN_BLOCK + 5]
    )
    @pytest.mark.parametrize("kind", ["out_of_range", "padding", "other_order",
                                      "header"])
    def test_block_boundaries(self, tmp_path, at, kind):
        rng = random.Random(at)
        lines = [random_record(rng, 8, 5 / 8) for _ in range(2 * SCAN_BLOCK + 100)]
        lines[at] = mutate(lines[at], kind, 8, rng)
        path = tmp_path / "corpus.g6"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert_matches_oracle(path)

    @pytest.mark.parametrize(
        "n, gap", [(8, 0), (8, 100), (8, 2000), (20, 50), (20, 400)]
    )
    def test_non_ascii_after_a_malformed_line(self, tmp_path, n, gap):
        # The text decoder reads 8 KiB at a time: with a short gap the
        # undecodable byte is met before the malformed line is parsed, with
        # a long one after, even when both lines fall in one block of lines.
        rng = random.Random(gap)
        lines = [random_record(rng, n) for _ in range(10)]
        lines.append(mutate(lines[0], "out_of_range", n, rng))
        lines += [random_record(rng, n) for _ in range(gap)]
        lines.append(b"caf\xc3\xa9")
        path = tmp_path / "corpus.g6"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert_matches_oracle(path)
        _, _, err = cli_outcome(["scan", "--corpus", str(path)])
        assert ("ascii" in err) == (gap * len(lines[0]) < 8192)

    @pytest.mark.parametrize(
        "kind, head",
        [
            pytest.param(kind, head, id=kind + name)
            for name, head in [
                ("", b"\n" * (SCAN_BLOCK + 5)),
                ("-past-a-text-block", b" \n\t\n" * (TEXT_BLOCK // 2 + 5)),
            ]
            for kind in ["canonical", "header"]
        ],
    )
    def test_first_record_after_the_first_block(self, tmp_path, kind, head):
        # the stream's order is read from a record after SCAN_BLOCK blank
        # lines, and from one past the first text block, which is blank
        # also when the corpus is one text, cut only past 2 * TEXT_BLOCK
        rng = random.Random(53)
        lines = [random_record(rng, 8, 5 / 8) for _ in range(50)]
        if kind == "header":
            lines[0] = mutate(lines[0], kind, 8, rng)
        data = head + b"\n".join(lines) + b"\n"
        first = next(text_blocks([data.decode("ascii")]))
        assert (first.strip() == "") == (len(head) > 2 * TEXT_BLOCK)
        path = tmp_path / "corpus.g6"
        path.write_bytes(data)
        assert_matches_oracle(path)
        for mode in ("dominating", "total"):
            for texts in (io.BytesIO(data).readlines(), [data]):
                outcome = lines_outcome(scan_corpus, texts, mode, True)
                assert outcome == lines_outcome(oracle_scan_corpus, texts, mode, True)
                assert outcome[0].graphs_scanned == len(lines)

    def test_blank_corpus_past_one_block(self, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_bytes(b"\n  \n" * SCAN_BLOCK)
        code, report, err = cli_outcome(["scan", "--corpus", str(path)])
        assert code == 2 and report is None
        assert err == "domcount: parse error: no graph6 record found in corpus\n"
        assert_matches_oracle(path)

    @pytest.mark.parametrize("head", [b"", b"\n  \n\t\n"])
    def test_canonical_corpus_is_never_parsed(self, tmp_path, monkeypatch, head):
        # the scan takes the first record's text block from that record
        # on, with no blank line before it, so no block of a canonical
        # corpus leaves the canonical path
        rng = random.Random(17)
        lines = [random_record(rng, 8, 5 / 8) for _ in range(3 * TEXT_BLOCK // 7 + 30)]
        path = tmp_path / "corpus.g6"
        path.write_bytes(head + b"\n".join(lines) + b"\n")
        assert len(cli_text_blocks(path.read_bytes())) >= 3
        parsed = parsed_blocks(monkeypatch)
        for n in ([], ["--n", "8"]):
            code, report, _ = cli_outcome(["scan", "--corpus", str(path), *n])
            assert code == 0 and report["graphs_scanned"] == len(lines)
        assert parsed == []
        monkeypatch.undo()
        assert_matches_oracle(path)

    def test_many_records_same_witness(self, tmp_path):
        rng = random.Random(211)
        lines = [random_record(rng, 9, 5 / 8) for _ in range(3 * SCAN_BLOCK)]
        path = tmp_path / "corpus.g6"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert_matches_oracle(path)


class TestTextBlocks:
    """Lines at the edges of the text blocks and of the 8 KiB reads the CLI
    hands the scan, from a file and from stdin, against the oracle.  Order
    30 (75 bytes a line, 3 padding bits) keeps the oracle's share small."""

    N = 30
    STRIDE = 75
    READ = 8192  # io.DEFAULT_BUFFER_SIZE, the decoder's read

    def fill(self, rng, length):
        """``length`` bytes of order-N canonical record lines, the first
        one after enough spaces to make up the length (the CLI strips the
        first record's line, so the rest of its text block stays
        canonical)."""
        count, spaces = divmod(length, self.STRIDE)
        lines = [random_record(rng, self.N, 5 / 8) + b"\n" for _ in range(count)]
        assert lines or not spaces
        return b" " * spaces + b"".join(lines)

    def check(self, tmp_path, monkeypatch, data):
        path = tmp_path / "corpus.g6"
        path.write_bytes(data)
        assert_matches_oracle(path)
        assert_stdin_matches_oracle(monkeypatch, path)
        # the oracle above reads the blocks the CLI hands the scan; here it
        # reads the lines of an io.TextIOWrapper
        for total, lenient in ((False, False), (True, True)):
            argv = ["scan", "--corpus", str(path)]
            argv += ["--total"] * total + ["--lenient"] * lenient
            mode = "total" if total else "dominating"
            want, _ = api_outcome(oracle_scan_corpus, data, mode, not lenient)
            code, report, _ = cli_outcome(argv)
            if isinstance(want, tuple):
                assert code == 2 and report is None
            else:
                assert code == 0 and report == {
                    "n": want.n, "mode": mode, "gamma": 2, "count": want.max_count,
                    "witness": want.witness, "graphs_scanned": want.graphs_scanned,
                }

    def special(self, kind, rng):
        record = random_record(rng, self.N)
        return {
            "blank": b"\n",
            "spaces": b"  \n",
            "header": b">>graph6<<" + record + b"\n",
            "padded": mutate(record, "padding", self.N, rng) + b"\n",
            "other_order": random_record(rng, self.N + 1) + b"\n",
            "lone_cr": record + b"\r",
            "cr": b"\r",
        }[kind]

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize(
        "kind", ["blank", "spaces", "header", "padded", "other_order", "lone_cr", "cr"]
    )
    def test_line_at_a_block_edge(self, tmp_path, monkeypatch, kind, where):
        rng = random.Random(f"{kind}-{where}")
        line = self.special(kind, rng)
        if where == "first":
            # the first block ends at TEXT_BLOCK, the last byte of a read
            data = self.fill(rng, TEXT_BLOCK) + line + self.fill(rng, 40 * self.STRIDE)
            assert len(cli_text_blocks(data)[0]) == TEXT_BLOCK
        else:
            # the line ends a byte short of the read, and the next straddles
            head = self.fill(rng, TEXT_BLOCK - len(line) - 1) + line
            data = head + self.fill(rng, 40 * self.STRIDE)
            assert len(cli_text_blocks(data)[0]) == len(head)
        self.check(tmp_path, monkeypatch, data)

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
    @pytest.mark.parametrize("at", [READ - 1, 2 * READ - 1, TEXT_BLOCK - 1])
    def test_cr_as_the_last_byte_of_a_read(self, tmp_path, monkeypatch, ending, at):
        # the decoder holds the "\r" back until the next read, which starts
        # with the "\n" of a CRLF or with the next record
        rng = random.Random(at)
        record = random_record(rng, self.N)
        data = self.fill(rng, at - len(record)) + record + ending
        assert data[at:] == ending
        self.check(tmp_path, monkeypatch, data + self.fill(rng, 40 * self.STRIDE))

    @pytest.mark.parametrize("end", [b"\n", b""])
    def test_canonical_corpus_past_two_blocks(self, tmp_path, monkeypatch, end):
        # 2 * TEXT_BLOCK + 5 lines' worth of bytes, with or without a
        # final newline
        rng = random.Random(len(end))
        data = self.fill(rng, (2 * TEXT_BLOCK // self.STRIDE + 5) * self.STRIDE)
        data = data[:-1] + end
        blocks = cli_text_blocks(data)
        assert len(blocks) == 3 and len(data) % TEXT_BLOCK
        # the scan groups the CLI's blocks again, and they pass through
        assert list(text_blocks(blocks)) == blocks
        self.check(tmp_path, monkeypatch, data)


@pytest.mark.parametrize("mode", ["dominating", "total"])
@pytest.mark.parametrize("n", [5, 7, 63, 64])
def test_tied_maximizers(n, mode):
    # canonical records at padded and wide orders, all tied; the smallest
    # comes twice, both times past the first block
    stream = tied_stream(n)
    record = scan_corpus([write_graph6(g) + "\n" for g in stream], mode)
    assert record.witness == min(write_graph6(g) for g in stream)
    assert record.max_count == count_sets(stream[0], 2, mode)
    assert record.graphs_scanned == len(stream)


def api_outcome(scan, corpus, mode, strict):
    """What ``scan`` did on corpus bytes read as the CLI reads them."""
    lines = io.TextIOWrapper(io.BytesIO(corpus), encoding="ascii")
    return lines_outcome(scan, lines, mode, strict)


def lines_outcome(scan, lines, mode, strict):
    """What ``scan`` did on corpus lines: the record or the error, and every
    warning message in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = scan(lines, mode, strict)
        except ValueError as exc:  # the package's errors and UnicodeDecodeError
            outcome = (type(exc).__name__, str(exc))
    return outcome, [str(w.message) for w in caught]


class TestWarningsAgainstOracle:
    """The CLI writes each distinct warning once, so the corpus scan's
    warnings, one per padded record and in file order, are compared with
    the oracle's here, at the API."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(corpus=corpora(), mode=st.sampled_from(["dominating", "total"]),
           strict=st.booleans())
    def test_random_corpora(self, corpus, mode, strict):
        assert api_outcome(scan_corpus, corpus, mode, strict) == api_outcome(
            oracle_scan_corpus, corpus, mode, strict
        )

    @pytest.mark.parametrize("at", [0, SCAN_BLOCK - 1, SCAN_BLOCK, 2 * SCAN_BLOCK])
    def test_padded_records_across_blocks(self, at):
        rng = random.Random(at)
        lines = [random_record(rng, 8, 5 / 8) for _ in range(2 * SCAN_BLOCK + 100)]
        for i in (at, at + 1, at + 50):
            lines[i] = mutate(lines[i], "padding", 8, rng)
        corpus = b"\n".join(lines) + b"\n"
        outcome, caught = api_outcome(scan_corpus, corpus, "dominating", False)
        assert caught == ["nonzero padding bits in graph6 record"] * 3
        assert (outcome, caught) == api_outcome(
            oracle_scan_corpus, corpus, "dominating", False
        )


def scan_graph6(lines, mode, strict):
    return extremal_scan(iter_graph6(lines, strict), mode)


class TestLineTypes:
    @pytest.mark.parametrize("mode", ["dominating", "total"])
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("malformed", [False, True])
    def test_bytes_lines_scan_as_str_lines(self, mode, strict, malformed):
        """Canonical bytes lines are read from their bytes, as str lines
        are, with the same record, errors and warnings as ``iter_graph6``."""
        rng = random.Random(11)
        lines = [random_record(rng, 8) for _ in range(40)]
        lines[20] = mutate(lines[20], "padding", 8, rng)
        if malformed:
            lines[30] = mutate(lines[30], "truncated", 8, rng)
        as_bytes = [line + b"\n" for line in lines]
        as_str = [line.decode("ascii") for line in as_bytes]
        # one block with str and bytes lines of a canonical record's length
        mixed = [line if i % 3 else as_bytes[i] for i, line in enumerate(as_str)]
        want = lines_outcome(scan_graph6, as_str, mode, strict)
        assert lines_outcome(scan_graph6, as_bytes, mode, strict) == want
        assert lines_outcome(scan_graph6, mixed, mode, strict) == want
        assert lines_outcome(scan_corpus, as_str, mode, strict) == want
        assert lines_outcome(scan_corpus, as_bytes, mode, strict) == want
        assert lines_outcome(scan_corpus, mixed, mode, strict) == want
        assert (type(want[0]) is tuple) == (strict or malformed)

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("malformed", [False, True])
    def test_texts_of_many_lines_scan_as_their_lines(self, mode, strict, malformed):
        """Texts of whole lines, canonical runs or not, str, bytes or
        bytearray, are split at "\\n" and nowhere else: the same record,
        errors and warnings as their lines."""
        rng = random.Random(13)
        lines = [random_record(rng, 8) for _ in range(3000)]
        lines[1500] = mutate(lines[1500], "padding", 8, rng)
        lines[2999] = b"C~\rC~\x1c"  # a lone "\r" is not a line end here
        if malformed:
            lines[2000] = mutate(lines[2000], "truncated", 8, rng)
        lines = [line + b"\n" for line in lines]
        want = lines_outcome(scan_graph6, lines, mode, strict)
        for cuts in ([0, 1000, 1001, 2400, 3000], [0, 3000], [0, 1, 2, 3000]):
            texts = [b"".join(lines[a:b]) for a, b in zip(cuts, cuts[1:])]
            for kind in (bytes, bytearray, lambda text: text.decode("ascii")):
                texts_of_kind = list(map(kind, texts))
                assert lines_outcome(scan_corpus, texts_of_kind, mode, strict) == want
        error = "nonzero padding" if strict else "truncated" if malformed else "byte 13"
        assert want[0][1].startswith(error) and len(want[1]) == (not strict)
        # str.splitlines would end a line at "\x85" and "\u2028" too: here
        # the line is one non-ASCII record, the first error in every case
        as_str = [line.decode("ascii") for line in lines]
        as_str[1000] = "C~\x85C~\u2028\n"
        odd = lines_outcome(scan_graph6, as_str, mode, strict)
        texts = ["".join(as_str[:2400]), "".join(as_str[2400:])]
        assert lines_outcome(scan_corpus, texts, mode, strict) == odd
        assert odd[0][1].startswith("non-ASCII graph6 record")
        # texts no longer than a canonical line may hold two lines each
        texts = [b"".join(lines[:5]), b"\n\n", b"??\n??\n"]
        want = lines_outcome(scan_graph6, [*lines[:5], b"\n", b"\n", b"??\n"], mode, strict)
        assert lines_outcome(scan_corpus, texts, mode, strict) == want
        assert want[0][1].startswith("trailing bytes")

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    def test_every_form_takes_the_canonical_path(self, monkeypatch, mode):
        """A canonical corpus is read by the canonical reader in every form
        the API takes, LF or CRLF, with or without a final newline: no
        record is parsed, and the record is the oracle's."""
        rng = random.Random(19)
        records = [random_record(rng, 8, 5 / 8) for _ in range(3000)]
        crlf = b"".join(record + b"\r\n" for record in records)
        forms = {
            "str lines": [record.decode("ascii") + "\n" for record in records],
            "bytes lines": [record + b"\n" for record in records],
            "CRLF str text": [crlf.decode("ascii")],
            "CRLF bytes text": [crlf],
            "CRLF bytearray text": [bytearray(crlf)],
            "CRLF str lines": [record.decode("ascii") + "\r\n" for record in records],
            "CRLF bytes lines": [record + b"\r\n" for record in records],
            "unended str lines": [record.decode("ascii") for record in records],
            "unended bytes lines": records,
        }
        want = oracle_scan_corpus(forms["bytes lines"], mode)
        parsed = parsed_blocks(monkeypatch)
        for name, texts in forms.items():
            assert scan_corpus(texts, mode) == want, name
        assert parsed == []

    @pytest.mark.parametrize("kind", [str, bytes])
    def test_lines_reach_the_reader_in_text_blocks(self, monkeypatch, kind):
        """Single lines are joined into text blocks of whole lines, as the
        CLI reads a file: the canonical reader reads one text per
        TEXT_BLOCK characters, where it read one per SCAN_BLOCK lines, and
        no record is parsed."""
        rng = random.Random(23)
        lines = [random_record(rng, 8, 5 / 8) + b"\n" for _ in range(25_000)]
        reads = canonical_reads(monkeypatch)
        parsed = parsed_blocks(monkeypatch)
        texts = lines if kind is bytes else [line.decode("ascii") for line in lines]
        record = scan_corpus(texts, "dominating")
        read_lengths = [len(text) for text in reads]
        size = sum(map(len, lines))
        assert read_lengths and max(read_lengths) <= TEXT_BLOCK
        assert len(read_lengths) == -(-size // TEXT_BLOCK) and sum(read_lengths) == size
        assert parsed == [] and record.graphs_scanned == len(lines)

    @pytest.mark.parametrize(
        "text", ["G~~~~{\n", b"G~~~~{\n", bytearray(b"G~~~~{\n")],
        ids=["str", "bytes", "bytearray"],
    )
    def test_one_text_alone_is_refused(self, text):
        """One text where lines or a list of texts go: iterating over it
        would read its characters or bytes as lines."""
        with pytest.raises(TypeError, match="lines or a list of texts"):
            scan_corpus(text, "dominating")
        with pytest.raises(TypeError, match="lines or a list of texts"):
            iter_graph6(text)

    def test_lone_surrogate_reads_as_its_byte(self):
        """A str record with a lone surrogate, as decoding bytes with
        "surrogateescape" gives it, is refused as the byte it stands for,
        as the bytes record is.  The CLI's strict ASCII decoder never gives
        one."""
        for record in ("C\udcc3", b"C\xc3"):
            with pytest.raises(GraphParseError, match="byte 195 out of graph6 range"):
                parse_graph6(record)
        outcome = lines_outcome(scan_corpus, ["C~\n", "C\udcc3\n"], "dominating", True)
        assert outcome == lines_outcome(
            scan_corpus, [b"C~\n", b"C\xc3\n"], "dominating", True
        )
        message = "byte 195 out of graph6 range [63, 126] at offset 1"
        assert outcome == (("GraphParseError", message), [])

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    def test_non_ascii_line_of_canonical_length(self, mode):
        """A str line of a canonical record's length with a non-ASCII
        character sends its block to the parser, which refuses that line."""
        rng = random.Random(12)
        lines = [random_record(rng, 8).decode("ascii") + "\n" for _ in range(40)]
        lines[25] = "G\u00e9" + lines[25][2:]
        assert len(lines[25]) == len(lines[24])
        outcome = lines_outcome(scan_corpus, lines, mode, True)
        assert outcome == lines_outcome(oracle_scan_corpus, lines, mode, True)
        assert outcome[0][0] == "GraphParseError" and "non-ASCII" in outcome[0][1]

    def test_non_ascii_line_is_parsed_alone(self, monkeypatch):
        """A non-ASCII line of a canonical record's length made the block's
        one canonical read refuse the whole joined text, so every line up
        to it was parsed (8990 parses here); it is now read as a line of
        another length, and only it and the space-led line are parsed."""
        rng = random.Random(47)
        records = [random_record(rng, 8, 5 / 8) for _ in range(9000)]
        lines = [record.decode("ascii") + "\n" for record in records]
        lines[100] = " " + lines[100]
        lines[8990] = "Gé" + lines[8990][2:]
        text = "".join(lines)
        assert len(text) < TEXT_BLOCK
        parses = []
        parse = graph6.parse_graph6

        def spy(record, strict=True):
            parses.append(record)
            return parse(record, strict)

        monkeypatch.setattr(graph6, "parse_graph6", spy)
        outcome = lines_outcome(scan_corpus, [text], "dominating", True)
        monkeypatch.undo()
        assert parses == [lines[100].strip(), lines[8990][:-1]]
        assert outcome == lines_outcome(oracle_scan_corpus, [text], "dominating", True)
        message = (
            "non-ASCII graph6 record: 'ascii' codec can't encode character "
            "'\\xe9' in position 1: ordinal not in range(128)"
        )
        assert outcome == (("GraphParseError", message), [])


class TestBoundedBlocks:
    """Every text block holds about ``TEXT_BLOCK`` characters of whole
    lines, however long the texts, and a block that is not a run of
    canonical records is read in one pass."""

    def test_one_large_text_is_read_in_bounded_blocks(self, monkeypatch):
        """One text of 300 000 order-8 records (2.1 MB) was one block, with
        a traced peak of 7.4 MB, and 10.2 MB with a blank line at its end,
        which sent all of it to the lines.  Its first record's line was
        then read on its own and the rest of the text copied, 2.35 MB, and
        4.20 MB with a blank line at its start, which was copied too: the
        text is now read as exactly its text blocks."""
        rng = random.Random(41)
        pool = [random_record(rng, 8, 5 / 8).decode("ascii") for _ in range(2000)]
        lines = [record + "\n" for record in rng.choices(pool, k=300_000)]
        text = "".join(lines)
        blocks = list(text_blocks([text]))
        assert "".join(blocks) == text and len(blocks) > 30
        assert max(map(len, blocks)) <= TEXT_BLOCK + len(lines[0])
        want = scan_corpus(lines, "dominating")
        assert want.graphs_scanned == len(lines)
        for texts in ([text], ["\n" + text], [text + "\n"]):
            tracemalloc.start()
            try:
                record = scan_corpus(texts, "dominating")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert record == want and peak <= 2**20
        reads = canonical_reads(monkeypatch)
        assert scan_corpus([text], "dominating") == want
        assert reads == blocks

    def test_one_canonical_read_per_mixed_block(self, monkeypatch):
        """A block with a few lines that are not canonical records is read
        twice, whole and then as its lines of a canonical record's length,
        and those few lines are parsed in one block of graphs, where each
        group of SCAN_BLOCK lines was read on its own."""
        rng = random.Random(43)
        lines = [random_record(rng, 8, 5 / 8) + b"\n" for _ in range(9000)]
        lines[1023] = b"\n"
        lines[1024] = lines[1024][:-1] + b" \n"
        lines[2049] = b">>graph6<<" + lines[2049]
        lines[5000] = mutate(lines[5000][:-1], "padding", 8, rng) + b"\n"
        text = b"".join(lines).decode("ascii")
        assert len(text) < TEXT_BLOCK
        reads = canonical_reads(monkeypatch)
        parsed = parsed_blocks(monkeypatch)
        outcome = lines_outcome(scan_corpus, [text], "dominating", False)
        monkeypatch.undo()
        assert outcome == lines_outcome(oracle_scan_corpus, [text], "dominating", False)
        assert outcome[1] == ["nonzero padding bits in graph6 record"]
        assert len(reads) == 2 and reads[0] == text
        canonical_length = [line[:-1] for line in lines if len(line) == len(lines[0])]
        assert [line for line in reads[1].split("\n") if line.strip()] == [
            line.decode("ascii") for line in canonical_length
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            odd = [parse_graph6(lines[i].strip(), strict=False) for i in (1024, 2049)]
            odd.append(parse_graph6(lines[5000], strict=False))
        assert parsed == [odd]


class TestFailedRead:
    """A read that fails in the middle of a block of lines."""

    @staticmethod
    def failing(lines, at):
        """The lines, then a decode error in place of line ``at``."""
        yield from lines[:at]
        raise UnicodeDecodeError("ascii", b"\xc3", 0, 1, "ordinal not in range(128)")

    @pytest.mark.parametrize("at", [1, SCAN_BLOCK - 11, SCAN_BLOCK + 5])
    def test_a_refused_graph_comes_before_a_later_failed_read(self, at):
        """``extremal_scan`` checks each graph as it reads it: a graph of
        another order is refused before a read ten graphs later, in its
        block, fails."""
        rng = random.Random(at)
        graphs = [parse_graph6(random_record(rng, 8)) for _ in range(at + 20)]
        graphs[at] = parse_graph6(random_record(rng, 9))
        with pytest.raises(MixedOrderError, match="mixes orders 8 and 9"):
            extremal_scan(self.failing(graphs, at + 10), "dominating")

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    def test_no_record_after_a_refused_graph_is_read(self, mode):
        """A padded record after a graph of another order, in its block, is
        not read, so it gives no warning, at ``extremal_scan`` as at
        ``scan_corpus``; the failed read after it is not met either."""
        rng = random.Random(37)
        lines = [random_record(rng, 8, 5 / 8) for _ in range(SCAN_BLOCK + 30)]
        lines[SCAN_BLOCK + 5] = random_record(rng, 9)
        lines[SCAN_BLOCK + 10] = mutate(lines[SCAN_BLOCK + 10], "padding", 8, rng)
        lines = [line.decode("ascii") + "\n" for line in lines]
        want = (("MixedOrderError", "graph stream mixes orders 8 and 9"), [])
        for strict in (True, False):
            for scan in (scan_graph6, scan_corpus):
                failing = self.failing(lines, SCAN_BLOCK + 20)
                assert lines_outcome(scan, failing, mode, strict) == want, scan

    def test_whole_lines_read_before_the_error_are_handed_out(self):
        # pieces of text as the decoder reads them, a line across each cut;
        # the line cut by the failed read is not handed out
        text = "".join(f"{i}\n" for i in range(TEXT_BLOCK // 3))
        pieces = [text[i : i + 1000] for i in range(0, len(text), 1000)]
        blocks = text_blocks(self.failing(pieces, len(pieces) - 1))
        first = next(blocks)
        assert len(first) >= TEXT_BLOCK - 1000 and first.endswith("\n")
        read = "".join(pieces[:-1])
        assert first + next(blocks) == read[: read.rindex("\n") + 1]
        with pytest.raises(UnicodeDecodeError):
            next(blocks)

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    @pytest.mark.parametrize("kind", [None, "padding", "truncated"])
    def test_an_earlier_line_comes_first(self, mode, kind):
        # a malformed or padded record ten lines before the failed read, in
        # the same block: its error or warning comes before the read's error
        rng = random.Random(31)
        lines = [random_record(rng, 8, 5 / 8) for _ in range(SCAN_BLOCK + 30)]
        if kind:
            lines[SCAN_BLOCK + 10] = mutate(lines[SCAN_BLOCK + 10], kind, 8, rng)
        lines = [line.decode("ascii") + "\n" for line in lines]
        for strict in (True, False):
            outcome = lines_outcome(
                scan_corpus, self.failing(lines, SCAN_BLOCK + 20), mode, strict
            )
            assert outcome == lines_outcome(
                scan_graph6, self.failing(lines, SCAN_BLOCK + 20), mode, strict
            )
            parse_error = kind == "truncated" or kind == "padding" and strict
            assert outcome[0][0] == (
                "GraphParseError" if parse_error else "UnicodeDecodeError"
            )
            padded = kind == "padding" and not strict
            assert outcome[1] == ["nonzero padding bits in graph6 record"] * padded


class TestOrderChecks:
    @pytest.mark.parametrize(
        "records",
        [
            [new_graph(65)],
            [complete_graph(65), new_graph(65)],
            [complete_graph(65), from_edges(65, [(0, 1)]), new_graph(4)],
        ],
        ids=["edgeless", "complete-then-edgeless", "then-order-4"],
    )
    def test_order_65_exits_4(self, tmp_path, records):
        path = tmp_path / "corpus.g6"
        path.write_text("".join(write_graph6(g) + "\n" for g in records))
        code, report, err = cli_outcome(["scan", "--corpus", str(path)])
        assert code == 4 and report is None
        assert err == "domcount: size limit: counting supports n <= 64, got n=65\n"
        assert_matches_oracle(path)

    @pytest.mark.parametrize(
        "data",
        [K65 * 2, K65[:-2] + b"\n", K65 * 30 + b"caf\xc3\xa9\n"],
        ids=["no-candidate", "truncated-first", "non-ascii-past-8-KiB"],
    )
    def test_order_65_refused_before_parsing(self, tmp_path, data):
        # The cap is checked on the first record's size field, before its
        # body or any later line is parsed or decoded: a truncated first
        # record, and a byte the decoder rejects past its first 8 KiB read,
        # still exit 4.  Every graph has a dominating vertex, so none could
        # compete; the order is refused all the same.
        path = tmp_path / "corpus.g6"
        path.write_bytes(data)
        code, report, err = cli_outcome(["scan", "--corpus", str(path)])
        assert code == 4 and report is None
        assert err == "domcount: size limit: counting supports n <= 64, got n=65\n"
        assert_matches_oracle(path)

    def test_first_record_past_the_cap_is_refused_before_the_next(self):
        """The API refuses the order at the first record's size field: it
        read a block of SCAN_BLOCK lines first, so 1024 records of K_4096
        (about 1.4 GB) were held only to be refused."""
        record = write_graph6(complete_graph(2000)) + "\n"
        read = 0

        def records():
            nonlocal read
            for _ in range(20):
                read += 1
                yield record[:-1] + "\n"  # a string of its own, as read

        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="got n=2000"):
                scan_corpus(records(), "dominating")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == 1 and peak < 2 * 2**20

    @pytest.mark.parametrize("kind", [str, bytes])
    def test_first_record_past_the_cap_is_refused_after_a_short_read(self, kind):
        """The API reads up to the first record's text block before it
        refuses the order.  A read that fails after one short record line
        ends that block: the line is handed out before the failed read is
        raised, so the order is refused first, with the same message."""
        line = K65 if kind is bytes else K65.decode("ascii")
        with pytest.raises(SizeLimitError) as whole:
            scan_corpus([line], "dominating")
        with pytest.raises(SizeLimitError) as short:
            scan_corpus(TestFailedRead.failing([line], 1), "dominating")
        assert str(short.value) == str(whole.value) == (
            "counting supports n <= 64, got n=65"
        )

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize(
        "data, refused",
        [
            (K65[:-2] + b"\n", ()),
            (K65[:-1] + b"?\n", ()),
            (K65[:-2] + b"\x7f\n", ()),
            (K65[:-2] + bytes([K65[-2] + 1]) + b"\n", (False,)),
            (K65 + b"G?!???\n", (True, False)),
        ],
        ids=["truncated", "over-long", "out-of-range", "padding", "then-broken"],
    )
    def test_first_record_past_the_cap_is_checked_at_the_api(
        self, data, refused, strict
    ):
        # The API checks the first record as parse_graph6 does before it
        # refuses its order, so its error, or its padding warning, comes
        # first, as on the oracle; the CLI refuses at the size field
        # (test_order_65_refused_before_parsing).  ``refused``: the strict
        # values under which the order is refused.
        outcome = api_outcome(scan_corpus, data, "dominating", strict)
        assert outcome == api_outcome(oracle_scan_corpus, data, "dominating", strict)
        error = "SizeLimitError" if strict in refused else "GraphParseError"
        assert outcome[0][0] == error
        assert len(outcome[1]) == (refused == (False,) and not strict)

    def test_requested_order_is_checked_first(self, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text("\n" + write_graph6(complete_graph(8)) + "\nG?!???\n")
        code, report, err = cli_outcome(
            ["scan", "--corpus", str(path), "--n", "5"]
        )
        assert code == 2 and report is None
        assert err == "domcount: parse error: corpus has order 8, --n 5 was requested\n"

    def test_requested_order_matches(self, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text("\n\n" + write_graph6(complete_graph(8)) + "\nG?!???\n")
        assert_matches_oracle(path, ["--n", "8"])
        code, _, err = cli_outcome(["scan", "--corpus", str(path), "--n", "8"])
        assert code == 2 and "out of graph6 range" in err
