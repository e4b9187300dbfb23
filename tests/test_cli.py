import decimal
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import edge_list_oracle
from domcount import (
    build_component_graph,
    cocktail_party,
    component_plan,
    efficiency_ratio,
    new_graph,
    parse_graph6,
    write_graph6,
)
from domcount.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def without_timing(report):
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


@pytest.fixture
def g6_file(tmp_path):
    def make(graph, name="graph.g6"):
        path = tmp_path / name
        path.write_text(write_graph6(graph) + "\n")
        return str(path)

    return make


class TestFormula:
    def test_total_pairs(self, capsys):
        code, report, _ = run(capsys, "formula", "--n", "6", "--gamma", "2", "--total")
        assert code == 0
        assert report["count"] == 12 and report["mode"] == "total"

    def test_dominating_pairs(self, capsys):
        code, report, _ = run(capsys, "formula", "--n", "7", "--gamma", "2")
        assert code == 0 and report["count"] == 20

    def test_gamma_one(self, capsys):
        code, report, _ = run(capsys, "formula", "--n", "9", "--gamma", "1")
        assert code == 0 and report["count"] == 9

    def test_higher_gamma_product_bound(self, capsys):
        code, report, _ = run(capsys, "formula", "--n", "12", "--gamma", "3")
        assert code == 0 and report["count"] == 112

    def test_infeasible_exit_code(self, capsys):
        code, report, err = run(capsys, "formula", "--n", "3", "--gamma", "2")
        assert code == 3 and report is None and "infeasible" in err

    def test_total_gamma3_rejected(self, capsys):
        code, _, _ = run(capsys, "formula", "--n", "12", "--gamma", "3", "--total")
        assert code == 3

    @pytest.mark.parametrize("n, x, line", [
        ("0", "1", "no construction with domination number 1 on 0 vertices "
                   "(needs n >= 1)"),
        ("3", "2", "no construction with domination number 2 on 3 vertices "
                   "(needs n >= 4)"),
    ])
    def test_small_gamma_infeasible_messages(self, capsys, n, x, line):
        code, report, err = run(capsys, "formula", "--n", n, "--gamma", x)
        assert code == 3 and report is None
        assert err == f"domcount: infeasible: {line}\n"


class TestGammaAndCount:
    def test_gamma(self, capsys, g6_file):
        path = g6_file(cocktail_party(6))
        code, report, _ = run(capsys, "gamma", "--in", path)
        assert code == 0
        assert without_timing(report) == {
            "n": 6,
            "m": 12,
            "mode": "dominating",
            "gamma": 2,
        }

    def test_gamma_total(self, capsys, g6_file):
        path = g6_file(cocktail_party(6))
        code, report, _ = run(capsys, "gamma", "--in", path, "--total")
        assert code == 0 and report["gamma"] == 2 and report["mode"] == "total"

    def test_gamma_total_isolated_vertex(self, capsys, tmp_path):
        path = tmp_path / "iso.edges"
        path.write_text("3\n0 1\n")
        code, _, err = run(
            capsys, "gamma", "--in", str(path), "--format", "edges", "--total"
        )
        assert code == 3 and "isolated" in err

    def test_count_minimum(self, capsys, g6_file):
        path = g6_file(cocktail_party(4))
        code, report, _ = run(capsys, "count", "--in", path)
        assert code == 0
        assert report["gamma"] == 2 and report["count"] == 6

    def test_count_fixed_size_with_witnesses(self, capsys, g6_file):
        path = g6_file(cocktail_party(4))
        code, report, _ = run(
            capsys, "count", "--in", path, "--size", "2", "--total",
            "--witness-cap", "10",
        )
        assert code == 0
        assert report["count"] == 4
        assert report["witnesses"] == [[0, 2], [0, 3], [1, 2], [1, 3]]
        assert "gamma" not in report

    def test_count_edges_format_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.TextIOWrapper(io.BytesIO(b"4\n0 1\n1 2\n2 3\n0 3\n"))
        )
        code, report, _ = run(capsys, "count", "--in", "-", "--format", "edges")
        assert code == 0 and report["count"] == 6

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("C %\n")
        code, _, err = run(capsys, "count", "--in", str(path))
        assert code == 2 and "parse error" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run(capsys, "gamma", "--in", "/no/such/file")
        assert code == 1

    def test_size_limit_exit_code(self, capsys, g6_file):
        from domcount import new_graph

        path = g6_file(new_graph(65))
        code, _, err = run(capsys, "count", "--in", path)
        assert code == 4 and "size limit" in err

    def test_count_checks_the_cap_before_the_body(self, capsys, tmp_path):
        from domcount import new_graph

        edges = tmp_path / "big.edges"
        edges.write_text("# order\n100\n0 1\nnot an edge\n")
        g6 = tmp_path / "big.g6"
        g6.write_text("\n" + write_graph6(new_graph(100))[:-1] + "!\n")
        for path, fmt in ((edges, "edges"), (g6, "g6")):
            code, report, err = run(capsys, "count", "--in", str(path), "--format", fmt)
            assert code == 4 and report is None
            assert err == "domcount: size limit: counting supports n <= 64, got n=100\n"
            # gamma has no counting cap and still reports the malformed body
            code, _, err = run(capsys, "gamma", "--in", str(path), "--format", fmt)
            assert code == 2 and "parse error" in err

    def test_count_checks_the_cap_after_a_long_header(self, capsys, tmp_path):
        path = tmp_path / "long.edges"
        path.write_text("#" * 70_000 + "\n65\n0 1\n2 2\n")
        argv = ["--in", str(path), "--format", "edges"]
        code, report, err = run(capsys, "count", *argv)
        assert code == 4 and report is None
        assert err == "domcount: size limit: counting supports n <= 64, got n=65\n"
        code, _, err = run(capsys, "gamma", *argv)
        assert code == 2 and err == "domcount: parse error: loop 2-2 on line 4\n"

    @pytest.mark.parametrize("command", ["gamma", "count"])
    @pytest.mark.parametrize("text", ["", " \n\t\r\n"], ids=["empty", "whitespace"])
    def test_blank_graph6_input_is_a_parse_error(self, capsys, tmp_path, command, text):
        path = tmp_path / "blank.g6"
        path.write_text(text, newline="")
        code, report, err = run(capsys, command, "--in", str(path))
        assert code == 2 and report is None
        assert err == "domcount: parse error: no graph6 record found in input\n"

    def test_count_past_the_vertex_cap_keeps_its_message(self, capsys, tmp_path):
        path = tmp_path / "huge.edges"
        path.write_text("5000\n0 1\n")
        code, _, err = run(capsys, "count", "--in", str(path), "--format", "edges")
        assert code == 4
        assert err == "domcount: size limit: edge list has n=5000, cap is 4096\n"

    def test_non_ascii_input_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "utf8.g6"
        path.write_bytes("C\u00e9~\n".encode("utf-8"))
        code, report, err = run(capsys, "count", "--in", str(path))
        assert code == 2 and report is None and "parse error" in err

    @pytest.mark.parametrize(
        "data, argv",
        [
            (b"3\n\xd9\xa0 \xd9\xa1\n", ["gamma", "--format", "edges"]),
            (b"3\n0 1 # caf\xc3\xa9\n", ["gamma", "--format", "edges"]),
            (b"C\xc3\xa9~\n", ["count"]),
        ],
        ids=["digits", "comment", "graph6"],
    )
    def test_non_ascii_stdin_is_refused_as_from_a_file(self, tmp_path, data, argv):
        """Arabic-Indic digits on stdin once read as vertices 0 and 1."""
        path = tmp_path / "input"
        path.write_bytes(data)
        from_file, from_stdin = (
            run_process(tmp_path, [*argv, "--in", source], data)
            for source in (str(path), "-")
        )
        assert from_stdin.returncode == from_file.returncode == 2
        assert from_stdin.stdout == from_file.stdout == b""
        assert from_stdin.stderr == from_file.stderr
        assert b"'ascii' codec can't decode" in from_stdin.stderr

    @pytest.mark.parametrize(
        "data, argv",
        [
            (b"# square\r\n4\r\n0 1\r\n1 2\r\n2 3\r\n0 3\r\n",
             ["count", "--format", "edges"]),
            (b"\r\nC]\r\n", ["count"]),
            (b"C]\rC~\r", ["gamma", "--total"]),
        ],
        ids=["edges", "graph6", "graph6-cr"],
    )
    def test_crlf_stdin_reads_as_from_a_file(self, tmp_path, data, argv):
        path = tmp_path / "input"
        path.write_bytes(data)
        from_file, from_stdin = (
            run_process(tmp_path, [*argv, "--in", source], data)
            for source in (str(path), "-")
        )
        assert from_stdin.returncode == from_file.returncode == 0, from_stdin.stderr
        assert from_stdin.stderr == from_file.stderr == b""
        assert without_timing(json.loads(from_stdin.stdout)) == without_timing(
            json.loads(from_file.stdout)
        )

    @pytest.mark.parametrize("separator", ["\v", "\f", "\x1c"])
    def test_only_newlines_separate_graph6_records(self, capsys, tmp_path, separator):
        """``--in`` once split lines at these characters too, and read the
        first record of this file where ``scan --corpus`` refused it."""
        path = tmp_path / "two.g6"
        path.write_text(f"C~{separator}C~\n", encoding="ascii")
        refused = (
            2, None, f"domcount: parse error: byte {ord(separator)} out of graph6 "
            "range [63, 126] at offset 2\n",
        )
        for argv in (["gamma", "--in"], ["count", "--in"], ["scan", "--corpus"]):
            assert run(capsys, *argv, str(path)) == refused, argv

    @pytest.mark.parametrize("command", ["gamma", "count"])
    def test_vertical_tab_does_not_end_an_edge_list_line(
        self, capsys, tmp_path, command
    ):
        path = tmp_path / "path.edges"
        path.write_text("4\v0 1\n1 2\n2 3\n", encoding="ascii")
        assert run(capsys, command, "--in", str(path), "--format", "edges") == (
            2, None, "domcount: parse error: expected a single vertex count on line 1\n"
        )

    @pytest.mark.parametrize("flag, value", [("--witness-cap", "-3"), ("--size", "-1")])
    def test_negative_count_options_are_usage_errors(
        self, capsys, g6_file, flag, value
    ):
        path = g6_file(cocktail_party(4))
        code, report, err = run(capsys, "count", "--in", path, flag, value)
        assert code == 1 and report is None and "nonnegative" in err


class TestStreamedInput:
    """Every graph6 input is read as a stream through one ASCII decoder:
    ``--in`` keeps only its first record, and ``scan --corpus`` no line
    before its first record."""

    @pytest.mark.parametrize(
        "argv, data",
        [
            (["scan", "--corpus"], b" \n" * 200_000 + b"C~\n"),
            (["count", "--in"], b"C~\n" * 200_000),
            (["gamma", "--in"], b"C~\n" * 200_000),
            (["count", "--in"], b"C~\n" + b"?" * 3_000_000),
        ],
        ids=["scan-blank-head", "count", "gamma", "count-long-line"],
    )
    def test_traced_peak_does_not_grow_with_the_input(
        self, capsys, tmp_path, argv, data
    ):
        """The whole input, or every line before the first record, was
        kept: a traced peak of about 12 MB on the first three inputs.  A
        long line after the first record is decoded in bounded reads."""
        path = tmp_path / "input.g6"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            code = run_cli([*argv, str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().err == ""
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_one_decode_error_whatever_the_command(
        self, capsys, monkeypatch, tmp_path, source
    ):
        """Python's position counts from the decoder's last 8 KiB read, so
        one byte past the first read got two positions: 10563 from
        ``count --in``, which read the whole text, and 2371 from ``scan
        --corpus``."""
        record = (write_graph6(cocktail_party(8)) + "\n").encode("ascii")
        data = record * 1509 + b"\xc3\xa9\n"
        assert data.index(b"\xc3") == 10_563
        path = tmp_path / "corpus.g6"
        path.write_bytes(data)
        outcomes = set()
        for argv in (["gamma", "--in"], ["count", "--in"], ["scan", "--corpus"]):
            if source == "stdin":
                monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            outcomes.add(run(capsys, *argv, str(path) if source == "file" else "-"))
        assert outcomes == {
            (2, None, "domcount: parse error: 'ascii' codec can't decode byte 0xc3\n")
        }


def traced_peak(argv):
    """The exit code of ``run_cli(argv)`` and its traced peak in bytes."""
    tracemalloc.start()
    try:
        code = run_cli(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLargeGraphFiles:
    """``construct --out`` writes an n ~ 2000 construction, and ``count
    --in`` refuses one, without holding the file's text."""

    @pytest.mark.parametrize(
        "gamma, flags",
        [(7, ["--format", "edges"]), (6, [])],
        ids=["edges", "g6"],
    )
    def test_construct_out_traced_peak(self, capsys, tmp_path, gamma, flags):
        """The 4.7 MB edge list was held as a list of rows, their join and
        a copy with the last newline (a traced peak of about 14 MB), and
        the graph6 record as a C(n, 2)-character bit string (about 4.4 MB)."""
        path = tmp_path / "big.out"
        code, peak = traced_peak(["construct", "--n", "1997", "--gamma", str(gamma),
                                  *flags, "--out", str(path)])
        assert code == 0 and capsys.readouterr().err == ""
        assert peak < 2 * 2**20
        graph, _ = build_component_graph(1997, gamma)
        if flags:
            assert path.read_text() == edge_list_oracle.write_edge_list(graph)
        else:
            assert path.read_text() == write_graph6(graph) + "\n"

    @pytest.mark.parametrize("head", [b"", b"# c\n" * 20_000], ids=["first", "late"])
    def test_edge_list_past_the_counting_cap_is_not_kept(
        self, capsys, tmp_path, head
    ):
        """The whole text was joined before its count line was read: a
        traced peak of about 9 MB on this 4.7 MB file, whether the count
        line is in the first 64 KiB block or after it."""
        path = tmp_path / "big.edges"
        assert run_cli(["construct", "--n", "1997", "--gamma", "7",
                        "--format", "edges", "--out", str(path)]) == 0
        capsys.readouterr()
        path.write_bytes(head + path.read_bytes())
        assert path.stat().st_size > 4 * 10**6
        code, peak = traced_peak(
            ["count", "--size", "2", "--in", str(path), "--format", "edges"]
        )
        err = "domcount: size limit: counting supports n <= 64, got n=1997\n"
        assert (code, capsys.readouterr().err) == (4, err)
        assert peak < 2 * 2**20


class TestEdgeListCountLine:
    """``count --in`` reads an edge list up to its count line and refuses
    an order past the counting cap from there; every outcome is the one of
    reading the whole text first."""

    def outcome(self, capsys, tmp_path, data):
        path = tmp_path / "input.edges"
        path.write_bytes(data)
        return run(
            capsys, "count", "--size", "2", "--in", str(path), "--format", "edges"
        )

    def test_a_later_non_ascii_byte_comes_first(self, capsys, tmp_path):
        """A byte the decoder rejects, megabytes after an over-cap count
        line, is still the error."""
        data = b"100\n" + b"0 1\n" * 500_000 + b"caf\xc3\xa9\n"
        assert self.outcome(capsys, tmp_path, data) == (
            2, None, "domcount: parse error: 'ascii' codec can't decode byte 0xc3\n"
        )

    @pytest.mark.parametrize("head", [b"# c\n" * 20_000, b"#" * 70_000 + b"\n\n \n"],
                             ids=["many-lines", "one-long-line"])
    def test_count_line_after_the_first_block(self, capsys, tmp_path, head):
        assert len(head) > 1 << 16
        data = head + b"  300 # n\n" + b"0 1\n" * 1000
        assert self.outcome(capsys, tmp_path, data) == (
            4, None, "domcount: size limit: counting supports n <= 64, got n=300\n"
        )

    @pytest.mark.parametrize("end", [8192, 1 << 16], ids=["read", "block"])
    @pytest.mark.parametrize("offset", [-2, -1, 1])
    def test_count_line_across_a_read_is_read_whole(
        self, capsys, tmp_path, end, offset
    ):
        """The count line "1000" starts ``offset`` characters from the end
        of the decoder's 8 KiB read or of the first 64 KiB block."""
        head = b"#" * (end + offset - 1) + b"\n"
        data = head + b"1000\n0 1\n"
        assert self.outcome(capsys, tmp_path, data) == (
            4, None, "domcount: size limit: counting supports n <= 64, got n=1000\n"
        )

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"# c\n\nx y\n100\n", "expected a single vertex count on line 3"),
            (b"#" * 70_000 + b"\n-5\n100\n", "negative vertex count on line 2"),
            (b"\n" * 70_000 + b"1e3\n" + b"#" * 70_000 + b"\n100\n",
             "invalid vertex count '1e3' on line 70001"),
            (b"# only a comment\n" * 5000, "missing vertex count line"),
        ],
        ids=["two-tokens", "negative", "not-an-integer", "missing"],
    )
    def test_invalid_count_line_keeps_its_message(
        self, capsys, tmp_path, data, message
    ):
        """A valid over-cap count on a later line, in the same or a later
        block, is not taken for the count line."""
        assert self.outcome(capsys, tmp_path, data) == (
            2, None, f"domcount: parse error: {message}\n"
        )

    @pytest.mark.parametrize(
        "head", [b"", b"#" * 70_000 + b"\n"], ids=["first", "late"]
    )
    def test_past_the_vertex_cap_keeps_its_message(self, capsys, tmp_path, head):
        data = head + b"5000\n0 1\n"
        assert self.outcome(capsys, tmp_path, data) == (
            4, None, "domcount: size limit: edge list has n=5000, cap is 4096\n"
        )

    def test_under_the_cap_is_parsed_whole(self, capsys, tmp_path):
        """A count line after the first block, and edges in later blocks,
        are parsed as one text."""
        edges = b"\n".join([b"0 1", b"1 2", b"2 3"] * 30_000)
        data = b"# c\n" * 20_000 + b"4\n" + edges
        code, report, err = self.outcome(capsys, tmp_path, data)
        assert (code, err) == (0, "")
        assert (report["n"], report["m"], report["count"]) == (4, 3, 4)


class TestEdgeListStream:
    """``gamma --in`` and ``count --in`` read an edge list one block of
    whole lines at a time, its count line first: neither a valid list nor
    one past the vertex cap is held whole, line numbers run across blocks,
    and each block's endpoints are read by the rule of the whole text."""

    def outcomes(self, capsys, tmp_path, data):
        """The set of (exit code, report, stderr) of ``gamma --in`` and
        ``count --in`` on ``data``, which they refuse."""
        path = tmp_path / "input.edges"
        path.write_bytes(data)
        return {run(capsys, command, "--in", str(path), "--format", "edges")
                for command in ("gamma", "count")}

    def test_valid_list_traced_peak(self, capsys, tmp_path):
        """The text was joined and split into one string per line: a
        traced peak of about 12.5 MB on this 800 KB list."""
        path = tmp_path / "input.edges"
        path.write_bytes(b"10\n" + b"0 1\n" * 200_000)
        code, peak = traced_peak(["gamma", "--in", str(path), "--format", "edges"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert without_timing(json.loads(out)) == {
            "n": 10, "m": 1, "mode": "dominating", "gamma": 9}
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("command", ["gamma", "count"])
    def test_past_the_vertex_cap_traced_peak(self, capsys, tmp_path, command):
        """An order past the vertex cap was refused only once the whole
        text had been joined and split: a traced peak of about 31 MB."""
        path = tmp_path / "input.edges"
        path.write_bytes(b"5000\n" + b"0 1\n" * 500_000)
        code, peak = traced_peak([command, "--in", str(path), "--format", "edges"])
        err = "domcount: size limit: edge list has n=5000, cap is 4096\n"
        assert (code, capsys.readouterr().err) == (4, err)
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "line, message",
        [(b"0 x", "non-integer endpoint"), (b"0 1 2", "expected 'u v'"),
         (b"3 3", "loop 3-3"), (b"0 10", "edge (0, 10) out of range for n=10")],
        ids=["endpoint", "tokens", "loop", "range"],
    )
    def test_line_numbers_run_across_blocks(self, capsys, tmp_path, line, message):
        """The bad line is in the second 64 KiB block."""
        data = b"# c\n10\n" + b"0 1\n" * 20_000 + line + b"\n1 2\n"
        assert data.index(line + b"\n1 2") > 1 << 16
        assert self.outcomes(capsys, tmp_path, data) == {
            (2, None, f"domcount: parse error: {message} on line 20003\n")}

    @pytest.mark.parametrize("token", [b"1_0", b"+2", b"0_1"])
    def test_a_later_block_keeps_the_endpoint_rule(self, capsys, tmp_path, token):
        """``int`` reads a block with no ``+`` or ``_``; a later block that
        has one is read by the strict rule (``int`` would take 10 and 2)."""
        data = b"10\n" + b"0 1\n" * 20_000 + b"3 " + token + b"\n"
        assert self.outcomes(capsys, tmp_path, data) == {
            (2, None, "domcount: parse error: non-integer endpoint on line 20002\n")}

    @pytest.mark.parametrize(
        "head",
        [b"10\n0 x\n", b"x\n", b"5000\n", b"10\n" + b"0 1\n" * 20_000],
        ids=["bad-edge", "bad-count", "past-the-cap", "valid"],
    )
    def test_a_later_non_ascii_byte_comes_first(self, capsys, tmp_path, head):
        """Whatever ends the reading, the rest is decoded first."""
        data = head + b"0 1\n" * 30_000 + b"caf\xc3\xa9\n" + b"0 1\n" * 10
        assert self.outcomes(capsys, tmp_path, data) == {
            (2, None, "domcount: parse error: 'ascii' codec can't decode byte 0xc3\n")}


class TestConstruct:
    def test_inline_graph6(self, capsys):
        code, report, _ = run(capsys, "construct", "--n", "9", "--gamma", "3")
        assert code == 0
        assert report["predicted"] == 45
        assert report["plan"] == [
            {"kind": "complete", "size": 3, "count": 3},
            {"kind": "pair", "size": 6, "count": 15},
        ]
        graph = parse_graph6(report["graph6"])
        assert graph.n == 9

    def test_write_graph6_file(self, capsys, tmp_path):
        out = tmp_path / "g.g6"
        code, report, _ = run(
            capsys, "construct", "--n", "8", "--gamma", "4", "--out", str(out)
        )
        assert code == 0 and "graph6" not in report
        graph = parse_graph6(out.read_text().strip())
        assert graph.n == 8 and report["predicted"] == 36

    def test_write_edges_file(self, capsys, tmp_path):
        out = tmp_path / "g.edges"
        code, _, _ = run(
            capsys, "construct", "--n", "6", "--gamma", "2",
            "--out", str(out), "--format", "edges",
        )
        assert code == 0
        assert out.read_text().startswith("6\n")

    def test_edges_file_matches_the_per_edge_writer(self, capsys, tmp_path):
        out = tmp_path / "big.edges"
        code, _, _ = run(
            capsys, "construct", "--n", "300", "--gamma", "7",
            "--out", str(out), "--format", "edges",
        )
        assert code == 0
        graph, _ = build_component_graph(300, 7)
        assert out.read_text() == edge_list_oracle.write_edge_list(graph)
        code, report, err = run(
            capsys, "count", "--size", "2", "--in", str(out), "--format", "edges"
        )
        assert code == 4 and report is None
        assert err == "domcount: size limit: counting supports n <= 64, got n=300\n"

    def test_infeasible(self, capsys):
        code, _, _ = run(capsys, "construct", "--n", "6", "--gamma", "4")
        assert code == 3

    def test_past_the_cap_names_n(self, capsys):
        code, report, err = run(
            capsys, "construct", "--n", "100000000000", "--gamma", "1000000"
        )
        assert code == 4 and report is None
        assert err == (
            "domcount: size limit: vertex count 100000000000 exceeds cap 4096\n"
        )


class TestOptimizeScanEfficiency:
    def test_optimize(self, capsys):
        code, report, _ = run(capsys, "optimize", "--n", "10", "--gamma", "4")
        assert code == 0
        assert report["count"] == 90
        assert [c["size"] for c in report["plan"]] == [4, 6]
        assert report["predicted"] == 81
        assert [c["size"] for c in report["prescribed_plan"]] == [5, 5]

    def test_optimize_vertex_cap(self, capsys):
        code, report, err = run(capsys, "optimize", "--n", "5000", "--gamma", "3")
        assert code == 4 and report is None
        assert "vertex count 5000 exceeds cap 4096" in err

    def test_optimize_many_components(self, capsys):
        # 551 components: the former recursive search ended in RecursionError
        code, report, err = run(capsys, "optimize", "--n", "2201", "--gamma", "1101")
        assert code == 0 and err == ""
        assert [(c["kind"], c["size"]) for c in report["plan"]] == [
            ("complete", 1)
        ] + [("pair", 4)] * 550
        assert report["count"] == str(6**550)

    def test_scan_builtin(self, capsys):
        code, report, _ = run(capsys, "scan", "--n", "5", "--total")
        assert code == 0
        assert report["count"] == 6 and report["graphs_scanned"] == 1024
        witness = parse_graph6(report["witness"])
        assert witness.n == 5

    def test_scan_corpus(self, capsys, tmp_path):
        from labeled_oracle import enumerate_labeled_graphs

        path = tmp_path / "corpus.g6"
        path.write_text(
            "".join(write_graph6(g) + "\n" for g in enumerate_labeled_graphs(4))
        )
        code, report, _ = run(capsys, "scan", "--corpus", str(path))
        assert code == 0
        assert report["count"] == 6 and report["graphs_scanned"] == 64

    def test_scan_corpus_order_mismatch(self, capsys, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text(write_graph6(cocktail_party(4)) + "\n")
        code, _, _ = run(capsys, "scan", "--corpus", str(path), "--n", "5")
        assert code == 2

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_scan_empty_corpus_is_a_parse_error(self, capsys, tmp_path, text):
        path = tmp_path / "empty.g6"
        path.write_text(text)
        code, report, err = run(capsys, "scan", "--corpus", str(path))
        assert code == 2 and report is None and "no graph6 record" in err

    @pytest.mark.parametrize(
        "data",
        [
            b"C]\n\nC?\r\nC]\rC^\n",
            b"\n C~ \r\nC\xc3\xa9~\n",
        ],
        ids=["corpus", "non-ascii"],
    )
    def test_scan_corpus_from_stdin_reads_as_from_a_file(self, tmp_path, data):
        """``--corpus -`` once looked for a file named '-'."""
        path = tmp_path / "corpus.g6"
        path.write_bytes(data)
        from_file, from_stdin = (
            run_process(tmp_path, ["scan", "--corpus", source], data)
            for source in (str(path), "-")
        )
        assert from_stdin.returncode == from_file.returncode
        assert from_stdin.returncode == (0 if data.isascii() else 2)
        assert from_stdin.stderr == from_file.stderr
        assert ELAPSED.sub(b"", from_stdin.stdout) == ELAPSED.sub(b"", from_file.stdout)

    def test_scan_needs_source(self, capsys):
        code, _, _ = run(capsys, "scan")
        assert code == 3

    def test_scan_size_limit(self, capsys):
        code, _, _ = run(capsys, "scan", "--n", "8")
        assert code == 4

    def test_efficiency(self, capsys):
        code, report, _ = run(capsys, "efficiency", "--n", "12", "--gamma", "2")
        assert code == 0
        assert report["ratio"] == {"num": 1, "den": 1}
        assert report["asymptote"] == {"num": 1, "den": 1}

    def test_efficiency_triples(self, capsys):
        code, report, _ = run(capsys, "efficiency", "--n", "9", "--gamma", "3")
        assert code == 0
        # 45 of the C(9,3) = 84 triples dominate, reduced to lowest terms
        assert report["ratio"] == {"num": 15, "den": 28}
        assert report["asymptote"] == {"num": 4, "den": 9}


class TestCliContract:
    def test_usage_error_exit_code(self, capsys):
        assert run_cli(["bogus"]) == 1
        capsys.readouterr()
        assert run_cli([]) == 1
        capsys.readouterr()
        assert run_cli(["formula", "--n", "6"]) == 1  # missing --gamma
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()

    def test_deterministic_output(self, capsys):
        first = run(capsys, "optimize", "--n", "16", "--gamma", "4")[1]
        second = run(capsys, "optimize", "--n", "16", "--gamma", "4")[1]
        assert without_timing(first) == without_timing(second)
        assert list(first) == list(second)  # fixed key order

    def test_key_order(self, capsys):
        _, report, _ = run(capsys, "scan", "--n", "4")
        assert list(report) == [
            "n", "mode", "gamma", "count", "witness", "graphs_scanned", "elapsed_ms",
        ]

    def test_keys_follow_the_readme_schema(self, capsys, g6_file, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        schema = readme.split("### Report schema", 1)[1].split("\n* ", 1)[0]
        order = re.findall(r"`(\w+)`", schema)
        assert order[0] == "n" and order[-1] == "elapsed_ms"
        path = g6_file(cocktail_party(6))
        order_args = ["--n", "9", "--gamma", "3"]
        invocations = [
            ["gamma", "--in", path],
            ["count", "--in", path],
            ["count", "--in", path, "--witness-cap", "2"],
            ["construct"] + order_args,
            ["construct"] + order_args + ["--out", str(tmp_path / "g.g6")],
            ["formula"] + order_args,
            ["optimize"] + order_args,
            ["efficiency"] + order_args,
            ["scan", "--n", "5"],
            ["scan", "--n", "1"],
        ]
        reports = {}
        for argv in invocations:
            code, report, _ = run(capsys, *argv)
            assert code == 0, argv
            remaining = iter(order)
            assert all(key in remaining for key in report), (argv, list(report))
            reports[" ".join(argv)] = report
        assert "witness" in reports["scan --n 5"]
        assert "witness" not in reports["scan --n 1"]

    def test_big_counts_serialized_as_strings(self, capsys):
        # C(15000, 2)^2 exceeds 2^53, so the count must arrive as a string
        code, report, _ = run(capsys, "formula", "--n", "30000", "--gamma", "4")
        assert code == 0
        assert isinstance(report["count"], str)
        assert int(report["count"]) == (15000 * 14999 // 2) ** 2

    def test_numbers_past_the_int_string_limit_are_exact(self, capsys):
        # over 4300 digits: str() of these integers raises ValueError
        code, report, err = run(capsys, "formula", "--n", "30000", "--gamma", "6000")
        assert code == 0 and err == ""
        count = component_plan(30000, 6000).total_count
        assert report["count"].isdigit()
        assert decimal.Decimal(report["count"]) == count

        code, report, err = run(
            capsys, "efficiency", "--n", "100000", "--gamma", "10000"
        )
        assert code == 0 and err == ""
        ratio = efficiency_ratio(100000, 10000).ratio
        assert decimal.Decimal(report["ratio"]["num"]) == ratio.numerator
        assert decimal.Decimal(report["ratio"]["den"]) == ratio.denominator

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["gamma"], "domination number is undefined for the empty graph"),
            (["gamma", "--total"],
             "total domination number is undefined for the empty graph"),
            (["count"], "domination number is undefined for the empty graph"),
            (["count", "--total"],
             "total domination number is undefined for the empty graph"),
            (["scan", "--n", "-1"], "vertex count must be nonnegative"),
            (["scan", "--n", "-1", "--total"], "vertex count must be nonnegative"),
        ],
        ids=["gamma", "gamma-total", "count", "count-total", "scan", "scan-total"],
    )
    def test_infeasible_inputs_exit_3(self, capsys, g6_file, argv, line):
        if argv[0] != "scan":
            argv = argv + ["--in", g6_file(new_graph(0))]
        code, report, err = run(capsys, *argv)
        assert code == 3 and report is None
        assert err == f"domcount: infeasible: {line}\n"


# Order-5 corpus lines: one canonical record, one padded with whitespace and
# one with a CRLF ending; the last two go through parse_graph6.
NUMPY_FREE_CORPUS = "DNw\n DFw\t\nD??\r\n"
NUMPY_FREE_REPORTS = {
    ("scan", "--n", "5"): {"count": 9, "witness": "DNw", "graphs_scanned": 1024},
    ("scan", "--n", "5", "--total"):
        {"count": 6, "witness": "DFw", "graphs_scanned": 1024},
    ("scan", "--corpus", "{corpus}"):
        {"count": 9, "witness": "DNw", "graphs_scanned": 3},
    ("scan", "--corpus", "{corpus}", "--total"):
        {"count": 6, "witness": "DFw", "graphs_scanned": 3},
}


def process_env(extra=()):
    """The environment of a Python process a test starts: this one plus
    ``extra``, with the package's source directory as ``PYTHONPATH`` and
    without ``PYTHONUNBUFFERED``, so that a pipe to its stdout is
    block-buffered, as by default, and no test passes because stdout
    happened to be unbuffered."""
    import domcount

    env = {**os.environ, **dict(extra),
           "PYTHONPATH": str(Path(domcount.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_process(cwd, argv, stdin):
    """``python -m domcount ARGV`` in a process of its own, with ``stdin``
    (bytes) as its standard input."""
    return subprocess.run(
        [sys.executable, "-m", "domcount", *argv],
        input=stdin, capture_output=True, cwd=cwd, timeout=60, env=process_env(),
    )


ELAPSED = re.compile(rb'"elapsed_ms": \d+')


def run_script(script, tmp_path):
    import domcount

    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(NUMPY_FREE_CORPUS.encode("ascii"))
    header = (
        "import io, json, sys\n"
        f"sys.path.insert(0, {str(Path(domcount.__file__).parents[1])!r})\n"
        f"CORPUS = {str(corpus)!r}\n"
        f"REPORTS = {NUMPY_FREE_REPORTS!r}\n"
    )
    return subprocess.run(
        [sys.executable, "-c", header + script],
        capture_output=True, text=True, timeout=120, env=process_env(),
    )


def test_no_subcommand_loads_numpy(tmp_path):
    """No subcommand imports numpy, the γ=2 scans included; only
    ``efficiency``, run last, imports ``fractions`` and ``decimal``."""
    script = """
EXACT = {"fractions", "decimal"}
from domcount.cli import run_cli
assert "numpy" not in sys.modules
for argv in (
    ["formula", "--n", "9", "--gamma", "3"],
    ["formula", "--n", "9", "--gamma", "2", "--total"],
    ["optimize", "--n", "12", "--gamma", "4"],
    ["construct", "--n", "9", "--gamma", "3"],
    ["construct", "--n", "400", "--gamma", "120"],
    ["gamma", "--in", "-"],
    ["count", "--in", "-"],
    ["scan", "--n", "7"],
    ["scan", "--n", "7", "--total"],
    ["scan", "--corpus", CORPUS],
    ["scan", "--corpus", CORPUS, "--total"],
):
    sys.stdin = io.TextIOWrapper(io.BytesIO(b"C~\\n"))
    assert run_cli(argv) == 0, argv
    assert not EXACT & set(sys.modules), (argv, sorted(EXACT & set(sys.modules)))
assert run_cli(["efficiency", "--n", "12", "--gamma", "3"]) == 0
assert EXACT <= set(sys.modules)
assert "numpy" not in sys.modules
"""
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_scans_run_where_numpy_cannot_import(tmp_path):
    """With ``import numpy`` failing, the scans still report the maxima."""
    script = """
sys.modules["numpy"] = None
from domcount.cli import run_cli
for argv, expected in REPORTS.items():
    argv = [arg.format(corpus=CORPUS) for arg in argv]
    out = io.StringIO()
    sys.stdout, stdout = out, sys.stdout
    try:
        code = run_cli(argv)
    finally:
        sys.stdout = stdout
    report = json.loads(out.getvalue())
    assert code == 0, argv
    assert {key: report[key] for key in expected} == expected, (argv, report)
"""
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "edges, flags, gamma",
    [
        ([(v, v + 1) for v in range(64)], [], 22),
        ([(v, v + 1) for v in range(64)], ["--total"], 33),
        ([(v, (v + 1) % 65) for v in range(65)], [], 22),
    ],
    ids=["path", "path-total", "cycle"],
)
def test_gamma_of_a_long_path_or_cycle(tmp_path, edges, flags, gamma):
    """65 vertices, past the counting cap: without the packing bound the
    walk spent minutes on the sizes below gamma."""
    path = tmp_path / "graph.edges"
    path.write_text("65\n" + "".join(f"{u} {v}\n" for u, v in edges))
    proc = subprocess.run(
        [sys.executable, "-m", "domcount", "gamma", "--in", str(path),
         "--format", "edges", *flags],
        capture_output=True, text=True, timeout=60,
        env=process_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["gamma"] == gamma


@pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
def test_unwritable_report_exits_1_without_a_traceback(tmp_path, target):
    """The report was once printed outside the error mapping: a closed pipe
    or a full device ended in a traceback, and the flush at exit failed
    again."""
    if target == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout = os.open("/dev/full", os.O_WRONLY)
        message = b"domcount: [Errno 28] No space left on device\n"
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)  # closed before the report is written
        message = b"domcount: [Errno 32] Broken pipe\n"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "domcount", "scan", "--n", "4"],
            stdout=stdout, stderr=subprocess.PIPE, cwd=tmp_path, timeout=60,
            env=process_env(),
        )
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr) == (1, message)


@pytest.mark.parametrize(
    "fd, argv, message",
    [
        (0, ["gamma", "--in", "-"], b"domcount: standard input is closed\n"),
        (1, ["scan", "--n", "4"], b"domcount: standard output is closed\n"),
    ],
    ids=["stdin", "stdout"],
)
def test_closed_standard_stream_exits_1_with_one_line(tmp_path, fd, argv, message):
    """A process started without fd 0 once ended in an AttributeError
    traceback on ``--in -``; one started without fd 1 dropped its report
    and exited 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "domcount", *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(fd), cwd=tmp_path, timeout=60,
        env=process_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", message)


EXIT_PATHS = {
    "help": (0, ["--help"]),
    "count-help": (0, ["count", "--help"]),
    "usage": (1, ["count", "--in", "input.g6", "--bogus"]),
    "parse": (2, ["count", "--in", "non-ascii.g6"]),
    "infeasible": (3, ["construct", "--n", "3", "--gamma", "5"]),
    "size-limit": (4, ["scan", "--n", "9"]),
    "report": (0, ["count", "--in", "input.g6", "--witness-cap", "3"]),
    "warning": (0, ["count", "--in", "padded.g6", "--lenient"]),
}


@pytest.mark.parametrize("code, argv", EXIT_PATHS.values(), ids=EXIT_PATHS)
def test_a_process_prints_what_run_cli_prints(tmp_path, monkeypatch, capsys, code, argv):
    """``main`` ends the process with ``os._exit``, which flushes nothing, so
    only a real process shows an output it failed to flush first: help text
    and reports go to a block-buffered pipe.  Its stdout (``elapsed_ms``
    aside), stderr and exit code are those of ``run_cli`` in-process."""
    (tmp_path / "input.g6").write_bytes(b"DNw\n")
    (tmp_path / "padded.g6").write_bytes(b"DNx\n")
    (tmp_path / "non-ascii.g6").write_bytes(b"caf\xc3\xa9\n")
    monkeypatch.setenv("COLUMNS", "80")  # argparse's help width, in both
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == code
    out, err = capsys.readouterr()
    assert out or err
    proc = run_process(tmp_path, argv, b"")
    assert (proc.returncode, ELAPSED.sub(b"", proc.stdout), proc.stderr) == (
        code, ELAPSED.sub(b"", out.encode("ascii")), err.encode("ascii"))


@pytest.mark.parametrize(
    "flags, env",
    [([], {}), (["-W", "error"], {}), ([], {"PYTHONWARNINGS": "error"})],
    ids=["default", "W-error", "PYTHONWARNINGS-error"],
)
@pytest.mark.parametrize(
    "argv, data, report",
    [
        (["count", "--in", "input.g6"], b"DNx\n", {"gamma": 2, "count": 9}),
        (["scan", "--corpus", "input.g6"], b"D?@\n D?A\nDNw\nDNx\n",
         {"count": 9, "witness": "DNw", "graphs_scanned": 4}),
    ],
    ids=["count", "scan-corpus"],
)
def test_lenient_warnings_are_one_line_whatever_the_filters(
    tmp_path, flags, env, argv, data, report
):
    """Padding warnings once printed a file:line location and the source
    line, once per location, and under ``-W error`` ended in a traceback."""
    (tmp_path / "input.g6").write_bytes(data)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "domcount", *argv, "--lenient"],
        capture_output=True, cwd=tmp_path, timeout=60,
        env=process_env(env),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b"domcount: warning: nonzero padding bits in graph6 record\n"
    assert json.loads(proc.stdout).items() >= report.items()


@pytest.mark.parametrize("stderr", ["closed", "read-only"])
def test_unwritable_warning_does_not_cost_the_report(tmp_path, stderr):
    """A warning line that cannot be written is lost, as with
    ``warnings.showwarning``; the report and exit code stay."""
    (tmp_path / "input.g6").write_bytes(b"DNx\n")
    with open(os.devnull, "rb") as read_only:
        proc = subprocess.run(
            [sys.executable, "-m", "domcount", "count", "--in", "input.g6",
             "--lenient"],
            stdout=subprocess.PIPE,
            stderr=read_only if stderr == "read-only" else None,
            preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
            cwd=tmp_path, timeout=60,
            env=process_env(),
        )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 9


def test_no_subcommand_loads_the_introspection_modules(tmp_path):
    """The package defines no dataclass, so neither importing the CLI nor
    running any subcommand loads ``dataclasses`` or the modules it pulls in
    (``inspect`` and, through it, ``ast``, ``dis`` and ``tokenize``)."""
    script = """
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
before = set(sys.modules)
from domcount.cli import run_cli
out = CORPUS + ".out"
for argv in (
    ["formula", "--n", "9", "--gamma", "3"],
    ["formula", "--n", "9", "--gamma", "2", "--total"],
    ["optimize", "--n", "12", "--gamma", "4"],
    ["efficiency", "--n", "12", "--gamma", "3"],
    ["construct", "--n", "9", "--gamma", "3"],
    ["construct", "--n", "9", "--gamma", "3", "--out", out, "--format", "edges"],
    ["gamma", "--in", "-", "--total"],
    ["gamma", "--in", out, "--format", "edges"],
    ["count", "--in", "-", "--witness-cap", "3"],
    ["count", "--in", "-", "--size", "3", "--total"],
    ["scan", "--n", "5"],
    ["scan", "--corpus", CORPUS, "--total", "--lenient"],
):
    sys.stdin = io.TextIOWrapper(io.BytesIO(b"C~\\n"))
    assert run_cli(argv) == 0, argv
    loaded = HEAVY & (set(sys.modules) - before)
    assert not loaded, (argv, sorted(loaded))
"""
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "code, argv",
    [
        (1, ["gamma", "--in", "missing.g6"]),
        (1, ["gamma", "--bogus"]),
        (2, ["gamma", "--in", "input.g6"]),
        (3, ["construct", "--n", "3", "--gamma", "5"]),
        (4, ["scan", "--n", "9"]),
    ],
    ids=["unreadable", "usage", "parse", "infeasible", "size-limit"],
)
def test_diagnostics_without_stderr_stay_off_stdout(tmp_path, code, argv):
    """Without fd 2, the one-line diagnostics of exit codes 1-4 once went
    to stdout, the report stream; they are dropped instead."""
    (tmp_path / "input.g6").write_bytes(b"caf\xc3\xa9\n")
    proc = subprocess.run(
        [sys.executable, "-m", "domcount", *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        preexec_fn=lambda: os.close(2), cwd=tmp_path, timeout=60,
        env=process_env(),
    )
    assert (proc.returncode, proc.stdout) == (code, b"")
