"""Compare the CLI of two source trees, invocation by invocation.

    python tests/cli_parity.py OLD_SRC NEW_SRC [--seed N] [--work DIR]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts (each holds
the ``domcount`` package).  Each tree runs the same invocation list through
``domcount.cli.run_cli`` in an interpreter of its own, in a work directory of
its own that starts with the same input files.  Every invocation whose
stdout (the value of ``elapsed_ms`` aside), stderr, exit code or ``--out``
file differs is printed, then a summary line; the exit code is 1 if any
differs.

The invocations:

* ``scan --n -1..8`` in both modes;
* every job of the four ``perfbench`` workloads at ``--seed``, in job order,
  on inputs the workloads write for that seed;
* ``count --in`` on each connected graph of the ``count`` workload at one
  above its (total) domination number, with ``--witness-cap`` 1, 7 and
  1000, in both modes: more covers than witnesses;
* ``formula`` in both modes, ``optimize``, ``efficiency`` and ``construct``
  (inline, ``--out`` graph6, ``--out`` edge list) for n = -1..40 and
  gamma = -1..12;
* ``construct --n 4096 --gamma 2048``, and ``--n 100000000000 --gamma
  1000000`` past the vertex cap;
* ``construct --out`` in both formats at n = 364, one order past the graph6
  writer's first cut, and at n = 4096, each followed by ``count --size 2
  --in`` of the written file, and ``gamma --in`` of the n = 364 edge list;
* ``--help`` of the tool and of every subcommand;
* ``scan --corpus`` over small malformed or non-canonical corpora, in both
  modes, with and without ``--lenient``, and without ``--n``, with the
  first record's order and with another (also 8 for the order-65 ones,
  which include a truncated first record and a non-ASCII line past the
  first 8 KiB);
* ``scan --corpus`` over tied maximizers: one repeated within a block and
  across a block boundary among other maximizers, and distinct maximizers
  in descending byte order across a block boundary;
* ``scan --corpus`` over 3000 order-8 records, each behind a
  ``>>graph6<<`` header, with a padded record at line 1501 and a truncated
  one at line 2501: one 64 KiB text block of lines that are not canonical
  records, every one of them parsed;
* ``scan --corpus`` over 25 000 order-8 records with a blank line, a line
  with a trailing space, a ``>>graph6<<`` record and a padded record in
  each of the second and third 64 KiB text blocks, a few lines apart and
  thousands apart, and over the same corpus with an order-9 record near
  its end: each block's canonical records are read together, past the
  lines that are not;
* ``scan --corpus`` over a first record whose line is led by ``" \\t"``
  and ended by ``" \\x1c"``, then 25 000 canonical order-8 records, with
  that record canonical, padded (``--lenient`` warns once) and K_65: the
  scan takes the first record's text block whole, blanks and all;
* ``gamma --in`` and ``count --in`` (graph6 and edge lists) and ``scan
  --corpus`` over files whose lines are separated, or ended, by one of
  ``SEPARATORS`` -- line ends (``\\r``, ``\\r\\n``) and characters that are
  not -- in both modes, with and without ``--lenient``;
* ``gamma --in``, ``count --in`` and ``scan --corpus`` over a file of
  120 000 blank lines before its first record and a file of 3000 records
  (``stream_inputs``), in both modes, with and without ``--lenient``;
* ``count --in`` and ``scan --corpus`` over a 200 KB canonical order-8
  corpus with a blank line at each of the byte offsets in ``BLANKS_AT``
  (both sides of the decoder's first 8 KiB read, and of the scan's 64 KiB
  text block), and over the same corpus with CRLF line ends
  (``block_inputs``), in both modes, with and without ``--lenient``;
* ``gamma --in`` and ``count --in`` over ``LONE_INPUTS``: edge lists whose
  count line follows 70 000 comment characters (n = 65 with a loop on a
  later line, and a valid n = 5); edge lists with, past the first 64 KiB
  text block, a bad line, an endpoint with ``_`` or with ``+``; an n = 5000
  edge list, with and without a non-ASCII byte past that block; and empty
  and whitespace-only files in both formats, in both modes, with and
  without ``--lenient``;
* ``gamma --in -`` and ``count --in -`` in both formats, and ``scan
  --corpus -`` on graph6, with each of those corpora, separated files,
  stream inputs, block inputs and lone inputs fed through ``sys.stdin``,
  in both modes, with and without ``--lenient``.

An invocation is (working directory, argv), or (working directory, argv,
file to feed as standard input) for the ones that read ``-``.

``run_cli`` writes each distinct warning as one stderr line, ``domcount:
warning: <message>``.  A tree from before that rule leaves warnings to the
interpreter, which names the file and line: each invocation runs inside
``warnings.catch_warnings()``, so such a tree shows a warning once per
invocation and location, as in a process of its own, and its ``src`` path
is written ``SRC``.  Help text is formatted for 80 columns.  pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("gamma", "count", "construct", "formula", "optimize", "scan", "efficiency")
ELAPSED = re.compile(r'"elapsed_ms": \d+')
SEPARATORS = {"vt": b"\v", "ff": b"\f", "fs": b"\x1c", "gs": b"\x1d", "rs": b"\x1e",
              "cr": b"\r", "crlf": b"\r\n"}
# graph6.TEXT_BLOCK, the scan's text block, is 64 KiB
BLANKS_AT = (8191, 8192, 65535, 65537)
LONG_HEADER = b"#" * 70_000 + b"\n"
# 80 KB of edge lines: what follows them is past the first 64 KiB text block
PAST_A_BLOCK = b"0 1\n" * 20_000
LONE_INPUTS = {
    "long_header_65.edges": LONG_HEADER + b"65\n0 1\n2 2\n",
    "long_header_5.edges": LONG_HEADER + b"5\n0 1\n1 2\n3 4\n",
    "late_bad_line.edges": b"10\n" + PAST_A_BLOCK + b"0 x\n1 2\n",
    "late_underscore.edges": b"10\n" + PAST_A_BLOCK + b"3 1_0\n",
    "late_plus.edges": b"10\n" + PAST_A_BLOCK + b"+2 3\n",
    "n5000.edges": b"5000\n" + PAST_A_BLOCK,
    "n5000_late_non_ascii.edges": b"5000\n" + PAST_A_BLOCK + b"caf\xc3\xa9\n",
    "empty.edges": b"",
    "whitespace.edges": b" \n\t\r\n",
    "empty.g6": b"",
    "whitespace.g6": b" \n\t\r\n",
}


def invocations(work: Path, seed: int) -> list[tuple]:
    """(working directory relative to ``work``, argv) pairs, with the file
    to feed as standard input third where argv reads ``-``; writes the
    perfbench inputs under ``work/perfbench``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    own = "own"
    (work / own).mkdir(parents=True)
    runs = [(own, ["scan", "--n", str(n)] + total)
            for n in range(-1, 9) for total in ([], ["--total"])]
    for name, make_jobs in workloads.WORKLOADS.items():
        where = work / "perfbench" / name
        where.mkdir(parents=True)
        runs += [(f"perfbench/{name}", job.argv) for job in make_jobs(where, seed)]
    for name, (*_, gamma, _, total_gamma, _) in workloads.CONNECTED.items():
        for size, total in ((gamma + 1, []), (total_gamma + 1, ["--total"])):
            runs += [("perfbench/count", ["count", "--in", f"{name}.g6", "--size", str(size),
                                          "--witness-cap", cap] + total)
                     for cap in ("1", "7", "1000")]
    for n in range(-1, 41):
        for x in range(-1, 13):
            order = ["--n", str(n), "--gamma", str(x)]
            runs += [
                (own, ["formula"] + order),
                (own, ["formula"] + order + ["--total"]),
                (own, ["optimize"] + order),
                (own, ["efficiency"] + order),
                (own, ["construct"] + order),
                (own, ["construct"] + order + ["--out", f"c{n}_{x}.g6"]),
                (own, ["construct"] + order + ["--format", "edges",
                                               "--out", f"c{n}_{x}.edges"]),
            ]
    runs.append((own, ["construct", "--n", "4096", "--gamma", "2048"]))
    runs.append((own, ["construct", "--n", "100000000000", "--gamma", "1000000"]))
    # C(363, 2) is the first count of graph6 body bits to reach 2**16, a cut
    for n, x in ((364, 5), (4096, 7)):
        for fmt in ("g6", "edges"):
            path = f"big{n}.{fmt}"
            runs += [
                (own, ["construct", "--n", str(n), "--gamma", str(x), "--format", fmt,
                       "--out", path]),
                (own, ["count", "--size", "2", "--in", path, "--format", fmt]),
            ]
    runs.append((own, ["gamma", "--in", "big364.edges", "--format", "edges"]))
    runs.append((own, ["--help"]))
    runs += [(own, [command, "--help"]) for command in SUBCOMMANDS]
    fed = []  # (path, format) of every file also read from standard input
    corpora = work / own / "corpora"
    corpora.mkdir()
    for name, (order, data) in edge_corpora(random.Random(seed)).items():
        (corpora / name).write_bytes(data)
        fed.append((f"corpora/{name}", "g6"))
        # an order past the counting cap, with another order requested
        other = [["--n", "8"]] if order > 64 else []
        for n in ([], ["--n", str(order)], ["--n", str(order + 1)], *other):
            for flags in ([], ["--total"], ["--lenient"], ["--total", "--lenient"]):
                runs.append((own, ["scan", "--corpus", f"corpora/{name}", *n, *flags]))
    separated = work / own / "separated"
    separated.mkdir()
    for name, data in separated_inputs(random.Random(seed)).items():
        (separated / name).write_bytes(data)
        path = f"separated/{name}"
        fed.append((path, "edges" if name.endswith(".edges") else "g6"))
        if name.endswith(".edges"):
            commands = [[command, "--in", path, "--format", "edges"]
                        for command in ("gamma", "count")]
        else:
            commands = [["gamma", "--in", path], ["count", "--in", path],
                        ["scan", "--corpus", path]]
        for argv in commands:
            for flags in ([], ["--total"], ["--lenient"], ["--total", "--lenient"]):
                runs.append((own, argv + flags))
    streams = work / own / "streams"
    streams.mkdir()
    for name, data in stream_inputs(random.Random(seed)).items():
        (streams / name).write_bytes(data)
        path = f"streams/{name}"
        fed.append((path, "g6"))
        for argv in (["gamma", "--in", path], ["count", "--in", path],
                     ["scan", "--corpus", path]):
            for flags in ([], ["--total"], ["--lenient"], ["--total", "--lenient"]):
                runs.append((own, argv + flags))
    blocks = work / own / "blocks"
    blocks.mkdir()
    for name, data in block_inputs(random.Random(seed)).items():
        (blocks / name).write_bytes(data)
        path = f"blocks/{name}"
        fed.append((path, "g6"))
        for argv in (["count", "--in", path], ["scan", "--corpus", path]):
            for flags in ([], ["--total"], ["--lenient"], ["--total", "--lenient"]):
                runs.append((own, argv + flags))
    lone = work / own / "lone"
    lone.mkdir()
    for name, data in LONE_INPUTS.items():
        (lone / name).write_bytes(data)
        fmt = "edges" if name.endswith(".edges") else "g6"
        fed.append((f"lone/{name}", fmt))
        for command in ("gamma", "count"):
            for flags in ([], ["--total"], ["--lenient"], ["--total", "--lenient"]):
                runs.append((own, [command, "--in", f"lone/{name}", "--format", fmt,
                                   *flags]))
    for path, fmt in fed:
        commands = [[command, "--in", "-", "--format", fmt] for command in ("gamma", "count")]
        if fmt == "g6":
            commands.append(["scan", "--corpus", "-"])
        for argv in commands:
            for flags in ([], ["--total"], ["--lenient"], ["--total", "--lenient"]):
                runs.append((own, argv + flags, path))
    return runs


def separated_inputs(rng: random.Random) -> dict[str, bytes]:
    """graph6 files of three order-6 records and edge lists of the first
    one, by file name, whose lines are separated (``between``) or ended
    (``ends``) by each of ``SEPARATORS``; ``edges`` separates only the edge
    lines."""
    import oracle

    graphs = [sorted(pair for pair in oracle.pairs(6) if rng.random() < 0.6)
              for _ in range(3)]
    records = [oracle.encode_graph6(6, set(edges)).encode() for edges in graphs]
    lines = [b"6"] + [f"{u} {v}".encode() for u, v in graphs[0]]
    inputs = {}
    for name, separator in SEPARATORS.items():
        inputs[f"between_{name}.g6"] = separator.join(records) + b"\n"
        inputs[f"ends_{name}.g6"] = b"".join(r + separator + b"\n" for r in records)
        inputs[f"between_{name}.edges"] = separator.join(lines) + b"\n"
        inputs[f"edges_{name}.edges"] = lines[0] + b"\n" + separator.join(lines[1:])
    return inputs


def stream_inputs(rng: random.Random) -> dict[str, bytes]:
    """graph6 files of which ``gamma --in`` and ``count --in`` read only
    the head, by file name: 120 000 blank lines before three order-8
    records, and 3000 order-8 records (past a block of the scan and past
    the text decoder's first 8 KiB read)."""
    import oracle

    records = [
        oracle.encode_graph6(8, {pair for pair in oracle.pairs(8)
                                 if rng.random() < 0.7}).encode() + b"\n"
        for _ in range(3000)
    ]
    return {
        "blank_head_long.g6": b" \n\n\t\n" * 40_000 + b"".join(records[:3]),
        "many_records.g6": b"".join(records),
    }


def block_inputs(rng: random.Random) -> dict[str, bytes]:
    """A 200 KB corpus of canonical order-8 records with a blank line
    starting at each offset of ``BLANKS_AT``, and the same corpus with CRLF
    line ends, by file name.  The record before a blank line is led by
    spaces to end where it starts, or the blank line before it holds
    spaces up to there."""
    import oracle

    def record() -> bytes:
        return oracle.encode_graph6(8, {pair for pair in oracle.pairs(8)
                                        if rng.random() < 0.7}).encode() + b"\n"

    data = b""
    for at in BLANKS_AT:
        if len(data) + 7 <= at:
            count = (at - len(data)) // 7
            data += b" " * (at - len(data) - 7 * count)
            data += b"".join(record() for _ in range(count))
        else:  # a blank line ends less than a record short of ``at``
            data = data[:-1] + b" " * (at - len(data)) + b"\n"
        data += b"\n"
    data += b"".join(record() for _ in range((200_000 - len(data)) // 7))
    for at in BLANKS_AT:
        assert data[at - 1] == 10 and not data[at : data.index(b"\n", at)].strip()
    return {"blanks_lf.g6": data, "blanks_crlf.g6": data.replace(b"\n", b"\r\n")}


def edge_corpora(rng: random.Random) -> dict[str, tuple[int, bytes]]:
    """Corpora that take the scan's less common paths, by file name: the
    order of the first record, and the bytes."""
    import oracle  # the perfbench oracle, on the path once workloads is imported

    def records(n: int, count: int) -> list[bytes]:
        return [
            oracle.encode_graph6(
                n, {pair for pair in oracle.pairs(n) if rng.random() < 0.7}
            ).encode()
            for _ in range(count)
        ]

    def lines(records: list[bytes], end: bytes = b"\n") -> bytes:
        return b"".join(record + end for record in records)

    g8, g9 = records(8, 30), records(9, 30)
    header = b">>graph6<<"
    padded = g8[4][:-1] + bytes([(g8[4][-1] - 63 | 1) + 63])
    complete65 = oracle.encode_graph6(65, set(oracle.pairs(65))).encode()
    empty65 = oracle.encode_graph6(65, set()).encode()
    # K8 less a perfect matching: every pair dominates, so each matching
    # gives a maximizer of the same count in both modes
    ties = sorted({
        oracle.encode_graph6(8, set(oracle.pairs(8)) - {
            tuple(sorted(perm[k : k + 2])) for k in range(0, 8, 2)
        }).encode()
        for perm in (rng.sample(range(8), 8) for _ in range(60))
    }, reverse=True)
    repeat = records(8, 1100)
    for at, record in [(10, ties[-1]), (600, ties[-1]), (700, ties[0]), (1000, ties[1]),
                       (1030, ties[-1]), (1050, ties[2]), (1090, ties[3])]:
        repeat[at] = record
    # 3000 lines of 17 bytes, none canonical: one text block of lines
    framed = records(8, 3000)
    framed[1500] = framed[1500][:-1] + bytes([(framed[1500][-1] - 63 | 1) + 63])
    framed[2500] = framed[2500][:-1]
    # the odd lines at 1023, 1024, 2049 and 5000 lines into the second and
    # third text blocks of about 9362 lines
    scattered = records(8, 25_000)
    for at in (65536 // 7, 2 * 65536 // 7):
        scattered[at + 1023] = b""
        scattered[at + 1024] += b" "
        scattered[at + 2049] = header + scattered[at + 2049]
        last = scattered[at + 5000][-1]
        scattered[at + 5000] = scattered[at + 5000][:-1] + bytes([(last - 63 | 1) + 63])
    # blanks on both sides of the first record's line, before a 64 KiB text
    # block and more of canonical records
    around = records(8, 25_000)
    padded_first = around[0][:-1] + bytes([(around[0][-1] - 63 | 1) + 63])
    return {
        "header.g6": (8, lines([header + g8[0], *g8[1:5], header + g8[5]])),
        "header_line.g6": (8, lines([header, *g8[:5]])),
        "long_size.g6": (8, lines([*g8[:3], b"~??G" + g8[3][1:], *g8[4:10]])),
        "long_size_first.g6": (8, lines([b"~??G" + g8[0][1:], *g8[1:10]])),
        "blank_head.g6": (9, b"\n" * 1100 + b"  \n" * 3 + lines(g9)),
        "crlf.g6": (8, lines(g8, b"\r\n")),
        "padding.g6": (8, lines([*g8[:4], padded, *g8[5:]])),
        "padding_first.g6": (8, lines([padded, *g8[5:]])),
        "mixed.g6": (8, lines([*g8[:10], g9[0], *g8[10:]])),
        "mixed_blocks.g6": (9, lines(g9 * 40 + g8[:1])),
        "truncated.g6": (9, lines([*g9[:6], g9[6][:-1], *g9[7:]])),
        "non_ascii.g6": (8, lines(g8[:8]) + b"caf\xc3\xa9\n" + lines(g8[8:])),
        "order65.g6": (65, lines([complete65, empty65, complete65])),
        "order65_no_candidate.g6": (65, lines([complete65, complete65])),
        "order65_truncated.g6": (65, lines([complete65[:-1], complete65])),
        # the text decoder reads 8 KiB at a time: the bad byte is in a later read
        "order65_non_ascii.g6": (65, lines([complete65] * 30) + b"caf\xc3\xa9\n"),
        "blank.g6": (8, b"\n  \n" * 600),
        "tie_repeat.g6": (8, lines(repeat)),
        "tie_descending.g6": (8, lines(records(8, 1000) + ties)),
        "header_block.g6": (8, lines([header + record for record in framed])),
        "scattered.g6": (8, lines(scattered)),
        "scattered_order9.g6": (8, lines([*scattered[:-20], g9[0], *scattered[-20:]])),
        "blank_around.g6": (8, b" \t" + around[0] + b" \x1c\n" + lines(around[1:])),
        "blank_around_padded.g6": (
            8, b" \t" + padded_first + b" \x1c\n" + lines(around[1:])
        ),
        "blank_around_order65.g6": (
            65, b" \t" + complete65 + b" \x1c\n" + lines(around[1:])
        ),
    }


def run_worker(src: str, work: str, plan: str, out: str) -> None:
    """Run every invocation of ``plan`` with the package under ``src``; write
    one result per invocation to ``out``."""
    import warnings

    sys.path.insert(0, src)
    from domcount.cli import run_cli

    os.environ["COLUMNS"] = "80"
    results = []
    for where, argv, *stdin in json.loads(Path(plan).read_text()):
        os.chdir(Path(work, where))
        if stdin:
            sys.stdin = io.TextIOWrapper(io.BytesIO(Path(stdin[0]).read_bytes()))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = run_cli(argv)
            except Exception as exc:  # a traceback in a process of its own
                code = 1
                stderr.write(f"uncaught {type(exc).__name__}: {exc}\n")
        sys.stdin = sys.__stdin__
        written = None
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            if path.exists():
                written = hashlib.sha256(path.read_bytes()).hexdigest()
        results.append({
            "code": code,
            "stdout": ELAPSED.sub('"elapsed_ms": _', stdout.getvalue()),
            # warnings of trees from before the one-line rule name files
            "stderr": stderr.getvalue().replace(src, "SRC"),
            "written": written,
        })
    Path(out).write_text(json.dumps(results))


def describe(old: dict, new: dict) -> list[str]:
    """The differing fields of two results, one line each (a short diff for
    stdout)."""
    lines = []
    for field in ("code", "stderr", "written"):
        if old[field] != new[field]:
            lines.append(f"  {field}: {old[field]!r} -> {new[field]!r}")
    if old["stdout"] != new["stdout"]:
        diff = difflib.unified_diff(
            old["stdout"].splitlines(), new["stdout"].splitlines(), lineterm="", n=1
        )
        lines += [f"  stdout {line[:100]}" for line in list(diff)[2:14]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed (default: 1)")
    parser.add_argument("--work", help="empty or missing directory for the inputs "
                                       "and outputs (default: a new temporary one)")
    args = parser.parse_args()
    work = Path(args.work or tempfile.mkdtemp(prefix="cli_parity-")).resolve()
    inputs = work / "inputs"
    runs = invocations(inputs, args.seed)
    plan = work / "plan.json"
    plan.write_text(json.dumps(runs))
    workers = []
    for side, src in (("old", args.old_src), ("new", args.new_src)):
        shutil.copytree(inputs, work / side)
        workers.append(subprocess.Popen([
            sys.executable, __file__, "--worker", str(Path(src).resolve()),
            str(work / side), str(plan), str(work / f"{side}.json"),
        ]))
    if any(worker.wait() for worker in workers):
        print("cli_parity: a worker failed", file=sys.stderr)
        return 2
    old, new = (json.loads((work / f"{side}.json").read_text()) for side in ("old", "new"))
    differing = 0
    for (where, argv, *stdin), a, b in zip(runs, old, new):
        lines = describe(a, b)
        if lines:
            differing += 1
            feed = f" < {stdin[0]}" if stdin else ""
            print(f"DIFF ({where}) {' '.join(argv)}{feed}")
            print("\n".join(lines))
    print(f"{len(runs)} invocations, {differing} differ (work directory {work})")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        run_worker(*sys.argv[2:])
    else:
        sys.exit(main())
