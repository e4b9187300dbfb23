import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tied_stream
from labeled_oracle import (
    counter_planes,
    edge_mask_blocks,
    enumerate_labeled_graphs,
    labeled_max_edges_gamma2,
)
from scan_oracle import oracle_extremal_scan

from domcount import (
    InfeasibleOrderError,
    MixedOrderError,
    SizeLimitError,
    complete_graph,
    count_sets,
    domination_number,
    efficiency_ratio,
    from_edges,
    extremal_scan,
    graph_from_edge_mask,
    max_dominating_pairs,
    max_edges_gamma2,
    new_graph,
    parse_graph6,
    scan_labeled,
    write_graph6,
)
from domcount import scanning
from domcount.scanning import lane_sum, maximum, pair_counts
from domcount.scanning import pair_order
from domcount.scanning import smallest_reversed
from domcount.scanning import CHUNK_BITS

EXPECTED = {
    "dominating": {4: 6, 5: 9, 6: 15},
    "total": {4: 4, 5: 6, 6: 12},
}


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
        assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64

    def test_counter_order(self):
        graphs = list(enumerate_labeled_graphs(3))
        assert graphs[0].m == 0
        assert graphs[-1].rows == complete_graph(3).rows
        # mask bit 0 is the (0,1) edge
        assert list(graphs[1].edges()) == [(0, 1)]

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            next(enumerate_labeled_graphs(8))

    def test_edge_mask_bit_order(self):
        # column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ...
        g = graph_from_edge_mask(4, 0b001011)
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 3)]

    @pytest.mark.parametrize(
        "n, mask, error, message",
        [
            (3, 1 << 3, ValueError, "mask 0x8 sets bits outside 0..2"),
            (3, -1, ValueError, "mask -0x1 sets bits outside 0..2"),
            (4, 1 << 6, ValueError, "mask 0x40 sets bits outside 0..5"),
            (-1, 5, ValueError, "vertex count must be nonnegative, got -1"),
            (5000, -1, SizeLimitError, "vertex count 5000 exceeds cap 4096"),
        ],
    )
    def test_edge_mask_out_of_range(self, n, mask, error, message):
        """A bit at or past C(n, 2) was dropped and a sign read as bits;
        the order is still checked first."""
        with pytest.raises(error) as caught:
            graph_from_edge_mask(n, mask)
        assert type(caught.value) is error and str(caught.value) == message
        assert graph_from_edge_mask(3, (1 << 3) - 1).m == 3


class TestEdgeMaskBlocks:
    """The edge planes of the labeled enumeration -- the rows of each
    block's edge-by-graph bit matrix -- against the masks and
    ``graph_from_edge_mask``, with blocks smaller than one last-vertex run,
    blocks across runs and blocks larger than the whole order."""

    @staticmethod
    def mask_bit_plane(e, start, size):
        """Lane g: bit e of start + g, cut from a repeated string pattern."""
        period = "0" * (1 << e) + "1" * (1 << e)
        offset = start % len(period)
        pattern = period * ((offset + size) // len(period) + 1)
        return int(pattern[offset : offset + size][::-1], 2)

    @pytest.mark.parametrize("n", range(8))
    def test_rows_match_graph_from_edge_mask(self, n, monkeypatch):
        m, total = comb(n, 2), 1 << comb(n, 2)
        run = comb(max(n - 1, 0), 2)  # log2 of the masks per last-vertex run
        pairs = pair_order(n)
        rng = random.Random(n)
        exponents = {0, 2, 5, max(run - 1, 0), run + 2, 11, CHUNK_BITS, 18, 22}
        for bits in sorted(exponents):
            if total >> bits > 2000:
                continue  # too many blocks to build one by one
            monkeypatch.setattr(scanning, "CHUNK_BITS", bits)
            blocks = list(edge_mask_blocks(n))
            assert [masks.start for masks, _ in blocks] == list(
                range(0, total, 1 << bits)
            )
            assert blocks[-1][0].stop == total
            for masks, planes in blocks:
                assert len(planes) == m
                for e, plane in enumerate(planes):
                    assert plane == self.mask_bit_plane(e, masks.start, len(masks))
                lanes = {0, len(masks) - 1}
                lanes.update(rng.randrange(len(masks)) for _ in range(20))
                for g in lanes:
                    rows = graph_from_edge_mask(n, masks.start + g).rows
                    assert [plane >> g & 1 for plane in planes] == [
                        rows[i] >> j & 1 for i, j in pairs
                    ], (n, bits, masks.start + g)


class TestLaneSum:
    """The carry-save adder tree against ``sum`` lane by lane."""

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 7, 21, 28, 64])
    def test_matches_sum_on_random_lanes(self, count):
        rng = random.Random(count)
        lanes = 200
        planes = [rng.getrandbits(lanes) for _ in range(count)]
        digits = lane_sum(planes)
        for g in range(lanes):
            value = sum((digit >> g & 1) << k for k, digit in enumerate(digits))
            assert value == sum(plane >> g & 1 for plane in planes), g
        if planes:
            top = max(sum(p >> g & 1 for p in planes) for g in range(lanes))
            assert maximum(digits, (1 << lanes) - 1)[0] == top


class TestSplitKernel:
    """A run of blocks that share their low planes, against the same kernel
    fed each block's full ``counter_planes`` as shared planes, with no
    constant plane."""

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    @pytest.mark.parametrize("n", range(8))
    def test_run_matches_all_shared_planes(self, n, mode):
        m = comb(n, 2)
        rng = random.Random(n)
        for k in sorted({0, 1, min(3, m), rng.randint(0, min(m, 12)), min(m, 12)}):
            lanes = (1 << (1 << k)) - 1
            starts = sorted({rng.randrange(1 << m) >> k << k for _ in range(6)})
            run = list(pair_counts(n, counter_planes(0, k, k), lanes, mode, starts))
            assert [start for start, _, _ in run] == starts
            for start, digits, competes in run:
                [(_, full, full_competes)] = pair_counts(
                    n, counter_planes(start, k, m), lanes, mode, [0]
                )
                assert (digits, competes) == (full, full_competes), (k, start)


class TestWitnessTies:
    """Every maximizer ties: the witness is the stream's byte-smallest
    record, whichever block and lane it falls in and however often it
    repeats."""

    def test_smallest_reversed(self):
        # lane bits over planes 0, 1, 2: lane 0 is 011, lanes 1 and 3 are
        # 001, lane 2 is 100
        planes = [0b0100, 0b0001, 0b1011]
        assert smallest_reversed(0b1111, planes) == 3
        assert smallest_reversed(0b1010, planes) == 3
        assert smallest_reversed(0b0010, planes) == 1
        assert smallest_reversed(0b0101, planes) == 0

    def test_identical_lanes(self):
        assert smallest_reversed(0b111, [0b111, 0, 0b111]) == 2
        assert smallest_reversed(0b101, []) == 2

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    @pytest.mark.parametrize("n", [5, 7, 63, 64])
    def test_extremal_scan(self, n, mode):
        stream = tied_stream(n)
        record = extremal_scan(stream, mode)
        assert record.witness == min(write_graph6(g) for g in stream)
        assert record.max_count == count_sets(stream[0], 2, mode)
        assert record.graphs_scanned == len(stream)


class TestExtremalScan:
    @pytest.mark.parametrize("mode", ["dominating", "total"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_stream_and_vectorized_paths_agree(self, n, mode, monkeypatch):
        # extremal_scan reads its planes from the graphs' rows, scan_labeled
        # builds them from counters, in blocks of another size; blocks of
        # 2^0 to 2^3 lanes leave almost every edge plane constant
        stream = extremal_scan(enumerate_labeled_graphs(n), mode)
        assert scan_labeled(n, mode) == stream
        for bits in (0, 1, 2, 3, 7):
            monkeypatch.setattr(scanning, "CHUNK_BITS", bits)
            assert scan_labeled(n, mode) == stream, bits

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_known_maxima(self, n, mode):
        record = scan_labeled(n, mode)
        assert record.max_count == EXPECTED[mode][n]
        assert record.graphs_scanned == 1 << comb(n, 2)

    def test_chunk_size_does_not_matter(self, monkeypatch):
        for mode in ("dominating", "total"):
            baseline = extremal_scan(enumerate_labeled_graphs(6), mode)
            for bits in (0, 1, 2, 3, 7, 12, 20):
                monkeypatch.setattr(scanning, "CHUNK_BITS", bits)
                assert scan_labeled(6, mode) == baseline, (mode, bits)

    @pytest.mark.parametrize(
        "mode, record",
        [("dominating", (20, "FNz~o", 2097152)), ("total", (16, "FFz~o", 2097152))],
    )
    def test_order_7_records(self, mode, record, monkeypatch):
        # golden values, as the former numpy kernel computed them
        for bits in (10, CHUNK_BITS, 18, 21):
            monkeypatch.setattr(scanning, "CHUNK_BITS", bits)
            result = scan_labeled(7, mode)
            assert (result.max_count, result.witness, result.graphs_scanned) == record

    def test_witness_achieves_the_maximum(self):
        for mode in ("dominating", "total"):
            record = scan_labeled(6, mode)
            witness = parse_graph6(record.witness)
            assert domination_number(witness) == 2
            assert count_sets(witness, 2, mode) == record.max_count

    def test_complete_graphs_do_not_win_total_mode(self):
        # every pair of K_n is totally dominating, but K_n has domination
        # number 1 and is filtered out
        record = scan_labeled(5, "total")
        assert record.max_count == 6 < comb(5, 2)

    def test_mixed_orders_rejected(self):
        with pytest.raises(MixedOrderError):
            extremal_scan([new_graph(3), new_graph(4)], "dominating")

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            extremal_scan([], "dominating")

    def test_corpus_style_stream(self):
        # a hand-rolled "corpus": every graph on 4 vertices, via graph6
        from domcount import iter_graph6

        lines = [write_graph6(g) for g in enumerate_labeled_graphs(4)]
        record = extremal_scan(iter_graph6(lines), "dominating")
        assert record.max_count == 6 and record.graphs_scanned == 64

    def test_stream_handles_orders_beyond_enumeration_cap(self):
        from domcount import cocktail_party, pair_extremal_graph

        graphs = [
            new_graph(8),            # domination number 8, filtered by count
            complete_graph(8),       # domination number 1, filtered
            cocktail_party(8),
            pair_extremal_graph(8),
        ]
        record = extremal_scan(graphs, "dominating")
        assert record.max_count == max_dominating_pairs(8) == 28
        assert record.graphs_scanned == 4


class TestGraphAtlasOracle:
    """networkx's graph atlas holds one graph per isomorphism class up to
    order 7, so its maximum is the labeled maximum, found independently of
    the labeled enumeration."""

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    def test_atlas_maximum_matches_scan_labeled(self, mode):
        nx = pytest.importorskip("networkx")
        atlas = nx.graph_atlas_g()
        for n in range(2, 8):
            graphs = [
                from_edges(n, g.edges()) for g in atlas if g.number_of_nodes() == n
            ]
            record = extremal_scan(graphs, mode)
            assert record.max_count == scan_labeled(n, mode).max_count, n
            if record.witness is not None:
                witness = parse_graph6(record.witness)
                assert domination_number(witness) == 2
                assert count_sets(witness, 2, mode) == record.max_count


def scan_outcome(scan, graphs, mode):
    """The record a scan returns, or the type and message of its error."""
    try:
        return scan(graphs, mode)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def same_order_graphs(draw, max_n: int = 64):
    """1-12 random graphs of one order n <= max_n, mostly dense enough for
    domination number 2, with complete and edgeless graphs mixed in."""
    n = draw(st.integers(0, max_n))
    graphs = []
    for _ in range(draw(st.integers(1, 12))):
        density = draw(st.sampled_from([0.0, 0.5, 0.7, 0.85, 0.95, 1.0]))
        seed = draw(st.integers(0, 2**32))
        rng = random.Random(seed)
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
        graphs.append(from_edges(n, edges))
    return graphs


class TestPairKernelAgainstOracle:
    """The bit-sliced pair kernel, through every γ=2 entry point, against the
    per-graph reduction in ``tests/scan_oracle.py``."""

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_labeled_graph(self, n, mode):
        expected = oracle_extremal_scan(enumerate_labeled_graphs(n), mode)
        assert extremal_scan(enumerate_labeled_graphs(n), mode) == expected
        assert scan_labeled(n, mode) == expected

    @settings(max_examples=80, deadline=None)
    @given(graphs=same_order_graphs())
    def test_streams_up_to_order_64(self, graphs):
        for mode in ("dominating", "total"):
            assert extremal_scan(graphs, mode) == oracle_extremal_scan(graphs, mode)

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    @pytest.mark.parametrize(
        "graphs",
        [
            [complete_graph(65)],
            [complete_graph(65), new_graph(65)],
            [new_graph(65), new_graph(3)],
            [complete_graph(65), new_graph(3)],
            [complete_graph(70), from_edges(70, [(0, 1)]), complete_graph(70)],
        ],
        ids=["complete", "then-edgeless", "edgeless-then-order-3",
             "complete-then-order-3", "one-edge"],
    )
    def test_past_the_counting_cap(self, graphs, mode):
        # the order is refused at the first graph, before a later graph's
        # order is compared with it
        assert scan_outcome(extremal_scan, graphs, mode) == scan_outcome(
            oracle_extremal_scan, graphs, mode
        )

    @pytest.mark.parametrize("mode", ["dominating", "total"])
    def test_refused_without_a_candidate(self, mode):
        # every graph has a dominating vertex, so none could compete
        star = from_edges(65, [(0, v) for v in range(1, 65)])
        graphs = [complete_graph(65), star, complete_graph(65)]
        with pytest.raises(SizeLimitError, match="n <= 64, got n=65"):
            extremal_scan(graphs, mode)
        with pytest.raises(SizeLimitError, match="n <= 64, got n=65"):
            scanning.scan_corpus([write_graph6(g) + "\n" for g in graphs], mode)

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode must be"):
            extremal_scan([complete_graph(3)], "connected")

    @pytest.mark.parametrize(
        "scan, source",
        [(scanning.scan_labeled, 8), (scanning.scan_labeled, -1),
         (extremal_scan, []), (scanning.scan_corpus, []),
         (scanning.scan_corpus, ["\n", "Gabc\n"])],
        ids=["order-8", "order-minus-1", "no-graphs", "no-lines", "bad-record"],
    )
    def test_mode_is_checked_before_the_input(self, scan, source):
        with pytest.raises(ValueError, match="mode must be"):
            scan(source, "connected")


class TestMaxEdges:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_closed_form(self, n):
        assert labeled_max_edges_gamma2(n) == max_edges_gamma2(n)

    def test_chunk_size_does_not_matter(self, monkeypatch):
        monkeypatch.setattr(scanning, "CHUNK_BITS", 3)
        assert labeled_max_edges_gamma2(5) == 7
        monkeypatch.setattr(scanning, "CHUNK_BITS", 18)
        assert labeled_max_edges_gamma2(7) == 17

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            labeled_max_edges_gamma2(8)


LABELED_ENTRY_POINTS = {
    "enumerate_labeled_graphs": enumerate_labeled_graphs,
    "scan_labeled": lambda n: scan_labeled(n, "dominating"),
    "labeled_max_edges_gamma2": labeled_max_edges_gamma2,
}


class TestEnumerationGuard:
    """``scan_labeled`` and the labeled-enumeration oracles refuse the same
    inputs with the same errors."""

    @pytest.mark.parametrize("entry", sorted(LABELED_ENTRY_POINTS))
    def test_order_8_is_refused_with_the_corpus_hint(self, entry):
        with pytest.raises(SizeLimitError) as info:
            LABELED_ENTRY_POINTS[entry](8)
        assert str(info.value) == (
            "labeled enumeration supports n <= 7; "
            "use a graph6 corpus for larger orders"
        )

    @pytest.mark.parametrize("entry", sorted(LABELED_ENTRY_POINTS))
    def test_negative_order_is_refused(self, entry):
        with pytest.raises(
            InfeasibleOrderError, match="^vertex count must be nonnegative$"
        ):
            LABELED_ENTRY_POINTS[entry](-1)


class TestEfficiencyRatio:
    def test_even_order_pairs_ratio_is_one(self):
        for n in (4, 10, 50, 128):
            assert efficiency_ratio(n, 2).ratio == 1

    def test_odd_order_pairs_ratio(self):
        for n in (5, 21, 99):
            assert efficiency_ratio(n, 2).ratio == 1 - Fraction(1, comb(n, 2))

    def test_triples_near_limit(self):
        report = efficiency_ratio(300, 3)
        assert report.ratio_limit == Fraction(4, 9)
        assert abs(report.ratio - Fraction(4, 9)) < Fraction(1, 100)

    def test_quadruples_near_limit(self):
        report = efficiency_ratio(400, 4)
        assert report.ratio_limit == Fraction(3, 8)
        assert abs(report.ratio - Fraction(3, 8)) < Fraction(1, 100)

    def test_asymptotic_coefficients(self):
        assert efficiency_ratio(40, 4).asymptotic_coefficient == Fraction(4, 256)
        assert efficiency_ratio(30, 3).asymptotic_coefficient == Fraction(2, 27)

    def test_exact_rational_not_float(self):
        report = efficiency_ratio(12, 3)
        assert isinstance(report.ratio, Fraction)
        plan_count = 4 * comb(8, 2)
        assert report.ratio == Fraction(plan_count, comb(12, 3))
