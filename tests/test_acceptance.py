"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion is exact (integer or rational arithmetic) and carries
a wall-clock budget.
"""

import time
from fractions import Fraction
from math import comb

from allocation_oracle import exhaustive_decomposition_oracle
from labeled_oracle import enumerate_labeled_graphs, labeled_max_edges_gamma2
from domcount import (
    InfeasibleOrderError,
    complete_graph,
    component_plan,
    count_minimum,
    count_sets,
    domination_number,
    efficiency_ratio,
    build_component_graph,
    max_dominating_pairs,
    max_edges_gamma2,
    max_total_dominating_pairs,
    optimize_allocation,
    pair_extremal_graph,
    parse_graph6,
    scan_labeled,
    write_graph6,
)
from naive_oracle import count_sets_naive


def _report(number, name, failures, elapsed, budget):
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.2f}s / budget {budget}s]")
    assert not failures, failures[:10]
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_1_closed_form_agreement():
    start = time.perf_counter()
    failures = []
    for n in range(4, 19):
        g = pair_extremal_graph(n)
        dom = count_minimum(g, "dominating", witness_cap=0)
        tot = count_minimum(g, "total", witness_cap=0)
        if (dom.gamma, dom.count) != (2, max_dominating_pairs(n)):
            failures.append(("dominating", n, dom))
        if (tot.gamma, tot.count) != (2, max_total_dominating_pairs(n)):
            failures.append(("total", n, tot))
    if max_dominating_pairs(6) != 15 or max_total_dominating_pairs(6) != 12:
        failures.append(("spot", 6))
    if max_dominating_pairs(7) != 20 or max_total_dominating_pairs(7) != 16:
        failures.append(("spot", 7))
    _report(1, "closed-form agreement", failures, time.perf_counter() - start, 5)


def test_criterion_2_exhaustive_extremality():
    start = time.perf_counter()
    expected = {
        "dominating": {4: 6, 5: 9, 6: 15, 7: 20},
        "total": {4: 4, 5: 6, 6: 12, 7: 16},
    }
    failures = []
    for mode, by_n in expected.items():
        for n, want in by_n.items():
            record = scan_labeled(n, mode)
            if record.max_count != want:
                failures.append((mode, n, record.max_count, want))
            if record.graphs_scanned != 1 << comb(n, 2):
                failures.append((mode, n, "scanned", record.graphs_scanned))
    _report(2, "exhaustive extremality", failures, time.perf_counter() - start, 120)


def test_criterion_3_max_edges_ingredient():
    start = time.perf_counter()
    failures = []
    for n in range(4, 8):
        scanned = labeled_max_edges_gamma2(n)
        if scanned != max_edges_gamma2(n):
            failures.append((n, scanned, max_edges_gamma2(n)))
    if max_edges_gamma2(7) != 17:
        failures.append(("spot", 7))
    _report(3, "max-edges ingredient", failures, time.perf_counter() - start, 120)


def test_criterion_4_construction_validity():
    start = time.perf_counter()
    failures = []
    spot = {(9, 3): 45, (12, 3): 112, (8, 4): 36}
    for x in (3, 4, 5):
        for n in range(1, 17):
            try:
                graph, plan = build_component_graph(n, x)
            except InfeasibleOrderError:
                continue
            if domination_number(graph) != x:
                failures.append((n, x, "gamma"))
            count = count_sets(graph, x, "dominating")
            if count != plan.total_count:
                failures.append((n, x, count, plan.total_count))
            if (n, x) in spot and count != spot[(n, x)]:
                failures.append((n, x, "spot", count))
    _report(4, "construction validity", failures, time.perf_counter() - start, 10)


def test_criterion_5_optimizer_correctness():
    start = time.perf_counter()
    failures = []
    for x in range(1, 7):
        for n in range(1, 31):
            try:
                plan = optimize_allocation(n, x)
            except InfeasibleOrderError:
                continue
            oracle = exhaustive_decomposition_oracle(n, x)
            if plan.total_count != oracle:
                failures.append((n, x, plan.total_count, oracle))
    sixteen = optimize_allocation(16, 4)
    if sixteen.total_count != 784 or sixteen.sizes() != (8, 8):
        failures.append(("spot", 16, 4))
    ten = optimize_allocation(10, 4)
    if ten.total_count != 90 or ten.sizes() != (4, 6):
        failures.append(("spot", 10, 4))
    if component_plan(10, 4).total_count != 81:
        failures.append(("spot", 10, 4, "equal split"))
    _report(5, "optimizer correctness", failures, time.perf_counter() - start, 30)


def test_criterion_6_allocation_inequalities():
    start = time.perf_counter()
    failures = []
    for r in range(1, 201):
        for rp in range(1, 201):
            if not comb(r + rp, 2) >= r * rp:
                failures.append(("pairing", r, rp))
    for r in range(2, 201):
        for a in range(1, r):
            if not comb(r + a, 2) * comb(r - a, 2) <= comb(r, 2) ** 2:
                failures.append(("balance", r, a))
    expected = {16: (784, 448), 20: (2025, 1125), 24: (4356, 2376)}
    for n, (two_pair, mixed) in expected.items():
        counts = (
            max_dominating_pairs(n // 2) ** 2,
            (n // 4) ** 2 * max_dominating_pairs(n // 2),
        )
        if counts != (two_pair, mixed):
            failures.append(("quad", n, counts))
        if not counts[0] > counts[1]:
            failures.append(("quad order", n))
    _report(6, "allocation inequalities", failures, time.perf_counter() - start, 1)


def test_criterion_7_efficiency_ratios():
    start = time.perf_counter()
    failures = []
    if abs(efficiency_ratio(300, 3).ratio - Fraction(4, 9)) >= Fraction(1, 100):
        failures.append((300, 3))
    if abs(efficiency_ratio(400, 4).ratio - Fraction(3, 8)) >= Fraction(1, 100):
        failures.append((400, 4))
    for n in range(4, 61, 2):
        if efficiency_ratio(n, 2).ratio != 1:
            failures.append((n, 2))
    _report(7, "efficiency ratios", failures, time.perf_counter() - start, 1)


def test_criterion_8_format_fidelity():
    start = time.perf_counter()
    failures = []
    for n in range(0, 7):
        for g in enumerate_labeled_graphs(n):
            if parse_graph6(write_graph6(g)).rows != g.rows:
                failures.append((n, g.rows))
    if parse_graph6("C~").rows != complete_graph(4).rows:
        failures.append("C~")
    if list(parse_graph6("Cl").edges()) != [(0, 1), (0, 3), (1, 2), (2, 3)]:
        failures.append("Cl")
    _report(8, "format fidelity", failures, time.perf_counter() - start, 5)


def test_criterion_9_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    for n in range(0, 7):
        for g in enumerate_labeled_graphs(n):
            for k in (1, 2, 3):
                for mode in ("dominating", "total"):
                    fast = count_sets(g, k, mode)
                    slow = count_sets_naive(g, k, mode)
                    if fast != slow:
                        failures.append((n, g.rows, k, mode, fast, slow))
    _report(9, "oracle equivalence", failures, time.perf_counter() - start, 120)
