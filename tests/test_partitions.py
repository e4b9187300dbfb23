from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from allocation_oracle import dp_allocation, exhaustive_decomposition_oracle
from domcount import (
    MAX_VERTICES,
    InfeasibleOrderError,
    SizeLimitError,
    component_plan,
    max_dominating_pairs,
    optimize_allocation,
    partitions,
)


def feasible_pairs(max_n, max_x):
    for x in range(1, max_x + 1):
        for n in range(1, max_n + 1):
            try:
                component_plan(n, x)
            except InfeasibleOrderError:
                continue
            yield n, x


class TestOptimizeAllocation:
    def test_sixteen_four(self):
        plan = optimize_allocation(16, 4)
        assert plan.sizes() == (8, 8) and plan.total_count == 784

    def test_ten_four_beats_equal_split(self):
        plan = optimize_allocation(10, 4)
        assert plan.sizes() == (4, 6) and plan.total_count == 90
        assert component_plan(10, 4).total_count == 81

    def test_nine_three(self):
        plan = optimize_allocation(9, 3)
        assert [(c.kind, c.size) for c in plan.components] == [
            ("complete", 3),
            ("pair", 6),
        ]
        assert plan.total_count == 45

    def test_tie_prefers_lexicographically_smaller_sizes(self):
        # (13, 3): complete 4 + pair 9 and complete 5 + pair 8 both give 140
        plan = optimize_allocation(13, 3)
        assert plan.total_count == 140 and plan.sizes() == (4, 9)

    def test_gamma_one(self):
        plan = optimize_allocation(11, 1)
        assert plan.sizes() == (11,) and plan.total_count == 11

    def test_infeasible(self):
        with pytest.raises(InfeasibleOrderError):
            optimize_allocation(3, 2)
        with pytest.raises(InfeasibleOrderError):
            optimize_allocation(7, 4)

    def test_agrees_with_oracle(self):
        for n, x in feasible_pairs(22, 5):
            assert (
                optimize_allocation(n, x).total_count
                == exhaustive_decomposition_oracle(n, x)
            ), (n, x)

    def test_infeasible_and_oversized_are_refused_before_planning(self, monkeypatch):
        # the plan takes O(x) time and memory, so no refusal may build it
        def no_plan(rest, pairs):
            raise AssertionError(f"planned {pairs} pair components")

        monkeypatch.setattr(partitions, "_pair_sizes", no_plan)
        for n, x in [(MAX_VERTICES + 1, 2), (MAX_VERTICES + 1, 3), (10**11, 8_000_000)]:
            with pytest.raises(SizeLimitError):
                optimize_allocation(n, x)
        # infeasibility is reported ahead of the vertex cap
        for n, x in [(10**11, 0), (5000, 4000), (-1, 2)]:
            with pytest.raises(InfeasibleOrderError):
                optimize_allocation(n, x)

    def test_never_below_prescribed_plan(self):
        for n, x in feasible_pairs(60, 7):
            assert (
                optimize_allocation(n, x).total_count
                >= component_plan(n, x).total_count
            ), (n, x)

    def test_structure_matches_theory(self):
        # at most one complete component; pair sizes within 2 of each other
        for n, x in feasible_pairs(200, 10):
            plan = optimize_allocation(n, x)
            completes = [c for c in plan.components if c.kind == "complete"]
            pairs = [c.size for c in plan.components if c.kind == "pair"]
            assert len(completes) <= 1, (n, x)
            if pairs:
                assert max(pairs) - min(pairs) <= 2, (n, x)

    @pytest.mark.parametrize("x", [4, 6, 8, 10])
    def test_parity_refinement_for_balanced_even_x(self, x):
        for n in range(2 * x, 161, x):
            plan = optimize_allocation(n, x)
            target = 2 * n // x
            if target % 2 == 0:
                assert plan.sizes() == (target,) * (x // 2), (n, x)
            else:
                equal_split = max_dominating_pairs(target) ** (x // 2)
                assert plan.total_count > equal_split, (n, x)


@st.composite
def feasible_orders(draw):
    """(n, x) with 1 <= x <= max(1, n // 2): every such pair has a plan."""
    n = draw(st.integers(1, 4096))
    return n, draw(st.integers(1, max(1, n // 2)))


class TestTotalCount:
    @settings(max_examples=60, deadline=None)
    @given(feasible_orders())
    def test_is_the_product_of_component_counts(self, order):
        for plan in (component_plan(*order), optimize_allocation(*order)):
            assert plan.total_count == prod(c.count for c in plan.components)


def plan_shape(plan):
    return [(c.kind, c.size) for c in plan.components]


class TestClosedFormRule:
    def test_matches_dp_oracle(self):
        cases = list(feasible_pairs(160, 12))
        for x in range(13, 61):
            lowest = 2 * x - x % 2  # smallest feasible n
            cases += [(n, x) for n in range(lowest, lowest + 21)]
        for n, x in cases:
            assert plan_shape(optimize_allocation(n, x)) == plan_shape(
                dp_allocation(n, x)
            ), (n, x)

    def test_best_two_part_split_is_unique(self):
        # step 2 of the exchange argument: two even sizes within 2 of each
        # other, or two consecutive sizes for an odd total
        for total in range(8, 1001):
            products = {
                a: max_dominating_pairs(a) * max_dominating_pairs(total - a)
                for a in range(4, total // 2 + 1)
            }
            best = max(products.values())
            (a,) = [a for a, product in products.items() if product == best]
            b = total - a
            if total % 2:
                assert b - a == 1, total
            else:
                assert a % 2 == 0 and b - a <= 2, total

    def test_large_order_three(self):
        # the former search took about 14 s for this plan
        plan = optimize_allocation(4096, 3)
        assert plan_shape(plan) == [("complete", 1365), ("pair", 2731)]
        assert plan.total_count == 5088466110


class TestOracle:
    @pytest.mark.parametrize("n,x,expected", [(10, 4, 90), (8, 4, 36), (5, 2, 9)])
    def test_spot_values(self, n, x, expected):
        assert exhaustive_decomposition_oracle(n, x) == expected

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            exhaustive_decomposition_oracle(31, 4)
        with pytest.raises(SizeLimitError):
            exhaustive_decomposition_oracle(20, 7)

    def test_no_decomposition(self):
        with pytest.raises(InfeasibleOrderError):
            exhaustive_decomposition_oracle(2, 3)

    def test_gamma_three_components_never_help(self):
        # re-run the oracle with domination-number-3 components allowed,
        # valued at the best product a (r, 3) union construction achieves;
        # they never beat decompositions into 1s and 2s
        def value3(r):
            return component_plan(r, 3).total_count

        def extended(n, x):
            best = None

            def rec(n_left, x_left, product):
                nonlocal best
                if x_left == 0:
                    if n_left == 0 and (best is None or product > best):
                        best = product
                    return
                for s in range(1, n_left + 1):
                    if x_left >= 1:
                        rec(n_left - s, x_left - 1, product * s)
                    if x_left >= 2 and s >= 4:
                        rec(n_left - s, x_left - 2, product * max_dominating_pairs(s))
                    if x_left >= 3 and s >= 5:
                        rec(n_left - s, x_left - 3, product * value3(s))

            rec(n, x, 1)
            return best

        for n, x in feasible_pairs(18, 6):
            assert extended(n, x) == exhaustive_decomposition_oracle(n, x), (n, x)


class TestInequalities:
    def test_pairing_examples(self):
        assert comb(3 + 3, 2) >= 3 * 3  # C(6,2)=15 >= 9
        assert comb(1 + 1, 2) >= 1 * 1  # C(2,2)=1 >= 1

    def test_pairing_full_sweep(self):
        assert all(
            comb(r + rp, 2) >= r * rp
            for r in range(1, 201)
            for rp in range(1, 201)
        )

    def test_balance_examples(self):
        assert comb(4 + 1, 2) * comb(4 - 1, 2) <= comb(4, 2) ** 2  # 10*3 <= 36
        # degenerate small side
        assert comb(10 + 9, 2) * comb(10 - 9, 2) <= comb(10, 2) ** 2

    def test_balance_full_sweep(self):
        assert all(
            comb(r + a, 2) * comb(r - a, 2) <= comb(r, 2) ** 2
            for r in range(2, 201)
            for a in range(1, r)
        )


class TestQuadSplit:
    @pytest.mark.parametrize(
        "n,two_pair,mixed",
        [(16, 784, 448), (20, 2025, 1125), (24, 4356, 2376)],
    )
    def test_values(self, n, two_pair, mixed):
        two_pair_count = max_dominating_pairs(n // 2) ** 2
        mixed_count = (n // 4) ** 2 * max_dominating_pairs(n // 2)
        assert two_pair_count == two_pair == comb(n // 2, 2) ** 2
        assert mixed_count == mixed
        assert two_pair_count > mixed_count
