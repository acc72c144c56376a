"""The brute-force references themselves need checking on tiny instances."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import s
from indetstr import (
    BudgetExceeded,
    EnumerationBudget,
    brute_force_is_regular,
    brute_force_lex_least,
    compute_prefix_table,
    enumerate_feasible,
    infer,
    is_regular,
    validate_feasible,
)


class TestEnumerateFeasible:
    def test_tiny(self):
        assert list(enumerate_feasible(0)) == [()]
        assert list(enumerate_feasible(1)) == [(1,)]
        assert list(enumerate_feasible(2)) == [(2, 0), (2, 1)]

    def test_counts_are_factorial(self):
        for n in range(7):
            assert sum(1 for _ in enumerate_feasible(n)) == math.factorial(n)

    def test_all_valid_distinct_sorted(self):
        for n in range(6):
            ys = list(enumerate_feasible(n))
            assert ys == sorted(set(ys))
            for y in ys:
                validate_feasible(y)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_feasible(-1))


class TestBruteForceLexLeast:
    def test_golden(self):
        assert brute_force_lex_least((5, 0, 2, 1, 0)) == (s("a b a {a,b} c"), 3)
        assert brute_force_lex_least((2, 1)) == (s("a a"), 1)
        assert brute_force_lex_least((3, 0, 0)) == (s("a b b"), 2)
        assert brute_force_lex_least(()) == ((), 0)
        assert brute_force_lex_least((1,)) == (s("a"), 1)

    def test_result_realizes_array(self):
        for y in enumerate_feasible(4):
            x, sigma = brute_force_lex_least(y)
            assert compute_prefix_table(x) == y
            assert len({c for a in x for c in a}) == sigma

    def test_minimum_is_a_lower_bound(self):
        # nothing the fast path produces may beat the oracle
        for y in enumerate_feasible(4):
            best, _ = brute_force_lex_least(y)
            assert best <= infer(y)

    def test_agrees_with_infer_up_to_n4(self):
        # exhaustive agreement on every array up to length 4 (length 5 has
        # one known divergence, 5 2 3 1 1, see test_inference)
        for n in range(5):
            for y in enumerate_feasible(n):
                assert brute_force_lex_least(y)[0] == infer(y)

    def test_budget_max_n(self):
        with pytest.raises(BudgetExceeded):
            brute_force_lex_least((6, 0, 0, 0, 0, 0), EnumerationBudget(max_n=5))

    def test_budget_max_candidates(self):
        with pytest.raises(BudgetExceeded):
            brute_force_lex_least(
                (4, 0, 0, 0), EnumerationBudget(max_candidates=10)
            )

    def test_budget_max_sigma(self):
        # 4 0 0 0 needs two symbols, so a one-symbol cap must report failure
        with pytest.raises(BudgetExceeded):
            brute_force_lex_least((4, 0, 0, 0), EnumerationBudget(max_sigma=1))


class TestBruteForceIsRegular:
    def test_golden(self):
        assert brute_force_is_regular((8, 0, 1, 0, 3, 0, 1, 0), EnumerationBudget(max_n=8))
        assert not brute_force_is_regular((5, 0, 2, 1, 0))
        assert brute_force_is_regular((4, 0, 0, 0))
        assert brute_force_is_regular(())

    def test_agrees_with_fast_path(self):
        for n in range(6):
            for y in enumerate_feasible(n):
                assert brute_force_is_regular(y) == is_regular(y)[0]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_force_is_regular((3, 0, 0), EnumerationBudget(max_n=2))
        with pytest.raises(BudgetExceeded):
            brute_force_is_regular((4, 0, 0, 0), EnumerationBudget(max_candidates=2))


@given(st.integers(0, 3), st.data())
def test_oracle_and_fast_paths_settle_everything_tiny(n, data):
    ys = list(enumerate_feasible(n))
    y = data.draw(st.sampled_from(ys))
    x, sigma = brute_force_lex_least(y)
    assert compute_prefix_table(x) == y
    assert brute_force_is_regular(y) == is_regular(y)[0]
    assert sigma <= max(1, len(y))
