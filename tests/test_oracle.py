"""The brute-force references themselves need checking on tiny instances."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import regular_tables, s, word_table
from indetstr import (
    BudgetExceeded,
    brute_force_is_regular,
    brute_force_lex_least,
    compute_prefix_table,
    enumerate_feasible,
    infer,
    is_regular,
    validate_feasible,
)
from indetstr import oracle


def scan_every_candidate(y):
    """The earlier lex-least search, kept as the first-match search's oracle:
    at each alphabet size, every candidate over the letters in size order is
    checked and the least match is kept."""
    n = len(y)
    if n == 0:
        return (), 0
    for sigma in range(1, n + 1):
        letters = [
            c for k in range(1, sigma + 1)
            for c in itertools.combinations(range(1, sigma + 1), k)
        ]
        best = None
        for cand in itertools.product(letters, repeat=n):
            if compute_prefix_table(cand) == y and (best is None or cand < best):
                best = cand
        if best is not None:
            return best, sigma
    raise AssertionError(f"no realization of {y} over at most {n} symbols")


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

    def test_agrees_with_scan_every_candidate(self):
        # up to length 4 the first match in size order is also the least;
        # these length-5 arrays are three where it is not
        ys = [y for n in range(5) for y in enumerate_feasible(n)]
        ys += [(5, 0, 2, 1, 1), (5, 0, 3, 1, 0), (5, 2, 3, 0, 0)]
        for y in ys:
            assert brute_force_lex_least(y) == scan_every_candidate(y)

    def test_infer_diverges_only_on_52311_at_n5(self):
        # the one length-5 array where the walk is not exact, see test_inference
        diverging = {
            y for y in enumerate_feasible(5)
            if infer(y) != brute_force_lex_least(y)[0]
        }
        assert diverging == {(5, 2, 3, 1, 1)}

    def test_budget_max_n(self):
        with pytest.raises(BudgetExceeded):
            brute_force_lex_least((6, 0, 0, 0, 0, 0))

    def test_budget_max_candidates(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_CANDIDATES", 10)
        with pytest.raises(BudgetExceeded):
            brute_force_lex_least((4, 0, 0, 0))

    def test_budget_max_sigma(self, monkeypatch):
        # the search stops at sigma = n and reports failure, never falls through
        monkeypatch.setattr(oracle, "compute_prefix_table", lambda x: None)
        with pytest.raises(BudgetExceeded):
            brute_force_lex_least((4, 0, 0, 0))


class TestBruteForceIsRegular:
    def test_golden(self):
        assert brute_force_is_regular((8, 0, 1, 0, 3, 0, 1, 0))
        assert not brute_force_is_regular((5, 0, 2, 1, 0))
        assert brute_force_is_regular((4, 0, 0, 0))
        assert brute_force_is_regular(())

    def test_agrees_with_fast_path(self):
        for n in range(6):
            for y in enumerate_feasible(n):
                assert brute_force_is_regular(y) == is_regular(y)[0]

    def test_budget(self, monkeypatch):
        with pytest.raises(BudgetExceeded):
            brute_force_is_regular((12,) + (0,) * 11)
        monkeypatch.setattr(oracle, "MAX_CANDIDATES", 2)
        with pytest.raises(BudgetExceeded):
            brute_force_is_regular((4, 0, 0, 0))


class TestRegularTables:
    """The enumeration of regular arrays that the fast paths are checked on."""

    def test_word_table_matches_scan(self):
        for n in range(9):
            for w in oracle._canonical_regular(n):
                assert word_table(w) == compute_prefix_table(w)

    def test_matches_every_restricted_growth_word(self):
        # restricted-growth words cover every regular string up to renaming,
        # so their distinct tables are exactly the regular arrays
        for n in range(10):
            tables = list(regular_tables(n))
            assert len(tables) == len(set(tables))
            assert set(tables) == {word_table(w) for w in oracle._canonical_regular(n)}

    def test_counts(self):
        # n = 10 and 11 counted once over all Bell(n) restricted-growth words
        counts = [1, 1, 2, 4, 9, 20, 47, 110, 263, 630, 1525, 3701]
        assert [sum(1 for _ in regular_tables(n)) for n in range(12)] == counts


@given(st.integers(0, 3), st.data())
def test_oracle_and_fast_paths_settle_everything_tiny(n, data):
    ys = list(enumerate_feasible(n))
    y = data.draw(st.sampled_from(ys))
    x, sigma = brute_force_lex_least(y)
    assert compute_prefix_table(x) == y
    assert brute_force_is_regular(y) == is_regular(y)[0]
    assert sigma <= max(1, len(y))
