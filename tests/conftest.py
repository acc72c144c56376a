"""Shared hypothesis strategies and helpers."""

from __future__ import annotations

import sys

import pytest
from hypothesis import strategies as st

from indetstr import parse_string


@st.composite
def feasible_arrays(draw, min_n: int = 0, max_n: int = 12):
    """Feasible arrays drawn entrywise over the full legal ranges."""
    n = draw(st.integers(min_n, max_n))
    if n == 0:
        return ()
    return (n, *(draw(st.integers(0, n - i + 1)) for i in range(2, n + 1)))


@st.composite
def indet_strings(draw, min_n: int = 0, max_n: int = 8, max_sigma: int = 4):
    n = draw(st.integers(min_n, max_n))
    letters = st.sets(st.integers(1, max_sigma), min_size=1).map(
        lambda s: tuple(sorted(s))
    )
    return tuple(draw(letters) for _ in range(n))


@st.composite
def regular_strings(draw, min_n: int = 0, max_n: int = 10, max_sigma: int = 4):
    n = draw(st.integers(min_n, max_n))
    return tuple((draw(st.integers(1, max_sigma)),) for _ in range(n))


@st.composite
def disjoint_letter_strings(draw, min_n: int = 0, max_n: int = 12, max_sigma: int = 6):
    """Strings whose distinct letters are pairwise disjoint, such as
    {a,b} c {a,b}: blocks of a random partition of 1..max_sigma.  Letters
    then match exactly when they are equal, though not every letter is a
    single symbol."""
    symbols = draw(st.permutations(range(1, max_sigma + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, max_sigma - 1))))
    blocks = [
        tuple(sorted(symbols[lo:hi]))
        for lo, hi in zip([0, *cuts], [*cuts, max_sigma])
    ]
    n = draw(st.integers(min_n, max_n))
    return tuple(draw(st.sampled_from(blocks)) for _ in range(n))


def word_table(word) -> tuple[int, ...]:
    """Prefix table of a plain word (a sequence of symbols compared with ==)
    by the Z-algorithm, in linear time, for inputs too long for the
    quadratic compute_prefix_table."""
    n = len(word)
    table = [n] if n else []
    lo = hi = 0  # word[lo:hi] == word[:hi-lo]
    for i in range(1, n):
        k = min(hi - i, table[i - lo]) if i < hi else 0
        while i + k < n and word[k] == word[i + k]:
            k += 1
        if i + k > hi:
            lo, hi = i, i + k
        table.append(k)
    return tuple(table)


def regular_tables(n: int):
    """The prefix tables of regular strings of length n, each exactly once.

    A restricted-growth walk that repeats a symbol only where it extends a
    border: x[j] = x[j-k] for some k with x[k:j] == x[:j-k], else x[j] is
    fresh.  Each table has one such word, whose repeats all lie inside a
    box of the table, so the walk visits a few thousand words at n = 11
    instead of Bell(11) = 678,570.  Checked against all restricted-growth
    words (oracle._canonical_regular) in tests/test_oracle.py.
    """

    def rec(word: list[int], used: int):
        j = len(word)
        if j == n:
            yield word_table(word)
            return
        borders = {word[j - k] for k in range(1, j + 1) if word[k:j] == word[: j - k]}
        for sym in sorted(borders):
            yield from rec(word + [sym], used)
        yield from rec(word + [used + 1], used + 1)

    yield from rec([], 0)


def s(text: str):
    """Shorthand: parse a string literal in the CLI grammar."""
    return parse_string(text)


@pytest.fixture
def int_digit_limit():
    """Pin the interpreter's int-string limit at its default, 4300 digits,
    for one test; skip where the interpreter has no such limit."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(saved)
