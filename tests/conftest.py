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
