"""Brute-force references for small instances.

Three exhaustive searches: all feasible arrays of a length, the least string
realizing an array on a minimum alphabet, and the existence of a regular
witness.  Deliberately unclever; their value is being obviously correct.
Each search is sized from n before it starts and refuses with BudgetExceeded,
rather than guessing, when it would try more than MAX_CANDIDATES strings.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Sequence

from .core import (
    FeasibleArray,
    IndetString,
    compute_prefix_table,
    validate_feasible,
)

MAX_CANDIDATES = 50_000_000


class BudgetExceeded(RuntimeError):
    """Search aborted before an answer; distinct from any yes/no result."""


def _refuse_oversized(n: int, running_sizes: Iterable[int]) -> None:
    """Raise BudgetExceeded when a search's running candidate count passes
    MAX_CANDIDATES.  The counts are consumed lazily, so a large n costs only
    the first count that is too big."""
    if any(size > MAX_CANDIDATES for size in running_sizes):
        raise BudgetExceeded(f"n = {n} needs over {MAX_CANDIDATES} candidates")


def enumerate_feasible(n: int) -> Iterator[FeasibleArray]:
    """Every feasible array of length n exactly once, lexicographic.

    There are n! of them: y[1] is pinned to n and entry i ranges over
    0..n-i+1 independently.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    tails = [range(0, n - i + 2) for i in range(2, n + 1)]
    for tail in itertools.product(*tails):
        yield (n, *tail)


def _letters_over(sigma: int) -> list[tuple[int, ...]]:
    """All nonempty subsets of {1..sigma} as sorted tuples, in letter order."""
    symbols = range(1, sigma + 1)
    return sorted(c for k in symbols for c in itertools.combinations(symbols, k))


def brute_force_lex_least(y: Sequence[int]) -> tuple[IndetString, int]:
    """Least string realizing y on a minimum alphabet, by enumeration.

    Alphabet sizes are scanned upward from 1 to n.  At each size the strings
    over the nonempty subsets of {1..sigma} are tried in ascending order, so
    the first match is the least one, and the first size with any match is
    the minimum alphabet size: any realization with k distinct symbols maps,
    by an order-preserving dense relabeling, to one over {1..k} that is no
    larger, so nothing outside the enumeration can win.  Refuses when the
    sizes 1..n together hold more than MAX_CANDIDATES strings (n >= 6).
    """
    y = validate_feasible(y)
    n = len(y)
    if n == 0:
        return (), 0
    _refuse_oversized(
        n, itertools.accumulate((2**sigma - 1) ** n for sigma in range(1, n + 1))
    )
    for sigma in range(1, n + 1):
        for cand in itertools.product(_letters_over(sigma), repeat=n):
            if compute_prefix_table(cand) == y:
                return cand, sigma
    raise BudgetExceeded(f"no realization over at most {n} symbols")


def _canonical_regular(n: int) -> Iterator[IndetString]:
    """Regular candidates in first-use canonical form.

    Position 1 carries symbol 1 and each later position either reuses a seen
    symbol or introduces the next fresh one.  Bijective relabeling preserves
    prefix tables, so every regular string is represented.
    """
    word = [0] * n

    def rec(pos: int, used: int) -> Iterator[IndetString]:
        if pos == n:
            yield tuple((s,) for s in word)
            return
        for s in range(1, used + 2):
            word[pos] = s
            yield from rec(pos + 1, max(used, s))

    yield from rec(0, 0)


def brute_force_is_regular(y: Sequence[int]) -> bool:
    """True iff some regular string has prefix table y, by witness search.

    Position k of a canonical candidate has at most k choices, so there are
    at most n! candidates; refuses when n! > MAX_CANDIDATES (n >= 12).
    """
    y = validate_feasible(y)
    n = len(y)
    _refuse_oversized(n, itertools.accumulate(range(1, n + 1), operator.mul))
    return any(compute_prefix_table(cand) == y for cand in _canonical_regular(n))
