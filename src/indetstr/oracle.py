"""Brute-force references for small instances.

Three exhaustive searches: all feasible arrays of a length, the least string
realizing an array on a minimum alphabet, and the existence of a regular
witness.  Deliberately unclever; their value is being obviously correct.
Every search is budgeted and aborts with BudgetExceeded rather than guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    FeasibleArray,
    IndetString,
    compute_prefix_table,
    validate_feasible,
)


@dataclass(frozen=True)
class EnumerationBudget:
    max_n: int = 5
    max_sigma: int = 5
    max_candidates: int = 50_000_000


DEFAULT_BUDGET = EnumerationBudget()


class BudgetExceeded(RuntimeError):
    """Search aborted before an answer; distinct from any yes/no result."""


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
    """All nonempty subsets of {1..sigma} as sorted tuples."""
    out: list[tuple[int, ...]] = []
    for k in range(1, sigma + 1):
        out.extend(itertools.combinations(range(1, sigma + 1), k))
    return out


def brute_force_lex_least(
    y: Sequence[int], budget: EnumerationBudget = DEFAULT_BUDGET
) -> tuple[IndetString, int]:
    """Least string realizing y on a minimum alphabet, by full enumeration.

    Alphabet sizes are scanned upward; at each size every string over the
    nonempty subsets of {1..sigma} is checked and the order-minimum match is
    kept.  The first size with any match is the minimum alphabet size: any
    realization with k distinct symbols maps, by an order-preserving dense
    relabeling, to one over {1..k} that is no larger, so nothing outside the
    enumeration can win.
    """
    y = validate_feasible(y)
    n = len(y)
    if n > budget.max_n:
        raise BudgetExceeded(f"n = {n} exceeds budget max_n = {budget.max_n}")
    if n == 0:
        return (), 0
    seen = 0
    for sigma in range(1, budget.max_sigma + 1):
        alphabet = _letters_over(sigma)
        best: IndetString | None = None
        for cand in itertools.product(alphabet, repeat=n):
            seen += 1
            if seen > budget.max_candidates:
                raise BudgetExceeded(
                    f"candidate budget {budget.max_candidates} exhausted"
                )
            if compute_prefix_table(cand) == y:
                if best is None or cand < best:
                    best = cand
        if best is not None:
            return best, sigma
    raise BudgetExceeded(
        f"no realization found within max_sigma = {budget.max_sigma}"
    )


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


def brute_force_is_regular(
    y: Sequence[int], budget: EnumerationBudget = DEFAULT_BUDGET
) -> bool:
    """True iff some regular string has prefix table y, by witness search."""
    y = validate_feasible(y)
    n = len(y)
    if n > budget.max_n:
        raise BudgetExceeded(f"n = {n} exceeds budget max_n = {budget.max_n}")
    seen = 0
    for cand in _canonical_regular(n):
        seen += 1
        if seen > budget.max_candidates:
            raise BudgetExceeded(
                f"candidate budget {budget.max_candidates} exhausted"
            )
        if compute_prefix_table(cand) == y:
            return True
    return False
