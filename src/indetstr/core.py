"""Indeterminate strings: letters, matching, ordering, prefix tables.

An indeterminate string is a sequence of letters, each letter a nonempty set
of symbols; two letters match when their symbol sets intersect.  Matching is
reflexive and symmetric but not transitive, which is what separates these
strings from regular ones (every letter a single symbol).

Symbols are positive integer ranks.  Ranks 1..26 render as 'a'..'z', larger
ranks render as decimal integers.  Letters are kept as strictly increasing
tuples, so the letter order is Python's tuple order: a strict prefix comes
first, otherwise the smaller symbol at the first difference decides, so
{a,b,w,x,y,z} precedes {a,c}.  Strings, as tuples of letters, are ordered
the same way.  Matching is a set intersection test.  _prefix_entries states
once which letters the prefix table takes and which of its three exits
computes it, a choice read off the letters alone, so computing a table and
verifying one take the same exit.

External indexing is 1-based everywhere (reports, diagnostics, exports);
internally plain 0-based sequences are used.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

Symbol = int
Letter = tuple[Symbol, ...]
IndetString = tuple[Letter, ...]
FeasibleArray = tuple[int, ...]


class ParseError(ValueError):
    """Malformed string or array text.  token is the 1-based bad token index."""

    def __init__(self, message: str, token: int):
        super().__init__(message)
        self.token = token


class FeasibleArrayError(ValueError):
    """Array violates a feasibility bound.  index is the 1-based offender."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


# Error messages show a value from outside whole up to _QUOTE_MAX characters,
# and a longer one by its first _QUOTE_MAX characters and its length.
_QUOTE_MAX = 40


def _clip(text: str, show: Callable[[str], str] = str) -> str:
    if len(text) <= _QUOTE_MAX:
        return show(text)
    return f"{show(text[:_QUOTE_MAX])}... ({len(text)} characters)"


def _clip_value(value: object, render: Callable[[object], str] = repr) -> str:
    """_clip(render(value)).  An int of more than _QUOTE_MAX digits, which
    every renderer here writes as str(value), loses all but its first 40 to
    42 digits to a division first, since str() refuses an int longer than
    the int-string limit; the length shown still counts them."""
    if not (isinstance(value, int) and abs(value) >= 10**_QUOTE_MAX):
        return _clip(render(value))
    low = max(int(math.log10(abs(value))) - _QUOTE_MAX, 0)  # digits divided off
    text = "-" * (value < 0) + str(abs(value) // 10**low)
    return f"{text[:_QUOTE_MAX]}... ({len(text) + low} characters)"


def letter(symbols: Iterable[int]) -> Letter:
    """Normalize symbols into a letter: sorted, nonempty, no duplicates."""
    syms = tuple(sorted(symbols))
    if not syms:
        raise ValueError("letter must contain at least one symbol")
    if syms[0] < 1:
        raise ValueError("symbol ranks start at 1")
    for a, b in zip(syms, syms[1:]):
        if a == b:
            raise ValueError(f"duplicate symbol {_clip_value(a, render_symbol)} in letter")
    return syms


def letters_match(a: Letter, b: Letter) -> bool:
    """True when the two symbol sets intersect."""
    return not set(a).isdisjoint(b)


def _map_once(fn: Callable, items: Sequence) -> Iterator:
    """fn over items, called once per distinct item in order of first
    occurrence; equal items get one shared result.  It iterates items
    twice, so a one-shot iterator must become a sequence first."""
    results = dict.fromkeys(items)
    for item in results:
        results[item] = fn(item)
    return map(results.__getitem__, items)


# The Shift-And exit's three sizes, each stated in _prefix_entries and
# _shift_and_entries.  _LONG_CLAIM sits at the measured crossover with the
# scan (see CHANGES.md); _FEW_LIVE anywhere in 16..128 timed the same.
_LONG_CLAIM = 4
_FEW_LIVE = 32
_CACHE_BITS = 64


def _prefix_entries(x: Sequence[Letter]) -> Iterator[int]:
    """The prefix table of x entry by entry: the one source of
    compute_prefix_table and verify_prefix_table, and the one statement of
    their letter contract and dispatch.

    A letter is a hashable tuple of symbols (Letter), as format_string
    requires too; an unhashable letter, such as a list, raises TypeError.
    Each distinct letter becomes one frozenset, shared by all its positions.
    The dispatch reads the letters alone, so both callers take the same
    exit on the same x.  It tests the distinct letters for overlap while
    their sets are built, and chooses one of three exits up front:

    - _z_entries, when these sets are nonempty and pairwise disjoint, as in
      every regular string: two letters match exactly when they share the
      set, and the Z-algorithm answers in O(n).
    - _shift_and_entries, on any other x with long matches: of the at most
      64 evenly spaced positions 2, 2 + step, ... (1-based), more than half
      start a window whose first _LONG_CLAIM + 1 letters match those of x,
      that is, an entry above _LONG_CLAIM (a window cut short by the end of
      x counts as short).  The probe costs at most 64 * (_LONG_CLAIM + 1)
      intersection tests, all made at C level, and one long entry cannot
      tip it.  With N = sum(|x[k]|), Shift-And takes O(n + N) memory and
      O(N) setup.  Each step costs O(n): ints of up to n bits and, when
      shifts drop out, a bin() string of up to n characters.  A step that
      reads a letter first also builds an int of up to n bits for each of
      its symbols not yet cached, or, once the cache is full, one row for
      all of them, O(n + N).  Steps run only while at least n / _FEW_LIVE
      shifts are live, each a test the scan would make at that step, so at
      most max(table[2..n]) + 1 run; the scan finishes the shifts left.  It
      builds the whole table before the first entry.
    - _scan_entries otherwise: a scan of sum(table[2..n]) + n - 1
      intersection tests in O(N) memory.
    """
    union = set()
    overlap = False

    def share(a) -> frozenset:
        nonlocal overlap
        f = frozenset(a)
        if not overlap:
            overlap = not f or not union.isdisjoint(f)
            union.update(f)
        return f

    sets = list(_map_once(share, x))
    if not overlap:
        return _z_entries(sets)
    # misses holds, for each probed i, sets[h].isdisjoint(sets[i + h]) for
    # h = 0.._LONG_CLAIM; zip stops at the last window x does not cut short
    n, step = len(sets), (len(sets) + 62) // 64 or 1
    heads = enumerate(sets[: _LONG_CLAIM + 1])
    misses = zip(*(map(a.isdisjoint, sets[1 + h :: step]) for h, a in heads))
    if 2 * list(map(any, misses)).count(False) > len(range(1, n, step)):
        return _shift_and_entries(sets)
    return _scan_entries(sets)


def _scan_entries(sets: Sequence[frozenset]) -> Iterator[int]:
    """The prefix table of the letters sets by a plain quadratic scan:
    sum(table[2..n]) + n - 1 intersection tests.  One running index k walks
    the suffix from i, testing sets[k - i] against sets[k], so entry i is
    k - i where the match breaks."""
    n = len(sets)
    if n == 0:
        return
    yield n
    for i in range(1, n):
        k = i
        while k < n and not sets[k - i].isdisjoint(sets[k]):
            k += 1
        yield k - i


def _positions_int(ks: Iterable[int], length: int) -> int:
    """The int with bit k set for each k in ks, all below length: one
    bytearray row of '0' and '1', converted once."""
    row = bytearray(b"0") * length
    for k in ks:
        row[k] = 49  # ord("1")
    return int(row[::-1], 2)


def _bit_indices(v: int) -> Iterator[int]:
    """The indices of the set bits of v >= 0, read off bin(v) with
    str.find: O(log v) character work."""
    text = bin(v)
    top = len(text) - 1  # bit i is character top - i
    c = text.find("1", 2)
    while c >= 0:
        yield top - c
        c = text.find("1", c + 1)


def _shift_and_entries(sets: Sequence[frozenset]) -> Iterator[int]:
    """The prefix table of the letters sets by Shift-And (Baeza-Yates and
    Gonnet, A new approach to text searching, CACM 1992), as Holub, Smyth
    and Wang apply it to indeterminate strings (Fast pattern-matching on
    indeterminate strings, J. Discrete Algorithms 2008), with bits that
    stand for positions, not symbols.

    Each symbol's positions are listed first.  A symbol's int, with a bit
    for each position that holds it, is built the first time a step reads
    a letter holding it; symbols stay dict keys, so any hashable rank is
    safe.  The mask of a letter, the positions whose letters match it, is
    the OR of its symbols' ints.  Ints and masks are cached until they
    hold _CACHE_BITS bits per position and per symbol occurrence; after
    that, a letter's uncached symbols share one row for its mask, built
    for the step that reads it.

    live holds the shifts i whose match has survived steps 0..j-1; step j
    keeps those where sets[i + j] matches sets[j], and every shift it drops
    gets entry j.  Once fewer than n / _FEW_LIVE shifts are live, the scan
    finishes each from i + j."""
    n = len(sets)
    if n == 0:
        return
    where = defaultdict(list)  # the positions of each symbol
    for k, a in enumerate(sets):
        for s in a:
            where[s].append(k)
    room = _CACHE_BITS * (n + sum(map(len, where.values())))
    bits = {}
    masks = {}
    table = [0] * n
    table[0] = n
    live = (1 << n) - 2  # the shifts 1..n-1
    j = 0
    while live.bit_count() * _FEW_LIVE >= n:
        a = sets[j]
        m = masks.get(a)
        if m is None:
            m = 0
            rest = []  # positions of the symbols with no cached int
            for s in a:
                try:
                    m |= bits[s]
                except KeyError:
                    ks = where[s]
                    if room > 0:
                        bits[s] = b = _positions_int(ks, ks[-1] + 1)
                        room -= b.bit_length()
                        m |= b
                    else:
                        rest += ks
            if rest:
                m |= _positions_int(rest, max(rest) + 1)
            if room > 0:
                masks[a] = m
                room -= m.bit_length()
        kept = live & (m >> j)
        if kept != live:
            for i in _bit_indices(live ^ kept):
                table[i] = j
        live = kept
        j += 1
    for i in _bit_indices(live):  # the few shifts left match sets[:j]
        k = i + j
        while k < n and not sets[k - i].isdisjoint(sets[k]):
            k += 1
        table[i] = k - i
    yield from table


def _z_entries(sets: Sequence[frozenset]) -> Iterator[int]:
    """The prefix table of the letters sets, where two letters match exactly
    when they are the same object, by the Z-algorithm (Gusfield, Algorithms
    on Strings, Trees, and Sequences, 1997, section 1.4): at most 2n
    comparisons."""
    n = len(sets)
    if n == 0:
        return
    yield n
    table = [n]
    lo = hi = 0  # sets[lo:hi] matches sets[:hi-lo]
    for i in range(1, n):
        k = min(hi - i, table[i - lo]) if i < hi else 0
        while i + k < n and sets[k] is sets[i + k]:
            k += 1
        if i + k > hi:
            lo, hi = i, i + k
        table.append(k)
        yield k


def compute_prefix_table(x: Iterable[Letter]) -> FeasibleArray:
    """Prefix table of x: entry i is the length of the longest prefix of
    x[i..n] that matches a prefix of x.  Entry 1 is always n.

    _prefix_entries states which letters it takes and which exit, at what
    cost, computes the table, chosen from the letters as for
    verify_prefix_table.  verify_prefix_table reports a claim longer than
    this entry as condition (a) and a shorter one as condition (b).
    """
    return tuple(_prefix_entries(tuple(x)))


class TableCheck(NamedTuple):
    """Outcome of the two-condition prefix-table verification.

    A named tuple: its fields are read-only, two checks are equal, and hash
    alike, when their fields are, and the repr names every field, as in
    TableCheck(ok=False, position=4, condition='a').  Its truth is ok.
    """

    ok: bool
    position: int | None = None  # 1-based first failing position
    condition: str | None = None  # "a": claimed match broken; "b": match extends

    def __bool__(self) -> bool:
        return self.ok


def verify_prefix_table(x: Iterable[Letter], y: Sequence[int]) -> TableCheck:
    """Check, position by position, that y is the prefix table of x.

    Condition (a): the claimed match holds, i.e. x[1..y[i]] matches
    x[i..i+y[i]-1] letter by letter.  Condition (b): the match cannot be
    extended, i.e. when i+y[i] <= n the letters x[y[i]+1] and x[i+y[i]] do
    not match.  With pi the prefix table of x, (a) fails exactly when
    y[i] > pi[i] or y[i] < 0, and (b) exactly when 0 <= y[i] < pi[i].  So
    the first failing position is the first i with y[i] != pi[i], and the
    table is computed only up to it, by _prefix_entries, which states the
    letters it takes and chooses the exit from x alone, as for
    compute_prefix_table; y never steers it.  Only the Shift-And exit
    builds the whole table first.
    """
    x = tuple(x)
    n = len(x)
    if len(y) != n:
        raise ValueError(
            f"length mismatch: string has {n} positions, array has {len(y)}"
        )
    for i, (v, p) in enumerate(zip(y, _prefix_entries(x)), start=1):
        if v != p:
            return TableCheck(False, i, "a" if v > p or v < 0 else "b")
    return TableCheck(True)


def validate_feasible(values: Sequence[int]) -> FeasibleArray:
    """Return the array as a validated tuple.

    Feasible means every entry is an int (bools count, as Python's ints),
    y[1] = n and 0 <= y[i] <= n-i+1 for i in 2..n.  The empty array is
    feasible (the empty string).  Raises FeasibleArrayError naming the first
    violating 1-based index.
    """
    y = tuple(values)
    n = len(y)
    if n == 0:
        return y
    if y[0] != n:
        raise FeasibleArrayError(
            f"y[1] = {_clip_value(y[0])} but must equal the length {n}", 1
        )
    # bound is n-i+1, the largest entry allowed at i; y[1] = n passes again
    bound = n
    for v in y:
        if not (isinstance(v, int) and 0 <= v <= bound):
            i = n + 1 - bound
            if not isinstance(v, int):
                raise FeasibleArrayError(f"y[{i}] = {_clip_value(v)} is not an integer", i)
            raise FeasibleArrayError(f"y[{i}] = {_clip_value(v, format)} out of range 0..{bound}", i)
        bound -= 1
    return y


# --- text grammar ---------------------------------------------------------
#
# string  := position (' ' position)* | ''
# position:= symbol | '{' symbol (',' symbol)* '}'
# symbol  := [a-z] | decimal >= 1
# array   := decimal (' ' decimal)* | ''
#
# Singleton letters print bare, multi-symbol letters print braced with the
# symbols ascending.  parse(format(x)) == x for every valid x.
#
# Real texts repeat a few distinct tokens, so parse_string, parse_array and
# format_string convert each distinct token (or letter) once per call, through
# _map_once, in order of first occurrence.  parse_string also parses each
# distinct symbol text, such as 'a' or '27', once per call, through a
# _SymbolMemo filled inside the token parse, so a bad symbol raises within its
# token and is never stored.  The parsers share _parse_tokens, the one place a
# ParseError is built; since the first bad token is the first to be
# converted, it raises at its first position.  An error quotes a token through
# _clip.

_SYMBOL_RE = re.compile(r"[a-z]|[1-9][0-9]*")
_ARRAY_TOKEN_RE = re.compile(r"0|[1-9][0-9]*")


def render_symbol(rank: Symbol) -> str:
    if 1 <= rank <= 26:
        return chr(ord("a") + rank - 1)
    try:
        return str(rank)
    except ValueError:  # more digits than the int-string limit
        raise ValueError(
            f"symbol rank {_clip_value(rank)} is longer than the int-string limit"
        ) from None


def _parse_symbol(text: str) -> Symbol:
    if not _SYMBOL_RE.fullmatch(text):
        raise ValueError(f"bad symbol {_clip(text, repr)}")
    if text.isalpha():
        return ord(text) - ord("a") + 1
    return int(text)


def format_letter(a: Letter) -> str:
    if len(a) == 1:
        return render_symbol(a[0])
    return "{" + ",".join(render_symbol(s) for s in a) + "}"


def format_string(x: Iterable[Letter]) -> str:
    return " ".join(_map_once(format_letter, tuple(x)))


def _parse_tokens(text: str, parse: Callable) -> tuple:
    """parse over the tokens of text.  A ValueError from parse becomes a
    ParseError at the token's first position, with the error's message as
    the reason when it has one."""
    tokens = text.split()

    def checked(tok: str):
        try:
            return parse(tok)
        except ValueError as e:
            k = tokens.index(tok) + 1
            reason = f": {e}" if e.args else ""
            raise ParseError(f"bad token {_clip(tok, repr)} at position {k}{reason}", k) from None

    return tuple(_map_once(checked, tokens))


class _SymbolMemo(dict):
    """Symbol text -> rank, each text parsed on its first lookup.  A bad
    symbol raises there and is never stored."""

    def __missing__(self, text: str) -> Symbol:
        rank = self[text] = _parse_symbol(text)
        return rank


def parse_string(text: str) -> IndetString:
    """Parse text like 'a b a {a,b} c' into a string of letters."""
    rank = _SymbolMemo().__getitem__

    def parse_letter(tok: str) -> Letter:
        braced = tok.startswith("{") and tok.endswith("}") and len(tok) > 2
        return letter(map(rank, tok[1:-1].split(",") if braced else [tok]))

    return _parse_tokens(text, parse_letter)


def format_array(y: Sequence[int]) -> str:
    return " ".join(str(v) for v in y)


def _parse_decimal(tok: str) -> int:
    if not _ARRAY_TOKEN_RE.fullmatch(tok):
        raise ValueError  # no reason: the message names the token alone
    return int(tok)


def parse_array(text: str) -> tuple[int, ...]:
    """Parse space-separated nonnegative decimals; no feasibility check.

    A decimal longer than the interpreter's int-string limit
    (sys.get_int_max_str_digits) is a bad token too."""
    return _parse_tokens(text, _parse_decimal)


def symbols_used(x: Sequence[Letter]) -> frozenset[Symbol]:
    return frozenset(s for a in x for s in a)
