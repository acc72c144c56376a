"""Letters, matching, ordering, prefix tables, feasibility, text grammar."""

from __future__ import annotations

import collections
import itertools
import random
import tracemalloc
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    disjoint_letter_strings,
    feasible_arrays,
    indet_strings,
    regular_strings,
    s,
    word_table,
)
from indetstr import (
    FeasibleArrayError,
    ParseError,
    TableCheck,
    build_prefix_graph,
    compute_prefix_table,
    export_graph,
    format_array,
    format_string,
    infer,
    is_regular,
    letter,
    letters_match,
    parse_array,
    parse_string,
    validate_feasible,
    verify_prefix_table,
)
from indetstr import core
from indetstr.bench import gen_random_feasible
from indetstr.core import _ARRAY_TOKEN_RE, _parse_symbol, format_letter

# Published example pairs used as golden values throughout.
GOLDEN_TABLES = [
    ("a c a g a c a t", (8, 0, 1, 0, 3, 0, 1, 0)),
    ("{a,c} {g,t} {a,g} {a,c,g} g c {a,t} a", (8, 0, 4, 2, 0, 3, 1, 1)),
    ("{a,b} {a,c} c {a,b} b c {a,c} b", (8, 2, 0, 1, 4, 0, 1, 1)),
    ("{a,b} {a,c} {a,d} {c,e} a {b,e} c d", (8, 2, 4, 0, 1, 3, 0, 0)),
]


def merge_scan_match(a, b):
    """Reference matching: a merge scan over the two ascending tuples."""
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return True
        if a[i] < b[j]:
            i += 1
        else:
            j += 1
    return False


def two_condition_verify(x, y):
    """Reference verification: conditions (a) and (b) checked directly at
    each position, with merge-scan matching and no prefix table."""
    n = len(x)
    if len(y) != n:
        raise ValueError("length mismatch")
    for i in range(1, n + 1):
        v = y[i - 1]
        if v < 0 or i + v - 1 > n:
            return TableCheck(False, i, "a")
        for h in range(1, v + 1):
            if not merge_scan_match(x[h - 1], x[i + h - 2]):
                return TableCheck(False, i, "a")
        if i + v <= n and merge_scan_match(x[v], x[i + v - 1]):
            return TableCheck(False, i, "b")
    return TableCheck(True)


def scan_table(x):
    """Reference prefix table: a plain two-index quadratic scan over
    frozenset copies of the letters, whatever they are, as the oracle of
    both paths of compute_prefix_table."""
    sets = [frozenset(a) for a in x]
    n = len(sets)
    table = [n] if n else []
    for i in range(1, n):
        j = 0
        while i + j < n and not sets[j].isdisjoint(sets[i + j]):
            j += 1
        table.append(j)
    return tuple(table)


def changed_claims(table):
    """The table itself, then each entry in turn one above and one below."""
    yield table
    for i, v in enumerate(table):
        for w in (v - 1, v + 1):
            yield table[:i] + (w,) + table[i + 1 :]


# Reference copies of the text functions as they were before each kept a
# per-call memo: every token is parsed, and every letter rendered, afresh.


def reference_format_string(x):
    return " ".join(format_letter(a) for a in x)


def reference_parse_string(text):
    out = []
    for k, tok in enumerate(text.split(), start=1):
        if tok.startswith("{") and tok.endswith("}") and len(tok) > 2:
            pieces = tok[1:-1].split(",")
        else:
            pieces = [tok]
        try:
            out.append(letter(_parse_symbol(p) for p in pieces))
        except ValueError as e:
            raise ParseError(f"bad token {tok!r} at position {k}: {e}", k) from None
    return tuple(out)


def reference_parse_array(text):
    values = []
    for k, tok in enumerate(text.split(), start=1):
        if not _ARRAY_TOKEN_RE.fullmatch(tok):
            raise ParseError(f"bad token {tok!r} at position {k}", k)
        values.append(int(tok))
    return tuple(values)


def outcome(fn, text):
    """The result of fn(text), or its error as (type, message, token)."""
    try:
        return fn(text)
    except ParseError as e:
        return type(e), str(e), e.token


def record_paths(monkeypatch):
    """Wrap the three prefix-table exits so that each call appends its name
    to the list returned."""
    taken = []
    for name in ("_scan_entries", "_z_entries", "_shift_and_entries"):
        entries = getattr(core, name)
        monkeypatch.setattr(
            core, name, lambda sets, name=name, entries=entries: taken.append(name) or entries(sets)
        )
    return taken


def long_match_strings(lengths=range(200, 401, 50)):
    """infer's outputs on uniform random arrays of the given lengths, each
    with its table: long matches, overlapping letters and symbol ranks
    above 26, beyond the hypothesis draws."""
    rng = random.Random(20)
    for n in lengths:
        y = gen_random_feasible(n, rng)
        yield infer(y), y


def shift_and_table(x):
    """compute_prefix_table(x) through the Shift-And exit alone."""
    return tuple(core._shift_and_entries(list(core._map_once(frozenset, x))))


def subset_letters(sigma):
    """Every letter over the symbols 1..sigma."""
    return [
        c
        for k in range(1, sigma + 1)
        for c in itertools.combinations(range(1, sigma + 1), k)
    ]


class TestLetterBasics:
    def test_letter_normalizes(self):
        assert letter([2, 1]) == (1, 2)

    def test_letter_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            letter([])
        with pytest.raises(ValueError):
            letter([1, 1])
        with pytest.raises(ValueError):
            letter([0])

    def test_match_examples(self):
        assert letters_match((1,), (1, 2))
        assert not letters_match((1,), (2,))
        assert letters_match((1,), (1,))

    def test_match_not_transitive(self):
        # a ~ {a,b} and {a,b} ~ b, yet a and b do not match
        assert letters_match((1,), (1, 2))
        assert letters_match((1, 2), (2,))
        assert not letters_match((1,), (2,))

    @given(indet_strings(min_n=2, max_n=2))
    def test_match_symmetric(self, x):
        a, b = x
        assert letters_match(a, b) == letters_match(b, a)

    def test_match_agrees_with_merge_scan_exhaustive(self):
        for a, b in itertools.product(subset_letters(4), repeat=2):
            assert letters_match(a, b) == merge_scan_match(a, b), (a, b)


def declared_less(a, b):
    """The order as the model states it, element by element: a strict prefix
    comes first, otherwise the smaller element at the first difference."""
    for s, t in zip(a, b):
        if s != t:
            return s < t
    return len(a) < len(b)


class TestLetterOrder:
    def test_prefix_comes_first(self):
        assert (1,) < (1, 2)

    def test_first_difference_beats_length(self):
        # {a,b,w,x,y,z} precedes {a,c}
        assert s("{a,b,w,x,y,z}")[0] < s("{a,c}")[0]
        # and enriching a letter with a smaller symbol makes it smaller
        assert (1, 2, 3) < (1, 3)

    def test_equal(self):
        assert (1, 2) == (1, 2)
        assert not (1, 2) < (1, 2)

    def test_total_order_laws_exhaustive(self):
        # every nonempty subset of a 3-symbol alphabet
        letters = subset_letters(3)
        for a, b in itertools.product(letters, repeat=2):
            # tuple order is the declared order, and it is trichotomous
            assert (a < b) == declared_less(a, b)
            assert (a < b) + (a == b) + (b < a) == 1
        for a, b, c in itertools.product(letters, repeat=3):
            if a <= b and b <= c:
                assert a <= c


class TestStringOrder:
    def test_prefix_string_first(self):
        assert s("{a,c} {g,t} a") < s("{a,c} {g,t} {a,g}")

    def test_first_letter_difference(self):
        assert s("a {g,t} {a,c} {a,c,g}") < s("a {g,t} {a,t} a")

    def test_difference_at_position_one(self):
        assert s("a {a,c,g} {a,c,g} {a,t}") < s("{a,c} g g {a,t}")

    @given(indet_strings(), indet_strings())
    def test_antisymmetric(self, x1, x2):
        # the positionwise lift of the letter order, strict prefixes first
        assert (x1 < x2) == declared_less(x1, x2)
        assert (x1 < x2) + (x1 == x2) + (x2 < x1) == 1


class TestComputePrefixTable:
    @pytest.mark.parametrize("text,table", GOLDEN_TABLES)
    def test_golden(self, text, table):
        assert compute_prefix_table(parse_string(text)) == table

    def test_trivial(self):
        assert compute_prefix_table(()) == ()
        assert compute_prefix_table(s("a")) == (1,)
        assert compute_prefix_table(s("a a a a")) == (4, 3, 2, 1)

    @given(indet_strings())
    def test_result_is_feasible(self, x):
        assert validate_feasible(compute_prefix_table(x)) is not None

    @given(regular_strings())
    def test_agrees_with_z_function_on_regular(self, x):
        word = [a[0] for a in x]
        assert compute_prefix_table(x) == word_table(word)

    def test_one_frozenset_per_distinct_letter(self, monkeypatch):
        x = s("a b a {a,b} c a b {a,b} a")
        table = compute_prefix_table(x)
        calls = []

        def counting(a):
            calls.append(a)
            return frozenset(a)

        monkeypatch.setattr("indetstr.core.frozenset", counting, raising=False)
        assert compute_prefix_table(x) == table
        assert calls == [(1,), (2,), (1, 2), (3,)]

    @given(st.one_of(indet_strings(max_n=12), disjoint_letter_strings()))
    def test_agrees_with_scan(self, x):
        assert compute_prefix_table(x) == scan_table(x)

    def test_agrees_with_scan_on_long_matches(self):
        top = 0
        for x, y in long_match_strings():
            top = max(top, *map(max, x))
            assert compute_prefix_table(x) == scan_table(x) == y
            assert verify_prefix_table(x, y)
        assert top > 26

    @pytest.mark.parametrize("x, path, table", [
        (s("a b a a b"), "_z_entries", (5, 0, 1, 2, 0)),
        (s("{a,b} c {a,b} {a,b}"), "_z_entries", (4, 0, 1, 1)),
        ((), "_z_entries", ()),
        (s("a {a,b} b"), "_scan_entries", (3, 2, 0)),
        (s("{a,b} {b,c}"), "_scan_entries", (2, 1)),
        # an empty letter matches nothing, not even itself
        (((), ()), "_scan_entries", (2, 0)),
    ], ids=["regular", "disjoint", "empty-string", "overlap", "chain", "empty-letter"])
    def test_path_taken(self, monkeypatch, x, path, table):
        taken = record_paths(monkeypatch)
        assert compute_prefix_table(x) == table
        assert taken == [path]

    def test_dispatch_exhaustive(self, monkeypatch):
        # all 19,608 strings over the seven letters of {a, b, c} with n <= 5,
        # through both paths: the table against the scan oracle, then each
        # entry one above (condition (a) there) and each positive entry one
        # below (condition (b) there).  The string alone chooses the exit:
        # pt and every verify of one string take the same one
        taken = record_paths(monkeypatch)
        for n in range(6):
            for x in itertools.product(subset_letters(3), repeat=n):
                start = len(taken)
                table = scan_table(x)
                assert compute_prefix_table(x) == table, x
                assert verify_prefix_table(x, table), x
                for i, v in enumerate(table):
                    up = table[:i] + (v + 1,) + table[i + 1 :]
                    assert verify_prefix_table(x, up) == TableCheck(False, i + 1, "a"), (x, up)
                    if v:
                        down = table[:i] + (v - 1,) + table[i + 1 :]
                        assert verify_prefix_table(x, down) == TableCheck(False, i + 1, "b"), (x, down)
                assert len(set(taken[start:])) == 1, x
        assert set(taken) == {"_scan_entries", "_z_entries"}

    def test_list_letters_raise(self):
        # a letter is a hashable tuple of symbols
        x = [[1, 3], [2], [1]]
        with pytest.raises(TypeError):
            compute_prefix_table(x)
        with pytest.raises(TypeError):
            verify_prefix_table(x, (3, 0, 1))
        with pytest.raises(TypeError):
            format_string(x)

    def test_one_shot_iterable(self):
        # each string function reads an iterator of letters as its tuple
        x = s("a b a {a,b} c")
        y = (5, 0, 2, 1, 0)
        assert compute_prefix_table(iter(x)) == compute_prefix_table(x) == y
        assert format_string(iter(x)) == format_string(x) == "a b a {a,b} c"
        assert verify_prefix_table(iter(x), y) == TableCheck(True)
        assert verify_prefix_table(iter(x), (5, 0, 2, 2, 0)) == TableCheck(False, 4, "a")
        assert infer(iter(y)) == x


class TestShiftAnd:
    # The Shift-And exit against the scan oracle, called directly: the
    # dispatch sends a string there only when more than half of its probed
    # positions start a match of more than 4 letters, which no string with
    # n <= 9 has, so the exhaustive dispatch tests cannot reach it.

    def test_exhaustive(self):
        # all 137,257 strings over the seven letters of {a, b, c}, n <= 6
        for n in range(7):
            for x in itertools.product(subset_letters(3), repeat=n):
                assert shift_and_table(x) == scan_table(x), x

    @given(
        st.one_of(indet_strings(max_n=40, max_sigma=3), indet_strings(max_n=12)),
        st.sampled_from([1, 2, 4, core._FEW_LIVE]),
        st.sampled_from([0, 1, core._CACHE_BITS]),
    )
    def test_agrees_with_scan(self, x, few_live, cache_bits):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_FEW_LIVE", few_live)
            mp.setattr(core, "_CACHE_BITS", cache_bits)
            assert shift_and_table(x) == scan_table(x)

    @pytest.mark.parametrize("few_live, cache_bits", [(1, 64), (2, 0), (4, 1)])
    def test_scan_tail_and_full_cache(self, monkeypatch, few_live, cache_bits):
        # the scan finishes the live shifts from the start (few_live = 1)
        # or part way, and the cache of ints is full from the start
        # (cache_bits = 0) or part way; every string over the seven letters
        # of {a, b, c} with n <= 5, then huge ranks and empty letters
        monkeypatch.setattr(core, "_FEW_LIVE", few_live)
        monkeypatch.setattr(core, "_CACHE_BITS", cache_bits)
        for n in range(6):
            for x in itertools.product(subset_letters(3), repeat=n):
                assert shift_and_table(x) == scan_table(x), x
            for x in itertools.product([(), (1,), (2,), (1, 2)], repeat=n):
                assert shift_and_table(x) == scan_table(x), x
        big = 10**30
        x = s(f"{{a,{big}}} {big} {{{big},{big + 1}}} {big + 1} {{a,{big + 1}}} {big}")
        assert shift_and_table(x) == (6, 4, 1, 0, 2, 1)

    def test_huge_ranks(self):
        # symbols are dict keys, never bit positions
        big = 10**30
        x = s(f"{{a,{big}}} {big} {{{big},{big + 1}}} {big + 1} {{a,{big + 1}}} {big}")
        assert shift_and_table(x) == scan_table(x) == (6, 4, 1, 0, 2, 1)

    def test_empty_letters(self):
        # an empty letter matches nothing, not even itself
        for n in range(7):
            for x in itertools.product([(), (1,), (2,), (1, 2)], repeat=n):
                assert shift_and_table(x) == scan_table(x), x

    def test_exits_on_long_matches(self, monkeypatch):
        # the probe reads the string, so verify and pt both take Shift-And
        taken = record_paths(monkeypatch)
        for x, y in long_match_strings():
            assert verify_prefix_table(x, y)
            assert taken.pop() == "_shift_and_entries"
            assert compute_prefix_table(x) == y
            assert taken.pop() == "_shift_and_entries"
        # at most half the entries above 4: the scan
        x = s("{a,b} a b a {a,b} c a b {a,b} a b c a a b c")
        y = scan_table(x)
        assert 2 * sum(v > 4 for v in y[1:]) <= len(y) - 1
        assert verify_prefix_table(x, y)
        assert taken == ["_scan_entries"]

    def test_one_long_claim_keeps_the_scan(self, monkeypatch):
        # the chain {1,2} {2,3} ... {n,n+1}: entry 2 is n - 1 and every
        # later entry 0, so the probed entries average above 4, but only
        # position 2 starts a long match and the majority keeps the scan,
        # where Shift-And would take n steps for a table the scan checks in
        # 2n tests
        taken = record_paths(monkeypatch)
        n = 5000
        x = tuple((k, k + 1) for k in range(1, n + 1))
        y = (n, n - 1) + (0,) * (n - 2)
        assert sum(y[1 :: (n + 62) // 64]) > 4 * 64
        assert verify_prefix_table(x, y)
        assert verify_prefix_table(x, (*y[:-1], 1)) == TableCheck(False, n, "a")
        assert taken == ["_scan_entries", "_scan_entries"]

    @pytest.mark.parametrize("kind", ["symbol-per-position", "chain", "pt"])
    def test_memory_grows_linearly(self, monkeypatch, kind):
        # through Shift-And: verify on {a, k} for k = 2..n+1, with n + 1
        # symbols and every entry maximal; the exit alone on the chain
        # {k, k+1}, n distinct letters whose dispatch keeps the scan; and
        # pt on {a,b} {b,c} {a,b} ..., every entry maximal.  Doubling n
        # about doubles the tracemalloc peak, where an int for every symbol
        # or a mask for every letter would about quadruple it
        taken = record_paths(monkeypatch)

        def peak(n):
            if kind == "symbol-per-position":
                x = tuple((1, k) for k in range(2, n + 2))
                run = partial(verify_prefix_table, x, tuple(range(n, 0, -1)))
                want = TableCheck(True)
            elif kind == "chain":
                x = tuple((k, k + 1) for k in range(1, n + 1))
                run, want = partial(shift_and_table, x), (n, n - 1) + (0,) * (n - 2)
            else:
                x = ((1, 2), (2, 3)) * (n // 2)
                run, want = partial(compute_prefix_table, x), tuple(range(n, 0, -1))
            tracemalloc.start()
            try:
                assert run() == want
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4000) < 2.4 * peak(2000)
        assert set(taken) == {"_shift_and_entries"}

    def test_one_off_claims_on_long_matches(self, monkeypatch):
        # each claim one above and each positive claim one below, at 20
        # evenly spaced positions, through the Shift-And exit, which pt
        # takes on the same string
        taken = record_paths(monkeypatch)
        for x, y in long_match_strings(range(200, 401, 100)):
            start = len(taken)
            assert compute_prefix_table(x) == y
            n = len(y)
            for i in range(1, n, n // 20):
                for v in (y[i] + 1, y[i] - 1)[: 1 + (y[i] > 0)]:
                    claim = y[:i] + (v,) + y[i + 1 :]
                    check = verify_prefix_table(x, claim)
                    assert check == two_condition_verify(x, claim), (n, i, v)
                    assert check == TableCheck(False, i + 1, "a" if v > y[i] else "b")
            assert len(set(taken[start:])) == 1, n
        assert set(taken) == {"_shift_and_entries"}

    def test_probe_never_raises_where_a_claim_fails_first(self, monkeypatch):
        # the exit is chosen from the string, so a claim that is not an int
        # is never read before the first failing position, whatever the exit
        taken = record_paths(monkeypatch)
        x, y = next(long_match_strings())
        for bad in (None, "7", 2.5):
            claim = (*y[:10], y[10] + 1, *y[11:-5], bad, *y[-4:])
            for seq in (tuple, list, collections.deque):
                assert verify_prefix_table(x, seq(claim)) == TableCheck(False, 11, "a")
        short = s("a {a,b} b")
        assert verify_prefix_table(short, (3, 1, None)) == TableCheck(False, 2, "b")
        assert verify_prefix_table(short, (3, 1, "0")) == TableCheck(False, 2, "b")
        assert set(taken) == {"_shift_and_entries", "_scan_entries"}


class TestVerifyPrefixTable:
    def test_pass_golden(self):
        for text, table in GOLDEN_TABLES:
            assert verify_prefix_table(parse_string(text), table).ok

    def test_pass_indeterminate(self):
        assert verify_prefix_table(s("a b a {a,b} c"), (5, 0, 2, 1, 0)).ok

    def test_extension_detected(self):
        # a matches a, so pi[2] must be 1, not 0: the match extends (condition b)
        check = verify_prefix_table(s("a a"), (2, 0))
        assert (check.ok, check.position, check.condition) == (False, 2, "b")

    def test_broken_claim_detected(self):
        check = verify_prefix_table(s("a b"), (2, 1))
        assert (check.ok, check.position, check.condition) == (False, 2, "a")

    def test_out_of_range_entry_fails_a(self):
        assert verify_prefix_table(s("a b"), (2, 5)).condition == "a"

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            verify_prefix_table(s("a a"), (2, 1, 0))

    @given(indet_strings())
    def test_roundtrip(self, x):
        assert verify_prefix_table(x, compute_prefix_table(x)).ok

    @given(indet_strings(min_n=1), st.data())
    def test_equivalent_to_recompute(self, x, data):
        y = list(compute_prefix_table(x))
        i = data.draw(st.integers(0, len(y) - 1))
        y[i] = data.draw(st.integers(0, len(y)))
        assert verify_prefix_table(x, y).ok == (tuple(y) == compute_prefix_table(x))

    def test_agrees_with_two_condition_oracle_exhaustive(self):
        # every string over at most 3 symbols with n <= 4, with its own table
        # and with every single-entry change to -1..n+1
        for n in range(5):
            for x in itertools.product(subset_letters(3), repeat=n):
                table = compute_prefix_table(x)
                claims = [table]
                for i in range(n):
                    for v in range(-1, n + 2):
                        claims.append(table[:i] + (v,) + table[i + 1 :])
                for y in claims:
                    assert verify_prefix_table(x, y) == two_condition_verify(x, y), (x, y)

    def test_agrees_with_oracles_exhaustive_n6(self):
        # every string over at most 3 symbols with n <= 6, 137,257 of them:
        # the table against the scan.  The 1,459 whose distinct letters are
        # disjoint take the Z-algorithm path; their verdicts are checked on
        # the table and on each entry one off.  The scan path's verdicts are
        # checked up to n = 5 on one entry one off, the position and the
        # sign rotating, which keeps the test near 2 s
        k = 0
        for n in range(7):
            for x in itertools.product(subset_letters(3), repeat=n):
                table = scan_table(x)
                assert compute_prefix_table(x) == table, x
                if len(set().union(*x)) == sum(map(len, set(x))):
                    claims = changed_claims(table)
                elif n <= 5:
                    k += 1
                    i = k % n
                    claims = [table[:i] + (table[i] + (-1) ** k,) + table[i + 1 :]]
                else:
                    claims = ()
                for y in claims:
                    assert verify_prefix_table(x, y) == two_condition_verify(x, y), (x, y)

    @given(disjoint_letter_strings(min_n=1), st.data())
    def test_agrees_with_two_condition_oracle_on_disjoint_letters(self, x, data):
        y = list(scan_table(x))
        changes = st.tuples(st.integers(0, len(x) - 1), st.integers(-1, len(x) + 1))
        for i, v in data.draw(st.lists(changes, max_size=4)):
            y[i] = v
        assert verify_prefix_table(x, y) == two_condition_verify(x, y)

    @given(indet_strings(min_n=1, max_n=12), st.data())
    def test_agrees_with_two_condition_oracle_multi_entry(self, x, data):
        n = len(x)
        y = list(compute_prefix_table(x))
        changes = st.tuples(st.integers(0, n - 1), st.integers(-1, n + 1))
        for i, v in data.draw(st.lists(changes, max_size=4)):
            y[i] = v
        assert verify_prefix_table(x, y) == two_condition_verify(x, y)

    def test_stops_at_first_failure(self):
        # a^20000 takes the Z-algorithm path, about 2*10^4 comparisons for
        # the whole table; the claim already fails at position 2
        n = 20000
        check = verify_prefix_table(((1,),) * n, (n,) + (0,) * (n - 1))
        assert (check.ok, check.position, check.condition) == (False, 2, "b")


class TestLongRegularTables:
    # tables whose quadratic scan would take 2*10^8 (a^20000) and 4*10^7
    # ((aaaab)^4000) intersection tests; the Z-algorithm path takes O(n)
    @pytest.mark.parametrize("word", ["a" * 20000, "aaaab" * 4000], ids=["a", "aaaab"])
    def test_round_trip(self, word):
        y = word_table(word)
        assert compute_prefix_table(tuple((ord(c) - 96,) for c in word)) == y
        assert verify_prefix_table(infer(y), y).ok


class TestValidateFeasible:
    def test_accepts(self):
        assert validate_feasible((5, 0, 2, 1, 0)) == (5, 0, 2, 1, 0)
        assert validate_feasible(()) == ()
        assert validate_feasible((1,)) == (1,)
        assert validate_feasible((3, 0, 0)) == (3, 0, 0)

    def test_first_entry_must_be_length(self):
        with pytest.raises(FeasibleArrayError) as exc:
            validate_feasible((4, 0, 2, 1, 0))
        assert exc.value.index == 1

    def test_entry_above_bound(self):
        with pytest.raises(FeasibleArrayError) as exc:
            validate_feasible((5, 0, 2, 3, 0))
        assert exc.value.index == 4
        assert "y[4] = 3" in str(exc.value)

    def test_negative_entry(self):
        with pytest.raises(FeasibleArrayError) as exc:
            validate_feasible((3, -1, 0))
        assert exc.value.index == 2

    def test_non_integer_entry(self):
        # an in-range float is not an entry; the first one is named
        for y, i, text in (
            ((3, 0.5, 0), 2, "y[2] = 0.5 is not an integer"),
            ((3, 0, 1.0), 3, "y[3] = 1.0 is not an integer"),
            ((3.0, 0, 0), 1, "y[1] = 3.0 is not an integer"),
            ((3, "1", 0.5), 2, "y[2] = '1' is not an integer"),
        ):
            with pytest.raises(FeasibleArrayError) as exc:
                validate_feasible(y)
            assert (exc.value.index, str(exc.value)) == (i, text)
        # bools are ints, and stay accepted
        assert validate_feasible((3, True, False)) == (3, True, False)

    @pytest.mark.parametrize("chars", [40, 41, 600])
    def test_long_value_clipped(self, chars):
        # a value shown in up to 40 characters is shown whole, as before; a
        # longer one by its first 40 characters and its length
        def shown(text):
            return text if chars <= 40 else f"{text[:40]}... ({chars} characters)"

        big = int("9" * chars)
        word = "9" * (chars - 2)  # its repr has chars characters
        for y, text in (
            ((big, 0), f"y[1] = {shown(str(big))} but must equal the length 2"),
            ((2, big), f"y[2] = {shown(str(big))} out of range 0..1"),
            ((2, word), f"y[2] = {shown(repr(word))} is not an integer"),
        ):
            with pytest.raises(FeasibleArrayError) as exc:
                validate_feasible(y)
            assert str(exc.value) == text
        with pytest.raises(ValueError) as exc:
            letter((big, big))
        assert str(exc.value) == f"duplicate symbol {shown(str(big))} in letter"

    @pytest.mark.parametrize("y, i, text", [
        ((10**5000,), 1, f"y[1] = 1{'0' * 39}... (5001 characters) but must equal the length 1"),
        ((2, 10**5000), 2, f"y[2] = 1{'0' * 39}... (5001 characters) out of range 0..1"),
        ((3, 0, -10**5000), 3, f"y[3] = -1{'0' * 38}... (5002 characters) out of range 0..1"),
        ((2, 10**5000 - 1), 2, f"y[2] = {'9' * 40}... (5000 characters) out of range 0..1"),
    ], ids=["length", "range", "negative", "nines"])
    def test_int_past_the_string_limit(self, int_digit_limit, y, i, text):
        # str() refuses these ints, so they are clipped without rendering them
        with pytest.raises(FeasibleArrayError) as exc:
            validate_feasible(y)
        assert (exc.value.index, str(exc.value)) == (i, text)
        assert len(text) < 300

    def test_letter_int_past_the_string_limit(self, int_digit_limit):
        with pytest.raises(ValueError) as exc:
            letter((10**5000, 10**5000))
        assert str(exc.value) == (
            f"duplicate symbol 1{'0' * 39}... (5001 characters) in letter"
        )

    def test_clipped_ints_match_their_text(self):
        # the arithmetic clip of an int of over 40 digits shows what clipping
        # its str() shows, at every digit count and across powers of ten
        for k in (39, 40, 41, 42, 100, 1000, 4299):
            for v in (10**k - 1, 10**k, 10**k + 1, -10**k, -(10**k - 1)):
                text = str(v)
                if len(text) > 40:
                    text = f"{text[:40]}... ({len(text)} characters)"
                with pytest.raises(FeasibleArrayError) as exc:
                    validate_feasible((2, v))
                assert str(exc.value) == f"y[2] = {text} out of range 0..1"

    def test_non_integer_entry_through_the_api(self):
        # each validates through build_prefix_graph before any arithmetic
        with pytest.raises(FeasibleArrayError):
            is_regular((3, 0.5, 0))
        with pytest.raises(FeasibleArrayError):
            infer((3, 1.0, 0))
        with pytest.raises(FeasibleArrayError):
            export_graph(build_prefix_graph((3, 1.0, 0)), "json")


class TestGrammar:
    def test_parse_examples(self):
        assert parse_string("a b a {a,b} c") == ((1,), (2,), (1,), (1, 2), (3,))
        assert parse_string("") == ()
        assert parse_string("{a,27}") == ((1, 27),)

    def test_high_ranks_render_decimal(self):
        assert format_string(((1, 27),)) == "{a,27}"
        assert format_string(((26,), (27,))) == "z 27"

    def test_rank_past_the_string_limit(self, int_digit_limit):
        # letter accepts the rank, which str() refuses to render
        with pytest.raises(ValueError) as exc:
            format_string(((1,), (10**5000,)))
        text = f"symbol rank 1{'0' * 39}... (5001 characters) is longer than the int-string limit"
        assert str(exc.value) == text
        assert len(text) < 300

    def test_braced_singleton_parses_canonical_format(self):
        assert format_string(parse_string("{a}")) == "a"

    def test_brace_order_normalized_duplicates_rejected(self):
        assert parse_string("{b,a}") == ((1, 2),)
        with pytest.raises(ParseError):
            parse_string("{a,a}")

    def test_bad_token_position(self):
        with pytest.raises(ParseError) as exc:
            parse_string("a ? b")
        assert exc.value.token == 2
        with pytest.raises(ParseError):
            parse_string("a {a,b")
        with pytest.raises(ParseError):
            parse_string("0")
        with pytest.raises(ParseError):
            parse_string("A")

    def test_array_roundtrip_and_errors(self):
        assert parse_array("5 0 2 1 0") == (5, 0, 2, 1, 0)
        assert parse_array("") == ()
        assert format_array((5, 0, 2, 1, 0)) == "5 0 2 1 0"
        with pytest.raises(ParseError) as exc:
            parse_array("5 x 2")
        assert exc.value.token == 2

    # max_sigma=30 reaches the decimal ranks above 26; the reference copies
    # are the oracles of the per-call memo
    @given(indet_strings(max_n=40, max_sigma=30))
    def test_string_roundtrip(self, x):
        text = format_string(x)
        assert text == reference_format_string(x)
        assert parse_string(text) == reference_parse_string(text) == x

    @given(feasible_arrays())
    def test_array_roundtrip(self, y):
        text = format_array(y)
        assert parse_array(text) == reference_parse_array(text) == y

    def test_error_messages(self):
        for fn, text, message in [
            (parse_string, "a A", "bad token 'A' at position 2: bad symbol 'A'"),
            (
                parse_string,
                "a {b,a,b}",
                "bad token '{b,a,b}' at position 2: duplicate symbol b in letter",
            ),
            (parse_array, "5 x 2", "bad token 'x' at position 2"),
        ]:
            with pytest.raises(ParseError) as exc:
                fn(text)
            assert str(exc.value) == message

    @pytest.mark.parametrize("n", [40, 41, 5000])
    def test_long_token_clipped(self, n):
        # a token of up to 40 characters is quoted whole, as the reference
        # copies quote it; a longer one by its first 40 and its length
        bad = "?" * n
        q = repr(bad) if n <= 40 else f"{'?' * 40!r}... ({n} characters)"
        for fn, text, message in [
            (parse_array, f"1 {bad}", f"bad token {q} at position 2"),
            (parse_string, f"a {bad}", f"bad token {q} at position 2: bad symbol {q}"),
        ]:
            with pytest.raises(ParseError) as exc:
                fn(text)
            assert str(exc.value) == message
            assert exc.value.token == 2
        with pytest.raises(ParseError) as exc:
            parse_string(f"a {{a,{bad}}}")
        assert str(exc.value).endswith(f": bad symbol {q}")
        assert len(str(exc.value)) < 200

    def test_overlong_decimal(self, int_digit_limit):
        tok = "1" * (int_digit_limit + 1)
        for fn in (parse_array, parse_string):
            with pytest.raises(ParseError) as exc:
                fn(f"1 {tok} x")
            assert exc.value.token == 2
            assert str(exc.value).startswith(
                f"bad token {tok[:40]!r}... ({len(tok)} characters) at position 2: "
            )
            assert "limit" in str(exc.value)
        assert parse_array("1" * int_digit_limit) == (int("1" * int_digit_limit),)


# Tokens good and bad, each drawn many times over, for the memo oracles.
STRING_TOKENS = [
    "a", "b", "z", "27", "{a,b}", "{b,a}", "{a}", "{a,27}", "{27,a}",
    "{a,a}", "{a,}", "{}", "0", "A", "01", "?", "{a,b", "a}", "{,}",
    "{a,A}", "{27,01}", "{b,27,a}", "{27,28}",
]
ARRAY_TOKENS = ["0", "1", "5", "10", "01", "00", "-1", "+1", "x", "1.0", "a"]


class TestGrammarOracle:
    """parse_string, parse_array and format_string keep a per-call memo;
    they must match the reference copies in results and errors."""

    def test_strings_exhaustive(self):
        letters = subset_letters(3)
        for n in range(7):
            for word in itertools.product(letters, repeat=n):
                text = format_string(word)
                assert text == reference_format_string(word)
                assert parse_string(text) == reference_parse_string(text) == word

    def test_arrays_exhaustive(self):
        for n in range(1, 8):
            for tail in itertools.product(*(range(n - i + 2) for i in range(2, n + 1))):
                text = format_array((n, *tail))
                assert parse_array(text) == reference_parse_array(text)

    def test_each_symbol_parsed_once_per_call(self, monkeypatch):
        calls = []
        parse = core._parse_symbol
        monkeypatch.setattr(core, "_parse_symbol", lambda text: calls.append(text) or parse(text))
        x = parse_string("{a,27} {27,b} a {b,a} 27")
        assert x == ((1, 27), (2, 27), (1,), (1, 2), (27,))
        assert calls == ["a", "27", "b"]
        assert parse_string("27 a") == ((27,), (1,))
        assert calls == ["a", "27", "b", "27", "a"]

    @given(st.lists(st.sampled_from(STRING_TOKENS), max_size=30))
    def test_string_tokens(self, tokens):
        text = " ".join(tokens)
        assert outcome(parse_string, text) == outcome(reference_parse_string, text)

    @given(st.lists(st.sampled_from(ARRAY_TOKENS), max_size=30))
    def test_array_tokens(self, tokens):
        text = " ".join(tokens)
        assert outcome(parse_array, text) == outcome(reference_parse_array, text)

    @pytest.mark.parametrize("bad", ["{a,a}", "{a,}", "{}", "0", "A", "01"])
    def test_bad_letter_after_good_and_repeated(self, bad):
        text = f"a b a {bad} a {bad} b"
        got = outcome(parse_string, text)
        assert got == outcome(reference_parse_string, text)
        assert got[0] is ParseError and got[2] == 4

    @pytest.mark.parametrize("bad", ["01", "x", "-1", "00"])
    def test_bad_array_token_repeated(self, bad):
        text = f"5 0 {bad} 0 {bad}"
        got = outcome(parse_array, text)
        assert got == outcome(reference_parse_array, text)
        assert got[0] is ParseError and got[2] == 3

    def test_bad_token_after_many_repeats(self):
        for fn, ref, good, bad in [
            (parse_string, reference_parse_string, "{a,b}", "{b,b}"),
            (parse_array, reference_parse_array, "7", "07"),
        ]:
            text = " ".join([good] * 1000 + [bad, good, bad])
            got = outcome(fn, text)
            assert got == outcome(ref, text)
            assert got[2] == 1001
