"""The inference walk: golden runs, traces, round-trips, alphabet behavior."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feasible_arrays, regular_strings, regular_tables, s, word_table
from indetstr import (
    FeasibleArrayError,
    PrefixGraph,
    brute_force_lex_least,
    build_prefix_graph,
    compute_prefix_table,
    enumerate_feasible,
    format_array,
    format_string,
    gen_random_feasible,
    infer,
    infer_with_trace,
    is_regular,
    symbols_used,
)
from indetstr import inference as inference_module
from test_graph import _sparse_shape_table, _traced_peak, _unreadable

GOLDEN_TRACE_50210 = [
    "edge (1,3)",
    "new a at 1,3",
    "forbid a at 2,5",
    "forbid a at 5",
    "edge (1,4)",
    "accept a at 4",
    "edge (2,4)",
    "reject a at 2",
    "new b at 2,4",
    "forbid b at 1,5",
    "fill c at 5",
]

# SHA-256, per length n, over every feasible array of that length in
# enumeration order: the array, its trace v1 lines and the inferred string,
# each as one newline-terminated line.
WALK_DIGESTS = {
    0: "75a11da44c802486bc6f65640aa48a730f0f684c5c07a42ba3cd1735eb3fb070",
    1: "4f2c8da52aac60ad375102c9190e6c0c1e1f57772c0aebbbb1d0ef92af2d7eac",
    2: "56419c02fd68cd50b5dc604dcc0c2b45d578b3f87273b662bc0cc15e7b20d9cf",
    3: "b1771b17c16a1718ca6d42267844cd5c449f04258d59eb2e73366ec3d582cc23",
    4: "5ebd760b004e287622f5520c1cc622cec64089e9fdc406e58f78e653a6988766",
    5: "114eea3ce4371a9a05ac060d74ec353ec486bc3b1a08176347920133debdc367",
    6: "b68ce321c996aba5349fc49a8b754041331af2d8d9c094be1ce2c4c7c42ef9f9",
    7: "864527d8841593777f7227024e24ff90487cd750013da1c666b63174d00e82bc",
}


class TestGoldenRuns:
    def test_worked_example(self):
        assert infer((5, 0, 2, 1, 0)) == s("a b a {a,b} c")

    def test_worked_example_trace(self):
        x, trace = infer_with_trace((5, 0, 2, 1, 0))
        assert x == s("a b a {a,b} c")
        assert trace == GOLDEN_TRACE_50210

    def test_equal_letters_are_one_object(self):
        # the walk converts each distinct final letter to a tuple once
        for x in (infer((6, 1, 4, 3, 0, 0)), infer_with_trace((6, 1, 4, 3, 0, 0))[0]):
            assert x[4] == x[5] == (3, 4)
            assert x[4] is x[5]

    def test_no_positive_edges(self):
        assert infer((3, 0, 0)) == s("a b b")
        assert infer((4, 0, 0, 0)) == s("a b b b")

    def test_single_component(self):
        assert infer((4, 3, 2, 1)) == s("a a a a")

    def test_regular_golden(self):
        assert infer((8, 0, 1, 0, 3, 0, 1, 0)) == s("a b a c a b a d")

    def test_trivial(self):
        assert infer(()) == ()
        assert infer((1,)) == s("a")
        assert infer((2, 0)) == s("a b")
        assert infer((2, 1)) == s("a a")

    def test_rejects_infeasible(self):
        with pytest.raises(FeasibleArrayError):
            infer((5, 5, 0, 0, 0))

    def test_skip_appears_when_edge_already_satisfied(self):
        # (1,2) and (1,3) put a at 1,2,3; edge (2,3) then needs no work
        _, trace = infer_with_trace((3, 2, 1))
        assert trace == [
            "edge (1,2)",
            "new a at 1,2",
            "edge (1,3)",
            "accept a at 3",
            "edge (2,3)",
            "skip",
        ]


class TestPinnedOutput:
    def test_exhaustive_digests(self):
        # any change to a string or a trace line shows up here, at the
        # smallest n where it happens
        for n, want in WALK_DIGESTS.items():
            h = hashlib.sha256()
            for y in enumerate_feasible(n):
                x, trace = infer_with_trace(y)
                lines = [format_array(y), *trace, format_string(x), ""]
                h.update("\n".join(lines).encode())
            assert h.hexdigest() == want, f"walk output changed at n = {n}"

    def test_letter_not_pruned(self):
        # the walk never drops a symbol: position 4 of 6 1 4 3 0 0 keeps
        # {a,b,c,d} although the smaller {a,b,c} also realizes the array.
        # Kept as a characterization, so a pruning pass is a visible change.
        y = (6, 1, 4, 3, 0, 0)
        x = infer(y)
        assert x == s("{a,b} {a,c} {b,d} {a,b,c,d} {c,d} {c,d}")
        pruned = x[:3] + ((1, 2, 3),) + x[4:]
        assert compute_prefix_table(pruned) == y
        assert pruned < x


class TestRoundTrip:
    def test_exhaustive_small(self):
        for n in range(8):
            for y in enumerate_feasible(n):
                assert compute_prefix_table(infer(y)) == y

    @given(feasible_arrays(max_n=20))
    def test_property(self, y):
        assert compute_prefix_table(infer(y)) == y

    @settings(deadline=None)
    @given(feasible_arrays(min_n=30, max_n=60))
    def test_property_larger(self, y):
        assert compute_prefix_table(infer(y)) == y

    def test_sparse_memory_grows_linearly(self):
        # infer walks the sparse shape in O(n + |E+|) memory, so doubling
        # n + |E+| about doubles the tracemalloc peak, where an n-by-n table
        # would about quadruple it.  |E+| swings with the draw, so the size
        # is checked too; the first walk, untraced, warms the interpreter
        rng = random.Random("infer:sparse")
        small, large = _sparse_shape_table(2000, rng), _sparse_shape_table(4000, rng)
        infer(small)

        def size_and_peak(y):
            x, peak = _traced_peak(infer, y)
            assert compute_prefix_table(x) == y
            return len(y) + sum(y[1:]), peak

        (size2, peak2), (size4, peak4) = size_and_peak(small), size_and_peak(large)
        assert size4 < 2.5 * size2
        assert peak4 < 2.5 * peak2

    def test_seeded_long_arrays(self):
        rng = random.Random(13)
        for n in (9, 17, 33, 64, 128, 200):
            for _ in range(5):
                y = gen_random_feasible(n, rng)
                assert compute_prefix_table(infer(y)) == y


def _clique_number(y):
    """omega(G-): the size of a largest clique of the negative edges
    build_prefix_graph(y).neg_edges, by Bron-Kerbosch with pivoting."""
    g = build_prefix_graph(y)
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.neg_edges:
        adj[u].add(v)
        adj[v].add(u)
    best = 0

    def expand(size: int, cand: set[int], excl: set[int]) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        pivot = max(cand | excl, key=lambda v: len(adj[v] & cand))
        for v in list(cand - adj[pivot]):
            expand(size + 1, cand & adj[v], excl & adj[v])
            cand.remove(v)
            excl.add(v)

    expand(0, set(adj), set())
    return best


class TestAlphabet:
    def test_symbols_dense(self):
        for n in range(7):
            for y in enumerate_feasible(n):
                syms = symbols_used(infer(y))
                assert syms == frozenset(range(1, len(syms) + 1))

    def test_deterministic(self):
        rng = random.Random(99)
        for _ in range(20):
            y = gen_random_feasible(12, rng)
            assert infer(y) == infer(y)

    def test_regular_arrays_get_regular_strings(self):
        # when a regular witness exists the walk never needs a second symbol
        # at any position
        for n in range(7):
            for y in enumerate_feasible(n):
                if is_regular(y)[0]:
                    x = infer(y)
                    assert all(len(a) == 1 for a in x)

    def test_regular_alphabet_log_bound(self):
        # floor(log2 n) + 1 symbols suffice on regular arrays, and some array
        # needs that many at every n here (n = 4 already needs 3)
        for n in range(2, 8):
            worst = 0
            for y in enumerate_feasible(n):
                if is_regular(y)[0]:
                    worst = max(worst, len(symbols_used(infer(y))))
            assert worst == n.bit_length()

    def test_regular_alphabet_is_clique_number(self):
        # positions of a clique of negative edges need pairwise disjoint
        # letters, so every string realizing y has sigma >= omega; equality
        # makes infer's alphabet minimum on each of these arrays
        assert _clique_number((5, 0, 2, 1, 0)) == 3  # 1, 2 and 5
        for n in range(12):
            for y in regular_tables(n):
                assert len(symbols_used(infer(y))) == _clique_number(y), y

    @settings(deadline=None)
    @given(regular_strings(max_n=200).map(compute_prefix_table))
    def test_regular_alphabet_is_clique_number_property(self, y):
        assert len(symbols_used(infer(y))) == _clique_number(y)

    def test_known_nonminimal_case(self):
        # the walk is greedy per edge, not globally optimal: for 5 2 3 1 1 it
        # opens a fourth symbol where {a,b} {a,c} {b,c} a b realizes the array
        # on three.  Kept as a characterization, not a target.
        x = infer((5, 2, 3, 1, 1))
        assert x == s("{a,b} {a,c} {a,d} {b,c} {b,d}")
        assert compute_prefix_table(x) == (5, 2, 3, 1, 1)
        assert len(symbols_used(x)) == 4
        best = s("{a,b} {a,c} {b,c} a b")
        assert compute_prefix_table(best) == (5, 2, 3, 1, 1)
        assert len(symbols_used(best)) == 3

    def test_reuse_before_fresh_symbol(self):
        # edge (3,5) of 5 0 3 0 0 reuses b, admissible at both ends, rather
        # than opening c; the result is the oracle's lex-least string
        y = (5, 0, 3, 0, 0)
        x, trace = infer_with_trace(y)
        assert x == s("a b {a,b} b b") == brute_force_lex_least(y)[0]
        assert "accept b at 3" in trace and "accept b at 5" in trace
        assert not any(line.startswith("new c") for line in trace)

    def test_first_letter_is_an_alphabet_prefix(self):
        # the completion pass skips vertex 1, whose ban leaves out the zero
        # entries' letters; that rests on letter 1 being a, b, ..., k by then
        rng = random.Random(21)
        arrays = [y for n in range(1, 8) for y in enumerate_feasible(n)]
        arrays += [gen_random_feasible(n, rng) for n in (50, 200, 400)]
        arrays.append(word_table([rng.randrange(4) for _ in range(2000)]))
        for y in arrays:
            first = infer_with_trace(y)[0][0]
            assert first == tuple(range(1, len(first) + 1)), y

    def test_letters_completed_in_letter_order(self):
        # position 5 of 5 2 3 0 0 gains b below its c: {b,c} < {c}
        y = (5, 2, 3, 0, 0)
        x, trace = infer_with_trace(y)
        assert x == s("a {a,b} {a,c} b {b,c}") == brute_force_lex_least(y)[0]
        assert trace[-1] == "fill b at 5"


class TestRegularFastPath:
    """infer answers regular arrays by colouring components; it must give
    the string of the walk that infer_with_trace runs."""

    def test_matches_walk_exhaustive(self):
        for n in range(9):
            for y in enumerate_feasible(n):
                assert infer(y) == infer_with_trace(y)[0], y

    def test_matches_walk_on_regular_arrays(self):
        for n in range(12):
            for y in regular_tables(n):
                assert infer(y) == infer_with_trace(y)[0], y

    @settings(deadline=None)
    @given(st.one_of(
        feasible_arrays(max_n=200),
        regular_strings(max_n=200).map(compute_prefix_table),
    ))
    def test_matches_walk(self, y):
        assert infer(y) == infer_with_trace(y)[0]

    def test_builds_no_edges(self, monkeypatch):
        def no_rows(y):
            raise AssertionError("negative edges were built")

        monkeypatch.setattr(PrefixGraph, "pos_edges", _unreadable("positive"))
        monkeypatch.setattr(PrefixGraph, "neg_edges", _unreadable("negative"))
        monkeypatch.setattr(inference_module, "_negative_rows", no_rows)
        assert infer((8, 0, 1, 0, 3, 0, 1, 0)) == s("a b a c a b a d")
        assert infer((4, 3, 2, 1)) == s("a a a a")
        with pytest.raises(AssertionError, match="edges were built"):
            infer((5, 0, 2, 1, 0))

    @pytest.mark.parametrize("word", ["a^n", "period-7"])
    def test_memory_grows_linearly(self, word):
        # a regular table is answered without the walk, so doubling n from
        # 500 to 1,000 about doubles the tracemalloc peak of infer, though
        # |E+| is Θ(n²) on both words; the positive edges would about
        # quadruple it
        period = "a" if word == "a^n" else "abacbcb"

        def peak(n):
            y = word_table((period * n)[:n])
            assert is_regular(y)[0]
            return _traced_peak(infer, y)[1]

        assert peak(1000) < 2.5 * peak(500)

    def test_scale(self):
        # the walk would visit about 2*10^8 positive edges on each of these
        for word in ("a" * 20000, "aaaab" * 4000):
            x = infer(word_table(word))
            assert x == tuple((ord(c) - 96,) for c in word)
