"""Prefix graphs, regularity, component and edge-label constructions."""

from __future__ import annotations

import itertools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feasible_arrays, regular_strings, regular_tables, s, word_table
from indetstr import (
    FeasibleArrayError,
    PrefixGraph,
    cli,
    build_prefix_graph,
    compute_prefix_table,
    edge_label_string,
    enumerate_feasible,
    export_graph,
    infer,
    infer_with_trace,
    is_regular,
    isolated_positive_vertices,
    positive_components,
    regular_string_from_components,
    verify_prefix_table,
)
from indetstr import graph as graph_module
from indetstr.bench import gen_random_feasible
from indetstr.graph import (
    _negative_levels,
    _positive_levels,
    _range_union,
    _regular_labels,
)
from indetstr.inference import _negative_rows


def _levels_by_definition(y):
    """Oracle: the negative edges (1+y[i], i+y[i]) over the i with
    i+y[i] <= n, grouped by u ascending, each group's v ascending."""
    n = len(y)
    edges = sorted((1 + y[i - 1], i + y[i - 1]) for i in range(1, n + 1) if i + y[i - 1] <= n)
    return [(u, [v for _, v in group]) for u, group in itertools.groupby(edges, lambda e: e[0])]


def _full_rows(y):
    """Oracle: every vertex's negative neighbours, ascending, vertex 1
    included, with each edge (1+y[i], i+y[i]) filed under both ends."""
    rows: list[list[int]] = [[] for _ in range(len(y) + 1)]
    for u, vs in _levels_by_definition(y):
        for v in vs:
            rows[u].append(v)
            rows[v].append(u)
    return [sorted(row) for row in rows]


def _check_negative_rows(y):
    """The walk's rows, _negative_rows(y), against their contract, from the
    definition and not from neg_edges: row 1 is the zero entries, no other
    row holds 1, and every row, with 1 put in front at a zero entry, is the
    full ascending row; every row is a tuple."""
    rows, full, n = _negative_rows(y), _full_rows(y), len(y)
    assert len(rows) == n + 1 and rows[0] == (), y
    if n:
        zeros = [i for i in range(2, n + 1) if not y[i - 1]]
        assert rows[1] == tuple(zeros) == tuple(full[1]), y
    for p in range(2, n + 1):
        assert 1 not in rows[p], (y, p)
        assert (1,)[: not y[p - 1]] + rows[p] == tuple(full[p]), (y, p)


def _sparse_shape_table(n, rng):
    """The prefix table of the benchmark's sparse shape: a random string
    over 4 symbols, one letter in ten a two-symbol set."""
    x = tuple(
        tuple(rng.sample((1, 2, 3, 4), 2)) if rng.random() < 0.1 else (rng.randint(1, 4),)
        for _ in range(n)
    )
    return compute_prefix_table(x)


def _traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of that call, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _check_forbid_lines(y):
    """Check that each forbid line of y's trace, and only those, lists the
    full row of a position named by the accept or new line it follows, in
    order; return how many lines name a zero entry."""
    full = _full_rows(y)
    expected: list[str] = []
    zero_entries = 0
    for line in infer_with_trace(y)[1]:
        if line.startswith("forbid "):
            assert expected and line == expected.pop(0), (y, line)
            continue
        assert not expected, (y, line)
        if line.startswith(("accept ", "new ")):
            _, sym, _, at = line.split()
            for p in map(int, at.split(",")):
                if full[p]:
                    expected.append(f"forbid {sym} at {','.join(map(str, full[p]))}")
                    zero_entries += p > 1 and not y[p - 1]
    assert not expected, y
    return zero_entries


class TestBuildPrefixGraph:
    def test_golden_small(self):
        g = build_prefix_graph((5, 0, 2, 1, 0))
        assert g.n == 5
        assert g.pos_edges == ((1, 3), (1, 4), (2, 4))
        assert g.neg_edges == ((1, 2), (1, 5), (2, 5), (3, 5))

    def test_golden_larger(self):
        g = build_prefix_graph((8, 2, 0, 1, 4, 0, 1, 1))
        assert g.pos_edges == (
            (1, 2),
            (1, 4),
            (1, 5),
            (1, 7),
            (1, 8),
            (2, 3),
            (2, 6),
            (3, 7),
            (4, 8),
        )
        assert g.neg_edges == ((1, 3), (1, 6), (2, 5), (2, 8), (3, 4))

    def test_all_zero_tail(self):
        g = build_prefix_graph((4, 0, 0, 0))
        assert g.pos_edges == ()
        assert g.neg_edges == ((1, 2), (1, 3), (1, 4))

    def test_all_maximal(self):
        # y = (n, n-1, ..., 1) wires every pair positively and nothing negatively
        g = build_prefix_graph((4, 3, 2, 1))
        assert g.pos_edges == tuple(
            (u, v) for u in range(1, 5) for v in range(u + 1, 5)
        )
        assert g.neg_edges == ()

    def test_empty_and_singleton(self):
        assert build_prefix_graph(()).n == 0
        g = build_prefix_graph((1,))
        assert (g.pos_edges, g.neg_edges) == ((), ())

    def test_neg_adjacency_mirrors_edges(self):
        # full rows (2,5) (1,5) (5,) () (1,2,3); vertex 1 is kept apart, so
        # the zero entries 2 and 5 store theirs without it
        assert _negative_rows((5, 0, 2, 1, 0)) == [(), (2, 5), (5,), (5,), (), (2, 3)]
        _check_negative_rows((5, 0, 2, 1, 0))
        # a zero entry with no other neighbour has the shared empty row
        assert _negative_rows((4, 0, 0, 0)) == [(), (2, 3, 4), (), (), ()]
        _check_negative_rows((4, 0, 0, 0))

    def test_edge_counts_exhaustive(self):
        for n in range(7):
            for y in enumerate_feasible(n):
                g = build_prefix_graph(y)
                assert len(g.pos_edges) == sum(y[1:])
                assert len(g.neg_edges) == sum(
                    1 for i in range(2, n + 1) if i + y[i - 1] <= n
                )
                assert set(g.pos_edges).isdisjoint(g.neg_edges)
                if n >= 1:
                    assert len(g.pos_edges) + len(g.neg_edges) >= n - 1

    def test_rejects_infeasible(self):
        # an entry past its range would give edges to vertices beyond n
        for y in ((3, 5, 0), (3, -1, 0)):
            with pytest.raises(FeasibleArrayError) as exc:
                build_prefix_graph(y)
            assert exc.value.index == 2

    def test_neg_adjacency_sorted_exhaustive(self):
        # the rows are read off the negative levels and never sorted; each
        # must be the sorted row of the definition, vertex 1 kept apart
        for n in range(8):
            for y in enumerate_feasible(n):
                _check_negative_rows(y)

    def test_neg_adjacency_at_workload_shapes(self):
        # vertex 1 of the first array has over 2,000 neighbours, and each
        # array has rows that mix smaller and larger neighbours
        for y in _workload_shape_arrays():
            _check_negative_rows(y)
        # every entry i >= 2 but the last gives vertex n the smaller
        # neighbour n+1-i, so its row grows one neighbour at a time
        n = 300
        y = (n, *range(n - 2, -1, -1))
        assert len(_negative_rows(y)[n]) == n - 2
        _check_negative_rows(y)
        # on the random string most zero entries have no neighbour but 1
        y = _workload_shape_arrays()[0]
        rows = _negative_rows(y)
        zeros = [p for p in range(2, len(y) + 1) if not y[p - 1]]
        assert 2 * sum(rows[p] == () for p in zeros) > len(zeros)

    def test_negative_rows_memory_grows_linearly(self):
        # the walk's rows on the sparse shape list each of the at most n-1
        # negative edges at most twice, so doubling n from 2,000 to 4,000
        # about doubles the tracemalloc peak, where an n-by-n table would
        # about quadruple it
        rng = random.Random("negative_rows:sparse")

        def peak(n):
            return _traced_peak(_negative_rows, _sparse_shape_table(n, rng))[1]

        assert peak(4000) < 2.5 * peak(2000)

    def test_negative_levels_by_definition(self):
        for n in range(9):
            for y in enumerate_feasible(n):
                assert _negative_levels(y) == _levels_by_definition(y), y
        for y in _workload_shape_arrays():
            assert _negative_levels(y) == _levels_by_definition(y)

    def test_trace_forbid_rows_by_definition(self):
        # a forbid line lists the full neighbourhood, 1 included, of a
        # position that the accept or new line before it names; the walk
        # puts the 1 back at the zero entries
        checked = 0
        for n in range(8):
            for y in enumerate_feasible(n):
                checked += _check_forbid_lines(y)
        assert checked > 1000
        assert _check_forbid_lines(_workload_shape_arrays()[0]) > 100

    @given(feasible_arrays(min_n=1))
    def test_edge_properties(self, y):
        n = y[0]
        g = build_prefix_graph(y)
        assert len(g.pos_edges) == sum(y[1:])
        assert set(g.pos_edges).isdisjoint(g.neg_edges)
        assert len(g.pos_edges) + len(g.neg_edges) >= n - 1
        for u, v in itertools.chain(g.pos_edges, g.neg_edges):
            assert 1 <= u < v <= n


class TestRegularity:
    def test_golden(self):
        assert is_regular((8, 0, 1, 0, 3, 0, 1, 0))[0]
        assert is_regular((4, 0, 0, 0))[0]
        assert is_regular((4, 3, 2, 1))[0]
        assert not is_regular((5, 0, 2, 1, 0))[0]

    def test_component_labels(self):
        ok, labels = is_regular((8, 0, 1, 0, 3, 0, 1, 0))
        assert ok
        # positions sharing a positive path share the smallest member's label;
        # index 0 of the labeling is unused
        assert labels == (0, 1, 2, 1, 4, 1, 2, 1, 8)

    def test_labels_when_not_regular(self):
        ok, labels = is_regular((5, 0, 2, 1, 0))
        assert not ok
        assert labels == (0, 1, 1, 1, 1, 5)

    def test_rejects_infeasible(self):
        with pytest.raises(FeasibleArrayError):
            is_regular((5, 0, 2, 3, 0))

    def test_trivial(self):
        assert is_regular(()) == (True, (0,))
        assert is_regular((1,)) == (True, (0, 1))

    def test_exhaustive_regular_tables_verify(self):
        # for every regular array up to n = 6 the witness string checks out
        # and is made of singletons only
        for n in range(7):
            for y in enumerate_feasible(n):
                ok, labels = is_regular(y)
                g = build_prefix_graph(y)
                assert labels == _components_from_edges(g)
                if ok:
                    x = regular_string_from_components(g, labels)
                    assert all(len(a) == 1 for a in x)
                    assert compute_prefix_table(x) == y
                else:
                    with pytest.raises(ValueError):
                        regular_string_from_components(g, labels)

    def test_components_match_edge_oracle_exhaustive(self):
        # regular arrays included, which positive_components labels without
        # the range union
        for n in range(9):
            for y in enumerate_feasible(n):
                g = build_prefix_graph(y)
                expected = _components_from_edges(g)
                assert _range_union(y) == expected, y
                assert positive_components(g) == expected, y
                ok, labels = is_regular(y)
                assert labels == expected, y
                assert ok == all(expected[u] != expected[v] for u, v in g.neg_edges)
                _check_witness(g, expected, _first_inside_by_scan(g, expected))

    @settings(deadline=None)
    @given(st.one_of(
        feasible_arrays(max_n=200),
        # prefix tables of regular strings: regular, with long boxes
        regular_strings(max_n=200).map(compute_prefix_table),
    ))
    def test_components_match_edge_oracle(self, y):
        g = build_prefix_graph(y)
        expected = _components_from_edges(g)
        assert _range_union(y) == expected
        assert positive_components(g) == expected
        inside = _first_inside_by_scan(g, expected)
        assert is_regular(y) == (inside is None, expected)
        _check_witness(g, expected, inside)

    def test_range_union_stops_at_one_class(self):
        # on the table of a^n the top level already holds one class, so the
        # union stops there, after at most 2n unions; the levels below
        # would make about 20n more at n = 4,096
        n = 4096
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            code = frame.f_code
            if event == "call" and code.co_name == "union" and code.co_filename == graph_module.__file__:
                calls += 1

        old = sys.getprofile()
        sys.setprofile(count)
        try:
            labels = _range_union(tuple(range(n, 0, -1)))
        finally:
            sys.setprofile(old)
        assert labels == (0,) + (1,) * n
        assert calls <= 2 * n

    @pytest.mark.parametrize("shape", ["sparse", "uniform"])
    def test_memory_grows_linearithmically(self, shape):
        # is_regular on a non-regular array: the range union keeps a list
        # of n+1 block starts per level, so doubling n from 2,000 to 4,000
        # about doubles the tracemalloc peak, times 12/11 on uniform, whose
        # longest entry adds a level.  The level where the union stops moves
        # the ratio on uniform; an edge list, Θ(n²) there, would give about 4
        rng = random.Random(f"is_regular:{shape}")

        def peak(n):
            if shape == "sparse":
                y = _sparse_shape_table(n, rng)
            else:
                y = gen_random_feasible(n, rng)
            (ok, _), peak = _traced_peak(is_regular, y)
            assert not ok
            return peak

        assert peak(4000) < 3 * peak(2000)

    @pytest.mark.parametrize("word", ["a^n", "period-7"])
    def test_regular_memory_grows_linearly(self, word):
        # is_regular on a regular table takes the O(n) verdict's labels, so
        # doubling n from 2,000 to 4,000 about doubles the tracemalloc peak,
        # where an edge list, Θ(n²) on both words, would about quadruple it;
        # the first call, untraced, warms the interpreter
        period = "a" if word == "a^n" else "abacbcb"
        small, large = (word_table((period * n)[:n]) for n in (2000, 4000))
        is_regular(small)

        def peak(y):
            (ok, _), peak = _traced_peak(is_regular, y)
            assert ok
            return peak

        assert peak(large) < 2.5 * peak(small)


class TestRegularVerdict:
    """_regular_labels and is_regular against a scan of every negative edge
    over the range-union labels, which TestRegularity checks with the edge
    oracle."""

    def test_golden(self):
        assert _regular_labels((8, 0, 1, 0, 3, 0, 1, 0)) == (0, 1, 2, 1, 4, 1, 2, 1, 8)
        assert _regular_labels((5, 0, 2, 1, 0)) is None
        assert _regular_labels(()) == (0,)
        assert _regular_labels((1,)) == (0, 1)

    def test_matches_is_regular_exhaustive(self):
        for n in range(9):
            for y in enumerate_feasible(n):
                _check_verdict(y)

    def test_labels_are_components_on_regular_arrays(self):
        for n in range(12):
            for y in regular_tables(n):
                # positive_components would compare the verdict with itself
                assert _regular_labels(y) == _range_union(y), y

    @settings(deadline=None)
    @given(st.one_of(
        feasible_arrays(max_n=200),
        regular_strings(max_n=200).map(compute_prefix_table),
    ))
    def test_matches_is_regular(self, y):
        _check_verdict(y)

    def test_stops_at_first_mismatch(self):
        # y[2] = 2 puts positions 1..3 in one component, against y[3] = 0,
        # so the verdict has no need to read far into the array
        read = set()

        class Recording(tuple):
            def __getitem__(self, i):
                read.add(i)
                return tuple.__getitem__(self, i)

        n = 1000
        assert _regular_labels(Recording((n, 2, 0) + (0,) * (n - 3))) is None
        assert max(read) < 5


def _first_inside_by_scan(g, labels):
    """Oracle: the first edge of the sorted negative edge list whose ends
    share a label, or None."""
    for u, v in g.neg_edges:
        if labels[u] == labels[v]:
            return u, v
    return None


def _check_verdict(y):
    """The verdict and is_regular call y regular exactly when no negative
    edge has both ends in one range-union component."""
    labels = _range_union(y)
    ok = _first_inside_by_scan(build_prefix_graph(y), labels) is None
    assert _regular_labels(y) == (labels if ok else None), y
    assert is_regular(y) == (ok, labels), y


def _check_witness(g, labels, inside):
    """regular_string_from_components names the edge inside, or returns a
    one-symbol witness when inside is None."""
    if inside is None:
        assert all(len(a) == 1 for a in regular_string_from_components(g, labels))
        return
    with pytest.raises(ValueError) as exc:
        regular_string_from_components(g, labels)
    u, v = inside
    assert str(exc.value) == (
        f"array is not regular: positions {u} and {v} must mismatch "
        "but lie in one forced-match component"
    )


def _components_from_edges(g):
    """Oracle: union-find over the positive edge list, the smallest member of
    each set as its root; labels indexed by vertex, index 0 holding 0."""
    parent = list(range(g.n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.pos_edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return tuple(find(v) for v in range(g.n + 1))


def _unreadable(sign):
    def fail(g):
        raise AssertionError(f"{sign} edges were built")

    return property(fail)


class TestEdgeFreePaths:
    """Regularity reads no edge list, and is_regular scans no negative edge;
    the walk's adjacency reads the array, not neg_edges; the export reads
    both signs off the array level by level (_positive_levels,
    _negative_levels) and edge_label_string the positive levels, and
    neither reads pos_edges or neg_edges."""

    @pytest.fixture
    def no_pos_edges(self, monkeypatch):
        monkeypatch.setattr(PrefixGraph, "pos_edges", _unreadable("positive"))

    @pytest.fixture
    def no_neg_edges(self, monkeypatch):
        monkeypatch.setattr(PrefixGraph, "neg_edges", _unreadable("negative"))

    @pytest.mark.usefixtures("no_pos_edges", "no_neg_edges")
    def test_regularity(self):
        y = (8, 0, 1, 0, 3, 0, 1, 0)
        ok, labels = is_regular(y)
        g = build_prefix_graph(y)
        assert ok and positive_components(g) == labels
        assert regular_string_from_components(g, labels) == s("a b a c a b a d")
        # the witness names the least edge inside a component; for 4 1 2 0
        # that is (1, 4), where a scan in the order of the array gives (2, 3)
        for y, (u, v) in (((5, 0, 2, 1, 0), (1, 2)), ((4, 1, 2, 0), (1, 4))):
            ok, labels = is_regular(y)
            g = build_prefix_graph(y)
            assert not ok and positive_components(g) == labels
            with pytest.raises(ValueError) as exc:
                regular_string_from_components(g, labels)
            assert str(exc.value) == (
                f"array is not regular: positions {u} and {v} must mismatch "
                "but lie in one forced-match component"
            )

    def test_is_regular_scans_no_negative_edge(self, monkeypatch):
        # the graph's verdict decides; is_regular holds no test of its own
        def no_scan(y):
            raise AssertionError("negative edges were scanned")

        monkeypatch.setattr(graph_module, "_negative_levels", no_scan)
        assert is_regular((8, 0, 1, 0, 3, 0, 1, 0)) == (
            True, (0, 1, 2, 1, 4, 1, 2, 1, 8)
        )
        assert is_regular((5, 0, 2, 1, 0)) == (False, (0, 1, 1, 1, 1, 5))

    @pytest.mark.usefixtures("no_neg_edges")
    def test_walk_reads_no_negative_edge_list(self):
        assert _negative_rows((5, 0, 2, 1, 0)) == [(), (2, 5), (5,), (5,), (), (2, 3)]
        _check_negative_rows((5, 0, 2, 1, 0))
        assert infer((5, 0, 2, 1, 0)) == s("a b a {a,b} c")

    @pytest.mark.usefixtures("no_pos_edges", "no_neg_edges")
    def test_negative_export(self):
        g = build_prefix_graph((5, 0, 2, 1, 0))
        assert export_graph(g, fmt="json", sign="negative") == (
            '{"n":5,"neg":[[1,2],[1,5],[2,5],[3,5]]}'
        )
        assert export_graph(g, fmt="dot", sign="negative").endswith(
            "  5;\n"
            "  1 -- 2 [style=dashed];\n"
            "  1 -- 5 [style=dashed];\n"
            "  2 -- 5 [style=dashed];\n"
            "  3 -- 5 [style=dashed];\n"
            "}\n"
        )

    @pytest.mark.usefixtures("no_pos_edges", "no_neg_edges")
    def test_positive_export(self):
        g = build_prefix_graph((5, 0, 2, 1, 0))
        assert export_graph(g, fmt="json", sign="positive") == (
            '{"n":5,"pos":[[1,3],[1,4],[2,4]]}'
        )
        assert export_graph(g, fmt="dot", sign="positive").endswith(
            "  5;\n  1 -- 3;\n  1 -- 4;\n  2 -- 4;\n}\n"
        )

    @pytest.mark.usefixtures("no_pos_edges", "no_neg_edges")
    def test_export_of_both_signs(self):
        g = build_prefix_graph((5, 0, 2, 1, 0))
        assert export_graph(g, fmt="json") == (
            '{"n":5,"pos":[[1,3],[1,4],[2,4]],"neg":[[1,2],[1,5],[2,5],[3,5]]}'
        )
        assert export_graph(g, fmt="dot").endswith(
            "  5;\n  1 -- 3;\n  1 -- 4;\n  2 -- 4;\n"
            "  1 -- 2 [style=dashed];\n"
            "  1 -- 5 [style=dashed];\n"
            "  2 -- 5 [style=dashed];\n"
            "  3 -- 5 [style=dashed];\n"
            "}\n"
        )

    @pytest.mark.usefixtures("no_pos_edges", "no_neg_edges")
    def test_edge_label_string(self):
        g = build_prefix_graph((5, 0, 2, 1, 0))
        assert edge_label_string(g) == ((1, 2), (3,), (1,), (2, 3), (4,))

    def test_positive_levels(self):
        # level h holds the edges (h, i+h-1) of the i >= 2 with y[i] >= h
        assert list(_positive_levels((5, 0, 2, 1, 0))) == [(1, [3, 4]), (2, [4])]
        assert list(_positive_levels((4, 0, 0, 0))) == []
        assert list(_positive_levels(())) == []

    def test_negative_levels(self):
        # the edges (1+y[i], i+y[i]), i+y[i] <= n, grouped by u = 1+y[i]
        assert list(_negative_levels((5, 0, 2, 1, 0))) == [
            (1, [2, 5]), (2, [5]), (3, [5])
        ]
        assert list(_negative_levels((4, 0, 0, 0))) == [(1, [2, 3, 4])]
        assert list(_negative_levels(())) == []

    @pytest.mark.usefixtures("no_pos_edges", "no_neg_edges")
    def test_cli_regular(self, capsys):
        assert cli.main(["regular", "8 0 1 0 3 0 1 0"]) == 0
        assert cli.main(["regular", "5 0 2 1 0"]) == 0
        assert capsys.readouterr().out == (
            "regular\nindeterminate-only (components: 2)\n"
        )


def reference_export(g, fmt="dot", sign="both"):
    """Oracle: export_graph over the sorted edge tuples, g.pos_edges and
    g.neg_edges, with json.dumps writing the JSON."""
    if sign not in ("positive", "negative", "both"):
        raise ValueError(f"unknown sign {sign!r}")
    want_pos = sign in ("positive", "both")
    want_neg = sign in ("negative", "both")
    if fmt == "json":
        doc: dict = {"n": g.n}
        if want_pos:
            doc["pos"] = g.pos_edges
        if want_neg:
            doc["neg"] = g.neg_edges
        return json.dumps(doc, separators=(",", ":"))
    if fmt == "dot":
        lines = ["graph prefix_graph {"]
        for v in range(1, g.n + 1):
            lines.append(f"  {v};")
        if want_pos:
            for u, v in g.pos_edges:
                lines.append(f"  {u} -- {v};")
        if want_neg:
            for u, v in g.neg_edges:
                lines.append(f"  {u} -- {v} [style=dashed];")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def reference_edge_label_string(g):
    """Oracle: edge_label_string with each edge ranked by its place in the
    sorted g.pos_edges."""
    incident: list[list[int]] = [[] for _ in range(g.n + 1)]
    for r, (u, v) in enumerate(g.pos_edges, start=1):
        incident[u].append(r)
        incident[v].append(r)
    letters: list[tuple[int, ...]] = []
    next_rank = len(g.pos_edges) + 1
    for v in range(1, g.n + 1):
        if incident[v]:
            letters.append(tuple(incident[v]))
        else:
            letters.append((next_rank,))
            next_rank += 1
    return tuple(letters)


def _check_against_reference(y):
    g = build_prefix_graph(y)
    for fmt in ("json", "dot"):
        for sign in ("positive", "negative", "both"):
            assert export_graph(g, fmt, sign) == reference_export(g, fmt, sign), (
                y, fmt, sign
            )
    assert edge_label_string(g) == reference_edge_label_string(g), y


def _workload_shape_arrays():
    """One seeded array at the shape of each benchmark workload."""
    rng = random.Random(20250)
    # a random string over 4 symbols: most negative edges leave u = 1
    # (y[i] = 0), a few thousand of them
    y = word_table([rng.randrange(4) for _ in range(3000)])
    assert len(_negative_levels(y)[0][1]) > 2000
    # entry i uniform on 0..n-i+1: the negative edges spread over
    # hundreds of u, one or two each
    arrays = [y, gen_random_feasible(1000, rng)]
    # a period-5 word over 3 symbols, one point mutation per 150
    # positions: regular, with long staircases of positive edges
    word = [rng.randrange(3) for _ in range(5)] * 600
    for lo in range(0, 3000, 150):
        word[rng.randrange(lo, lo + 150)] = 3
    y = word_table(word)
    assert is_regular(y)[0]
    return [*arrays, y]


class TestExportOracle:
    """The level-by-level export and edge_label_string give the references'
    output byte for byte."""

    def test_matches_reference_exhaustive(self):
        for n in range(9):
            for y in enumerate_feasible(n):
                _check_against_reference(y)

    @settings(deadline=None)
    @given(st.one_of(
        feasible_arrays(max_n=200),
        regular_strings(max_n=200).map(compute_prefix_table),
    ))
    def test_matches_reference(self, y):
        _check_against_reference(y)

    def test_matches_reference_at_workload_shapes(self):
        for y in _workload_shape_arrays():
            _check_against_reference(y)


FOREIGN_LABELS = "labels are not the positive components of the graph"


def _witness(y):
    """The regular witness of y from its positive components."""
    g = build_prefix_graph(y)
    return regular_string_from_components(g, positive_components(g))


def _all_mismatch_witness(y):
    """Oracle for the regular witness: every negative edge (1+y[i], i+y[i]),
    taken from the definition, is filed under the later of its two
    components, and each component, in order of its smallest member, gets
    the smallest symbol held by none of the earlier ones filed under it."""
    labels = positive_components(build_prefix_graph(y))
    earlier = [set() for _ in labels]
    for i, v in enumerate(y, 1):
        if i + v <= len(y):
            a, b = sorted((labels[1 + v], labels[i + v]))
            earlier[b].add(a)
    colour = {}
    for c in sorted(set(labels[1:])):
        taken = {colour[a] for a in earlier[c]}
        colour[c] = next(s for s in itertools.count(1) if s not in taken)
    return tuple((colour[c],) for c in labels[1:])


class TestRegularWitness:
    def test_golden_strings(self):
        assert _witness((8, 0, 1, 0, 3, 0, 1, 0)) == s("a b a c a b a d")
        assert _witness((4, 0, 0, 0)) == s("a b b b")
        assert _witness((4, 3, 2, 1)) == s("a a a a")

    def test_symbols_numbered_by_component_order(self):
        x = _witness((6, 0, 2, 0, 0, 1))
        assert compute_prefix_table(x) == (6, 0, 2, 0, 0, 1)
        # components are coloured in order of smallest member, so a symbol
        # first appears only after every smaller one has
        seen = []
        for (sym,) in x:
            if sym not in seen:
                seen.append(sym)
        assert seen == sorted(seen)

    # the witness files only the edges that end at a first position; the
    # oracle files every edge, so these check the proof in its docstring
    def test_equals_old_rule_on_regular_tables(self):
        for n in range(12):
            for y in regular_tables(n):
                assert _witness(y) == _all_mismatch_witness(y), y

    @settings(deadline=None)
    @given(regular_strings(max_n=200).map(compute_prefix_table))
    def test_equals_old_rule(self, y):
        assert _witness(y) == _all_mismatch_witness(y)

    def test_equals_old_rule_at_workload_shape(self):
        # the regular period-5 array: most of its negative edges end past
        # a component's first position
        y = _workload_shape_arrays()[-1]
        g = build_prefix_graph(y)
        labels = positive_components(g)
        assert sum(labels[v] != v for u, v in g.neg_edges) > len(g.neg_edges) / 2
        assert _witness(y) == _all_mismatch_witness(y)

    @pytest.mark.parametrize("y, labels", [
        # a non-regular array labelled as if every position stood alone
        ((5, 0, 2, 1, 0), (0, 1, 2, 3, 4, 5)),
        # the singleton components of a b b, labels permuted
        ((3, 0, 0), (0, 3, 2, 1)),
        # one label short
        ((3, 0, 0), (0, 1, 2)),
    ])
    def test_refuses_foreign_labels(self, y, labels):
        with pytest.raises(ValueError) as exc:
            regular_string_from_components(build_prefix_graph(y), labels)
        assert str(exc.value) == FOREIGN_LABELS

    def test_refuses_relabelled_component_exhaustive(self):
        # one component renamed by a larger vertex, every other label right
        for n in range(2, 9):
            for y in regular_tables(n):
                g = build_prefix_graph(y)
                labels = positive_components(g)
                for c in set(labels[1:]):
                    for w in range(c + 1, n + 1):
                        moved = tuple(w if l == c else l for l in labels)
                        with pytest.raises(ValueError, match=FOREIGN_LABELS):
                            regular_string_from_components(g, moved)

    def test_accepts_components_as_list(self):
        for y in ((8, 0, 1, 0, 3, 0, 1, 0), (4, 0, 0, 0), (1,), ()):
            g = build_prefix_graph(y)
            x = regular_string_from_components(g, list(positive_components(g)))
            assert x == _witness(y)


class TestEdgeLabelString:
    def test_golden(self):
        g = build_prefix_graph((5, 0, 2, 1, 0))
        x = edge_label_string(g)
        # one symbol per positive edge, a private one for the isolated vertex
        assert x == ((1, 2), (3,), (1,), (2, 3), (4,))
        assert compute_prefix_table(x) == (5, 0, 2, 1, 0)

    def test_exhaustive_roundtrip(self):
        for n in range(7):
            for y in enumerate_feasible(n):
                x = edge_label_string(build_prefix_graph(y))
                assert compute_prefix_table(x) == y

    @given(feasible_arrays(min_n=1, max_n=14))
    def test_roundtrip_and_symbol_budget(self, y):
        g = build_prefix_graph(y)
        x = edge_label_string(g)
        assert verify_prefix_table(x, y).ok
        syms = {c for a in x for c in a}
        assert syms == set(range(1, len(syms) + 1))
        isolated = sum(1 for a in x if len(a) == 1 and a[0] > len(g.pos_edges))
        assert len(syms) == len(g.pos_edges) + isolated


class TestIsolatedVertices:
    def test_golden(self):
        assert isolated_positive_vertices((5, 0, 2, 1, 0)) == (5,)
        assert isolated_positive_vertices((8, 0, 1, 0, 3, 0, 1, 0)) == (4, 8)
        assert isolated_positive_vertices((4, 0, 0, 0)) == (1, 2, 3, 4)
        assert isolated_positive_vertices((4, 3, 2, 1)) == ()
        assert isolated_positive_vertices((1,)) == (1,)
        assert isolated_positive_vertices(()) == ()

    def test_matches_degree_count_exhaustive(self):
        for n in range(9):
            for y in enumerate_feasible(n):
                assert isolated_positive_vertices(y) == _degree_zero(y), y

    def test_memory_grows_linearly(self):
        # one pass over y with O(1) state besides the answer, so doubling n
        # from 2,000 to 4,000 about doubles the tracemalloc peak on the
        # sparse shape, where an n-by-n table would about quadruple it; the
        # first call, untraced, warms the interpreter
        rng = random.Random("isolated:sparse")
        small, large = _sparse_shape_table(2000, rng), _sparse_shape_table(4000, rng)
        isolated_positive_vertices(small)

        def peak(y):
            return _traced_peak(isolated_positive_vertices, y)[1]

        assert peak(large) < 2.5 * peak(small)

    @given(feasible_arrays(min_n=1, max_n=16))
    def test_verify_mode(self, y):
        assert isolated_positive_vertices(y) == _degree_zero(y)


def _degree_zero(y):
    """Vertices of the built prefix graph that no positive edge touches."""
    g = build_prefix_graph(y)
    touched = {v for e in g.pos_edges for v in e}
    return tuple(v for v in range(1, g.n + 1) if v not in touched)


class TestExport:
    def test_json_both(self):
        g = build_prefix_graph((5, 0, 2, 1, 0))
        data = json.loads(export_graph(g, fmt="json"))
        assert data == {
            "n": 5,
            "pos": [[1, 3], [1, 4], [2, 4]],
            "neg": [[1, 2], [1, 5], [2, 5], [3, 5]],
        }

    def test_json_single_sign_omits_other(self):
        g = build_prefix_graph((5, 0, 2, 1, 0))
        assert set(json.loads(export_graph(g, fmt="json", sign="positive"))) == {
            "n",
            "pos",
        }
        assert set(json.loads(export_graph(g, fmt="json", sign="negative"))) == {
            "n",
            "neg",
        }

    def test_dot_golden(self):
        g = build_prefix_graph((3, 0, 0))
        assert export_graph(g, fmt="dot") == (
            "graph prefix_graph {\n"
            "  1;\n"
            "  2;\n"
            "  3;\n"
            "  1 -- 2 [style=dashed];\n"
            "  1 -- 3 [style=dashed];\n"
            "}\n"
        )

    def test_dot_positive_only(self):
        g = build_prefix_graph((3, 2, 1))
        out = export_graph(g, fmt="dot", sign="positive")
        assert "dashed" not in out
        assert "1 -- 2;" in out and "1 -- 3;" in out and "2 -- 3;" in out

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_memory_grows_with_output(self, fmt):
        # the export allocates about as much as it writes: on the sparse
        # shape, |E+| is about n/2, so doubling n from 2,000 to 4,000 about
        # doubles the text and the tracemalloc peak alike, where an n-by-n
        # table would about quadruple the peak; the first export, untraced,
        # warms the interpreter
        rng = random.Random(f"export:{fmt}")
        small, large = (build_prefix_graph(_sparse_shape_table(n, rng)) for n in (2000, 4000))
        export_graph(small, fmt)

        def peak_and_length(g):
            text, peak = _traced_peak(export_graph, g, fmt)
            return peak, len(text)

        (peak2, length2), (peak4, length4) = peak_and_length(small), peak_and_length(large)
        assert length4 < 2.5 * length2
        assert peak4 < 2.5 * peak2

    def test_bad_arguments(self):
        g = build_prefix_graph((3, 0, 0))
        with pytest.raises(ValueError):
            export_graph(g, fmt="gml")
        with pytest.raises(ValueError):
            export_graph(g, sign="pos")
