"""The record classes TableCheck, PrefixGraph and BenchConfig: repr,
equality and hash, construction, immutability and cached views."""

from __future__ import annotations

import copy
import pickle

import pytest

from indetstr import BenchConfig, PrefixGraph, TableCheck, build_prefix_graph


def _assert_equal_records(a, b):
    assert a == b and not a != b
    assert hash(a) == hash(b)


class TestTableCheck:
    def test_repr(self):
        assert repr(TableCheck(False, 4, "a")) == "TableCheck(ok=False, position=4, condition='a')"
        assert repr(TableCheck(True)) == "TableCheck(ok=True, position=None, condition=None)"

    def test_keywords_and_defaults(self):
        c = TableCheck(ok=False, condition="b", position=2)
        assert (c.ok, c.position, c.condition) == (False, 2, "b")
        _assert_equal_records(c, TableCheck(False, 2, "b"))
        assert TableCheck(ok=True).position is None
        assert TableCheck(True).condition is None
        assert TableCheck.__match_args__ == ("ok", "position", "condition")

    def test_equality_and_hash(self):
        _assert_equal_records(TableCheck(False, 4, "a"), TableCheck(False, 4, "a"))
        _assert_equal_records(TableCheck(True), TableCheck(True, None, None))
        base = TableCheck(False, 4, "a")
        for other in (TableCheck(True, 4, "a"), TableCheck(False, 5, "a"), TableCheck(False, 4, "b")):
            assert base != other and not base == other

    def test_read_only(self):
        c = TableCheck(False, 4, "a")
        for name, value in (("ok", True), ("position", 1), ("condition", "b")):
            with pytest.raises(AttributeError):
                setattr(c, name, value)
        assert c == TableCheck(False, 4, "a")

    def test_truth(self):
        assert bool(TableCheck(False, 2, "b")) is False
        assert bool(TableCheck(True)) is True
        assert not TableCheck(False, 1, "a")

    def test_copy_and_pickle(self):
        c = TableCheck(False, 4, "a")
        _assert_equal_records(copy.copy(c), c)
        _assert_equal_records(pickle.loads(pickle.dumps(c)), c)


class TestPrefixGraph:
    def test_repr(self):
        assert repr(PrefixGraph(y=(3, 0, 0))) == "PrefixGraph(y=(3, 0, 0))"
        assert repr(build_prefix_graph([5, 0, 2, 1, 0])) == "PrefixGraph(y=(5, 0, 2, 1, 0))"
        assert repr(PrefixGraph(())) == "PrefixGraph(y=())"

    def test_keyword_construction(self):
        _assert_equal_records(PrefixGraph(y=(3, 0, 0)), PrefixGraph((3, 0, 0)))
        with pytest.raises(TypeError):
            PrefixGraph()
        assert PrefixGraph.__match_args__ == ("y",)

    def test_equality_and_hash(self):
        a, b = PrefixGraph((5, 0, 2, 1, 0)), build_prefix_graph((5, 0, 2, 1, 0))
        _assert_equal_records(a, b)
        a.pos_edges, a.neg_adj  # cached views play no part in equality or hash
        _assert_equal_records(a, b)
        for other in (PrefixGraph((5, 0, 2, 0, 0)), PrefixGraph((3, 0, 0))):
            assert a != other and not a == other
        assert a != (5, 0, 2, 1, 0) and a != object()

    def test_read_only(self):
        g = PrefixGraph((3, 0, 0))
        with pytest.raises(AttributeError):
            g.y = (3, 1, 0)
        with pytest.raises(AttributeError):
            g.extra = 1
        with pytest.raises(AttributeError):
            del g.y
        assert g.y == (3, 0, 0)

    def test_views_built_once(self):
        g = build_prefix_graph((8, 2, 0, 1, 4, 0, 1, 1))
        assert g.pos_edges is g.pos_edges
        assert g.neg_edges is g.neg_edges
        assert g.neg_adj is g.neg_adj
        assert g.regular_labels is g.regular_labels
        assert g.n == 8

    def test_copy_and_pickle(self):
        g = build_prefix_graph((5, 0, 2, 1, 0))
        g.pos_edges
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            _assert_equal_records(twin, g)
            assert twin.pos_edges == ((1, 3), (1, 4), (2, 4))


class TestBenchConfig:
    def test_repr(self):
        assert repr(BenchConfig(lengths=(4, 6, 9), trials=3, seed=5)) == (
            "BenchConfig(lengths=(4, 6, 9), trials=3, seed=5)"
        )
        assert repr(BenchConfig((7,), 1)) == "BenchConfig(lengths=(7,), trials=1, seed=0)"

    def test_keywords_and_defaults(self):
        cfg = BenchConfig(trials=2, lengths=(5, 8))
        assert (cfg.lengths, cfg.trials, cfg.seed) == ((5, 8), 2, 0)
        _assert_equal_records(cfg, BenchConfig((5, 8), 2, 0))
        assert BenchConfig.__match_args__ == ("lengths", "trials", "seed")

    def test_equality_and_hash(self):
        base = BenchConfig((5, 8), 2, 1)
        _assert_equal_records(base, BenchConfig(lengths=(5, 8), trials=2, seed=1))
        for other in (BenchConfig((5, 9), 2, 1), BenchConfig((5, 8), 3, 1), BenchConfig((5, 8), 2, 0)):
            assert base != other and not base == other
        assert base != ((5, 8), 2, 1)

    def test_read_only(self):
        cfg = BenchConfig((5, 8), 2, 1)
        for name, value in (("lengths", (1,)), ("trials", 0), ("seed", 2)):
            with pytest.raises(AttributeError):
                setattr(cfg, name, value)
        assert cfg == BenchConfig((5, 8), 2, 1)

    def test_copy_and_pickle(self):
        cfg = BenchConfig((5, 8), 2, 1)
        _assert_equal_records(copy.copy(cfg), cfg)
        _assert_equal_records(pickle.loads(pickle.dumps(cfg)), cfg)
