"""Acceptance gate: ten standalone criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
per-criterion timings.  Criterion 5 compares infer with the brute-force
oracle on every array up to length 4 and on 21 arrays of length 5; infer is
exact there, though not on every length-5 array (5 2 3 1 1 takes four
symbols where three suffice, see the inference tests).  Criterion 9 bounds
regular outputs by floor(log2 n) + 1 symbols, a bound that 2 0 and 4 0 1 0
attain.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable

from conftest import s
from indetstr import (
    brute_force_is_regular,
    brute_force_lex_least,
    build_prefix_graph,
    compute_prefix_table,
    edge_label_string,
    enumerate_feasible,
    format_array,
    gen_random_feasible,
    infer,
    infer_with_trace,
    is_regular,
    letters_match,
    parse_string,
    run_bench,
    symbols_used,
)
from indetstr.bench import CSV_HEADER, BenchConfig
from test_core import GOLDEN_TABLES
from test_inference import GOLDEN_TRACE_50210


def _criterion(num: int, body: Callable[[], str | None]) -> None:
    t0 = time.perf_counter()
    try:
        note = body()
    except AssertionError as e:
        dt = time.perf_counter() - t0
        first = (str(e).splitlines() or ["assertion failed"])[0]
        print(f"\ncriterion {num}: FAIL in {dt:.1f}s ({first})")
        raise
    dt = time.perf_counter() - t0
    print(f"\ncriterion {num}: PASS in {dt:.1f}s" + (f" ({note})" if note else ""))


def test_criterion_01_golden_prefix_tables():
    def body():
        worst_ms = 0.0
        for text, table in GOLDEN_TABLES:
            x = parse_string(text)
            assert compute_prefix_table(x) == table, text
            best = min(
                _timed(compute_prefix_table, x) for _ in range(3)
            )
            worst_ms = max(worst_ms, best * 1e3)
            assert best < 1e-3, f"{text}: best of 3 took {best * 1e3:.3f} ms"
        return f"4 tables, slowest {worst_ms:.3f} ms"

    _criterion(1, body)


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_02_golden_graphs():
    def body():
        g = build_prefix_graph((5, 0, 2, 1, 0))
        assert g.pos_edges == ((1, 3), (1, 4), (2, 4))
        assert g.neg_edges == ((1, 2), (1, 5), (2, 5), (3, 5))
        g = build_prefix_graph((8, 2, 0, 1, 4, 0, 1, 1))
        assert g.pos_edges == (
            (1, 2), (1, 4), (1, 5), (1, 7), (1, 8),
            (2, 3), (2, 6), (3, 7), (4, 8),
        )
        assert g.neg_edges == ((1, 3), (1, 6), (2, 5), (2, 8), (3, 4))
        return "2 graphs"

    _criterion(2, body)


def test_criterion_03_golden_inference_trace():
    def body():
        x, trace = infer_with_trace((5, 0, 2, 1, 0))
        assert x == s("a b a {a,b} c"), x
        assert trace == GOLDEN_TRACE_50210, trace
        return f"{len(trace)} trace events"

    _criterion(3, body)


def test_criterion_04_round_trip_soundness():
    def body():
        count = 0
        for n in range(9):
            for y in enumerate_feasible(n):
                x = infer(y)
                assert compute_prefix_table(x) == y, format_array(y)
                g = build_prefix_graph(y)
                for u, v in g.pos_edges:
                    assert letters_match(x[u - 1], x[v - 1]), format_array(y)
                for u, v in g.neg_edges:
                    assert not letters_match(x[u - 1], x[v - 1]), format_array(y)
                count += 1
        return f"{count} arrays"

    _criterion(4, body)


def test_criterion_05_minimality_vs_oracle():
    def body():
        cases = [y for n in range(5) for y in enumerate_feasible(n)]
        cases.append((5, 0, 2, 1, 0))
        rng = random.Random(7)
        cases.extend(gen_random_feasible(5, rng) for _ in range(20))
        failures = []
        for y in cases:
            best, sigma = brute_force_lex_least(y)
            x = infer(y)
            if x != best or len(symbols_used(x)) != sigma:
                failures.append(format_array(y))
        assert not failures, f"{len(failures)} divergences: { '; '.join(failures) }"
        return f"{len(cases)} arrays"

    _criterion(5, body)


def test_criterion_06_regularity_vs_oracle():
    def body():
        count = 0
        for n in range(7):
            for y in enumerate_feasible(n):
                assert is_regular(y)[0] == brute_force_is_regular(y), (
                    format_array(y)
                )
                count += 1
        return f"{count} arrays"

    _criterion(6, body)


def test_criterion_07_edge_label_construction():
    def body():
        count = 0
        for n in range(8):
            for y in enumerate_feasible(n):
                x = edge_label_string(build_prefix_graph(y))
                assert compute_prefix_table(x) == y, format_array(y)
                count += 1
        return f"{count} arrays"

    _criterion(7, body)


def test_criterion_08_isolated_vertex_conditions():
    def body():
        from indetstr import isolated_positive_vertices

        count = 0
        for n in range(9):
            for y in enumerate_feasible(n):
                g = build_prefix_graph(y)
                touched = {v for e in g.pos_edges for v in e}
                by_degree = tuple(v for v in range(1, n + 1) if v not in touched)
                assert isolated_positive_vertices(y) == by_degree, format_array(y)
                count += 1
        return f"{count} arrays"

    _criterion(8, body)


def test_criterion_09_size_bounds():
    def body():
        corpus = [y for n in range(9) for y in enumerate_feasible(n)]
        rng = random.Random(9)
        corpus.extend(gen_random_feasible(100, rng) for _ in range(1000))
        violations = []
        for y in corpus:
            n = len(y)
            x = infer(y)
            sigma = len(symbols_used(x))
            g = build_prefix_graph(y)
            pos, neg = len(g.pos_edges), len(g.neg_edges)
            sqrt_ceil = math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1)
            if sigma > n + sqrt_ceil:
                violations.append(f"sigma {sigma} > n+ceil(sqrt(n)) for {format_array(y)}")
            if neg > max(0, n - 1):
                violations.append(f"|E-| {neg} for {format_array(y)}")
            if pos > n * (n - 1) // 2:
                violations.append(f"|E+| {pos} for {format_array(y)}")
            if n >= 1 and pos + neg < n - 1:
                violations.append(f"|E+|+|E-| {pos + neg} for {format_array(y)}")
            if n >= 2 and is_regular(y)[0]:
                log_floor1 = n.bit_length()  # = floor(log2 n) + 1
                if sigma > log_floor1:
                    violations.append(
                        f"regular sigma {sigma} > floor(log2 {n})+1 = {log_floor1} "
                        f"for {format_array(y)}"
                    )
        assert not violations, (
            f"{len(violations)} violations, first: {violations[0]}"
        )
        return f"{len(corpus)} arrays"

    _criterion(9, body)


def test_criterion_10_growth_trend():
    def body():
        from indetstr import growth_trend

        cfg = BenchConfig(lengths=(50, 100, 200, 400, 800), trials=200, seed=1)
        report = run_bench(cfg)
        assert report.splitlines()[0] == CSV_HEADER
        slope = growth_trend(report)
        assert 1.8 <= slope <= 3.2, f"slope {slope:.3f} outside [1.8, 3.2]"
        return f"slope {slope:.3f}"

    _criterion(10, body)
