"""Benchmark harness: generation, reporting, trend fitting, config checks."""

from __future__ import annotations

import random

import pytest

from indetstr import (
    BenchConfig,
    gen_random_feasible,
    growth_trend,
    run_bench,
    validate_feasible,
)
from indetstr.bench import CSV_HEADER, parse_lengths


class TestGenRandomFeasible:
    def test_valid_and_deterministic(self):
        for n in (1, 2, 5, 40):
            a = gen_random_feasible(n, random.Random(3))
            b = gen_random_feasible(n, random.Random(3))
            assert a == b
            assert validate_feasible(a) == a

    def test_full_range_reachable(self):
        rng = random.Random(0)
        draws = {gen_random_feasible(3, rng) for _ in range(200)}
        # 3! = 6 distinct arrays exist and a couple hundred draws see them all
        assert len(draws) == 6

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            gen_random_feasible(0, random.Random(1))


class TestRunBench:
    def test_report_shape(self):
        cfg = BenchConfig(lengths=(4, 6, 9), trials=3, seed=5)
        report = run_bench(cfg)
        lines = report.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        for ln, n in zip(lines[1:], cfg.lengths):
            parts = ln.split(",")
            assert len(parts) == 8
            assert parts[0] == str(n)
            assert parts[1] == "3"
            float_fields = [float(p) for p in parts[2:]]
            assert all(v >= 0 for v in float_fields)
            # mean cannot exceed max
            assert float_fields[0] <= float_fields[2]

    def test_deterministic_counts(self):
        # edge statistics depend only on (seed, n), never on timing noise
        cfg = BenchConfig(lengths=(8,), trials=10, seed=12)
        a = run_bench(cfg).splitlines()[1].split(",")
        b = run_bench(cfg).splitlines()[1].split(",")
        assert a[5:] == b[5:]


class TestGrowthTrend:
    @staticmethod
    def synthetic(power: float) -> str:
        rows = [CSV_HEADER]
        for n in (10, 20, 40, 80):
            rows.append(f"{n},5,{float(n) ** power:.3f},0,0,0,0,0")
        return "\n".join(rows) + "\n"

    def test_recovers_exponent(self):
        assert growth_trend(self.synthetic(2.0)) == pytest.approx(2.0, abs=1e-6)
        assert growth_trend(self.synthetic(3.0)) == pytest.approx(3.0, abs=1e-6)

    def test_needs_three_distinct_lengths(self):
        short = "\n".join(self.synthetic(2.0).splitlines()[:3]) + "\n"
        with pytest.raises(ValueError):
            growth_trend(short)

    def test_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            growth_trend("n,mean\n1,2\n")

    def test_end_to_end_on_real_run(self):
        report = run_bench(BenchConfig(lengths=(8, 16, 32), trials=5, seed=2))
        assert isinstance(growth_trend(report), float)


class TestConfigAndLengths:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(lengths=(), trials=1)
        with pytest.raises(ValueError):
            BenchConfig(lengths=(5, 5), trials=1)
        with pytest.raises(ValueError):
            BenchConfig(lengths=(5, 3), trials=1)
        with pytest.raises(ValueError):
            BenchConfig(lengths=(0, 3), trials=1)
        with pytest.raises(ValueError):
            BenchConfig(lengths=(3,), trials=0)

    def test_parse_lengths_range(self):
        assert parse_lengths("10:100:10") == tuple(range(10, 101, 10))
        assert parse_lengths("5:7:1") == (5, 6, 7)

    def test_parse_lengths_list(self):
        assert parse_lengths("5,10,20") == (5, 10, 20)
        assert parse_lengths("7") == (7,)

    def test_parse_lengths_errors(self):
        for bad in ("", "a:b:c", "10:5:1", "0:5:1", "10:100:0", "1,x"):
            with pytest.raises(ValueError):
                parse_lengths(bad)
