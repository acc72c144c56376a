"""Timing harness: seeded random feasible arrays, per-length timing of
inference, CSV reporting, and a log-log growth fit.

Inputs are reproducible: for a given (seed, n) the generated arrays are
identical run to run.  Timed work is inference only; generation, parsing and
reporting stay outside the clock.  One trial in a hundred is round-tripped
through the prefix table as a correctness spot check.
"""

from __future__ import annotations

import math
import random
import time

from .core import compute_prefix_table
from .graph import _negative_levels, _read_only
from .inference import infer

CSV_HEADER = "n,trials,mean_us,median_us,max_us,mean_sigma,mean_pos_edges,mean_neg_edges"


class BenchConfig:
    """The lengths, trials per length and seed of one bench run.

    Raises ValueError at construction unless lengths is nonempty and
    strictly ascending with every n >= 1 and trials >= 1.  A config is
    immutable: setting or deleting any attribute raises AttributeError.
    Two configs are equal, and hash alike, when all three fields are; the
    repr is BenchConfig(lengths=(4, 6, 9), trials=3, seed=5).
    """

    __match_args__ = ("lengths", "trials", "seed")
    __setattr__ = __delattr__ = _read_only
    lengths: tuple[int, ...]
    trials: int
    seed: int

    def __init__(self, lengths: tuple[int, ...], trials: int, seed: int = 0) -> None:
        if not lengths or any(n < 1 for n in lengths):
            raise ValueError("lengths must be nonempty with every n >= 1")
        if any(a >= b for a, b in zip(lengths, lengths[1:])):
            raise ValueError("lengths must be strictly ascending")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        self.__dict__.update(lengths=lengths, trials=trials, seed=seed)

    def _key(self) -> tuple[tuple[int, ...], int, int]:
        return self.lengths, self.trials, self.seed

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"BenchConfig(lengths={self.lengths!r}, trials={self.trials!r}, seed={self.seed!r})"


def gen_random_feasible(n: int, rng: random.Random) -> tuple[int, ...]:
    """Random feasible array: entry i uniform over its full range 0..n-i+1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n, *(rng.randint(0, n - i + 1) for i in range(2, n + 1)))


def _stream(seed: int, n: int) -> random.Random:
    # one independent, reproducible generator per length
    return random.Random(f"{seed}:{n}")


def run_bench(cfg: BenchConfig) -> str:
    """Run the timing experiment and return the CSV report."""
    import statistics  # off the CLI's import path: only bench runs use it

    rows = [CSV_HEADER]
    for n in cfg.lengths:
        rng = _stream(cfg.seed, n)
        arrays = [gen_random_feasible(n, rng) for _ in range(cfg.trials)]
        times_us: list[float] = []
        sigmas: list[int] = []
        pos_counts: list[int] = []
        neg_counts: list[int] = []
        for k, y in enumerate(arrays):
            t0 = time.perf_counter()
            x = infer(y)
            times_us.append((time.perf_counter() - t0) * 1e6)
            sigmas.append(max(max(a) for a in x))
            pos_counts.append(sum(y[1:]))
            neg_counts.append(sum(len(vs) for _, vs in _negative_levels(y)))
            if k % 100 == 0 and compute_prefix_table(x) != y:
                raise AssertionError(f"round-trip failed for {y}")
        rows.append(
            ",".join(
                (
                    str(n),
                    str(cfg.trials),
                    f"{statistics.fmean(times_us):.3f}",
                    f"{statistics.median(times_us):.3f}",
                    f"{max(times_us):.3f}",
                    f"{statistics.fmean(sigmas):.3f}",
                    f"{statistics.fmean(pos_counts):.3f}",
                    f"{statistics.fmean(neg_counts):.3f}",
                )
            )
        )
    return "\n".join(rows) + "\n"


def growth_trend(report: str) -> float:
    """Least-squares slope of log(mean_us) against log(n) over a CSV report.

    Needs at least three rows with distinct n.
    """
    import statistics

    lines = [ln for ln in report.strip().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("report does not start with the expected CSV header")
    ns: list[int] = []
    means: list[float] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        ns.append(int(parts[0]))
        means.append(float(parts[2]))
    if len(set(ns)) < 3:
        raise ValueError("need at least 3 rows with distinct n")
    xs = [math.log(v) for v in ns]
    ys = [math.log(v) for v in means]
    return statistics.linear_regression(xs, ys).slope


def parse_lengths(text: str) -> tuple[int, ...]:
    """Parse 'a:b:step' (inclusive arithmetic range) or a comma list."""
    try:
        if ":" in text:
            a, b, step = (int(p) for p in text.split(":"))
            if a < 1 or b < a or step < 1:
                raise ValueError
            return tuple(range(a, b + 1, step))
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            f"bad lengths {text!r}: expected a:b:step or n1,n2,..."
        ) from None
