#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py DIR           # median, quartiles, spread
    python3 perfbench/compare.py BASE NEW      # e.g. parent against change

A set is a directory of the records perfbench/run.py writes with --out, one
per (workload, seed, trace).  Runs of the two sets are paired by seed.

For each workload and metric the comparison prints both medians and
quartiles, the pairs the change wins, and a label, following the rule the
benchmark is judged by:

- improved: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ, its way, by more than the base set's
  interquartile distance;
- worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json, or the base wins 9/10 of the pairs by
  more than that distance;
- unresolved: the run-to-run spread (interquartile distance over median) of
  either set is wider than the bound, unless every run of the change reads
  better than every run of the base;
- unchanged: otherwise.

With fewer than ten pairs a metric whose values differ is unresolved.

Counts and ratios of traced runs that share a seed must repeat exactly; any
that differ are listed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = {"count", "count.computed", "ratio", "symbols"}


def load_spec() -> dict[str, dict]:
    """Metric name -> {unit, better, bound} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_set(directory: str) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> record."""
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    if not runs:
        sys.exit(f"error: no run records in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def values(records: dict[int, dict], seeds: list[int], metric: str) -> list[float]:
    return [records[s]["metrics"][metric]["value"] for s in seeds if metric in records[s]["metrics"]]


def label(base: list[float], new: list[float], better: str, bound: float | None) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, new))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if base == new:
        return "unchanged", wins
    if len(pairs) < 10:
        return "unresolved", wins
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    q1, mb, q3 = quartiles(base)
    gain = sign * (statistics.median(new) - mb)
    if wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", wins
    if bound is not None and -gain > bound * abs(mb):
        return "worse", wins
    if losses >= 0.9 * len(pairs) and -gain > q3 - q1:
        return "worse", wins
    all_better = all(sign * (c - b) > 0 for b in base for c in new)
    if bound is not None and max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def fmt(v: float) -> str:
    return f"{v:.6g}"


def summarise(runs, spec) -> None:
    for (workload, trace), records in sorted(runs.items()):
        seeds = sorted(records)
        failed = sum(r["failed"] for r in records.values())
        print(f"\n{workload} trace={trace}: {len(seeds)} runs, seeds {seeds}, failed {failed}")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for metric in records[seeds[0]]["metrics"]:
            vals = values(records, seeds, metric)
            q1, q2, q3 = quartiles(vals)
            bound = spec.get(metric, {}).get("bound")
            flag = "" if bound is None or spread(vals) <= bound / 3 else "  > bound/3"
            print(f"  {metric:36s} {fmt(q2):>12s} {fmt(q1):>12s} {fmt(q3):>12s} "
                  f"{spread(vals):8.2%} {'' if bound is None else f'{bound:.0%}':>6s}{flag}")


def compare(base_runs, new_runs, spec) -> None:
    for key in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[key], new_runs[key]
        seeds = sorted(set(base) & set(new))
        if seeds:
            b_seeds = n_seeds = seeds
        else:  # no shared seed: pair in seed order
            b_seeds, n_seeds = sorted(base), sorted(new)
        print(f"\n{key[0]} trace={key[1]}: {min(len(b_seeds), len(n_seeds))} pairs")
        print(f"  {'metric':36s} {'base median [q1, q3]':>36s} {'new median [q1, q3]':>36s} {'wins':>6s}  label")
        exact, mismatched = 0, []
        for metric in base[b_seeds[0]]["metrics"]:
            b = values(base, b_seeds, metric)
            c = values(new, n_seeds, metric)
            if not b or not c:
                continue
            m = spec.get(metric, {})
            verdict, wins = label(b, c, m.get("better", "lower"), m.get("bound"))
            bq, cq = quartiles(b), quartiles(c)
            print(f"  {metric:36s} {f'{fmt(bq[1])} [{fmt(bq[0])}, {fmt(bq[2])}]':>36s} "
                  f"{f'{fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}]':>36s} "
                  f"{f'{wins}/{min(len(b), len(c))}':>6s}  {verdict}")
            unit = base[b_seeds[0]]["metrics"][metric]["unit"]
            if seeds and unit in EXACT_UNITS:
                exact += 1
                if b != c:
                    mismatched.append(metric)
        if exact:
            print(f"  {exact} counts and ratios repeat exactly" if not mismatched
                  else f"  counts differ for the same seed: {', '.join(mismatched)}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    if len(argv) == 1:
        summarise(load_set(argv[0]), spec)
    else:
        compare(load_set(argv[0]), load_set(argv[1]), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
