#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the indetstr CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 30 --trace 0

The program under test is the source tree in ``src/``; nothing is installed.
Inputs are generated off the clock from ``--seed``.  Each array is served, in
seeded order, as four requests made in-process through ``indetstr.cli.main``
with stdout captured: ``infer``, ``verify`` on its output, ``regular`` and
``graph --format json``.  The load is a closed loop with one caller and no
think time: no threads and no subprocesses while timing.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that records a span around every call into a public layer function
(wrapped from here, the program is not edited), derives self times from the
spans, counts the walk's work from ``infer_with_trace`` events, and reports
the per-layer metrics.  Every output is checked against a known answer; a
wrong answer counts as a failed request and makes the exit status 1.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller record, with the seed and the workload's parameters, is
written to ``--out`` (spans of a traced run beside it as JSON lines).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# --- workloads ---------------------------------------------------------------
#
# Strings are generated as lists of int bitmasks (bit s set = symbol s in the
# letter), so matching is `a & b` and the prefix table below is independent of
# the package's own core.compute_prefix_table, which it checks.


def prefix_table(masks: list[int]) -> tuple[int, ...]:
    n = len(masks)
    table = [n]
    for i in range(1, n):
        j = 0
        while i + j < n and masks[j] & masks[i + j]:
            j += 1
        table.append(j)
    return tuple(table)


@dataclass(frozen=True)
class Case:
    y: tuple[int, ...]
    text: str
    regular: bool | None  # known verdict, None when the generator cannot tell


def _case(y: tuple[int, ...], regular: bool | None) -> Case:
    return Case(y, " ".join(map(str, y)), regular)


def gen_uniform(rng: random.Random, n: int, pool: int) -> list[Case]:
    # the distribution of indetstr.bench.gen_random_feasible
    return [
        _case((n, *(rng.randint(0, n - i + 1) for i in range(2, n + 1))), None)
        for _ in range(pool)
    ]


def primitive_word(rng: random.Random, p: int, k: int) -> list[int]:
    """Random word of length p over 1..k that is no power of a shorter
    word, so its repetitions have least period exactly p."""
    while True:
        w = [rng.randint(1, k) for _ in range(p)]
        if all(w != w[i:] + w[:i] for i in range(1, p)):
            return w


def gen_periodic(rng: random.Random, n: int, pool: int) -> list[Case]:
    # Every (period, alphabet) pair gets pool/24 copies.  Mutation t lands in
    # the t-th stretch of 200 positions, and across the copies of a pair
    # each mutation visits every sub-stretch once (a Latin hypercube).  The
    # work of a pool then hardly depends on the seed, which it otherwise
    # would through the first mutation of the shortest periods.
    combos = [(p, k) for p in range(1, 9) for k in range(2, 5)]
    copies = pool // len(combos)
    stretches = n // 200
    width = n / stretches
    cases = []
    for p, k in combos:
        strata = [rng.sample(range(copies), copies) for _ in range(stretches)]
        for j in range(copies):
            base = primitive_word(rng, p, k)
            x = [base[i % p] for i in range(n)]
            for t in range(stretches):
                pos = int(width * (t + (strata[t][j] + rng.random()) / copies))
                x[pos] = rng.choice([s for s in range(1, k + 1) if s != x[pos]])
            cases.append(_case(prefix_table([1 << s for s in x]), True))
    rng.shuffle(cases)
    return cases


def gen_sparse(rng: random.Random, n: int, pool: int) -> list[Case]:
    cases = []
    for _ in range(pool):
        x = []
        for _ in range(n):
            if rng.random() < 0.1:
                a, b = rng.sample(range(1, 5), 2)
                x.append(1 << a | 1 << b)
            else:
                x.append(1 << rng.randint(1, 4))
        cases.append(_case(prefix_table(x), None))
    return cases


# Generator and size of each workload; why each was chosen is in
# BENCHMARK.json and README.md.  A pool of arrays is served round-robin until
# time is up.
WORKLOADS = {
    "uniform": dict(gen=gen_uniform, n=400, pool=64),
    "periodic": dict(gen=gen_periodic, n=600, pool=192),
    "sparse": dict(gen=gen_sparse, n=5000, pool=64),
}

KINDS = ("infer", "verify", "regular", "export")


def make_pool(workload: str, seed: int) -> list[Case]:
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return w["gen"](rng, w["n"], w["pool"])


# --- answers -----------------------------------------------------------------


def parse_masks(text: str) -> list[int]:
    """Letters of a printed string as bitmasks (the CLI's text grammar)."""
    masks = []
    for tok in text.split():
        mask = 0
        for sym in tok.strip("{}").split(","):
            mask |= 1 << (ord(sym) - 96 if sym.isalpha() else int(sym))
        masks.append(mask)
    return masks


def edge_counts(y: tuple[int, ...]) -> tuple[int, int]:
    """|E+| = Σy[2..n] and |E-| = #{i >= 2 : i + y[i] <= n}."""
    n = len(y)
    return sum(y[1:]), sum(1 for i in range(2, n + 1) if i + y[i - 1] <= n)


def check(case: Case, kind: str, out: str, graph_mod) -> bool:
    y, n = case.y, len(case.y)
    if kind == "infer":
        return prefix_table(parse_masks(out)) == y
    if kind == "verify":
        return out == "pass\n"
    if kind == "regular":
        if out == "regular\n":
            if case.regular is True:
                return True
            g = graph_mod.build_prefix_graph(y)
            witness = graph_mod.regular_string_from_components(
                g, graph_mod.positive_components(g)
            )
            return prefix_table([1 << a[0] for a in witness]) == y
        return case.regular is not True and out.startswith("indeterminate-only")
    doc = json.loads(out)
    return (doc["n"], len(doc["pos"]), len(doc["neg"])) == (n, *edge_counts(y))


class Answers:
    """Checks every response: the first output of a (case, kind) is checked
    in full, later ones are compared with it."""

    def __init__(self, pool: list[Case], graph_mod):
        self.pool = pool
        self.graph = graph_mod
        self.seen: dict[tuple[int, str], tuple[str, bool]] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, k: int, kind: str, code: int | None, out: str) -> None:
        self.attempted += 1
        first = self.seen.get((k, kind))
        if first is not None and first[0] == out:
            ok = first[1]
        else:
            ok = self._check(k, kind, out)
            if first is None:
                self.seen[(k, kind)] = (out, ok)
        if code != 0 or not ok:
            self.failed += 1

    def _check(self, k: int, kind: str, out: str) -> bool:
        try:
            return check(self.pool[k], kind, out, self.graph)
        except (ValueError, KeyError, TypeError):
            return False


# --- requests ----------------------------------------------------------------


def serve(main, argv: list[str]) -> tuple[int | None, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except Exception:  # a crashing request is a failed one; keep serving
        traceback.print_exc()
        code = None
    return code, buf.getvalue()


# --- machine speed ------------------------------------------------------------
#
# On a shared machine the speed of the CPU changes by up to a third within
# seconds, for the program and any other code alike.  Every time is therefore
# scaled to a nominal machine speed: right before and right after each
# request the benchmark times a fixed piece of pure-Python work that does not
# touch the program, and multiplies the request's time by REFERENCE_S over
# the mean of the two.  A time reported in ms is thus ms on a machine that
# runs the reference in REFERENCE_S.  The median factor of a run is kept in
# its record as `speed`.

REFERENCE_S = 0.75e-3  # about the reference's time between requests where the baseline was taken


def reference_work() -> int:
    pairs = [(i * 7919 % 1009, i) for i in range(800)]
    pairs.sort()
    seen = set()
    for a, _ in pairs:
        if a not in seen:
            seen.add(a)
    text = " ".join(str(a) for a, _ in pairs)
    return sum(int(t) for t in text.split()) + len(seen)


class Speed:
    """Scales measured times to nominal ones; keeps every factor used."""

    def __init__(self):
        self.factors: list[float] = []

    @staticmethod
    def reference() -> float:
        # The first pass runs in the caches the last request left behind,
        # and would make a program that uses less memory look slower.
        reference_work()
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0

    def timed(self, fn, *args):
        """fn(*args) and its scaled time in ms."""
        before = self.reference()
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        factor = REFERENCE_S * 2 / (before + self.reference())
        self.factors.append(factor)
        return result, elapsed * factor * 1e3


def serve_case(main, case: Case, answers: Answers, k: int, speed: Speed) -> list[float]:
    """The four requests of one array, checked; their scaled latencies in ms."""
    (code, x_out), infer_ms = speed.timed(serve, main, ["infer", case.text])
    responses = [(code, x_out)]
    lat = [infer_ms]
    for argv in (
        ["verify", x_out.strip(), case.text],
        ["regular", case.text],
        ["graph", case.text, "--format", "json"],
    ):
        response, ms = speed.timed(serve, main, argv)
        responses.append(response)
        lat.append(ms)
    for kind, (code, out) in zip(KINDS, responses):
        answers.record(k, kind, code, out)
    return lat


def largest(pool: list[Case]) -> list[Case]:
    """The tenth of the pool with the most positive edges."""
    ranked = sorted(pool, key=lambda c: edge_counts(c.y)[0], reverse=True)
    return ranked[: max(1, len(pool) // 10)]


def peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


SETUP_CHILD = """
import contextlib, io, sys, time
reference_work()
t0 = time.perf_counter()
reference_work()
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import indetstr.cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = indetstr.cli.main(["infer", "1"])
t2 = time.perf_counter()
if code != 0 or buf.getvalue() != "a\\n":
    sys.exit(1)
print(t2 - t1, t1 - t0)
"""


def setup_seconds(runs: int = 15) -> float:
    """Median over fresh interpreters of the time to import indetstr.cli and
    answer `infer 1`, each scaled by the reference timed in the same
    interpreter just before.  The first interpreter, which may compile
    bytecode, is dropped."""
    child = inspect.getsource(reference_work) + SETUP_CHILD
    times = []
    for _ in range(runs + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", child, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        setup, ref = map(float, done.stdout.split())
        times.append(setup * REFERENCE_S / ref)
    return statistics.median(times[1:])


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# --- untraced run: end-to-end metrics ----------------------------------------


@dataclass
class Run:
    metrics: dict[str, tuple[float, str]]
    answers: Answers
    samples: dict[str, int]
    speed: Speed
    tracer: Tracer | None = None


def run_untraced(pool: list[Case], seconds: float, mods) -> Run:
    cli, graph = mods["cli"], mods["graph"]
    answers = Answers(pool, graph)
    speed = Speed()
    setup = setup_seconds()
    times: dict[str, list[float]] = {kind: [] for kind in KINDS}
    deadline = time.perf_counter() + seconds
    served = 0
    while served < len(pool) or time.perf_counter() < deadline:
        k = served % len(pool)
        for kind, ms in zip(KINDS, serve_case(cli.main, pool[k], answers, k, speed)):
            times[kind].append(ms)
        served += 1

    peak = statistics.fmean(peak_mb(serve, cli.main, ["infer", c.text]) for c in largest(pool))
    metrics = {}
    for kind in KINDS:
        metrics[f"{kind}_ms.p50"] = (statistics.median(times[kind]), "ms")
        metrics[f"{kind}_ms.p90"] = (p90(times[kind]), "ms")
    # one caller, no think time: requests over the time spent in them
    busy = sum(sum(v) for v in times.values()) / 1e3
    metrics["requests_per_s"] = (sum(map(len, times.values())) / busy, "1/s")
    metrics["peak_alloc_mb"] = (peak, "MB")
    metrics["setup_s"] = (setup, "s")
    return Run(metrics, answers, {kind: len(v) for kind, v in times.items()}, speed)


# --- traced run: per-layer metrics -------------------------------------------

# Public layer functions wrapped in spans.  Every module-level binding of the
# function object is patched, so calls through `from .core import ...` names
# are caught too.
LAYERS = (
    "core.parse_array",
    "core.validate_feasible",
    "core.parse_string",
    "core.format_string",
    "core.compute_prefix_table",
    "core.verify_prefix_table",
    "graph.build_prefix_graph",
    "graph.positive_components",
    "graph.is_regular",
    "graph.export_graph",
    "inference.infer",
)


class Tracer:
    """Spans [name, start, end, parent index, request id], kept in memory.

    A span without a parent starts a request.  `factors` holds the speed
    factor of each request, by id, once the caller has added it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.requests = 0
        self.factors: list[float] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                self.requests += 1
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else None, self.requests - 1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    @contextlib.contextmanager
    def patched(self, mods):
        saved = []
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            fn = getattr(mods[mod_name], fn_name)
            wrapper = self.wrap(layer, fn)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)

    def durations(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Per span name: inclusive and self durations in ms, each scaled by
        the speed factor of its request."""
        factors = self.factors
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: dict[str, list[float]] = {}
        own: dict[str, list[float]] = {}
        for (name, start, end, _, req), c in zip(self.spans, child):
            total.setdefault(name, []).append((end - start) * 1e3 * factors[req])
            own.setdefault(name, []).append((end - start - c) * 1e3 * factors[req])
        return total, own


def walk_counts(pool: list[Case], inference) -> tuple[Counter, list[int]]:
    """Events of the walk by kind, and the alphabet size of each output."""
    events: Counter = Counter()
    sigmas = []
    for case in pool:
        x, trace = inference.infer_with_trace(case.y)
        events.update(line.split(" ", 1)[0] for line in trace)
        sigmas.append(max(a[-1] for a in x))
    return events, sigmas


def run_traced(pool: list[Case], seconds: float, mods) -> Run:
    cli, core, graph = mods["cli"], mods["core"], mods["graph"]
    answers = Answers(pool, graph)
    speed = Speed()
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    plain = traced = 0.0
    deadline = time.perf_counter() + seconds
    served = 0
    while served < len(pool) or time.perf_counter() < deadline:
        k = served % len(pool)
        case = pool[k]
        plain += sum(serve_case(cli.main, case, answers, k, speed))
        x = core.parse_string(answers.seen[(k, "infer")][0])
        first = len(speed.factors)
        with tracer.patched(mods):
            traced += sum(serve_case(traced_main, case, answers, k, speed))
            # the round-trip layer, called from here on the infer output
            round_trip, _ = speed.timed(core.compute_prefix_table, x)
        tracer.factors += speed.factors[first:]
        answers.attempted += 1
        answers.failed += round_trip != case.y
        served += 1

    total, own = tracer.durations()
    events, sigmas = walk_counts(pool, mods["inference"])
    accepts, rejects = events["accept"], events["reject"]
    metrics = {}
    for layer in LAYERS:
        if layer not in ("graph.is_regular", "inference.infer"):
            metrics[f"{layer}.ms"] = (statistics.median(total[layer]), "ms")
    metrics["graph.is_regular.self_ms"] = (statistics.median(own["graph.is_regular"]), "ms")
    metrics["inference.walk.self_ms"] = (statistics.median(own["inference.infer"]), "ms")
    metrics["cli.self_ms"] = (statistics.median(own["cli.main"]), "ms")
    metrics["graph.build_prefix_graph.peak_mb"] = (
        statistics.fmean(peak_mb(graph.build_prefix_graph, c.y) for c in largest(pool)), "MB",
    )
    counts = [edge_counts(c.y) for c in pool]
    metrics["graph.pos_edges"] = (sum(pos for pos, _ in counts), "count")
    metrics["graph.neg_edges"] = (sum(neg for _, neg in counts), "count")
    for name, event in (
        ("edges", "edge"), ("skips", "skip"), ("accepts", "accept"),
        ("rejects", "reject"), ("fresh", "new"), ("forbids", "forbid"), ("fills", "fill"),
    ):
        metrics[f"inference.{name}"] = (events[event], "count")
    metrics["inference.accept_ratio"] = (accepts / max(accepts + rejects, 1), "ratio")
    metrics["inference.accept_ratio.base"] = (accepts + rejects, "count")
    metrics["inference.skip_ratio"] = (events["skip"] / max(events["edge"], 1), "ratio")
    metrics["inference.skip_ratio.base"] = (events["edge"], "count")
    metrics["sigma.mean"] = (statistics.fmean(sigmas), "symbols")
    # Σ(y[i]+1) over i = 2..n: letter comparisons of the quadratic scan,
    # computed from the arrays rather than counted inside the program
    metrics["core.pt_steps"] = (sum(sum(c.y[1:]) + len(c.y) - 1 for c in pool), "count.computed")
    metrics["trace.overhead"] = (traced / plain, "x")
    return Run(metrics, answers, {"arrays": served}, speed, tracer)


# --- entry point -------------------------------------------------------------


def load_program():
    if not (SRC / "indetstr" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'indetstr'}")
    sys.path.insert(0, str(SRC))
    from indetstr import cli, core, graph, inference

    return {"cli": cli, "core": core, "graph": graph, "inference": inference}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(Path(__file__).parent / "results"),
                    help="directory for the full result record")
    args = ap.parse_args(argv)

    mods = load_program()
    pool = make_pool(args.workload, args.seed)
    runner = run_traced if args.trace else run_untraced
    run = runner(pool, args.seconds, mods)
    answers = run.answers

    params = {k: v for k, v in WORKLOADS[args.workload].items() if k != "gen"}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "params": params,
        "samples": run.samples,
        "speed": statistics.median(run.speed.factors),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "correct": answers.failed == 0,
        "attempted": answers.attempted,
        "failed": answers.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in run.metrics.items()},
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.tracer:
        with open(out / f"{stem}.spans.jsonl", "w") as fh:
            for name, start, end, parent, req in run.tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"params={json.dumps(params)} samples={json.dumps(run.samples)} "
          f"speed={record['speed']:.3f} fail_rate={answers.failed / max(answers.attempted, 1)}")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if answers.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
