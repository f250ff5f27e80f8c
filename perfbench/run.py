"""gkmlef benchmark: seeded GKM documents through parse -> analyze -> report.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 55 --trace 0

One operation is ``parse_gkm(document)``, ``analyze(graph, xi, name=...,
source_bytes=...)`` and ``report_to_json``, run in this single-threaded
process; the oracle checks each report after the operation's timer stops.
Runs repeat whole rounds (a fixed, seeded list of operations, see gen.py)
while the next round is expected to end within half a round of
``--seconds`` of wall time.

Times are calibrated.  The host's cores change speed by up to 2x over
seconds and minutes as other load comes and goes, and the program's own
time follows.  So a fixed pure-Python reference kernel (exact fraction
arithmetic, like the program's) is timed right before and right after
every operation and set-up, and every ``PROBE_PERIOD_S`` during an
operation of the untraced run (from a timer signal; those kernel runs are
taken out of the operation's time).  Each time is scaled by
``REFERENCE_S / (mean of its kernel times)``: it reads as seconds on a core
that runs the kernel in ``REFERENCE_S``.  The raw times are in the
per-operation records as well.  On ladder, whose rounds are fresh copies of
the same 14 inputs, an input's latency is its median over the rounds, so
the percentiles always fall on the same rungs; on small_batch every
operation is a sample of its own.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
public stage function in a span (spans.py) and prints per-layer self times
and counters, normalised per round.  Which layer metric should move which
end-to-end metric:

- cohomology.canonical_s: analyses_per_s and analyze_p90_s on ladder,
  where it takes about 90% of the time;
- model.parse_s, model.profile_s, analysis.serialize_s: analyze_p50_s on
  small_batch only;
- cohomology.kirwan_s, cohomology.localization_s and the lefschetz.*_s
  stages: analyses_per_s and analyze_p50_s on small_batch once canonical
  shrinks; barely ladder;
- cohomology.congruence_hits/misses/cache_entries: analyses_per_s on
  small_batch, whose circle sweep reuses one graph's cached congruence
  spaces, and max_rss_mb on both.

Per-operation records (input, xi, raw and calibrated latency, its kernel
times, pass/fail, sha256 of the report JSON) and the spans are written to
.perfbench-out/ under the working directory; two runs with the same seed
give the same digests, round by round.
The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from math import comb
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOADS = ("ladder", "small_batch")  # the rounds are defined in gen.py
SETUP_REPEATS = 3  # at start; one more before each further round
# an operation slower than this fails; the slowest take under 3 s on a
# 2.1 GHz Xeon core
BUDGET_S = 30.0
OUT_DIR = Path(".perfbench-out")
# the reference kernel's time at typical load on the 2-vCPU 2.1 GHz Xeon
# host the benchmark was tuned on (1.6 ms when that host was unloaded)
REFERENCE_S = 0.0025
REFERENCE_TERMS = 700
# operations longer than this are also calibrated by kernel runs during them
PROBE_PERIOD_S = 0.1
PROGRAM_MODULES = ("gkmlef", "gen", "oracle", "spans")


def program_modules():
    return [name for name in sys.modules if name.split(".")[0] in PROGRAM_MODULES]


def reference_s():
    """Seconds the reference kernel takes now.  The collector is off while
    it runs, so the size of the program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, REFERENCE_TERMS):
            total += Fraction(1, i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrate(seconds, kernel_times):
    """`seconds` at the reference speed, given kernel times taken around
    and during them."""
    return seconds * REFERENCE_S * len(kernel_times) / sum(kernel_times)


@contextmanager
def speed_probe(samples, period):
    """While open, time the reference kernel into `samples` every `period`
    seconds of wall time, from a SIGALRM handler in this thread; do nothing
    when `period` is None."""
    if period is None:
        yield
        return
    previous = signal.signal(signal.SIGALRM,
                             lambda signum, frame: samples.append(reference_s()))
    signal.setitimer(signal.ITIMER_REAL, period, period)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def setup(workload, seed):
    """Import gkmlef and generate round 0 from a cold start: the program's
    modules, and with them its caches, are dropped first.  Returns the
    calibrated seconds taken and the round."""
    for name in program_modules():
        del sys.modules[name]
    before = reference_s()
    t0 = time.perf_counter()
    gen = importlib.import_module("gen")
    cases = gen.make_round(workload, seed, 0)
    seconds = time.perf_counter() - t0
    return calibrate(seconds, [before, reference_s()]), cases


def probe_setup(workload, seed):
    """Time one more cold setup, then put the live modules back."""
    live = {name: sys.modules[name] for name in program_modules()}
    try:
        return setup(workload, seed)[0]
    finally:
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(live)


def operate(case, span):
    """One operation; `span` opens a tracing span or does nothing."""
    from gkmlef.analysis import analyze, report_to_json
    from gkmlef.model import parse_gkm
    from spans import ROOT
    with span(ROOT):
        with span("model.parse"):
            graph = parse_gkm(case.document)
        report, exit_code = analyze(graph, case.xi, name=case.name,
                                    source_bytes=case.document.encode())
        with span("analysis.serialize"):
            text = report_to_json(report)
    return report, exit_code, text


def no_span(name):
    return nullcontext()


class Run:
    """Operations of one process, their records and the oracle's verdicts."""

    def __init__(self, workload, seed, probe_period=None):
        import gen
        import oracle
        self.gen, self.oracle = gen, oracle
        self.workload, self.seed = workload, seed
        self.records = []
        self.failed = 0
        self.same = oracle.SameAcrossCircles()
        self.round_digests = []
        self.setup_s = []
        self.probe_period = probe_period  # see speed_probe
        self.rss_mb = None  # peak RSS over set-up and the first round

    def one(self, round_index, case, span=no_span):
        """Run and check one operation; returns (report, text) or None."""
        kernel_times = [reference_s()]
        t0 = time.perf_counter()
        with speed_probe(kernel_times, self.probe_period):
            try:
                report, exit_code, text = operate(case, span)
            except Exception as exc:  # the program failed: record it, go on
                report, text, problems = None, "", ["raised %r" % exc]
        # the program's time: the kernel runs of the probe are taken out
        latency = time.perf_counter() - t0 - sum(kernel_times[1:])
        kernel_times.append(reference_s())
        if report is not None:
            problems = (self.oracle.check(case, report, exit_code)
                        + self.same.check(case, report))
        if latency > BUDGET_S:
            problems.append("over the %.0f s budget" % BUDGET_S)
        self.failed += bool(problems)
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.records.append({
            "workload": self.workload, "round": round_index,
            "op": len(self.records), "input": case.name, "xi": list(case.xi),
            "latency_s": latency, "reference_s": kernel_times,
            "calibrated_s": calibrate(latency, kernel_times),
            "pass": not problems, "sha256": digest,
            **({"problems": problems} if problems else {})})
        return None if problems else (report, text)

    def rounds(self, seconds, first, span=no_span, after_op=None):
        """Whole rounds while another one is expected to end no more than
        half a round past `seconds`; returns the number of rounds run."""
        cases, index = first, 0
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            digest = hashlib.sha256()
            for case in cases:
                result = self.one(index, case, span)
                digest.update(self.records[-1]["sha256"].encode())
                if after_op is not None:
                    after_op(case, result)
            self.round_digests.append(digest.hexdigest())
            if index == 0:
                self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            index += 1
            now = time.perf_counter()
            if now - t0 + (now - start) / 2 > seconds:
                return index
            # set-up samples spread over the run, not all in the first second
            self.setup_s.append(probe_setup(self.workload, self.seed))
            cases = self.gen.make_round(self.workload, self.seed, index)

    def write(self, tag, extra=()):
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / ("%s-seed%d-%s.jsonl" % (self.workload, self.seed, tag))
        with open(path, "w") as fh:
            for row in list(self.records) + list(extra):
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        for i, d in enumerate(self.round_digests):
            print("round %d report digest %s" % (i, d))
        print("records: %s" % path)


def metric(value, unit):
    return {"value": value, "unit": unit}


def input_latencies(records, repeated):
    """(calibrated latency, passed) per input.  With `repeated` rounds an
    input (named alike in every round) gets its median over the rounds, and
    passes only if it passed in every round.  A failed operation misses any
    latency limit, so it counts as at least BUDGET_S."""
    samples = defaultdict(list)
    for i, r in enumerate(records):
        value = r["calibrated_s"] if r["pass"] else max(r["calibrated_s"], BUDGET_S)
        samples[r["input"] if repeated else i].append((value, r["pass"]))
    return [(statistics.median(v for v, _ in rows), all(ok for _, ok in rows))
            for rows in samples.values()]


def untraced(workload, seed, seconds, setup_s, first):
    run = Run(workload, seed, PROBE_PERIOD_S)
    run.setup_s += setup_s
    rounds = run.rounds(seconds, first)
    inputs = input_latencies(run.records, workload in run.gen.REPEATED)
    lat = [v for v, _ in inputs]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    run.write("untraced")
    print("analyze_p50_s and analyze_p90_s over %d samples from %d rounds"
          % (len(lat), rounds))
    return run, {
        "setup_s": metric(statistics.median(run.setup_s), "s"),
        "analyses_per_s": metric(sum(ok for _, ok in inputs) / sum(lat), "1/s"),
        "analyze_p50_s": metric(statistics.median(lat), "s"),
        "analyze_p90_s": metric(p90, "s"),
        # a fixed amount of work, so a faster program that fits more rounds
        # (and more cache entries) into the run is not charged for them
        "max_rss_mb": metric(run.rss_mb, "MB"),
    }


def coeff_bits(report):
    """Largest numerator or denominator bit length in the canonical basis."""
    bits = 0
    for cls in report["canonical_basis"]["classes"].values():
        for side in ("alpha", "beta"):
            for coeffs in cls[side].values():
                for s in coeffs:
                    q = Fraction(s)
                    bits = max(bits, abs(q.numerator).bit_length(),
                               q.denominator.bit_length())
    return bits


def congruence_cols(graph):
    """Columns of the widest congruence system, V * C(r + d - 1, d) at the
    top degree d = n: computed from the input, not measured."""
    return len(graph.vertices) * comb(graph.rank + graph.n - 1, graph.n)


def cache_info():
    from gkmlef import cohomology
    info = getattr(getattr(cohomology, "congruence_space", None), "cache_info", None)
    return info() if info is not None else None


def traced(workload, seed, seconds, first):
    import spans
    run = Run(workload, seed)
    tracer = spans.Tracer()
    counts = {"classes": 0, "coeff_bits_max": 0, "kirwan_products": 0,
              "hl_cells": 0, "cols_max": 0, "report_bytes": 0}

    def count(case, result):
        ring = tracer.results.pop("cohomology.kirwan", None)
        if result is None:
            return
        report, text = result
        counts["classes"] += len(report["canonical_basis"]["order"])
        counts["coeff_bits_max"] = max(counts["coeff_bits_max"], coeff_bits(report))
        if ring is not None:
            counts["kirwan_products"] += sum(len(row) for row in ring.table.values())
        counts["hl_cells"] += sum(d["source_dim"] * d["target_dim"]
                                  for d in report["hard_lefschetz"]["degrees"])
        counts["cols_max"] = max(counts["cols_max"], congruence_cols(case.graph))
        counts["report_bytes"] += len(text.encode())

    # allocation peaks cost 3x the time, so they get a round of their own,
    # on inputs no traced round shares a cache entry with
    t0 = time.perf_counter()
    alloc_peak = 0
    tracemalloc.start()
    try:
        for case in run.gen.make_round(workload, seed, -1):
            tracemalloc.reset_peak()
            run.one(-1, case)
            alloc_peak = max(alloc_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    seconds -= time.perf_counter() - t0

    before = cache_info()
    with tracer.instrument():
        rounds = run.rounds(seconds, first, tracer.span, count)
    after = cache_info()

    self_s = spans.self_times(tracer.spans)
    op_s = sum(s.end - s.start for s in tracer.spans if s.name == spans.ROOT)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[name + "_s"] = metric(self_s.get(name, 0.0) / rounds, "s/round")
    metrics["analysis.unattributed_s"] = metric(self_s.get(spans.ROOT, 0.0) / rounds,
                                                "s/round")
    metrics["analysis.traced_op_s"] = metric(op_s / rounds, "s/round")
    if before is None or after is None:
        print("counters cohomology.congruence_*: absent (no congruence_space.cache_info)")
        cache = dict.fromkeys(("hits", "misses", "entries"), 0)
    else:
        cache = {"hits": after.hits - before.hits, "misses": after.misses - before.misses,
                 "entries": after.currsize - before.currsize}
    for key in ("hits", "misses"):
        metrics["cohomology.congruence_" + key] = metric(cache[key] / rounds, "count/round")
    metrics["cohomology.cache_entries"] = metric(cache["entries"] / rounds, "count/round")
    metrics["cohomology.classes"] = metric(counts["classes"] / rounds, "count/round")
    metrics["cohomology.coeff_bits_max"] = metric(counts["coeff_bits_max"], "bits")
    metrics["cohomology.kirwan_products"] = metric(counts["kirwan_products"] / rounds,
                                                   "count/round")
    metrics["lefschetz.hl_cells"] = metric(counts["hl_cells"] / rounds, "count/round")
    metrics["exact.congruence_cols_max"] = metric(counts["cols_max"], "cols-computed")
    metrics["analysis.report_bytes"] = metric(counts["report_bytes"] / rounds, "B/round")
    metrics["analysis.alloc_peak_mb"] = metric(alloc_peak / 2 ** 20, "MB")
    for name in spans.SPAN_NAMES:
        metrics[name + ".errors"] = metric(tracer.errors.get(name, 0), "count")
    run.write("traced", ({"span": s.name, "start": s.start, "end": s.end,
                          "parent": s.parent, "op": s.op} for s in tracer.spans))
    print("traced %d rounds; stage self times sum to %.6f s of %.6f s traced"
          % (rounds, sum(self_s.values()), op_s))
    return run, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gkmlef").is_dir():
        parser.error("no gkmlef sources at %s; run from a repository checkout" % SRC)
    sys.path.insert(0, str(SRC))

    times = []
    for _ in range(SETUP_REPEATS):
        seconds, first = setup(args.workload, args.seed)
        times.append(seconds)
    if args.trace:
        run, metrics = traced(args.workload, args.seed, args.seconds, first)
    else:
        run, metrics = untraced(args.workload, args.seed, args.seconds, times, first)
    attempted = len(run.records)
    print(json.dumps({"correct": run.failed == 0, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
