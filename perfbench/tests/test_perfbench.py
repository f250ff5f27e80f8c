"""Tests for the benchmark's own parts: generators, oracle and span arithmetic.

Run from the repository root: python -m pytest perfbench/tests
"""
import json
import random
import time

import pytest

import gen
import oracle
import run
import spans
from gkmlef import cohomology
from gkmlef.analysis import analyze
from gkmlef.model import parse_gkm, run_checks


def analyse(case):
    report, exit_code, text = run.operate(case, run.no_span)
    return report, exit_code


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generated_documents_are_valid(workload):
    for case in gen.make_round(workload, 7, 0):
        assert all(ok for _, ok, _ in run_checks(json.loads(case.document)))
        assert parse_gkm(case.document) == case.graph


def test_rounds_are_reproducible():
    a = gen.make_round("small_batch", 3, 1)
    b = gen.make_round("small_batch", 3, 1)
    assert [(c.document, c.xi) for c in a] == [(c.document, c.xi) for c in b]
    assert a != gen.make_round("small_batch", 3, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_cp1_power_matches_sphere_product(n):
    power = gen.catalog_base("cp1")
    for _ in range(n - 1):
        power = gen.product(power, gen.catalog_base("cp1"))
    sphere = gen.catalog_base("sphere_product%d" % n)
    assert power.betti == sphere.betti
    reports = []
    for base in (power, sphere):
        report, _ = analyse(gen.make_case(base, random.Random(n)))
        assert oracle.signature(report)[0] == base.betti
        reports.append(report)
    assert oracle.signature(reports[0]) == oracle.signature(reports[1])


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("name", ["su3", "cp2xcp1"])
def test_fresh_copy_changes_document_not_invariants(name, shuffle):
    base = (gen.product(gen.catalog_base("cp2"), gen.catalog_base("cp1"))
            if name == "cp2xcp1" else gen.catalog_base(name))
    copy = gen.fresh_copy(base.graph, random.Random(5), shuffle=shuffle)
    assert copy != base.graph
    assert all(ok for _, ok, _ in run_checks(json.loads(gen.emit_checked(copy))))
    xi = base.default_xi
    reports = [analyze(g, xi)[0] for g in (base.graph, copy)]
    assert oracle.signature(reports[0]) == oracle.signature(reports[1])


def test_generic_circle_redraws_rejected_circles():
    graph = gen.catalog_base("cp3").graph
    rng = random.Random(0)
    for _ in range(50):
        xi = gen.generic_circle(graph, rng)
        assert all(sum(a * b for a, b in zip(e.weight, xi)) for e in graph.edges)


def test_oracle_accepts_good_reports_and_flags_bad_ones():
    case = gen.make_round("ladder", 1, 0)[0]
    report, exit_code = analyse(case)
    assert oracle.check(case, report, exit_code) == []
    assert oracle.check(case, report, 2 - exit_code)  # exit code recomputed
    report["profile"]["betti"] = [1] * len(report["profile"]["betti"])
    assert oracle.check(case, report, exit_code)


def test_oracle_exit_code_on_hirzebruch():
    case = gen.make_case(gen.catalog_base("hirzebruch1"), random.Random(2))
    assert not oracle.constant_on_levels(case.graph, case.xi)
    report, exit_code = analyse(case)
    assert exit_code == 2 and oracle.check(case, report, exit_code) == []


def test_same_across_circles_flags_a_changed_signature():
    case = gen.circle_sweep(random.Random(1), 1)[0]
    report, _ = analyse(case)
    same = oracle.SameAcrossCircles()
    assert same.check(case, report) == [] and same.check(case, report) == []
    report["hard_lefschetz"]["degrees"][0]["rank"] += 1
    assert same.check(case, report)


def test_self_times_subtract_direct_children():
    s = [spans.Span("root", 0.0, 10.0, None, 0),
         spans.Span("a", 1.0, 4.0, 0, 0),
         spans.Span("b", 2.0, 3.0, 1, 0),
         spans.Span("a", 5.0, 9.0, 0, 0),
         spans.Span("root", 10.0, 12.0, None, 1)]
    assert spans.self_times(s) == {"root": 3.0 + 2.0, "a": 2.0 + 4.0, "b": 1.0}


def test_traced_self_times_sum_to_operation_time():
    tracer = spans.Tracer()
    case = gen.make_round("small_batch", 2, 0)[0]
    with tracer.instrument():
        run.operate(case, tracer.span)
        run.operate(case, tracer.span)
    self_s = spans.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.name == spans.ROOT]
    assert [s.op for s in roots] == [0, 1]
    assert {"model.parse", "cohomology.canonical", "analysis.serialize"} <= set(self_s)
    assert sum(self_s.values()) == pytest.approx(sum(s.end - s.start for s in roots))
    assert all(v >= 0 for v in self_s.values())


def test_instrument_restores_stage_functions_and_counts_errors(monkeypatch):
    import gkmlef.analysis
    original = gkmlef.analysis.canonical_classes

    def broken(graph, profile):
        raise ValueError("boom")

    monkeypatch.setattr(gkmlef.analysis, "canonical_classes", broken)
    tracer = spans.Tracer()
    case = gen.make_round("ladder", 1, 0)[0]
    with tracer.instrument(), pytest.raises(ValueError):
        run.operate(case, tracer.span)
    assert gkmlef.analysis.canonical_classes is broken
    assert dict(tracer.errors) == {"cohomology.canonical": 1}
    monkeypatch.undo()
    assert gkmlef.analysis.canonical_classes is original


def test_cache_counters_absent_without_cache_info(monkeypatch):
    assert run.cache_info() is not None
    monkeypatch.setattr(cohomology, "congruence_space", lambda graph, d: ())
    assert run.cache_info() is None


def test_calibrate_scales_to_the_reference_speed():
    ref = run.REFERENCE_S
    assert run.calibrate(1.0, [ref, ref]) == pytest.approx(1.0)
    # kernel twice as slow on average: the host ran at half speed
    assert run.calibrate(1.0, [ref, 3 * ref]) == pytest.approx(0.5)
    assert run.calibrate(1.0, [ref, 2 * ref, 3 * ref]) == pytest.approx(0.5)
    assert run.reference_s() > 0


def test_speed_probe_samples_during_long_operations():
    samples = []
    with run.speed_probe(samples, 0.01):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(samples) >= 5 and all(t > 0 for t in samples)
    count = len(samples)
    time.sleep(0.05)  # the timer is off once the probe closes
    assert len(samples) == count
    with run.speed_probe(samples, None):
        time.sleep(0.05)
    assert len(samples) == count


def test_input_latencies_take_medians_over_repeated_rounds():
    def rec(name, value, ok=True):
        return {"input": name, "calibrated_s": value, "pass": ok}

    records = [rec("a", 1.0), rec("b", 5.0), rec("a", 3.0), rec("b", 4.0, ok=False),
               rec("a", 2.0), rec("b", 6.0)]
    assert run.input_latencies(records, repeated=True) == [
        (2.0, True), (6.0, False)]
    pooled = run.input_latencies(records, repeated=False)
    assert [v for v, _ in pooled] == [1.0, 5.0, 3.0, run.BUDGET_S, 2.0, 6.0]
    assert [ok for _, ok in pooled] == [True, True, True, False, True, True]
