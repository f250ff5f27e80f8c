"""Correctness oracle for one analysis report.

It trusts nothing the report derives: Betti numbers come from the catalog
(convolved for products), the moment-map constancy that decides the exit
code is recomputed from the generator's own graph, and the hard Lefschetz
ranks must equal those Betti numbers.
"""
from __future__ import annotations

import hashlib


def own_profile(graph, xi):
    """Moment value and Morse index of every vertex at the circle `xi`."""
    mu = {v.id: sum(p * a for p, a in zip(v.position, xi)) for v in graph.vertices}
    negative = dict.fromkeys(mu, 0)
    for e in graph.edges:
        # the weight points v -> w, so exactly one endpoint sees it negative
        pairing = sum(a * b for a, b in zip(e.weight, xi))
        negative[e.v if pairing < 0 else e.w] += 1
    return mu, {vid: 2 * k for vid, k in negative.items()}


def constant_on_levels(graph, xi):
    mu, index = own_profile(graph, xi)
    values = {}
    for vid, ix in index.items():
        values.setdefault(ix, set()).add(mu[vid])
    return all(len(v) == 1 for v in values.values())


def signature(report):
    """What must not depend on the circle: Betti numbers and HL ranks."""
    return (tuple(report["profile"]["betti"]),
            tuple((d["degree"], d["rank"]) for d in report["hard_lefschetz"]["degrees"]))


def check(case, report, exit_code):
    """Problems found in `report` for `case`; empty when it is correct."""
    problems = []
    betti = list(case.betti)
    if report["input"]["xi"] != list(case.xi):
        problems.append("report is for xi %s" % report["input"]["xi"])
    if report["profile"]["betti"] != betti:
        problems.append("betti %s != expected %s" % (report["profile"]["betti"], betti))
    hl = report["hard_lefschetz"]
    if not hl["holds"]:
        problems.append("hard Lefschetz fails")
    for d in hl["degrees"]:
        k = d["degree"]
        ok = d["vacuous"] if k % 2 else \
            d["rank"] == d["source_dim"] == d["target_dim"] == betti[k]
        if not ok:
            problems.append("HL degree %d: %s" % (k, d))
    for entry in report["lemmas"]:
        if entry["applicable"] and not entry["pass"]:
            problems.append("lemma %s fails: %s" % (entry["name"], entry["detail"]))
    for entry in report["delta_certificates"]:
        if not entry["pass"]:
            problems.append("certificate %s fails" % entry["name"])
    for degree, ok in report["localization"]["pairing_invertible"].items():
        if not ok:
            problems.append("localization pairing singular in degree %s" % degree)
    expected_exit = 0 if constant_on_levels(case.graph, case.xi) else 2
    if exit_code != expected_exit:
        problems.append("exit code %d, expected %d" % (exit_code, expected_exit))
    return problems


class SameAcrossCircles:
    """Every report on one document must have the signature of the first."""

    def __init__(self):
        self._first = {}

    def check(self, case, report):
        key = hashlib.sha256(case.document.encode()).digest()
        sig = signature(report)
        first = self._first.setdefault(key, sig)
        if sig != first:
            return ["betti/HL ranks %s differ from %s at another circle" % (sig, first)]
        return []
