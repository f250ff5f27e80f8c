"""Full analysis pipeline and its machine-readable report.

The report is a dict with deterministic key and list ordering, so identical
input bytes and flags always serialize to identical report bytes.  Every
node is a plain JSON value except two views that print themselves:
profile.vertices, a read-only Sequence over the vertices (VerticesView),
and canonical_basis.classes, a read-only Mapping over the canonical basis
(ClassesView).  Each prints from integers and builds its plain value from
the Fraction views when read, so json.dumps(report, indent=2,
default=json_default) is the byte reference for report_to_json.  That
writer fills one schema-1 template: the fixed skeleton of analyze's keys,
one row template for the lemma and certificate ledger and one for the hard
Lefschetz degrees, with the two views printing their own sections.
"""
from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Mapping, Sequence
from functools import cached_property
from math import gcd

from . import lefschetz
from .cohomology import (canonical_classes, kirwan_reduce,
                         localization_pairing_invertible)
from .exact import format_ratio, format_rational
from .model import (_KEYWORDS, _indented, _string, betti, check_hypothesis,
                    restrict_to_circle, self_indexing_normalizer, shift_moment_map)

SCHEMA_VERSION = 1


def json_default(view):
    """The plain value json.dumps prints for a view of the report: the list
    of a Sequence, the dict of a Mapping."""
    return list(view) if isinstance(view, Sequence) else dict(view)


class VerticesView(Sequence):
    """The report's profile.vertices: one {"id", "position", "mu", "index",
    "circle_weights"} per vertex id of vids, in that order, read from
    Vertex.position and profile.mu, the Fraction views, when indexed by an
    int.  indented(newline) prints it as json.dumps prints that list at
    indent 2, from graph.integer_positions and profile.scaled_mu over mu_scale,
    each written by format_ratio, and the profile's index and weights."""

    def __init__(self, graph, profile, vids):
        self._graph, self._profile, self._vids = graph, profile, vids

    @cached_property
    def _positions(self):
        return {v.id: v.position for v in self._graph.vertices}

    def __getitem__(self, i):
        vid, profile = self._vids[i], self._profile
        return {"id": vid,
                "position": [format_rational(x) for x in self._positions[vid]],
                "mu": format_rational(profile.mu[vid]),
                "index": profile.index[vid],
                "circle_weights": list(profile.weights[vid])}

    def __len__(self):
        return len(self._vids)

    def indented(self, newline):
        """json.dumps(list(self), indent=2) at the depth whose line breaks
        are `newline`: one template per row, filled with the ints' text."""
        vids, profile = self._vids, self._profile
        if not vids:
            return "[]"
        row_break = newline + "  "
        key_break = row_break + "  "
        value_break = key_break + "  "
        values = "[" + value_break + "%s" + key_break + "]"
        row = ("{" + key_break + '"id": %s,' + key_break + '"position": %s,' + key_break
               + '"mu": "%s",' + key_break + '"index": %d,' + key_break
               + '"circle_weights": %s' + row_break + "}")
        sep = "," + value_break
        positions, scale = self._graph.integer_positions
        text = {x: '"' + format_ratio(x, scale) + '"'  # each distinct coordinate once
                for x in set().union(*positions.values())}.__getitem__
        scaled_mu, d = profile.scaled_mu, profile.mu_scale
        index, weights = profile.index, profile.weights
        rows = []
        for vid in vids:
            pos, ws = positions[vid], weights[vid]
            rows.append(row % (_string(vid), values % sep.join(map(text, pos)) if pos else "[]",
                               format_ratio(scaled_mu[vid], d), index[vid],
                               values % sep.join(map(str, ws)) if ws else "[]"))
        return "[" + row_break + ("," + row_break).join(rows) + newline + "]"


def _ascending(cls, vids):
    """{vertex id: coefficients of cls there in ascending powers of u}, over
    vids: c * u^d is d "0"s then c, and a vertex cls does not store is [].
    The stored values are nonzero Fractions, and str formats them as
    format_rational does.  This is the reference route: ClassesView reads
    the Fraction views through it, and its integer writer is tested against
    it; report_to_json does not call it."""
    zeros, values = ["0"] * (cls.degree // 2), cls.values
    return {vid: zeros + [str(c)] if (c := values.get(vid)) else [] for vid in vids}


class ClassesView(Mapping):
    """The report's canonical_basis.classes: {F: {"degree", "alpha",
    "beta"}} over basis.order, each family as _ascending gives it from the
    Fraction views basis.alpha and basis.beta, built when read.
    indented(newline) prints it as json.dumps prints that dict at indent 2,
    from basis.integer_beta alone: beta_F(q) = a_F(q) / s_F and alpha_F(q) =
    L_F a_F(q) / s_F, L_F the product of the negative weights at F, each
    reduced by one gcd and written as str writes a Fraction."""

    def __init__(self, basis, vids):
        self._basis, self._vids = basis, vids

    def __getitem__(self, fid):
        basis = self._basis
        return {"degree": basis.profile.index[fid],
                "alpha": _ascending(basis.alpha[fid], self._vids),
                "beta": _ascending(basis.beta[fid], self._vids)}

    def __iter__(self):
        return iter(self._basis.order)

    def __len__(self):
        return len(self._basis.order)

    def indented(self, newline):
        """json.dumps(dict(self), indent=2) at the depth whose line breaks
        are `newline`: one '"vid": []' row per vertex, copied per family,
        with the rows of the stored values overwritten."""
        basis, vids = self._basis, self._vids
        if not basis.order:
            return "{}"
        fid_break = newline + "  "
        key_break = fid_break + "  "
        vid_break = key_break + "  "
        value_break = vid_break + "  "
        keys = [_string(vid) + ": " for vid in vids]
        empty = [key + "[]" for key in keys]
        slot = {vid: i for i, vid in enumerate(vids)}
        close = '"' + vid_break + "]"

        def family(head, values, factor, s):  # never {}: vids holds every id of basis.order
            rows = empty.copy()
            for vid, c in values.items():  # the basis stores no zero value
                i, x = slot[vid], c * factor
                g = gcd(x, s)  # s > 0, so the sign stays on x, as in a Fraction
                rows[i] = (keys[i] + head + (str(x // g) if g == s else
                                             "%d/%d" % (x // g, s // g)) + close)
            return "{" + vid_break + ("," + vid_break).join(rows) + key_break + "}"

        index, integer_beta = basis.profile.index, basis.integer_beta
        weight = basis.profile.negative_weight_product
        out = []
        for fid in basis.order:
            values, s = integer_beta[fid]
            head = "[" + value_break + ('"0",' + value_break) * (index[fid] // 2) + '"'
            out.append(_string(fid) + ": {" + key_break + '"degree": ' + str(index[fid])
                       + "," + key_break + '"alpha": ' + family(head, values, weight(fid), s)
                       + "," + key_break + '"beta": ' + family(head, values, 1, s)
                       + fid_break + "}")
        return "{" + fid_break + ("," + fid_break).join(out) + newline + "}"


def analyze(graph, xi, *, name=None, source_bytes=None, shift_min=False,
            with_timings=False):
    """Run the whole pipeline; returns (report, exit_code)."""
    t0 = time.monotonic()
    profile = restrict_to_circle(graph, xi)
    min_shift = "0"
    if shift_min:  # every stage reads mu - min(mu)
        low = min(profile.scaled_mu.values())
        min_shift = format_ratio(low, profile.mu_scale)
        profile = shift_moment_map(profile, low)
    hyp = check_hypothesis(profile)
    n = profile.n

    normalizer = None
    if hyp["constant_on_levels"]:
        normalizer = self_indexing_normalizer(profile)

    basis = canonical_classes(graph, profile)
    ring = kirwan_reduce(basis)

    # the zero-class lemmas read the pairings as their high-side certificate
    pairing_invertible = localization_pairing_invertible(basis)
    lemmas = [lefschetz.verify_symp_expansion(profile, ring)]
    for k in range(1, n + 1):
        lemmas.append(lefschetz.verify_vanish(profile, k))
    distinct = lefschetz.verify_distinct(profile)
    lemmas.append(distinct)
    for k in range(n + 1):
        lemmas.extend(lefschetz.verify_zeroclass(ring, k, pairing_invertible))
    # hard Lefschetz by the paper's proof where the ledger holds it
    hl = lefschetz.hard_lefschetz_check(
        ring, lefschetz.proof_chain(hyp, distinct, pairing_invertible))
    certificates = lefschetz.delta_certificates(basis, profile) \
        if hyp["constant_on_levels"] else []
    semifree = lefschetz.semifree_monotone_analysis(profile)
    vids = sorted(profile.index)

    digest = hashlib.sha256(source_bytes).hexdigest() if source_bytes else None
    report = {
        "schema": SCHEMA_VERSION,
        "input": {
            "name": name,
            "digest": digest,
            "xi": list(profile.xi),
            "shift_min": bool(shift_min),
        },
        "profile": {
            "rank": graph.rank,
            "dimension": graph.dimension,
            "vertices": VerticesView(graph, profile, vids),
            "levels": {str(2 * k): list(profile.level(k)) for k in range(n + 1)},
            "betti": betti(profile),
            "level_constants": [None if c is None else format_ratio(c, profile.mu_scale)
                                for c in profile.scaled_level_constants],
            "min_shift": min_shift,
            "warnings": list(profile.warnings),
        },
        "hypothesis": {
            "constant_on_levels": hyp["constant_on_levels"],
            "all_distinct": hyp["all_distinct"],
            "theorem_applicability": "applicable" if hyp["constant_on_levels"]
                                     else "not applicable",
        },
        "self_indexing_normalizer":
            None if normalizer is None else list(map(format_rational, normalizer)),
        "canonical_basis": {
            "order": list(basis.order),
            "classes": ClassesView(basis, vids),
        },
        "hard_lefschetz": {
            "holds": hl.holds,
            "degrees": [
                {
                    "degree": d.degree,
                    "source_dim": d.source_dim,
                    "target_dim": d.target_dim,
                    "rank": d.rank,
                    "vacuous": d.vacuous,
                    "holds": d.holds,
                }
                for d in hl.degrees
            ],
        },
        "lemmas": lemmas,
        "delta_certificates": certificates,
        "semifree": {
            "semifree": semifree["semifree"],
            "monotone_mu": None if semifree["monotone_mu"] is None else {
                vid: format_rational(val) for vid, val in sorted(semifree["monotone_mu"].items())
            },
            "self_indexing": semifree["self_indexing"],
        },
        "localization": {
            "pairing_invertible": {
                str(2 * k): ok for k, ok in enumerate(pairing_invertible)
            },
        },
    }
    if with_timings:
        report["timings"] = {"total_seconds": round(time.monotonic() - t0, 6)}
    exit_code = 0 if hyp["constant_on_levels"] else 2
    return report, exit_code


def _template(tree, depth):
    """tree, a dict whose leaves are None, as json.dumps(indent=2) prints it
    at depth, with a %s for each leaf."""
    return json.dumps(tree, indent=2).replace("null", "%s").replace("\n", "\n" + "  " * depth)


# the schema-1 report: analyze's keys in analyze's order, and a %s at the
# end for the optional timings tail
_SCHEMA = {
    "schema": None,
    "input": dict.fromkeys(("name", "digest", "xi", "shift_min")),
    "profile": dict.fromkeys(("rank", "dimension", "vertices", "levels", "betti",
                              "level_constants", "min_shift", "warnings")),
    "hypothesis": dict.fromkeys(("constant_on_levels", "all_distinct", "theorem_applicability")),
    "self_indexing_normalizer": None,
    "canonical_basis": dict.fromkeys(("order", "classes")),
    "hard_lefschetz": dict.fromkeys(("holds", "degrees")),
    "lemmas": None,
    "delta_certificates": None,
    "semifree": dict.fromkeys(("semifree", "monotone_mu", "self_indexing")),
    "localization": {"pairing_invertible": None},
}
_SKELETON = _template(_SCHEMA, 0)[:-2] + "%s\n}\n"
# an entry of lemmas or delta_certificates, with a %s for its candidate
_LEDGER_ROW = _template(dict.fromkeys(("name", "applicable", "pass", "detail")), 2).replace(
    '"detail": %s', '"detail": %s%s')
_CANDIDATE = ',\n      "candidate": %s'
_DEGREE_ROW = _template(dict.fromkeys(("degree", "source_dim", "target_dim", "rank", "vacuous",
                                       "holds")), 3)


def _list(texts, newline):
    """The JSON list of the printed values texts, as json.dumps(indent=2)
    prints it at the depth whose line breaks are newline."""
    if not texts:
        return "[]"
    inner = newline + "  "
    return "[%s%s%s]" % (inner, ("," + inner).join(texts), newline)


def _object(items, newline):
    """The JSON object of the (str key, printed value) pairs items, likewise."""
    if not items:
        return "{}"
    inner = newline + "  "
    return "{%s%s%s}" % (inner, ("," + inner).join([_string(k) + ": " + v for k, v in items]),
                         newline)


def _text(x):
    """A str or None as JSON."""
    return "null" if x is None else _string(x)


def _ledger(entries):
    keyword = _KEYWORDS
    return _list([_LEDGER_ROW % (_string(e["name"]), keyword[e["applicable"]], keyword[e["pass"]],
                                 _string(e["detail"]),
                                 _CANDIDATE % _string(e["candidate"]) if "candidate" in e else "")
                  for e in entries], "\n  ")


def report_to_json(report):
    """json.dumps(report, indent=2, default=json_default) + "\\n", byte for
    byte, for a report as analyze returns it: _SKELETON, which holds
    analyze's keys in analyze's order, filled with each section's text.  The
    ledger and the hard Lefschetz degrees print from their row templates, the
    two views through their indented methods, and only the optional timings
    tail through model's generic writer.  A report whose top-level key set
    is not analyze's raises ValueError naming a key missing or unknown."""
    keys = report.keys()
    if bad := (keys ^ _SCHEMA.keys()) - {"timings"}:
        raise ValueError("report key %s is missing or unknown" % min(map(repr, bad)))
    keyword = _KEYWORDS
    inp, prof, hyp = report["input"], report["profile"], report["hypothesis"]
    basis, hl, semifree = report["canonical_basis"], report["hard_lefschetz"], report["semifree"]
    normalizer, monotone = report["self_indexing_normalizer"], semifree["monotone_mu"]
    return _SKELETON % (
        report["schema"],
        _text(inp["name"]), _text(inp["digest"]), _list([*map(str, inp["xi"])], "\n    "),
        keyword[inp["shift_min"]],
        prof["rank"], prof["dimension"], prof["vertices"].indented("\n    "),
        _object([(k, _list([*map(_string, ids)], "\n      "))
                 for k, ids in prof["levels"].items()], "\n    "),
        _list([*map(str, prof["betti"])], "\n    "),
        _list([*map(_text, prof["level_constants"])], "\n    "),
        _string(prof["min_shift"]), _list([*map(_string, prof["warnings"])], "\n    "),
        keyword[hyp["constant_on_levels"]], keyword[hyp["all_distinct"]],
        _string(hyp["theorem_applicability"]),
        "null" if normalizer is None else _list([*map(_string, normalizer)], "\n  "),
        _list([*map(_string, basis["order"])], "\n    "), basis["classes"].indented("\n    "),
        keyword[hl["holds"]],
        _list([_DEGREE_ROW % (d["degree"], d["source_dim"], d["target_dim"], d["rank"],
                              keyword[d["vacuous"]], keyword[d["holds"]])
               for d in hl["degrees"]], "\n    "),
        _ledger(report["lemmas"]), _ledger(report["delta_certificates"]),
        keyword[semifree["semifree"]],
        "null" if monotone is None else
        _object([(vid, _string(x)) for vid, x in monotone.items()], "\n    "),
        keyword[semifree["self_indexing"]],
        _object([(k, keyword[ok]) for k, ok in report["localization"]["pairing_invertible"].items()],
                "\n    "),
        ',\n  "timings": ' + _indented(report["timings"], "\n  ") if "timings" in keys else "")


def report_to_text(report):
    """Human-readable projection of the JSON report."""
    lines = []
    prof = report["profile"]
    lines.append("input: %s (xi = %s)"
                 % (report["input"]["name"] or report["input"]["digest"],
                    tuple(report["input"]["xi"])))
    lines.append("dimension %d, rank %d, %d fixed points"
                 % (prof["dimension"], prof["rank"], len(prof["vertices"])))
    lines.append("betti: %s" % (tuple(prof["betti"]),))
    lines.append("levels:")
    for k, ids in sorted(prof["levels"].items(), key=lambda kv: int(kv[0])):
        c = prof["level_constants"][int(k) // 2]
        lines.append("  index %s: %s  (mu = %s)"
                     % (k, ", ".join(ids), c if c is not None else "non-constant"))
    for w in prof["warnings"]:
        lines.append("warning: %s" % w)
    hyp = report["hypothesis"]
    lines.append("moment map constant on levels: %s (theorem %s)"
                 % (hyp["constant_on_levels"], hyp["theorem_applicability"]))
    norm = report["self_indexing_normalizer"]
    lines.append("self-indexing normalizer: %s"
                 % ("none" if norm is None else "mu -> %s*mu + %s" % tuple(norm)))
    hl = report["hard_lefschetz"]
    lines.append("hard Lefschetz: %s" % ("holds" if hl["holds"] else "FAILS"))
    for d in hl["degrees"]:
        if d["vacuous"]:
            lines.append("  degree %d: vacuous (odd degrees are empty)" % d["degree"])
        else:
            lines.append("  degree %d: %dx%d matrix, rank %d -> %s"
                         % (d["degree"], d["source_dim"], d["target_dim"], d["rank"],
                            "ok" if d["holds"] else "FAIL"))
    lines.append("lemma checks:")
    for entry in report["lemmas"]:
        status = "n/a" if not entry["applicable"] else \
                 ("pass" if entry["pass"] else "FAIL")
        lines.append("  %-32s %s  %s" % (entry["name"], status, entry["detail"]))
    for entry in report["delta_certificates"]:
        status = "pass" if entry["pass"] else "FAIL"
        lines.append("  %-32s %s  candidate %s"
                     % (entry["name"], status, entry["candidate"]))
    sf = report["semifree"]
    if sf["semifree"]:
        lines.append("semifree action: yes; mu + n self-indexing: %s"
                     % sf["self_indexing"])
    else:
        lines.append("semifree action: no")
    if "timings" in report:
        lines.append("timings: %s" % ", ".join("%s %s" % kv for kv in report["timings"].items()))
    return "\n".join(lines) + "\n"
