"""Deterministic SVG rendering of rank-2 moment images: vertices as dots,
edges as segments, the circle vector as an arrow, level values annotated.
No timestamps or other run-dependent content."""
from __future__ import annotations

from fractions import Fraction

from .exact import format_rational, mat_vec
from .model import GkmValidationError, restrict_to_circle

_SCALE = 60
_MARGIN = 50


def _fmt(x):
    """Fixed-precision coordinate formatting (rendering only; analysis stays exact)."""
    return "%.2f" % (float(x),)


def render_svg(graph, xi=None, projection=None):
    """Render the moment image to an SVG 1.1 document string; with a circle
    xi, each vertex is labelled with its moment value under it.

    `projection` is two rational row vectors mapping positions into the
    plane; it defaults to the identity on rank-2 inputs and is required on
    any other rank.
    """
    profile = restrict_to_circle(graph, xi) if xi is not None else None
    if projection is None:
        if graph.rank != 2:
            raise GkmValidationError(
                "rank-%d input needs an explicit 2-plane projection" % graph.rank)
        projection = [[1, 0], [0, 1]]
    proj = [[Fraction(x) for x in row] for row in projection]
    if len(proj) != 2 or any(len(row) != graph.rank for row in proj):
        raise GkmValidationError("projection must be 2 rows of length rank")

    points = {v.id: mat_vec(proj, list(v.position)) for v in graph.vertices}
    xs = [p[0] for p in points.values()]
    ys = [p[1] for p in points.values()]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)

    def to_px(p):
        # y axis flipped so the moment image reads in math orientation
        return (_MARGIN + _SCALE * (p[0] - xmin),
                _MARGIN + _SCALE * (ymax - p[1]))

    width = _fmt(2 * _MARGIN + _SCALE * (xmax - xmin))
    height = _fmt(2 * _MARGIN + _SCALE * (ymax - ymin) + (30 if xi is not None else 0))

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           'width="%s" height="%s">' % (width, height)]
    for e in graph.edges:
        (x1, y1), (x2, y2) = to_px(points[e.v]), to_px(points[e.w])
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" '
                   'stroke="black" stroke-width="1.5"/>'
                   % (_fmt(x1), _fmt(y1), _fmt(x2), _fmt(y2)))
    for v in graph.vertices:
        x, y = to_px(points[v.id])
        out.append('<circle cx="%s" cy="%s" r="4" fill="black"/>' % (_fmt(x), _fmt(y)))
        label = v.id
        if profile is not None:
            label += " (mu=%s)" % format_rational(profile.mu[v.id])
        out.append('<text x="%s" y="%s" font-size="11">%s</text>'
                   % (_fmt(x + 6), _fmt(y - 6), label))
    if xi is not None:
        bx, by = _MARGIN, float(height) - 12
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" '
                   'stroke-width="1" marker-end="url(#arrow)"/>'
                   % (_fmt(bx), _fmt(by), _fmt(bx + 30), _fmt(by - 15)))
        out.append('<defs><marker id="arrow" markerWidth="8" markerHeight="8" '
                   'refX="6" refY="3" orient="auto">'
                   '<path d="M0,0 L6,3 L0,6 z" fill="black"/></marker></defs>')
        out.append('<text x="%s" y="%s" font-size="11">xi = (%s)</text>'
                   % (_fmt(bx + 36), _fmt(by - 10),
                      ", ".join(str(a) for a in xi)))
    out.append('</svg>')
    return "\n".join(out) + "\n"
