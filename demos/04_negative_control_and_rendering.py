"""A negative control for the constancy hypothesis, plus SVG rendering.

The Hirzebruch trapezoid has two index-2 fixed points at different moment
levels, so the constancy hypothesis fails; the hard Lefschetz check still
runs (and holds here: the hypothesis is sufficient, not necessary).
Moment images are rendered to SVG files next to this script.
"""
import pathlib

from gkmlef import (canonical_classes, catalog, check_hypothesis,
                    hard_lefschetz_check, kirwan_reduce, parse_gkm,
                    render_svg, restrict_to_circle)

here = pathlib.Path(__file__).parent

entry = catalog.get("hirzebruch1")
graph = parse_gkm(entry.document)
profile = restrict_to_circle(graph, entry.default_xi)
print("hypothesis:", check_hypothesis(profile))
ring = kirwan_reduce(canonical_classes(graph, profile))
print("hard Lefschetz anyway:", hard_lefschetz_check(ring).holds)

for name in ("su3", "so5", "hirzebruch1"):
    entry = catalog.get(name)
    out = here / ("%s.svg" % name)
    out.write_text(render_svg(parse_gkm(entry.document), xi=entry.default_xi))
    print("wrote", out)
