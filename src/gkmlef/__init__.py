"""Exact workbench for GKM fixed-point data of Hamiltonian circle actions.

Pipeline: parse or generate a GKM document, select a circle subgroup, build
the canonical-class basis of equivariant cohomology, Kirwan-reduce to the
ordinary ring, and decide the hard Lefschetz property: by the paper's proof
where its premises hold, and by exact rank computations over Q elsewhere.
"""

from .model import (GkmGraph, GkmValidationError, CircleProfile, parse_gkm,
                    emit_gkm, restrict_to_circle, betti, check_hypothesis,
                    self_indexing_normalizer)
from .cohomology import (CanonicalBasis, CircleClass, OrdinaryRing,
                         abbv_integrate, canonical_classes,
                         canonical_classes_global, cup, cup_power,
                         equivariant_symplectic_class, expand_in_basis,
                         kirwan_reduce)
from .lefschetz import (HLReport, hard_lefschetz_check, semifree_monotone_analysis,
                        verify_distinct, verify_symp_expansion, verify_vanish,
                        verify_zeroclass, delta_certificate)
from .analysis import analyze
from .render import render_svg

__all__ = [
    "GkmGraph", "GkmValidationError", "CircleProfile", "parse_gkm", "emit_gkm",
    "restrict_to_circle", "betti", "check_hypothesis", "self_indexing_normalizer",
    "CanonicalBasis", "CircleClass", "OrdinaryRing",
    "abbv_integrate", "canonical_classes", "canonical_classes_global", "cup",
    "cup_power", "equivariant_symplectic_class", "expand_in_basis",
    "kirwan_reduce", "HLReport", "hard_lefschetz_check",
    "semifree_monotone_analysis", "verify_distinct", "verify_symp_expansion",
    "verify_vanish", "verify_zeroclass", "delta_certificate", "analyze",
    "render_svg",
]

__version__ = "0.1.0"
