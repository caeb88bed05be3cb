"""Exact computer algebra for connected components of algebraic loop spaces.

Laurent series over exact coefficient rings, the multiplicative normal
form of invertible series, loop classification on a small curve catalog,
residue calculus for meromorphic 1-forms, and surface-group homomorphism
counts from Mednykh's character formula.
"""

from .components import (
    FamilyClassification,
    FiberResult,
    QuotientClass,
    classify_family,
    pi0_census,
    quotient_class,
)
from .covers import (
    GeneratorAssignment,
    Perm,
    commutator,
    compose,
    conjugacy_class_count,
    count_homs,
    surface_relation,
    witness_nonextendable,
)
from .curves import (
    ComponentClass,
    Curve,
    Loop,
    PunctureChart,
    check_on_curve,
    classify_loop,
    cover_loop,
    lift_x,
    make_curve,
    point_loop,
    puncture_loop,
)
from .errors import (
    InconsistentPoleData,
    InsufficientPrecision,
    LoopSpaceError,
    NotInvertible,
    ParseError,
    VerificationFailed,
)
from .forms import (
    MeromorphicForm,
    XYPoly,
    dlog_x,
    family_residue_constancy,
    pullback,
    residue_along,
    residue_at_place,
    residue_sum,
    third_kind,
)
from .normal_form import NormalForm, factor, order_of, reconstruct
from .parser import (
    format_normal_form,
    format_series,
    parse_curve_spec,
    parse_place,
    parse_series,
    parse_xy_rational,
)
from .ring import POLY, RATIONAL, Coeff, Ring, nilpotent_ring
from .series import DEFAULT_PREC, LaurentSeries, sqrt

__all__ = [
    "Coeff",
    "ComponentClass",
    "Curve",
    "DEFAULT_PREC",
    "FamilyClassification",
    "FiberResult",
    "GeneratorAssignment",
    "InconsistentPoleData",
    "InsufficientPrecision",
    "LaurentSeries",
    "Loop",
    "LoopSpaceError",
    "MeromorphicForm",
    "NormalForm",
    "NotInvertible",
    "POLY",
    "ParseError",
    "Perm",
    "PunctureChart",
    "QuotientClass",
    "RATIONAL",
    "Ring",
    "VerificationFailed",
    "XYPoly",
    "check_on_curve",
    "classify_family",
    "classify_loop",
    "commutator",
    "compose",
    "conjugacy_class_count",
    "count_homs",
    "cover_loop",
    "dlog_x",
    "factor",
    "family_residue_constancy",
    "format_normal_form",
    "format_series",
    "lift_x",
    "make_curve",
    "nilpotent_ring",
    "order_of",
    "parse_curve_spec",
    "parse_place",
    "parse_series",
    "parse_xy_rational",
    "pi0_census",
    "point_loop",
    "pullback",
    "puncture_loop",
    "quotient_class",
    "reconstruct",
    "residue_along",
    "residue_at_place",
    "residue_sum",
    "sqrt",
    "surface_relation",
    "third_kind",
    "witness_nonextendable",
]

__version__ = "0.1.0"
