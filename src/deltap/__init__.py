"""Exact moment-type valuative invariants on convex-geometric models.

The library computes p-th moments of expected vanishing orders from
piecewise-polynomial volume curves, rational polytopes carrying concave
weight transforms, flag filtrations, and polarized toric models, in
exact rational arithmetic wherever the mathematics is rational.  On top
of the raw invariants it provides threshold searches (always labeled
upper bounds), stability verdicts, quantization convergence tables, and
a piecewise-linear Legendre pairing, each shipped with the inequality
checks the theory guarantees.

The exported names load their module on first use, so ``import deltap``
and a command that needs a few layers do not pay for the others.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("AccuracyError", "DeltapError", "DomainError",
               "InvariantViolation", "RangeError", "SemanticError",
               "StructureError", "UnsupportedModelError"),
    "filtration": ("FlagFiltration", "MonomialGradedFiltration",
                   "basis_moment", "compatible_basis", "random_flag_filtration",
                   "rounding_sandwich", "sup_over_bases_oracle"),
    "geodesic": ("GeodesicRay1D", "MomentIdentityReport", "TestCurve1D",
                 "dp_speed", "inverse_legendre", "legendre",
                 "random_test_curve", "verify_moment_identity"),
    "geometry": ("RationalPolytope", "survival_curve"),
    "invariants": ("InvariantReport", "KStabilityVerdict", "delta_bar_p",
                   "delta_family", "h_gap", "kstability_threshold_power",
                   "kstability_verdict", "projective_space_delta_power"),
    "okounkov": ("AffineForm", "ConcaveTransform"),
    "piecewise": ("PiecewisePolynomial", "Polynomial"),
    "toric": ("DeltaSearchResult", "ToricModel", "ToricValuation",
              "alpha_candidate", "builtin_model", "concave_transform_of",
              "delta_bar_p_search", "delta_p_search", "log_discrepancy",
              "section_filtration", "volume_curve_of"),
    "volume_curve": ("RadialProfile", "VolumeCurve", "curve_from_profile",
                     "random_admissible_curve"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
