"""Exact-arithmetic invariants of surface models over the integers.

The package computes, in exact integer arithmetic throughout:

* splitting types of rank-2 vector bundles on the projective line over Z,
  at the generic point and at every prime (``bundles``),
* fiber-type elementary transformations with their blow-up factorization
  records, including the prescribed-jumps constructor (``transforms``),
* normal-form equations of Hirzebruch surface models in P^1 x P^2
  (``hirzebruch``),
* del Pezzo point-configuration classification over Z (``delpezzo``),

on top of a small exact linear algebra core (``exactlat``), graded
presentations of sheaves on the line (``graded``), and degreewise sheaf
cohomology (``cohomology``).

The public names below are re-exported lazily (PEP 562): a layer is
imported on the first use of one of its names, so importing the package,
or running one CLI subcommand, loads only the layers that are used.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "bundles": (
        "BundleHandle", "SplittingProfile", "SplittingType", "bundle_handle", "check_parity",
        "check_type_h0", "normalize", "splitting_type", "try_split_certificate", "type_profile",
    ),
    "cohomology": ("h0_dim", "h1", "sheaf_rank_degree"),
    "delpezzo": (
        "PointConfiguration", "ProjectivePoint", "classify", "general_position",
        "minus_one_classes", "standardize",
    ),
    "errors": ("ArithsurfError",),
    "exactlat": ("IntegerMatrix", "LatticeBasis", "kernel_lattice", "smith_invariants"),
    "graded": (
        "GF", "QQ", "ZZ", "Form", "FreeGraded", "GradedMap", "GradedPresentation",
        "cokernel_presentation", "degree_piece", "free_presentation", "monomial_basis",
        "parse_form", "reduce_mod", "twist",
    ),
    "hirzebruch": (
        "NormalForm", "bundle_from_normal_form", "constancy_check", "degree_profile", "equation",
        "reduce_coefficients",
    ),
    "transforms": (
        "BlowupFactorization", "FiberQuotient", "apply", "blowup_factorization",
        "prescribed_types", "validate_quotient",
    ),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}

__all__ = list(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    # Bound once, so later lookups are plain module attribute reads.
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
