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
"""

__version__ = "0.1.0"

from .bundles import (
    BundleHandle,
    SplittingProfile,
    SplittingType,
    bundle_handle,
    check_parity,
    check_type_h0,
    normalize,
    splitting_type,
    try_split_certificate,
    type_profile,
)
from .cohomology import h0_dim, h1, sheaf_rank_degree
from .delpezzo import (
    PointConfiguration,
    ProjectivePoint,
    classify,
    general_position,
    minus_one_classes,
    standardize,
)
from .errors import ArithsurfError
from .exactlat import IntegerMatrix, LatticeBasis, kernel_lattice, rank_over, smith_invariants
from .graded import (
    GF,
    QQ,
    ZZ,
    Form,
    FreeGraded,
    GradedMap,
    GradedPresentation,
    cokernel_presentation,
    degree_piece,
    free_presentation,
    monomial_basis,
    parse_form,
    reduce_mod,
    twist,
)
from .hirzebruch import (
    NormalForm,
    bundle_from_normal_form,
    constancy_check,
    degree_profile,
    equation,
    reduce_coefficients,
)
from .transforms import (
    BlowupFactorization,
    FiberQuotient,
    apply,
    blowup_factorization,
    prescribed_types,
    validate_quotient,
)
