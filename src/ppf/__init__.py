"""Exact finite-field towers and permutation-polynomial verification.

The library builds prime fields and explicit extension towers, exposes the
trace/dual-basis linear algebra of F_{q^n} as an F_q-vector space, provides
a sparse-polynomial permutation engine with an exhaustive bijectivity
oracle, and verifies necessary-and-sufficient permutation conditions for
eight families of binomial-power polynomials over F_{q^2}.
"""

from .errors import PPFError
from .fields import (
    DEFAULT_CAP,
    FieldCtx,
    build_extension,
    build_prime_field,
    build_tower,
    field_for_q_squared,
)
from .linalg import (
    Basis,
    dual_basis,
    eta,
    eta_inverse,
    is_linearly_independent,
    kernel_of_trace_maps,
    rho,
    rho_inverse,
)
from .polys import FnTable, SparsePoly, interpolate
from .maps import (
    ComponentPerms,
    VectorMap,
    composition_equivalence_check,
    build_trace_composite,
    build_triangular_g,
    composition_conditions,
    compose_field_map,
    compose_corollary_vec,
    monomial_family,
    psi,
    psi_inverse,
)
from .families import (
    AgreementReport,
    EpsilonSpec,
    FamilyParams,
    check_family,
    construct_family,
    two_trace_check,
    example_polys,
    lappano_check,
    trace_identity_check,
    ns_condition,
    pentanomial_identity_check,
    sweep_families,
)

__version__ = "0.1.0"
