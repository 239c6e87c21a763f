"""Exact arithmetic and representation theory for the algebras H_q(f, g).

The algebra on generators x, y, h with relations h x = x f(h),
y h = f(h) y and y x = q x y + g(h) admits a basis of ordered words
x^i p(h) y^k; this package computes in that basis over Q, GF(p) and
GF(p^k), analyzes the structure of the algebra (conformality, center,
zero divisors) and constructs, tests and classifies its
finite-dimensional simple modules.
"""

from .algebra import (
    AlgebraSpec,
    PBWElement,
    commutator,
    generators,
    q_commutator,
    theta,
)
from .errors import QghaError
from .fields import FieldElement, FieldSpec, multiplicative_order
from .linalg import Matrix
from .modules import (
    MatrixRep,
    ModuleSpec,
    build_matrix_rep,
    enumerate_c_extensions,
    enumerate_simples,
    extend_algebra,
    is_simple_bruteforce,
    is_simple_structural,
    iso_bruteforce,
    iso_structural,
    verify_relations,
)
from .poly import Poly, rational_roots, roots_in_field
from .spectra import (
    LambdaOrbit,
    MuSequence,
    NuTable,
    enumerate_lambda_orbits,
    mu_period,
    mu_periods,
    nu_increment,
    nu_table,
    orbit_from_seed,
)
from .structure import (
    ConformalWitness,
    center_basis_truncated,
    conformal_witness,
    domain_check,
    verify_z_relations,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "ConformalWitness",
    "FieldElement",
    "FieldSpec",
    "LambdaOrbit",
    "Matrix",
    "MatrixRep",
    "ModuleSpec",
    "MuSequence",
    "NuTable",
    "PBWElement",
    "Poly",
    "QghaError",
    "build_matrix_rep",
    "center_basis_truncated",
    "commutator",
    "conformal_witness",
    "domain_check",
    "enumerate_c_extensions",
    "enumerate_lambda_orbits",
    "enumerate_simples",
    "extend_algebra",
    "generators",
    "is_simple_bruteforce",
    "is_simple_structural",
    "iso_bruteforce",
    "iso_structural",
    "mu_period",
    "mu_periods",
    "multiplicative_order",
    "nu_increment",
    "nu_table",
    "orbit_from_seed",
    "q_commutator",
    "rational_roots",
    "roots_in_field",
    "theta",
    "verify_relations",
    "verify_z_relations",
]
