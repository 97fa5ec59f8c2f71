"""Exact-arithmetic standard complexes and derived brackets for
finite-dimensional Leibniz algebras.

The package is organized bottom-up:

  sympoly   - the symmetric algebra S(Z) with exact rational coefficients
  linalg    - rational row reduction, kernels, repeated solves
  algebra   - Leibniz algebras from structure constants, fixtures, quotients
  cochains  - the standard complex: cochains, d = d0 + delta, the product
  duality   - phi, the musical maps, representability, section lifts
  brackets  - the graded bracket, the canonical cocycle, derived brackets
  verify    - the identity suites behind `leibcx verify`
  cli       - the `leibcx` command
"""

from .algebra import (InvalidAlgebraError, IntegrityError, LeibnizAlgebra,
                      PreconditionError, UnknownFixtureError, build_fixture,
                      check_leibniz, load_algebra, quotient_by_kernel)
from .brackets import (bullet, derived_bracket, derived_bracket_dual, diamond, poisson,
                       theta, zeta)
from .cochains import (Cochain, ComplexContext, InvalidCochainError, coboundary,
                       cochain_space_basis, cup, load_cochain, validate_cochain)
from .duality import (DualElement, ExtendedElement, NotRepresentableError, bar,
                      flat, flat_cochain, is_representable, sharp)
from .sympoly import DimensionError, SymPoly, derivation_extend, parse_sympoly
from .verify import VerifyConfig, run_verify

__all__ = [
    "Cochain", "ComplexContext", "DimensionError", "DualElement", "ExtendedElement",
    "IntegrityError", "InvalidAlgebraError", "InvalidCochainError", "LeibnizAlgebra",
    "NotRepresentableError", "PreconditionError", "SymPoly", "UnknownFixtureError",
    "VerifyConfig", "bar", "build_fixture", "bullet", "check_leibniz", "coboundary",
    "cochain_space_basis", "cup", "derivation_extend", "derived_bracket",
    "derived_bracket_dual", "diamond", "flat", "flat_cochain", "is_representable",
    "load_algebra", "load_cochain", "parse_sympoly", "poisson", "quotient_by_kernel",
    "run_verify", "sharp", "theta", "validate_cochain", "zeta",
]
