"""Exact factorization and root finding for unilateral polynomials over
division quaternion algebras (alpha, beta / Q)."""

from .errors import (AlgebraMismatch, DegenerateInput, DivisionByZero,
                     InternalInvariantViolation, InvalidCertificate,
                     NotSquarefree, PolyParseError, PreconditionViolation,
                     QuatpolyError, SearchExhausted, SplitAlgebra)
from .numberfield import (INFINITE_PLACE, NFElement, NumberField, PlaceSet,
                          hilbert_symbol, is_division, is_local_square,
                          nf_factor, nf_local_splitting,
                          nf_quadratic_candidates, nf_quadratic_subfields,
                          nf_quartic_subfields, nf_splits_quaternion,
                          nf_sqrt, ramified_places)
from .parser import format_qpoly, parse_poly
from .qpoly import (BeckDecomposition, Factorization, QPoly, RootSet,
                    beck_decompose, factor, factor_central_irreducible,
                    is_irreducible, qp_conj, qp_evaluate, qp_gcrd,
                    qp_gcrd_bezout, qp_lclm, qp_norm, qp_right_divmod,
                    roots, subfield_factor)
from .quadform import (ZeroDivisorCertificate, find_zero_divisor,
                       quaternary_isotropic, represent_pure,
                       search_zero_divisor, subfield_zero_divisor,
                       ternary_isotropic, ternary_local_obstruction)
from .quatalg import Quaternion, QuaternionAlgebra, is_conjugate, q_inv
from .ratpoly import (RatPoly, from_int_list, rp_discriminant, rp_factor,
                      rp_gcd, rp_is_irreducible, rp_real_root_count)

__version__ = "0.1.0"
