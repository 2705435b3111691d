"""Exact factorization and root finding for unilateral polynomials over
division quaternion algebras (alpha, beta / Q)."""

from .errors import (AlgebraMismatch, DegenerateInput, DivisionByZero,
                     InternalInvariantViolation, InvalidCertificate,
                     NotSquarefree, PolyParseError, PreconditionViolation,
                     QuatpolyError, SearchExhausted, SplitAlgebra,
                     ZeroDivisorEncountered)
from .numberfield import (INFINITE_PLACE, NFElement, NumberField,
                          nf_factor, nf_local_splitting,
                          nf_quadratic_candidates, nf_quadratic_subfields,
                          nf_splits_quaternion, nf_sqrt)
from .parser import format_qpoly, parse_poly
from .qpoly import (BeckDecomposition, Factorization, QPoly, RootSet,
                    beck_decompose, factor, factor_central_irreducible,
                    is_irreducible, qp_conj, qp_evaluate, qp_gcrd,
                    qp_gcrd_bezout, qp_lclm, qp_norm, qp_right_divmod,
                    roots, subfield_factor, swap_factors)
from .quadform import (PlaceSet, ZeroDivisorCertificate, find_zero_divisor,
                       hilbert_symbol, is_division, is_local_square,
                       quaternary_isotropic, ramified_places, represent_pure,
                       search_zero_divisor, subfield_zero_divisor,
                       ternary_isotropic, ternary_local_obstruction)
from .quatalg import (CharPoly, Quaternion, QuaternionAlgebra, charpoly,
                      is_conjugate, q_inv)
from .ratpoly import (RatPoly, from_int_list, rp_discriminant, rp_factor,
                      rp_gcd, rp_is_irreducible, rp_real_root_count)

__version__ = "0.1.0"
