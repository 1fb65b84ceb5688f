"""u2factor: exact factorization of SL_n matrices into short products of
commutators of unipotent index-2 matrices, with machine-checkable
certificates and a brute-force oracle."""

from .field import (FieldSpec, FieldElement, GF, rationals, make_field,
                    parse_field_spec, parse_element, sqrt, is_square,
                    sum_of_two_nonzero_squares, square_class_pairing)
from .linalg import (Matrix, identity, diagonal, jordan_block, direct_sum,
                     charpoly, unipotent_jordan, parse_matrix_text,
                     matrix_to_text)
from .unipotent import (is_unipotent_index, is_u2, commutator, CommutatorPair,
                        Factorization, verify, expand_to_u2_product,
                        factorization_to_json, factorization_from_json,
                        unchecked_factorization_from_json)
from .sourour import sourour_factor
from .factor_sl2 import factor_sl2, single_commutator_test
from .factor_sln import factor, promised_max_pairs

__version__ = "0.1.0"

__all__ = [
    "FieldSpec", "FieldElement", "GF", "rationals", "make_field",
    "parse_field_spec", "parse_element", "sqrt", "is_square",
    "sum_of_two_nonzero_squares", "square_class_pairing",
    "Matrix", "identity", "diagonal", "jordan_block", "direct_sum",
    "charpoly", "unipotent_jordan", "parse_matrix_text",
    "matrix_to_text",
    "is_unipotent_index", "is_u2", "commutator", "CommutatorPair",
    "Factorization", "verify", "expand_to_u2_product",
    "factorization_to_json", "factorization_from_json",
    "unchecked_factorization_from_json",
    "sourour_factor", "factor_sl2", "single_commutator_test",
    "factor", "promised_max_pairs",
]
