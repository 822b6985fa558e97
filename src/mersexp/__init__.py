"""Explicit inverses in Z_{2^n - 1} and small-field monomial checks.

The package computes closed-form binary representations of the
inverses of gold (2^r + 1), kasami (2^(2r) - 2^r + 1) and
bracken-leander (2^(2r) + 2^r + 1) exponents modulo 2^n - 1,
certifies them through the modular add-with-carry recurrence, and
validates them empirically via differential uniformity of the
corresponding monomial maps over GF(2^n).
"""

from .residues import (
    BitSequence,
    ExponentFamily,
    NotInvertibleError,
    Residue,
    binary_weight,
    cyclotomic_canonical,
    cyclotomic_shift,
    ext_euclid_inverse,
    family_exponent,
    fold_mod,
    from_bits,
    mul_mod,
    to_bits,
)
from .carry import (
    CarryReport,
    CarrySequence,
    CongruenceError,
    SignedPowerForm,
    canonical_form,
    carry_constraints_check,
    signed_form,
    solve_carries,
    verify_congruence,
)
from .orderings import (
    RMatrix,
    e_value,
    from_r_matrix,
    matrix_of_sequence,
    to_r_matrix,
)
from .closed_form import (
    InverseResult,
    bl_inverse,
    gold_inverse,
    gold_invertible,
    kasami_degree_bounds,
    kasami_inverse,
    kasami_inverse_equivalence,
    kasami_invertible,
)
from .sbox import (
    CatalogEntry,
    FieldContext,
    catalog_lookup,
    differential_uniformity,
    verify_compositional_inverse,
)

__version__ = "1.0.0"

__all__ = [
    "BitSequence",
    "CarryReport",
    "CarrySequence",
    "CatalogEntry",
    "CongruenceError",
    "ExponentFamily",
    "FieldContext",
    "InverseResult",
    "NotInvertibleError",
    "RMatrix",
    "Residue",
    "SignedPowerForm",
    "binary_weight",
    "bl_inverse",
    "canonical_form",
    "carry_constraints_check",
    "catalog_lookup",
    "cyclotomic_canonical",
    "cyclotomic_shift",
    "differential_uniformity",
    "e_value",
    "ext_euclid_inverse",
    "family_exponent",
    "fold_mod",
    "from_bits",
    "from_r_matrix",
    "gold_inverse",
    "gold_invertible",
    "kasami_degree_bounds",
    "kasami_inverse",
    "kasami_inverse_equivalence",
    "kasami_invertible",
    "matrix_of_sequence",
    "mul_mod",
    "signed_form",
    "solve_carries",
    "to_bits",
    "to_r_matrix",
    "verify_compositional_inverse",
    "verify_congruence",
]
