"""Exact computer algebra for group-indexed corings and their module theory.

Everything is computed over an exact field (the rationals or a prime field)
with deterministic basis choices, so algebraic laws can be asserted as
literal matrix equalities.
"""

from corings.scalars import Field, GF, QQ
from corings.linalg import (
    Mat,
    QuotientSpace,
    kernel,
    quotient_by,
    rref,
    sandwich_operator,
    solve,
    tensor_k,
    tensor_slice_operator,
    triple_balanced_quotient,
)
from corings.algebra import (
    Algebra,
    Bimodule,
    BimoduleMap,
    DualBasis,
    find_dual_basis,
    is_bimodule_iso,
    left_dual,
    tensor_over_algebra,
    validate_algebra,
    validate_bimodule,
)
from corings.groups import FiniteGroup, validate_group
from corings.coring import (
    CofreeWitness,
    GroupCoring,
    GroupCoringMorphism,
    cofree_coring,
    validate_coring_morphism,
    validate_group_coring,
    verify_cofree,
)
from corings.fixtures import fixture
from corings.report import CheckItem, CheckReport

__all__ = [
    "Algebra",
    "Bimodule",
    "BimoduleMap",
    "CheckItem",
    "CheckReport",
    "CofreeWitness",
    "DualBasis",
    "Field",
    "FiniteGroup",
    "GF",
    "GroupCoring",
    "GroupCoringMorphism",
    "Mat",
    "QQ",
    "QuotientSpace",
    "cofree_coring",
    "find_dual_basis",
    "fixture",
    "is_bimodule_iso",
    "kernel",
    "left_dual",
    "quotient_by",
    "rref",
    "sandwich_operator",
    "solve",
    "tensor_k",
    "tensor_slice_operator",
    "tensor_over_algebra",
    "triple_balanced_quotient",
    "validate_algebra",
    "validate_bimodule",
    "validate_coring_morphism",
    "validate_group",
    "validate_group_coring",
    "verify_cofree",
]
