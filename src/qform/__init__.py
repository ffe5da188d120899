"""Density of quadratic form quotient sets in the p-adic numbers.

Given an integral quadratic form that is primitive and nonsingular, decide
for a prime p whether the set of value quotients is dense in the p-adics,
explain the decision, back it with a constructive witness or an exclusion
certificate, and cross-check everything against a brute force oracle.
"""

from .decide import (ALL_TREE_LEAVES, LEAF_ANISOTROPIC, LEAF_NONSINGULAR,
                     LEAF_ODD_K_ODD, LEAF_ODD_NONRESIDUE, LEAF_ODD_RESIDUE,
                     LEAF_TWO_K_ODD, LEAF_TWO_UNIT_NONSQUARE,
                     LEAF_TWO_UNIT_SQUARE, TAG_RANK_HIGH, TAG_RANK_ONE,
                     TAG_SQUARE_CLASS, Verdict, decide,
                     decide_binary_squareclass, decide_binary_tree)
from .errors import BudgetExceededError, InternalConsistencyError
from .forms import (BinaryForm, GeneralForm, InvalidFormError,
                    change_variables, factor_discriminant, format_form,
                    is_isotropic_mod_p, odd_singular_reduction, parse_form,
                    two_singular_reduction)
from .padic import (INFINITY, Prime, is_prime, is_square_in_qp, legendre,
                    mod_inverse, split_unit, valuation)
_LAZY = {name: "oracle" for name in (
    "oracle", "CoverageReport", "CrossCheckReport", "coverage", "cross_check",
    "excluded_classes")} | {name: "witness" for name in (
    "witness", "ExclusionCertificate", "Witness", "approximate_quotient",
    "exclusion_certificate", "lift_representation", "lift_representation_two",
    "quotient_error_valuation")}

__version__ = "0.1.0"

__all__ = [
    "ALL_TREE_LEAVES", "BinaryForm", "BudgetExceededError", "CoverageReport",
    "CrossCheckReport", "ExclusionCertificate", "GeneralForm", "INFINITY",
    "InternalConsistencyError", "InvalidFormError", "LEAF_ANISOTROPIC",
    "LEAF_NONSINGULAR", "LEAF_ODD_K_ODD", "LEAF_ODD_NONRESIDUE",
    "LEAF_ODD_RESIDUE", "LEAF_TWO_K_ODD", "LEAF_TWO_UNIT_NONSQUARE",
    "LEAF_TWO_UNIT_SQUARE", "Prime", "TAG_RANK_HIGH", "TAG_RANK_ONE",
    "TAG_SQUARE_CLASS", "Verdict", "Witness", "approximate_quotient",
    "change_variables", "coverage", "cross_check", "decide",
    "decide_binary_squareclass", "decide_binary_tree", "excluded_classes",
    "exclusion_certificate", "factor_discriminant", "format_form",
    "is_isotropic_mod_p", "is_prime", "is_square_in_qp",
    "legendre", "lift_representation", "lift_representation_two",
    "mod_inverse", "odd_singular_reduction", "parse_form",
    "quotient_error_valuation", "split_unit", "two_singular_reduction",
    "valuation",
]


def __getattr__(name):
    """Import a name of _LAZY on first use (PEP 562), then keep it here."""
    from importlib import import_module
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    return globals().setdefault(name, value)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
