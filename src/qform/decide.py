"""Density deciders for quotient sets of quadratic forms in the p-adic numbers.

Two independent routes for binary forms: an eight-leaf decision tree driven by
local isotropy and the discriminant factorization, and a one-step square-class
criterion (dense exactly when the discriminant is a p-adic square). They must
always agree. decide is the entry point for every rank: on a rank-2 form it
returns the tree's verdict, checked against the criterion's bool, and raises if
they differ; rank 1 is never dense and rank >= 3 always is.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalConsistencyError
from .forms import (BinaryForm, DiscFactorization, GeneralForm,
                    factor_discriminant, format_form, is_isotropic_mod_p)
from .padic import is_square_in_qp, legendre, uncapped_text

# Terminal leaves of the decision tree, one tag per leaf.
LEAF_ANISOTROPIC = "anisotropic"
LEAF_NONSINGULAR = "isotropic-nonsingular"
LEAF_ODD_K_ODD = "odd-singular-k-odd"
LEAF_ODD_RESIDUE = "odd-singular-residue"
LEAF_ODD_NONRESIDUE = "odd-singular-nonresidue"
LEAF_TWO_K_ODD = "two-singular-k-odd"
LEAF_TWO_UNIT_SQUARE = "two-singular-ell-1-mod-8"
LEAF_TWO_UNIT_NONSQUARE = "two-singular-ell-not-1-mod-8"

TAG_SQUARE_CLASS = "square-class"
TAG_RANK_HIGH = "rank-ge-3"
TAG_RANK_ONE = "rank-1-squares"

ALL_TREE_LEAVES = frozenset({
    LEAF_ANISOTROPIC, LEAF_NONSINGULAR,
    LEAF_ODD_K_ODD, LEAF_ODD_RESIDUE, LEAF_ODD_NONRESIDUE,
    LEAF_TWO_K_ODD, LEAF_TWO_UNIT_SQUARE, LEAF_TWO_UNIT_NONSQUARE,
})


class PathNode(NamedTuple):
    node: str
    question: str
    answer: str

    def to_json_dict(self) -> dict:
        return self._asdict()


class Verdict(NamedTuple):
    dense: bool
    theorem_tag: str
    factorization: DiscFactorization | None
    rank: int = 2  # asked only when factorization is None

    @property
    def path(self) -> tuple[PathNode, ...]:
        """The questions from the root to the leaf, then the conclusion;
        built on each read, as only explanations need it."""
        conclusion = "dense" if self.dense else "not dense"
        return tuple(PathNode(node, question, "yes" if yes else "no")
                     for node, question, yes in _questions(self)) + (
            PathNode(self.theorem_tag, "conclusion", conclusion),)

    def to_json_dict(self) -> dict:
        return {
            "dense": self.dense,
            "path": [n.to_json_dict() for n in self.path],
            "theorem_tag": self.theorem_tag,
            "k": self.factorization.k if self.factorization else None,
            "ell": self.factorization.ell if self.factorization else None,
        }


def _questions(v: Verdict) -> list[tuple[str, str, bool]]:
    """(node, question, answer) on the way to v's leaf, each answer read off
    the leaf: the tree stops at the first no of isotropic and singular, and
    after k-odd when k is odd; dense answers the last question."""
    tag, fact = v.theorem_tag, v.factorization
    if fact is None:
        return [("rank", f"Is the rank {v.rank} at least 3?", v.dense)]
    p = fact.p
    if tag == TAG_SQUARE_CLASS:
        return [("square-class", "Is the discriminant "
                 f"{uncapped_text(str, fact.disc)} a square in the {p}-adic "
                 "numbers?", v.dense)]
    iso, sing = tag != LEAF_ANISOTROPIC, tag != LEAF_NONSINGULAR
    k_odd = tag in (LEAF_ODD_K_ODD, LEAF_TWO_K_ODD)
    asked = [("isotropic", f"Is the form isotropic modulo {p}?", iso),
             ("singular", f"Is the form singular modulo {p}?", sing),
             ("p-odd", f"Is p = {p} odd?", p != 2),
             ("k-odd", f"Is the discriminant valuation k = {fact.k} odd?", k_odd)]
    if not (iso and sing):
        return asked[:1 + iso]
    if k_odd:
        return asked
    ell = f"Is the unit cofactor ell = {uncapped_text(str, fact.ell)}"
    return asked + [("ell-mod-8", f"{ell} congruent to 1 modulo 8?", v.dense)
                    if p == 2 else
                    ("legendre", f"{ell} a square modulo {p}?", v.dense)]


def decide_binary_tree(f: BinaryForm, p: int) -> Verdict:
    """Walk the decision tree: isotropy, singularity, then the unit cofactor.

    Node order is fixed: isotropic -> singular -> p odd -> k odd -> leaf.
    """
    fact = factor_discriminant(f, p)
    if not is_isotropic_mod_p(f, p):
        dense, tag = False, LEAF_ANISOTROPIC
    elif not fact.k:
        dense, tag = True, LEAF_NONSINGULAR
    elif fact.k % 2:
        dense, tag = False, LEAF_ODD_K_ODD if p != 2 else LEAF_TWO_K_ODD
    elif p != 2:
        dense = legendre(fact.ell, p) == 1
        tag = LEAF_ODD_RESIDUE if dense else LEAF_ODD_NONRESIDUE
    else:
        dense = fact.ell % 8 == 1
        tag = LEAF_TWO_UNIT_SQUARE if dense else LEAF_TWO_UNIT_NONSQUARE
    # tuple.__new__ skips the named tuple's costly generated __new__
    return tuple.__new__(Verdict, (dense, tag, fact, 2))


def decide_binary_squareclass(f: BinaryForm, p: int) -> Verdict:
    """One-step criterion: quotients are dense exactly when disc is a p-adic square."""
    fact = factor_discriminant(f, p)
    return Verdict(is_square_in_qp(fact.disc, 1, p), TAG_SQUARE_CLASS, fact)


def decide(f: BinaryForm | GeneralForm, p: int) -> Verdict:
    """Decide any form by its rank: 1 never dense, >= 3 always dense, 2 by the
    tree on f.to_binary(), whose dense must equal the square-class criterion's."""
    if f.rank == 2:
        p = int(p)  # a Prime pays the int-subclass path on every use
        binary = f.to_binary()
        tree = decide_binary_tree(binary, p)
        if tree.dense != is_square_in_qp(tree.factorization.disc, 1, p):
            raise InternalConsistencyError(
                f"deciders disagree on form {format_form(binary)} at p={p}: "
                f"tree says dense={tree.dense} via {tree.theorem_tag}, "
                f"square-class says dense={not tree.dense}")
        return tree
    # rank 1: values are a*x^2, so quotients are exactly the rational squares,
    # which miss entire square classes of the p-adic numbers
    dense = f.rank >= 3
    return Verdict(dense, TAG_RANK_HIGH if dense else TAG_RANK_ONE, None, f.rank)
