"""Density deciders for quotient sets of quadratic forms in the p-adic numbers.

Two independent routes for binary forms: an eight-leaf decision tree driven by
local isotropy and the discriminant factorization, and a one-step square-class
criterion (dense exactly when the discriminant is a p-adic square). They must
always agree. decide is the entry point for every rank: on a rank-2 form it
returns the tree's verdict, checked against the criterion's bool, and raises if
they differ; rank 1 is never dense and rank >= 3 always is.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class PathNode:
    node: str
    question: str
    answer: str

    def to_json_dict(self) -> dict:
        return {"node": self.node, "question": self.question, "answer": self.answer}


@dataclass(frozen=True, slots=True)
class Verdict:
    dense: bool
    path: tuple[PathNode, ...]
    theorem_tag: str
    factorization: DiscFactorization | None

    def to_json_dict(self) -> dict:
        return {
            "dense": self.dense,
            "path": [n.to_json_dict() for n in self.path],
            "theorem_tag": self.theorem_tag,
            "k": self.factorization.k if self.factorization else None,
            "ell": self.factorization.ell if self.factorization else None,
        }


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _leaf(dense: bool, tag: str, path: list[PathNode],
          fact: DiscFactorization | None) -> Verdict:
    path.append(PathNode(tag, "conclusion", "dense" if dense else "not dense"))
    return Verdict(dense, tuple(path), tag, fact)


def decide_binary_tree(f: BinaryForm, p: int) -> Verdict:
    """Walk the decision tree: isotropy, singularity, then the unit cofactor.

    Node order is fixed: isotropic -> singular -> p odd -> k odd -> leaf.
    """
    fact = factor_discriminant(f, p)
    path: list[PathNode] = []

    iso = is_isotropic_mod_p(f, p)
    path.append(PathNode("isotropic", f"Is the form isotropic modulo {p}?", _yn(iso)))
    if not iso:
        return _leaf(False, LEAF_ANISOTROPIC, path, fact)

    sing = fact.k > 0
    path.append(PathNode("singular", f"Is the form singular modulo {p}?", _yn(sing)))
    if not sing:
        return _leaf(True, LEAF_NONSINGULAR, path, fact)

    odd = p != 2
    path.append(PathNode("p-odd", f"Is p = {p} odd?", _yn(odd)))

    k, ell = fact.k, fact.ell
    k_odd = k % 2 == 1
    path.append(PathNode(
        "k-odd", f"Is the discriminant valuation k = {k} odd?", _yn(k_odd)))

    if odd:
        if k_odd:
            return _leaf(False, LEAF_ODD_K_ODD, path, fact)
        res = legendre(ell, p) == 1
        path.append(PathNode(
            "legendre",
            f"Is the unit cofactor ell = {uncapped_text(str, ell)} a square "
            f"modulo {p}?", _yn(res)))
        return _leaf(res, LEAF_ODD_RESIDUE if res else LEAF_ODD_NONRESIDUE,
                     path, fact)

    if k_odd:
        return _leaf(False, LEAF_TWO_K_ODD, path, fact)
    one = ell % 8 == 1
    path.append(PathNode(
        "ell-mod-8", f"Is the unit cofactor ell = {uncapped_text(str, ell)} "
        "congruent to 1 modulo 8?", _yn(one)))
    return _leaf(one, LEAF_TWO_UNIT_SQUARE if one else LEAF_TWO_UNIT_NONSQUARE,
                 path, fact)


def decide_binary_squareclass(f: BinaryForm, p: int) -> Verdict:
    """One-step criterion: quotients are dense exactly when disc is a p-adic square."""
    fact = factor_discriminant(f, p)
    dense = is_square_in_qp(fact.disc, 1, p)
    path = [PathNode(
        "square-class",
        f"Is the discriminant {uncapped_text(str, fact.disc)} a square in the "
        f"{p}-adic numbers?", _yn(dense))]
    return _leaf(dense, TAG_SQUARE_CLASS, path, fact)


def decide(f: BinaryForm | GeneralForm, p: int) -> Verdict:
    """Decide any form by its rank: 1 never dense, >= 3 always dense, 2 by the
    tree on f.to_binary(), whose dense must equal the square-class criterion's."""
    if f.rank == 2:
        binary = f.to_binary()
        tree = decide_binary_tree(binary, p)
        if tree.dense != is_square_in_qp(binary.discriminant(), 1, p):
            raise InternalConsistencyError(
                f"deciders disagree on form {format_form(binary)} at p={p}: "
                f"tree says dense={tree.dense} via {tree.theorem_tag}, "
                f"square-class says dense={not tree.dense}")
        return tree
    # rank 1: values are a*x^2, so quotients are exactly the rational squares,
    # which miss entire square classes of the p-adic numbers
    dense = f.rank >= 3
    path = [PathNode("rank", f"Is the rank {f.rank} at least 3?", _yn(dense))]
    return _leaf(dense, TAG_RANK_HIGH if dense else TAG_RANK_ONE, path, None)
