"""Density deciders for quotient sets of quadratic forms in the p-adic numbers.

Two independent routes for binary forms: an eight-leaf decision tree driven by
local isotropy and the discriminant factorization, and a one-step square-class
criterion (dense exactly when the discriminant is a p-adic square). They must
always agree; decide_checked runs both and raises if they ever differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalConsistencyError
from .forms import (BinaryForm, DiscFactorization, GeneralForm,
                    factor_discriminant, format_form, is_isotropic_mod_p,
                    is_singular_mod_p)
from .padic import is_square_in_qp, legendre

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

    sing = is_singular_mod_p(f, p)
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
            f"Is the unit cofactor ell = {ell} a square modulo {p}?", _yn(res)))
        return _leaf(res, LEAF_ODD_RESIDUE if res else LEAF_ODD_NONRESIDUE,
                     path, fact)

    if k_odd:
        return _leaf(False, LEAF_TWO_K_ODD, path, fact)
    one = ell % 8 == 1
    path.append(PathNode(
        "ell-mod-8", f"Is the unit cofactor ell = {ell} congruent to 1 modulo 8?",
        _yn(one)))
    return _leaf(one, LEAF_TWO_UNIT_SQUARE if one else LEAF_TWO_UNIT_NONSQUARE,
                 path, fact)


def decide_binary_squareclass(f: BinaryForm, p: int) -> Verdict:
    """One-step criterion: quotients are dense exactly when disc is a p-adic square."""
    fact = factor_discriminant(f, p)
    d = f.discriminant()
    dense = is_square_in_qp(d, 1, p)
    path = [PathNode(
        "square-class",
        f"Is the discriminant {d} a square in the {p}-adic numbers?", _yn(dense))]
    return _leaf(dense, TAG_SQUARE_CLASS, path, fact)


def decide_checked(f: BinaryForm, p: int) -> Verdict:
    """Run both binary deciders; raise if they disagree, return the tree verdict."""
    tree = decide_binary_tree(f, p)
    square = decide_binary_squareclass(f, p)
    if tree.dense != square.dense:
        raise InternalConsistencyError(
            f"deciders disagree on form {format_form(f)} at p={p}: "
            f"tree says dense={tree.dense} via {tree.theorem_tag}, "
            f"square-class says dense={square.dense}")
    return tree


def decide_general(f: GeneralForm, p: int) -> Verdict:
    """Decide any rank: rank 1 never dense, rank 2 cross-checked, rank >= 3 dense."""
    if f.rank >= 3:
        path = [PathNode("rank", f"Is the rank {f.rank} at least 3?", "yes")]
        return _leaf(True, TAG_RANK_HIGH, path, None)
    if f.rank == 2:
        return decide_checked(f.to_binary(), p)
    # rank 1: values are a*x^2, so quotients are exactly the rational squares,
    # which miss entire square classes of the p-adic numbers
    path = [PathNode("rank", f"Is the rank {f.rank} at least 3?", "no")]
    return _leaf(False, TAG_RANK_ONE, path, None)


def decide(f: BinaryForm | GeneralForm, p: int) -> Verdict:
    """Front door: binary forms cross-checked, every other form by its rank."""
    if isinstance(f, BinaryForm):
        return decide_checked(f, p)
    return decide_general(f, p)
