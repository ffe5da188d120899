import importlib
import json
import random
import sys
from itertools import product
from math import gcd

import pytest

from qform import (ALL_TREE_LEAVES, LEAF_ANISOTROPIC, LEAF_NONSINGULAR,
                   LEAF_ODD_K_ODD, LEAF_ODD_NONRESIDUE, LEAF_ODD_RESIDUE,
                   LEAF_TWO_K_ODD, LEAF_TWO_UNIT_NONSQUARE,
                   LEAF_TWO_UNIT_SQUARE, TAG_RANK_HIGH, TAG_RANK_ONE,
                   TAG_SQUARE_CLASS, BinaryForm, GeneralForm,
                   InternalConsistencyError, Prime, approximate_quotient,
                   change_variables, coverage, decide,
                   decide_binary_squareclass, decide_binary_tree,
                   exclusion_certificate, is_square_in_qp)
from qform.cli import main

# the package re-exports the function decide, which hides the module attribute
decide_mod = importlib.import_module("qform.decide")
rng = random.Random(0xdec1de)

PRIMES_TO_30 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_sum_of_two_squares():
    f = BinaryForm(1, 0, 1)
    dense = {p for p in PRIMES_TO_30 if decide(f, Prime(p)).dense}
    assert dense == {5, 13, 17, 29}


def test_leaf_tags_examples():
    cases = [
        ((1, 0, 1), 3, False, LEAF_ANISOTROPIC),
        ((1, 0, 1), 5, True, LEAF_NONSINGULAR),
        ((1, 0, -3), 3, False, LEAF_ODD_K_ODD),
        ((1, 0, -9), 3, True, LEAF_ODD_RESIDUE),
        ((1, 0, 9), 3, False, LEAF_ODD_NONRESIDUE),
        ((1, 0, 2), 2, False, LEAF_TWO_K_ODD),
        ((1, 0, -4), 2, True, LEAF_TWO_UNIT_SQUARE),
        ((1, 0, 1), 2, False, LEAF_TWO_UNIT_NONSQUARE),
    ]
    seen = set()
    for coeffs, p, dense, tag in cases:
        v = decide(BinaryForm(*coeffs), Prime(p))
        assert v.dense == dense, (coeffs, p)
        assert v.theorem_tag == tag, (coeffs, p)
        seen.add(tag)
    assert seen == set(ALL_TREE_LEAVES)


def test_path_structure():
    v = decide_binary_tree(BinaryForm(1, 0, -9), 3)
    assert [n.node for n in v.path] == [
        "isotropic", "singular", "p-odd", "k-odd", "legendre",
        LEAF_ODD_RESIDUE]
    assert [n.answer for n in v.path[:-1]] == ["yes", "yes", "yes", "no", "yes"]
    assert v.path[-1].answer == "dense"

    w = decide_binary_tree(BinaryForm(1, 0, 1), 3)
    assert [n.node for n in w.path] == ["isotropic", LEAF_ANISOTROPIC]
    assert w.path[-1].answer == "not dense"


def test_verdict_json_shape():
    v = decide(BinaryForm(1, 0, -9), Prime(3))
    d = v.to_json_dict()
    assert d["dense"] is True
    assert d["theorem_tag"] == LEAF_ODD_RESIDUE
    assert d["k"] == 2 and d["ell"] == 4
    assert all(set(n) == {"node", "question", "answer"} for n in d["path"])


def test_squareclass_decider():
    v = decide_binary_squareclass(BinaryForm(1, 0, 1), 5)
    assert v.dense and v.theorem_tag == TAG_SQUARE_CLASS
    assert len(v.path) == 2

    w = decide_binary_squareclass(BinaryForm(1, 0, 1), 3)
    assert not w.dense


def test_dense_iff_disc_square():
    for _ in range(400):
        a, b, c = (rng.randint(-30, 30) for _ in range(3))
        if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
            continue
        f = BinaryForm(a, b, c)
        p = Prime(rng.choice((2, 3, 5, 7, 11, 13)))
        v = decide(f, p)
        assert v.dense == is_square_in_qp(f.discriminant(), 1, p)


def test_deciders_agree_small_sweep():
    for p in (2, 3, 5):
        for a, b, c in product(range(-4, 5), repeat=3):
            if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
                continue
            decide(BinaryForm(a, b, c), p)     # raises on disagreement


def random_unimodular():
    # a few random shears keep the determinant at 1
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 6)):
        t = rng.randint(-4, 4)
        if rng.random() < 0.5:
            m = [[m[0][0] + t * m[1][0], m[0][1] + t * m[1][1]], m[1]]
        else:
            m = [m[0], [m[1][0] + t * m[0][0], m[1][1] + t * m[0][1]]]
    return (tuple(m[0]), tuple(m[1]))


def test_verdict_invariant_under_unimodular_change():
    for _ in range(150):
        a, b, c = (rng.randint(-20, 20) for _ in range(3))
        if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
            continue
        f = BinaryForm(a, b, c)
        g = change_variables(f, random_unimodular())
        for p in (2, 3, 5, 7):
            assert decide(f, Prime(p)).dense == decide(g, Prime(p)).dense


def test_general_rank_three_always_dense():
    g = GeneralForm(3, (1, 0, 0, 1, 0, 1))
    for p in (2, 3, 5, 7, 11):
        v = decide(g, Prime(p))
        assert v.dense
        assert v.theorem_tag == TAG_RANK_HIGH
        assert v.factorization is None
        assert v.to_json_dict()["k"] is None


def test_general_rank_one_never_dense():
    # primitivity forces the lone coefficient to be a unit
    for d in (1, -1):
        g = GeneralForm(1, (d,))
        for p in (2, 3, 5, 7):
            v = decide(g, Prime(p))
            assert not v.dense
            assert v.theorem_tag == TAG_RANK_ONE


def _witness_command(capsys, form_text, p):
    code = main(["witness", "--form", form_text, "--prime", str(p),
                 "--target", "3/5", "--r", "2", "--bound", "5"])
    out, err = capsys.readouterr()
    assert code == 0, err
    payload = json.loads(out)
    del payload["form"]
    return payload


def test_general_rank_two_delegates(capsys):
    # BinaryForm(a, b, c) and GeneralForm(2, (a, b, c)) are two views of one
    # form: every verdict, witness, coverage report and CLI record agrees
    for (a, b, c), p in product(product(range(-3, 4), repeat=3), (2, 3, 5, 7)):
        if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
            continue
        f, g, p = BinaryForm(a, b, c), GeneralForm(2, (a, b, c)), Prime(p)
        verdict = decide(f, p)
        assert decide(g, p).to_json_dict() == verdict.to_json_dict()
        if verdict.dense:
            wf, wg = (approximate_quotient(h, p, 3, 5, 2) for h in (f, g))
            assert (wf.num_point, wf.den_point, wf.strategy) == \
                (wg.num_point, wg.den_point, wg.strategy)
        assert coverage(f, p, 1, 3) == coverage(g, p, 1, 3)
        assert _witness_command(capsys, f"{a},{b},{c}", p) == \
            _witness_command(capsys, f"2; {a},{b},{c}", p)


def test_decide_general_matches_decide():
    g = GeneralForm(4, (1, 0, 0, 0, 1, 0, 0, 1, 0, 1))
    v = decide(g, 3)
    assert v.dense and v.theorem_tag == TAG_RANK_HIGH


def test_decide_rank_two_cross_checks(monkeypatch):
    def flipped(num, den, p):
        return not is_square_in_qp(num, den, p)

    monkeypatch.setattr(decide_mod, "is_square_in_qp", flipped)
    for f in (BinaryForm(1, 0, 1), GeneralForm(2, (1, 0, 1))):
        with pytest.raises(InternalConsistencyError, match="disagree"):
            decide(f, Prime(5))
    # at p = 3 the form is not dense, so only the cross-check can raise
    with pytest.raises(InternalConsistencyError, match="disagree"):
        exclusion_certificate(BinaryForm(1, 0, 1), Prime(3))


def test_decide_is_the_tree_checked_by_the_criterion():
    # decide returns the tree's verdict whole, and its dense is the
    # square-class criterion's, for both views of a rank-2 form
    primes = (2, 3, 5, 7, 11, 13, 17, 1000000007, 10**18 + 3, 3 * 10**24 + 7)
    for (a, b, c), p in product(product(range(-5, 6), repeat=3), primes):
        if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
            continue
        p = Prime(p)
        for f in (BinaryForm(a, b, c), GeneralForm(2, (a, b, c))):
            verdict = decide(f, p)
            assert verdict == decide_binary_tree(f.to_binary(), p), (f, p)
            assert verdict.dense == \
                decide_binary_squareclass(f.to_binary(), p).dense, (f, p)


# the discriminant of BIG_NONSINGULAR has 5001 digits and the unit cofactor
# of BIG_SINGULAR at p = 5 about 8400, both past Python's default cap of 4300
# on int-to-text conversion, which path questions must get past
BIG_NONSINGULAR = BinaryForm(10**2500, 1, 10**2500)
BIG_SINGULAR = BinaryForm(10**4200 + 3, 0, -25 * (10**4200 + 1))


def digit_cap() -> int:
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_decide_past_the_int_digit_cap():
    cap = digit_cap()
    p = Prime(5)
    square = decide_binary_squareclass(BIG_NONSINGULAR, p)
    assert square.dense and decide(BIG_NONSINGULAR, p).dense
    assert len(square.path[0].question) > 5001
    verdict = decide(BIG_SINGULAR, p)
    # ell = 4 (10**4200 + 3) (10**4200 + 1) = 2 mod 5, a nonresidue
    assert not verdict.dense and verdict.theorem_tag == LEAF_ODD_NONRESIDUE
    assert verdict.factorization.k == 2
    assert verdict.path[-2].node == "legendre"
    assert len(verdict.path[-2].question) > 8400
    assert not decide_binary_squareclass(BIG_SINGULAR, p).dense
    assert digit_cap() == cap
