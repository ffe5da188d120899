import importlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qform import (ALL_TREE_LEAVES, LEAF_ANISOTROPIC, LEAF_NONSINGULAR,
                   LEAF_ODD_K_ODD, LEAF_ODD_NONRESIDUE, LEAF_ODD_RESIDUE,
                   LEAF_TWO_K_ODD, LEAF_TWO_UNIT_NONSQUARE,
                   LEAF_TWO_UNIT_SQUARE, TAG_RANK_HIGH, TAG_RANK_ONE,
                   TAG_SQUARE_CLASS, BinaryForm, GeneralForm,
                   InternalConsistencyError, InvalidFormError, Prime, Verdict,
                   approximate_quotient, change_variables, coverage,
                   cross_check, decide, decide_binary_squareclass,
                   decide_binary_tree, exclusion_certificate,
                   factor_discriminant, format_form, is_isotropic_mod_p,
                   is_square_in_qp, legendre)
from qform.cli import main
from qform.forms import DiscFactorization
from qform.padic import uncapped_text

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


def test_verdict_records_keep_their_contract():
    # Verdict and DiscFactorization are named tuples that keep a frozen
    # record's text, immutability, field-wise equality and hashing
    v = decide(BinaryForm(1, 0, -9), Prime(3))
    assert repr(v) == (
        "Verdict(dense=True, theorem_tag='odd-singular-residue', "
        "factorization=DiscFactorization(p=3, k=2, ell=4, disc=36), rank=2)")
    for record, field in ((v, "dense"), (v, "rank"), (v.factorization, "ell")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    twin = decide(GeneralForm(2, (1, 0, -9)), 3)
    assert twin == v and hash(twin) == hash(v) and len({v, twin}) == 1
    assert v != decide(BinaryForm(1, 0, 9), Prime(3))
    for g, dense, tag in ((GeneralForm(1, (-1,)), False, TAG_RANK_ONE),
                          (GeneralForm(3, (1, 0, 0, 1, 0, 1)), True,
                           TAG_RANK_HIGH),
                          (GeneralForm(4, (1, 0, 0, 0, 1, 0, 0, 1, 0, 1)), True,
                           TAG_RANK_HIGH)):
        v = decide(g, Prime(5))
        assert (v.factorization, v.rank) == (None, g.rank)
        assert repr(v) == (f"Verdict(dense={dense}, theorem_tag={tag!r}, "
                           f"factorization=None, rank={g.rank})")
        assert hash(v) == hash(decide(g, 5))


def test_tree_records_match_their_constructors():
    # the tree and factor_discriminant build their records with
    # tuple.__new__: each must be the record its constructor builds
    tags = set()
    for coeffs in product(range(-4, 5), repeat=3):
        try:
            f = BinaryForm(*coeffs)
        except InvalidFormError:
            continue
        for p in (2, 3, 5, 7):
            fact, v = factor_discriminant(f, p), decide_binary_tree(f, p)
            for got, want, field in (
                    (fact, DiscFactorization(*fact), "p"),
                    (v, Verdict(v.dense, v.theorem_tag, fact), "rank")):
                assert type(got) is type(want) and got == want
                assert repr(got) == repr(want)
                assert got._replace(**{field: 0}) == want._replace(**{field: 0})
            tags.add(v.theorem_tag)
    assert tags == ALL_TREE_LEAVES


def test_decide_reads_a_prime_as_a_plain_int(monkeypatch):
    # decide hands the tree int(p) once: a Prime and a plain int give the
    # same verdict, and the factorization always holds a plain int
    seen = []

    def tree(f, p):
        seen.append(type(p))
        return decide_binary_tree(f, p)

    monkeypatch.setattr(decide_mod, "decide_binary_tree", tree)
    for coeffs in product(range(-4, 5), repeat=3):
        if gcd(*coeffs) != 1 or coeffs[1] ** 2 == 4 * coeffs[0] * coeffs[2]:
            continue
        f = BinaryForm(*coeffs)
        for p in (2, 3, 5, 7, 13, 1000000007, 3 * 10**24 + 7):
            verdict = decide(f, Prime(p))
            assert verdict == decide(f, p)
            assert verdict.to_json_dict() == decide(f, p).to_json_dict()
            assert type(verdict.factorization.p) is int
            assert type(factor_discriminant(f, Prime(p)).p) is int
    assert set(seen) == {int}
    with pytest.raises(ValueError, match="15 is not a prime number"):
        Prime(15)


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


# primes of every tier the other tests use: small, 2, and the large primes
PATH_PRIMES = (2, 3, 5, 7, 11, 13, 1009, 1000000007, 10**18 + 3,
               3 * 10**24 + 7)


def eager_path(f, p):
    """Reference: (dense, tag, path) from the decision tree walked eagerly,
    each question and answer written down as it is asked; path is a list of
    JSON node dicts. A form of rank != 2 is asked its rank alone."""
    path = []

    def ask(node, question, yes):
        path.append({"node": node, "question": question,
                     "answer": "yes" if yes else "no"})
        return yes

    def leaf(dense, tag):
        path.append({"node": tag, "question": "conclusion",
                     "answer": "dense" if dense else "not dense"})
        return dense, tag, path

    if f.rank != 2:
        dense = ask("rank", f"Is the rank {f.rank} at least 3?", f.rank >= 3)
        return leaf(dense, TAG_RANK_HIGH if dense else TAG_RANK_ONE)
    f = f.to_binary()
    fact = factor_discriminant(f, p)
    if not ask("isotropic", f"Is the form isotropic modulo {p}?",
               is_isotropic_mod_p(f, p)):
        return leaf(False, LEAF_ANISOTROPIC)
    if not ask("singular", f"Is the form singular modulo {p}?", fact.k > 0):
        return leaf(True, LEAF_NONSINGULAR)
    odd = ask("p-odd", f"Is p = {p} odd?", p != 2)
    k, ell = fact.k, fact.ell
    k_odd = ask("k-odd", f"Is the discriminant valuation k = {k} odd?",
                k % 2 == 1)
    if odd:
        if k_odd:
            return leaf(False, LEAF_ODD_K_ODD)
        res = ask("legendre",
                  f"Is the unit cofactor ell = {uncapped_text(str, ell)} a "
                  f"square modulo {p}?", legendre(ell, p) == 1)
        return leaf(res, LEAF_ODD_RESIDUE if res else LEAF_ODD_NONRESIDUE)
    if k_odd:
        return leaf(False, LEAF_TWO_K_ODD)
    one = ask("ell-mod-8", f"Is the unit cofactor ell = "
              f"{uncapped_text(str, ell)} congruent to 1 modulo 8?",
              ell % 8 == 1)
    return leaf(one, LEAF_TWO_UNIT_SQUARE if one else LEAF_TWO_UNIT_NONSQUARE)


def eager_square_class_path(f, p):
    """Reference: the square-class criterion's one question, asked eagerly."""
    disc = f.discriminant()
    dense = is_square_in_qp(disc, 1, p)
    return [{"node": "square-class",
             "question": f"Is the discriminant {uncapped_text(str, disc)} a "
                         f"square in the {p}-adic numbers?",
             "answer": "yes" if dense else "no"},
            {"node": TAG_SQUARE_CLASS, "question": "conclusion",
             "answer": "dense" if dense else "not dense"}]


def explain_text(f, p, path):
    """Reference: `qform explain --plain` for a path of JSON node dicts."""
    lines = [f"{format_form(f)} at p = {p}"]
    for depth, node in enumerate(path, 1):
        lines.append(f"{'  ' * depth}=> {node['answer']}  [{node['node']}]"
                     if node["question"] == "conclusion" else
                     f"{'  ' * depth}{node['question']}  {node['answer']}")
    return "\n".join(lines) + "\n"


@st.composite
def forms_at_primes(draw):
    """(f, p): a primitive nonsingular form of rank 1 to 4 and a prime. A
    binary form's b and c are scaled by powers of p, so that forms singular
    mod p, and every leaf, turn up at the large primes too."""
    p = draw(st.sampled_from(PATH_PRIMES))
    rank = draw(st.sampled_from((1, 2, 2, 2, 3, 4)))
    if rank == 2:
        a, b, c = (draw(st.integers(-40, 40)) for _ in range(3))
        i, j = (draw(st.integers(0, 3)) for _ in range(2))
        coeffs = (a, b * p ** i, c * p ** j)
    else:
        coeffs = tuple(draw(st.integers(-6, 6))
                       for _ in range(rank * (rank + 1) // 2))
    try:
        return (GeneralForm(rank, coeffs) if rank != 2
                else BinaryForm(*coeffs)), p
    except InvalidFormError:
        assume(False)


# every leaf of the tree, both rank tags, and leaves at a large prime;
# every rank-2 example reaches the square-class tag as well
PATH_EXAMPLES = [
    (BinaryForm(1, 0, 1), 3), (BinaryForm(1, 0, 1), 5),
    (BinaryForm(1, 0, -3), 3), (BinaryForm(1, 0, -9), 3),
    (BinaryForm(1, 0, 9), 3), (BinaryForm(1, 0, 2), 2),
    (BinaryForm(1, 0, -4), 2), (BinaryForm(1, 0, 1), 2),
    (BinaryForm(1, 0, -(10**18 + 3) ** 2), 10**18 + 3),
    (BinaryForm(1, 0, 10**18 + 3), 10**18 + 3),
    (GeneralForm(2, (1, 0, -9)), 3), (GeneralForm(1, (-1,)), 7),
    (GeneralForm(3, (1, 0, 0, 1, 0, 3)), 3),
]


@settings(max_examples=300, deadline=None)
@given(forms_at_primes())
def test_lazy_path_matches_the_eager_reference(case):
    # a verdict's path, built when read, equals the one the tree wrote as
    # it walked: in Verdict.path, in its JSON and in `qform explain --plain`
    f, p = case
    p = Prime(p)
    dense, tag, path = eager_path(f, p)
    verdict = decide(f, p)
    assert (verdict.dense, verdict.theorem_tag) == (dense, tag)
    assert [n.to_json_dict() for n in verdict.path] == path
    assert verdict.to_json_dict()["path"] == path
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["explain", "--plain", f"--form={format_form(f)}",
                     "--prime", str(p)]) == 0
    assert out.getvalue() == explain_text(f, p, path)
    if f.rank == 2:
        assert decide_binary_tree(f.to_binary(), p) == verdict
        square = decide_binary_squareclass(f.to_binary(), p)
        assert square.to_json_dict()["path"] == \
            eager_square_class_path(f.to_binary(), p)


for _case in PATH_EXAMPLES:
    test_lazy_path_matches_the_eager_reference = \
        example(_case)(test_lazy_path_matches_the_eager_reference)


def test_path_examples_reach_every_tag():
    tags = {eager_path(f, Prime(p))[1] for f, p in PATH_EXAMPLES}
    assert tags == ALL_TREE_LEAVES | {TAG_RANK_HIGH, TAG_RANK_ONE}


class PathBuilt(Exception):
    pass


def test_deciding_builds_no_path(monkeypatch):
    # with PathNode unusable, everything that reads a verdict but not its
    # path still runs, past the int-to-text digit cap too, and .path raises
    def no_path_node(*args):
        raise PathBuilt(args)

    monkeypatch.setattr(decide_mod, "PathNode", no_path_node)
    cases = [(BinaryForm(1, 0, 1), 5), (BinaryForm(1, 0, 1), 3),
             (BinaryForm(1, 0, -9), 3), (BinaryForm(1, 0, -4), 2),
             (BinaryForm(1, 0, 2), 2), (BIG_NONSINGULAR, 5), (BIG_SINGULAR, 5),
             (GeneralForm(1, (1,)), 3), (GeneralForm(3, (1, 0, 0, 1, 0, 1)), 3)]
    for f, p in cases:
        p = Prime(p)
        verdict = decide(f, p)
        if f.rank == 2:
            decide_binary_squareclass(f.to_binary(), p)
        assert cross_check(f, p, 1, 4).passed
        if verdict.dense:
            approximate_quotient(f, p, 3, 7, 2)
        elif f.rank == 2:
            exclusion_certificate(f.to_binary(), p, verify_bound=4)
        with pytest.raises(PathBuilt):
            verdict.path
        with pytest.raises(PathBuilt):
            verdict.to_json_dict()
        # nor does the CLI's plain verdict
        with redirect_stdout(io.StringIO()):
            assert main(["decide", f"--form={format_form(f)}", "--prime",
                         str(p), "--plain"]) == 0


@st.composite
def unimodular_matrices(draw):
    """A product of elementary GL2(Z) matrices: shears, the swap and a sign
    change, so determinants -1 and 1 both occur."""
    m = ((1, 0), (0, 1))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("upper", "lower", "swap", "negate")))
        (a, b), (c, d) = m
        t = draw(st.integers(-5, 5))
        m = {"upper": ((a + t * c, b + t * d), (c, d)),
             "lower": ((a, b), (c + t * a, d + t * b)),
             "swap": ((c, d), (a, b)),
             "negate": ((-a, -b), (c, d))}[kind]
    return m


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-40, 40)] * 3), unimodular_matrices(),
       st.sampled_from(PATH_PRIMES))
@example((1, 0, -9), ((0, 1), (1, 0)), 3)
@example((1, 0, -4), ((1, 3), (0, -1)), 2)
def test_verdict_json_invariant_under_unimodular_change(coeffs, m, p):
    # ROADMAP item 5: GL2(Z) keeps the value set and the discriminant, so the
    # whole verdict, path included, is the same
    a, b, c = coeffs
    assume(gcd(a, b, c) == 1 and b * b != 4 * a * c)
    f, p = BinaryForm(a, b, c), Prime(p)
    assert decide(change_variables(f, m), p).to_json_dict() == \
        decide(f, p).to_json_dict()
