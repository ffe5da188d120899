import copy
import pickle
import random
import re
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qform.forms as forms_mod
from qform import (BinaryForm, GeneralForm, InternalConsistencyError,
                   InvalidFormError, Prime, approximate_quotient,
                   change_variables, decide,
                   decide_binary_squareclass, decide_binary_tree,
                   exclusion_certificate, factor_discriminant, format_form,
                   is_isotropic_mod_p, odd_singular_reduction, parse_form,
                   two_singular_reduction, valuation)
from qform.cli import main

rng = random.Random(0xf0e)


def random_form(limit=30):
    while True:
        a = rng.randint(-limit, limit)
        b = rng.randint(-limit, limit)
        c = rng.randint(-limit, limit)
        if gcd(gcd(a, b), c) == 1 and b * b - 4 * a * c != 0:
            return BinaryForm(a, b, c)


def test_binary_form_basics():
    f = BinaryForm(1, 0, 1)
    assert f.discriminant() == -4
    assert f.evaluate((3, 4)) == 25
    assert f.rank == 2
    assert BinaryForm(2, 3, -1).discriminant() == 17
    assert BinaryForm(0, 1, 0).evaluate((5, 7)) == 35


def test_binary_form_rejects_bad_input():
    with pytest.raises(InvalidFormError):
        BinaryForm(2, 0, 4)         # common factor 2
    with pytest.raises(InvalidFormError):
        BinaryForm(1, 2, 1)         # discriminant 0
    with pytest.raises(InvalidFormError):
        BinaryForm(0, 0, 0)
    f = BinaryForm(1, 1, 1)
    with pytest.raises(ValueError):
        f.evaluate((1, 2, 3))


def test_swapped():
    f = BinaryForm(2, 3, 5)
    g = f.swapped()
    assert (g.a, g.b, g.c) == (5, 3, 2)
    for _ in range(50):
        h = random_form()
        x = rng.randint(-9, 9)
        y = rng.randint(-9, 9)
        assert h.evaluate((x, y)) == h.swapped().evaluate((y, x))


def test_general_form_matches_polynomial():
    # x^2 + 2xy + 3xz + 4y^2 + 5yz + 6z^2
    g = GeneralForm(3, (1, 2, 3, 4, 5, 6))
    for _ in range(60):
        x, y, z = (rng.randint(-8, 8) for _ in range(3))
        expected = (x * x + 2 * x * y + 3 * x * z
                    + 4 * y * y + 5 * y * z + 6 * z * z)
        assert g.evaluate((x, y, z)) == expected


def test_general_form_matrix_and_determinant():
    g = GeneralForm(3, (1, 2, 3, 4, 5, 6))
    assert g.matrix() == [[2, 2, 3], [2, 8, 5], [3, 5, 12]]
    # cofactor expansion by hand
    assert g.determinant() == (2 * (8 * 12 - 25) - 2 * (2 * 12 - 15)
                               + 3 * (10 - 24))
    assert g.coeff(0, 1) == 2
    assert g.coeff(1, 0) == 2
    assert g.coeff(2, 2) == 6


def test_general_form_validation():
    with pytest.raises(InvalidFormError):
        GeneralForm(3, (1, 2, 3, 4, 5))           # wrong count
    with pytest.raises(InvalidFormError):
        GeneralForm(2, (2, 0, 2))                 # common factor
    with pytest.raises(InvalidFormError):
        GeneralForm(2, (1, 2, 1))                 # singular
    with pytest.raises(InvalidFormError):
        GeneralForm(3, (1, 0, 0, 1, 0, 0))        # rank drop
    with pytest.raises(InvalidFormError):
        GeneralForm(0, ())


def test_general_form_refuses_non_integers():
    # int() would truncate 1.5 and build x^2 + y^2 + z^2
    with pytest.raises(TypeError):
        GeneralForm(3, (1.5, 0, 0, 1, 0, 1))
    with pytest.raises(TypeError):
        BinaryForm(1.5, 0, 1)
    g = GeneralForm(3, (np.int64(1), 0, 0, Prime(3), 0, np.int32(1)))
    assert g.coeffs == (1, 0, 0, 3, 0, 1)
    assert all(type(v) is int for v in g.coeffs)


def test_binary_form_reads_numpy_coefficients_as_ints():
    # a numpy int64 coefficient would wrap in the discriminant (b*b - 4ac
    # past 2**63) and reach decide's arithmetic as a numpy scalar
    big = BinaryForm(np.int64(3_000_000_019), 1, np.int64(3_000_000_017))
    assert big.coeffs == (3_000_000_019, 1, 3_000_000_017)
    assert all(type(v) is int for v in big.coeffs)
    assert big.discriminant() == -36_000_000_432_000_001_291
    for coeffs in ((3_000_000_019, 1, 3_000_000_017), (3, 1, 5), (1, 0, -9)):
        plain, wrapped = BinaryForm(*coeffs), BinaryForm(*map(np.int64, coeffs))
        assert wrapped == plain and hash(wrapped) == hash(plain)
        for p in (3, 5, 7, 11, 13):
            assert decide(wrapped, Prime(p)) == decide(plain, Prime(p)), (coeffs, p)


class _Index:
    """An integer through __index__ alone, not an int subclass."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_form_records_keep_their_contract():
    # BinaryForm and GeneralForm are slotted records, not dataclasses; they
    # keep the dataclass repr (tests/golden.json pins it), equality within
    # one class only, the hash of their field tuple and their immutability
    f, g = BinaryForm(1, 0, 1), GeneralForm(3, (1, 0, 0, 1, 0, 1))
    assert repr(f) == "BinaryForm(a=1, b=0, c=1)"
    assert repr(g) == "GeneralForm(rank=3, coeffs=(1, 0, 0, 1, 0, 1))"
    assert repr(BinaryForm(-2, 3, 5)) == "BinaryForm(a=-2, b=3, c=5)"
    assert f == BinaryForm(1, 0, 1) and f != BinaryForm(1, 0, 2)
    assert g == GeneralForm(3, [1, 0, 0, 1, 0, 1])
    assert f != (1, 0, 1) and (1, 0, 1) != f and f.__eq__((1, 0, 1)) is NotImplemented
    assert g != (3, (1, 0, 0, 1, 0, 1))
    two = GeneralForm(2, (1, 0, 1))
    assert f != two and two != f and f.__eq__(two) is NotImplemented
    assert two.to_binary() == f
    assert hash(f) == hash((1, 0, 1)) == hash(BinaryForm(1, 0, 1))
    assert hash(g) == hash((3, (1, 0, 0, 1, 0, 1)))
    assert len({f, BinaryForm(1, 0, 1), two, GeneralForm(2, [1, 0, 1])}) == 2
    assert (f.rank, f.coeffs, g.rank, g.coeffs) == (2, (1, 0, 1), 3, (1, 0, 0, 1, 0, 1))
    for record, field in ((f, "a"), (f, "b"), (f, "c"), (f, "coeffs"), (f, "rank"),
                          (g, "rank"), (g, "coeffs"), (f, "extra"), (g, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, field, 7)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert (f, g) == (BinaryForm(1, 0, 1), GeneralForm(3, (1, 0, 0, 1, 0, 1)))
    # GeneralForm still reads each coefficient through operator.index
    h = GeneralForm(2, [_Index(1), True, np.int32(3)])
    assert h.coeffs == (1, 1, 3) and all(type(v) is int for v in h.coeffs)
    assert h == GeneralForm(2, (1, 1, 3)) and hash(h) == hash((2, (1, 1, 3)))
    with pytest.raises(TypeError):
        GeneralForm(2, (1, 0.5, 1))


def test_records_survive_pickle_and_copy():
    # the forms' __setattr__ refuses every field, so pickling goes through
    # __reduce__ and the constructor; the named tuples pickle as tuples
    records = [BinaryForm(1, 0, -9), GeneralForm(3, (1, 0, 0, 1, 0, 3)),
               odd_singular_reduction(BinaryForm(1, 0, -9), 3),
               approximate_quotient(BinaryForm(1, 0, 1), Prime(5), 3, 5, 4),
               approximate_quotient(GeneralForm(3, (1, 0, 0, 1, 0, 3)), Prime(7),
                                    2, 3, 2),
               exclusion_certificate(BinaryForm(1, 0, 1), Prime(3))]
    assert [type(r).__name__ for r in records] == [
        "BinaryForm", "GeneralForm", "SingularReduction", "Witness", "Witness",
        "ExclusionCertificate"]
    for record in records:
        copies = [copy.copy(record), copy.deepcopy(record)] + [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is type(record)
            assert other == record and repr(other) == repr(record)
            assert hash(other) == hash(record)


def test_general_to_binary():
    g = GeneralForm(2, (1, 4, -2))
    f = g.to_binary()
    assert (f.a, f.b, f.c) == (1, 4, -2)
    for _ in range(40):
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        assert g.evaluate((x, y)) == f.evaluate((x, y))


def test_factor_discriminant():
    fact = factor_discriminant(BinaryForm(1, 0, -9), 3)
    assert (fact.k, fact.ell) == (2, 4)
    assert fact.disc == 36
    fact2 = factor_discriminant(BinaryForm(1, 0, 1), 2)
    assert (fact2.k, fact2.ell) == (2, -1)
    fact3 = factor_discriminant(BinaryForm(1, 1, 1), 5)
    assert (fact3.k, fact3.ell) == (0, -3)


@pytest.mark.parametrize("coeffs, p, wrong, text", [
    # p**k * ell misses the discriminant
    ((1, 0, 1), 5, (1, -4), "bad factorization 5**1 * -4 != -4"),
    # the product is right but p still divides ell
    ((1, 0, -9), 3, (0, 36), "bad factorization 3**0 * 36 != 36"),
])
def test_factor_discriminant_checks_its_split(monkeypatch, capsys, coeffs, p,
                                              wrong, text):
    # factor_discriminant checks every split it returns, and no caller
    # swallows the error: the library raises and the CLI exits 2
    monkeypatch.setattr(forms_mod, "split_unit", lambda n, q: wrong)
    f = BinaryForm(*coeffs)
    for call in (factor_discriminant, decide_binary_tree,
                 decide_binary_squareclass, decide):
        for prime in (p, Prime(p)):
            with pytest.raises(InternalConsistencyError,
                               match=f"^{re.escape(text)}$"):
                call(f, prime)
    for command in ("decide", "explain"):
        for plain in ([], ["--plain"]):
            assert main([command, "--form", format_form(f), "--prime", str(p),
                         *plain]) == 2
            out, err = capsys.readouterr()
            assert (out, err) == ("", f"internal consistency failure: {text}\n")


def isotropic_by_scan(f, p):
    """Reference for is_isotropic_mod_p: a scan of F_p x F_p for a nonzero root."""
    a, b, c = f.a % p, f.b % p, f.c % p
    for x in range(p):
        base = a * x * x
        bx = b * x
        for y in range(p):
            if (x or y) and (base + bx * y + c * y * y) % p == 0:
                return True
    return False


def test_isotropy_matches_legendre_for_nonsingular():
    # the classical criterion against the scan, over every primitive form
    # nonsingular over the rationals, singular mod p and p = 2 included
    for p in (2, 3, 5, 7, 11, 13):
        for a, b, c in product(range(-6, 7), repeat=3):
            if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
                continue
            f = BinaryForm(a, b, c)
            assert is_isotropic_mod_p(f, p) == isotropic_by_scan(f, p), (f, p)


def test_singular_forms_are_isotropic():
    for p in (2, 3, 5, 7):
        count = 0
        while count < 200:
            f = random_form()
            if f.discriminant() % p:
                continue
            count += 1
            assert is_isotropic_mod_p(f, p), (f, p)


def test_isotropy_bruteforce_spot_checks():
    assert not is_isotropic_mod_p(BinaryForm(1, 0, 1), 3)
    assert is_isotropic_mod_p(BinaryForm(1, 0, 1), 5)
    assert is_isotropic_mod_p(BinaryForm(1, 0, 1), 2)
    assert is_isotropic_mod_p(BinaryForm(1, 0, -1), 7)
    assert not is_isotropic_mod_p(BinaryForm(1, 1, 1), 2)


def test_odd_singular_reduction_example():
    red = odd_singular_reduction(BinaryForm(1, 0, -9), 3)
    assert (red.reduced.a, red.reduced.b, red.reduced.c) == (1, 0, -1)
    assert red.k == 2
    assert red.reduced.discriminant() == 4


def random_odd_singular(p):
    # build disc valuation >= 2 by construction: a unit, b = p*b', c = a*q^2...
    # easier to sample and filter
    while True:
        f = random_form()
        k = valuation(f.discriminant(), p)
        if k >= 2 and k % 2 == 0:
            return f, k


def test_odd_singular_reduction_properties():
    for p in (3, 5, 7):
        for _ in range(60):
            f, k = random_odd_singular(p)
            red = odd_singular_reduction(f, p)
            assert red.k == k
            g = red.reduced
            # the unit cofactor survives as the discriminant
            assert g.discriminant() * p**k == f.discriminant()
            assert g.discriminant() % p != 0
            # pulled back points scale values by exactly p^k
            for _ in range(10):
                pt = (rng.randint(-9, 9), rng.randint(-9, 9))
                assert f.evaluate(red.pull_back(pt)) == p**k * g.evaluate(pt)


def test_odd_singular_reduction_rejects():
    with pytest.raises(ValueError, match="^discriminant valuation must be "
                       "even and at least 2, got k=0$"):
        odd_singular_reduction(BinaryForm(1, 0, 1), 3)      # k = 0
    with pytest.raises(ValueError, match="^discriminant valuation must be "
                       "even and at least 2, got k=1$"):
        odd_singular_reduction(BinaryForm(1, 0, -3), 3)     # k = 1 odd
    with pytest.raises(ValueError, match="^reduction requires an odd prime$"):
        odd_singular_reduction(BinaryForm(1, 0, -4), 2)     # p = 2


def test_two_singular_reduction_example():
    red = two_singular_reduction(BinaryForm(1, 0, -4))
    assert (red.reduced.a, red.reduced.b, red.reduced.c) == (1, 1, 0)
    assert red.k == 4
    assert red.reduced.discriminant() == 1


def random_two_singular():
    while True:
        f = random_form()
        d = f.discriminant()
        k = valuation(d, 2)
        if k >= 2 and k % 2 == 0 and d // 2**k % 8 == 1:
            return f, k


def test_two_singular_reduction_properties():
    for _ in range(60):
        f, k = random_two_singular()
        red = two_singular_reduction(f)
        assert red.k == k
        g = red.reduced
        assert g.discriminant() * 2**k == f.discriminant()
        assert g.discriminant() % 8 == 1
        for _ in range(10):
            pt = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert f.evaluate(red.pull_back(pt)) == 2**k * g.evaluate(pt)


def test_two_singular_reduction_rejects():
    # disc -3 is odd and also 5 mod 8: the valuation is checked first
    with pytest.raises(ValueError, match="^discriminant valuation must be "
                       "even and at least 2, got k=0$"):
        two_singular_reduction(BinaryForm(1, 1, 1))
    with pytest.raises(ValueError, match="^discriminant valuation must be "
                       "even and at least 2, got k=3$"):
        two_singular_reduction(BinaryForm(1, 0, 2))     # k = 3 odd
    with pytest.raises(ValueError, match="^unit cofactor must be 1 mod 8, "
                       "got 7$"):
        two_singular_reduction(BinaryForm(1, 0, 1))     # ell = -1, not 1 mod 8


@st.composite
def even_singular_forms(draw):
    """(f, p, g, k): f is g under a substitution of determinant +-p**(k/2),
    so disc(f) = p**k * disc(g) with disc(g) prime to p, and 1 mod 8 at
    p = 2. Either outer coefficient of f can be the unit one."""
    p = draw(st.sampled_from((2, 3, 5, 7, 1009, 10**9 + 7)))
    j = draw(st.integers(1, 5))
    coeffs = draw(st.tuples(*[st.integers(-40, 40)] * 3))
    u = draw(st.integers(0, p ** (2 * j) - 1))
    try:
        g = BinaryForm(*coeffs)
    except InvalidFormError:
        assume(False)
    d = g.discriminant()
    assume(d % 8 == 1 if p == 2 else d % p)
    assume(g.evaluate((u, 1)) % p)
    m = ((u, p ** j), (1, 0)) if draw(st.booleans()) else ((p ** j, u), (0, 1))
    return change_variables(g, m), p, g, 2 * j


@settings(max_examples=300, deadline=None)
@given(even_singular_forms(),
       st.lists(st.tuples(*[st.integers(-10**6, 10**6)] * 2), min_size=1,
                max_size=8))
def test_pull_back_scales_values_by_p_to_the_k(case, points):
    # ROADMAP item 5: f(pull_back(x)) = p**k * reduced(x), exactly
    f, p, g, k = case
    red = two_singular_reduction(f) if p == 2 else odd_singular_reduction(f, p)
    assert red.k == k
    assert red.reduced.discriminant() == g.discriminant()
    for x in points:
        assert f.evaluate(red.pull_back(x)) == p**k * red.reduced.evaluate(x)


def arnold_compose(f: BinaryForm, p1, p2, p3) -> tuple[int, int]:
    """A point where f takes the product of its values at p1, p2, p3.

    f(result) == f(p1) * f(p2) * f(p3), exactly, for every integer input.
    Only the tests use it: criterion 6 checks the identity in bulk.
    """
    a, b, c = f.a, f.b, f.c
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    x = ((a * x1 * x2 - c * y1 * y2) * x3
         + (c * (y1 * x2 + x1 * y2) + b * x1 * x2) * y3)
    y = ((a * (x1 * y2 + x2 * y1) + b * y1 * y2) * x3
         + (-a * x1 * x2 + c * y1 * y2) * y3)
    return x, y


def test_arnold_compose_example():
    f = BinaryForm(1, 0, 1)
    p1, p2, p3 = (1, 2), (2, 3), (1, 4)
    assert f.evaluate(p1) * f.evaluate(p2) * f.evaluate(p3) == 1105
    assert f.evaluate(arnold_compose(f, p1, p2, p3)) == 1105


def test_arnold_compose_random():
    for _ in range(500):
        f = random_form()
        pts = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(3)]
        want = f.evaluate(pts[0]) * f.evaluate(pts[1]) * f.evaluate(pts[2])
        assert f.evaluate(arnold_compose(f, *pts)) == want


def test_change_variables():
    f = BinaryForm(2, -1, 3)
    m = ((2, 1), (1, 1))
    g = change_variables(f, m)
    for _ in range(50):
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        assert g.evaluate((x, y)) == f.evaluate((2 * x + y, x + y))
    # unimodular substitutions keep the discriminant
    assert g.discriminant() == f.discriminant()


ROUND_TRIP_TEXTS = ("1,0,1", "2,-3,5", "3; 1,0,0,1,0,1",
                    "4; 1,0,0,0,1,0,0,1,0,1")


@st.composite
def primitive_forms(draw):
    """A binary form, or a general form of rank 1-4, primitive and
    nonsingular, with coefficients of either sign."""
    rank = draw(st.integers(1, 4))
    n = rank * (rank + 1) // 2
    coeffs = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    binary = rank == 2 and draw(st.booleans())
    try:
        return BinaryForm(*coeffs) if binary else GeneralForm(rank, coeffs)
    except InvalidFormError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(primitive_forms())
@example(parse_form(ROUND_TRIP_TEXTS[0]))
@example(parse_form(ROUND_TRIP_TEXTS[1]))
@example(parse_form(ROUND_TRIP_TEXTS[2]))
@example(parse_form(ROUND_TRIP_TEXTS[3]))
def test_parse_format_round_trip(f):
    assert parse_form(format_form(f)) == f


def test_parse_form_binary_vs_general():
    for text in ROUND_TRIP_TEXTS:
        assert format_form(parse_form(text)) == text
    assert isinstance(parse_form("1,2,3"), BinaryForm)
    g = parse_form("2; 1,2,3")
    assert isinstance(g, GeneralForm)
    assert g.rank == 2


def test_parse_form_errors():
    for bad in ("", "1,2", "1,2,3,4", "a,b,c", "3; 1,2,3", "2,0,4", "1,2,1",
                "0; ", "x; 1,2,3"):
        with pytest.raises(InvalidFormError):
            parse_form(bad)
