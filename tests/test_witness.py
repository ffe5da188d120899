import random
import re
import time
from fractions import Fraction
from itertools import product
from math import gcd, inf

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qform.oracle as oracle_mod
import qform.witness as witness_mod
from qform import (BinaryForm, BudgetExceededError, GeneralForm,
                   InternalConsistencyError, Prime, approximate_quotient,
                   change_variables, decide, excluded_classes,
                   exclusion_certificate, is_isotropic_mod_p, is_prime,
                   lift_representation, lift_representation_two,
                   mod_inverse, quotient_error_valuation, valuation)

rng = random.Random(0x817)


def test_quotient_error_valuation():
    # 10/2 vs 5: exact hit
    assert quotient_error_valuation(10, 2, 5, 1, 5) == inf
    # 30/1 vs 5: difference 25
    assert quotient_error_valuation(30, 1, 5, 1, 5) == 2
    # generic agreement with Fraction arithmetic
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        nv = rng.randint(-300, 300)
        dv = rng.randint(-300, 300) or 1
        tn = rng.randint(-50, 50)
        td = rng.randint(1, 50)
        diff = Fraction(nv, dv) - Fraction(tn, td)
        want = inf if diff == 0 else \
            valuation(diff.numerator, p) - valuation(diff.denominator, p)
        assert quotient_error_valuation(nv, dv, tn, td, p) == want


def assert_valid_lift(f, p, n, r, point):
    x, y = point
    assert (f.evaluate((x, y)) - n) % p**r == 0
    if p == 2:
        assert x % 2 == 1 or y % 2 == 1
    else:
        assert (2 * f.a * x + f.b * y) % p != 0 or \
            (f.b * x + 2 * f.c * y) % p != 0


def test_lift_representation_examples():
    f = BinaryForm(1, 0, 1)
    for n, r in ((0, 1), (1, 3), (2, 4), (-1, 2), (7, 3)):
        pt = lift_representation(f, 5, n, r)
        assert_valid_lift(f, 5, n, r, pt)


def test_lift_representation_random():
    count = 0
    while count < 200:
        p = rng.choice((3, 5, 7, 11))
        a, b, c = (rng.randint(-10, 10) for _ in range(3))
        if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
            continue
        f = BinaryForm(a, b, c)
        if f.discriminant() % p == 0 or not decide(f, Prime(p)).dense:
            continue
        count += 1
        n = rng.randint(-200, 200)
        r = rng.randint(1, 6)
        pt = lift_representation(f, p, n, r)
        assert_valid_lift(f, p, n, r, pt)


def base_point_by_scan(f, p, n):
    """Reference: the least (x, y) in F_p x F_p, lexicographically, with
    f(x, y) = n mod p and some partial derivative a unit."""
    a, b, c = f.a, f.b, f.c
    for x, y in product(range(p), repeat=2):
        if (a * x * x + b * x * y + c * y * y - n) % p == 0 and \
                ((2 * a * x + b * y) % p or (b * x + 2 * c * y) % p):
            return x, y
    return None


def test_lift_base_point_matches_scan():
    # at r = 1 the lift is its base point; p | a, p | c and p | n included
    for p in (3, 5, 7, 11, 13):
        for a, b, c in product((*range(-4, 5), p, -2 * p), repeat=3):
            if gcd(gcd(a, b), c) != 1 or (b * b - 4 * a * c) % p == 0:
                continue
            f = BinaryForm(a, b, c)
            if not decide(f, Prime(p)).dense:
                continue
            for n in range(-1, p + 1):
                assert lift_representation(f, p, n, 1) == \
                    base_point_by_scan(f, p, n), (a, b, c, p, n)


def hensel_by_digits(f, p, n, r, x, y):
    """Reference: lift f(x, y) = n mod p to mod p**r one p-adic digit at a
    time, moving x while its partial derivative is a unit mod p, else y."""
    for s in range(1, r):
        ps = p ** s
        m = (f.evaluate((x, y)) - n) // ps
        dx = (2 * f.a * x + f.b * y) % p
        if dx:
            x += (-m * pow(dx, -1, p)) % p * ps
        else:
            dy = (f.b * x + 2 * f.c * y) % p
            y += (-m * pow(dy, -1, p)) % p * ps
    return x, y


@st.composite
def hensel_cases(draw):
    """(f, p, n, r, x, y): f isotropic and nonsingular mod p, (x, y) in
    [0, p)**2 with f(x, y) = n mod p and some partial derivative a unit,
    often only the partial in y. Built, not filtered: mod p such an f is a
    product of two independent linear forms, and its gradient, f's matrix
    times (x, y), vanishes only at the origin."""
    p = draw(st.sampled_from((2, 3, 5, 7, 1009, 10**18 + 3)))
    # f = (al x + be y)(ga x + de y) mod p, with (al, be) != 0 and (ga, de)
    # off its line: the discriminant is the square of al*de - be*ga, a unit
    al = draw(st.integers(0, p - 1))
    be = draw(st.integers(0 if al else 1, p - 1))
    t, w = draw(st.integers(0, p - 1)), draw(st.integers(1, p - 1))
    ga, de = (t * al, t * be + w) if al else (w, t * be)
    a, b, c = (m + p * draw(st.integers(-10**20, 10**20))
               for m in (al * ga, al * de + be * ga, be * de))
    # p does not divide the gcd, whose square divides the discriminant
    g = gcd(a, b, c)
    f = BinaryForm(a // g, b // g, c // g)
    if draw(st.booleans()):
        # make the partial in x vanish: (x, y) on the line 2ax + by = 0 mod p
        u = draw(st.integers(1, p - 1))
        x, y = u * f.b % p, -2 * u * f.a % p
    else:
        x = draw(st.integers(0, p - 1))
        y = draw(st.integers(0 if x else 1, p - 1))
    n = f.evaluate((x, y)) + p * draw(st.integers(-10**30, 10**30))
    return f, p, n, draw(st.integers(1, 60)), x, y


@settings(max_examples=300, deadline=None)
@given(hensel_cases())
@example((BinaryForm(1, 0, -1), 5, -1, 8, 0, 1))     # only the y partial
@example((BinaryForm(2, 1, 2), 2, 2, 9, 1, 0))       # the same at p = 2
def test_doubling_lift_matches_digit_loop(case):
    # the doubling lift is the unique root congruent to the base mod p, so
    # it must be the point the digit-by-digit loop builds
    f, p, n, r, x, y = case
    assert f.discriminant() % p and is_isotropic_mod_p(f, p), case
    assert (2 * f.a * x + f.b * y) % p or (f.b * x + 2 * f.c * y) % p, case
    assert witness_mod._hensel(f, p, n, r, x, y) == \
        hensel_by_digits(f, p, n, r, x, y)


def test_doubling_lift_is_fast_at_large_r():
    # 1.56 s with one lift step a digit; about 0.08 s with doubling steps
    start = time.perf_counter()
    w = approximate_quotient(BinaryForm(1, 0, 1), Prime(5), 3, 7, 5000)
    assert time.perf_counter() - start < 1.0
    assert w.achieved_valuation >= 5000


def test_precision_is_capped_in_bits():
    # (r + 2 v(td)) * ceil(log2 p) may reach MAX_PRECISION_BITS: a lift at
    # the limit finishes, and one step past it is refused before any work
    limit, p = witness_mod.MAX_PRECISION_BITS, Prime(5)
    r = limit // (p - 1).bit_length()
    start = time.perf_counter()
    w = approximate_quotient(BinaryForm(1, 0, 1), p, 3, 1, r)
    assert time.perf_counter() - start < 3.0
    assert w.achieved_valuation >= r
    rank_three = GeneralForm(3, (1, 0, 0, 1, 0, 1))
    assert approximate_quotient(rank_three, p, 3, 1, r).precision == r
    for f, tn, td, rr in ((BinaryForm(1, 0, 1), 3, 1, r + 1),
                          (BinaryForm(1, 0, 1), 3, 25, r - 3),
                          (rank_three, 3, 1, r + 1),
                          (BinaryForm(1, 0, 1), 3, 1, 10 ** 9)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"past the limit of {limit} bits"):
            approximate_quotient(f, p, tn, td, rr)
        assert time.perf_counter() - start < 0.1
    # one bit a digit at p = 2, so a binary lift there may reach r = limit
    start = time.perf_counter()
    w = approximate_quotient(BinaryForm(2, 1, 1), Prime(2), 3, 1, limit)
    assert time.perf_counter() - start < 3.0
    assert w.achieved_valuation >= limit
    with pytest.raises(ValueError, match=f"past the limit of {limit} bits"):
        approximate_quotient(BinaryForm(2, 1, 1), Prime(2), 3, 1, limit + 1)


def test_lift_inverts_its_partial_once(monkeypatch):
    # the partial's inverse is taken mod p and refined with the point, not
    # recomputed mod p**s at each of the 16 doublings
    calls = []

    def counted(a, m):
        calls.append(m)
        return mod_inverse(a, m)

    monkeypatch.setattr(witness_mod, "mod_inverse", counted)
    f, p, n, r = BinaryForm(1, 0, -1), 5, 9, 2**16
    x, y = witness_mod._hensel(f, p, n, r, 2, 0)
    assert calls == [p]
    # the one root mod p**r that is 2 mod p and moves x alone
    assert (y, x % p) == (0, 2) and 0 <= x < p**r
    assert (f.evaluate((x, y)) - n) % p**r == 0


def test_lift_representation_rejects():
    with pytest.raises(ValueError):
        lift_representation(BinaryForm(1, 0, 1), 3, 1, 2)   # anisotropic mod 3
    with pytest.raises(ValueError):
        lift_representation(BinaryForm(1, 0, -9), 3, 1, 2)  # singular mod 3
    with pytest.raises(ValueError):
        lift_representation(BinaryForm(1, 0, 1), 5, 1, 0)   # r too small


def test_lift_representation_two_examples():
    f = BinaryForm(2, 1, 1)     # disc -7; a even
    for n, r in ((1, 1), (3, 3), (5, 4), (-3, 5), (8, 3)):
        pt = lift_representation_two(f, n, r)
        assert_valid_lift(f, 2, n, r, pt)


def test_lift_representation_two_random():
    count = 0
    while count < 100:
        a, b, c = (rng.randint(-10, 10) for _ in range(3))
        if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
            continue
        if (b * b - 4 * a * c) % 2 == 0 or (a % 2 == 1 and c % 2 == 1):
            continue
        count += 1
        f = BinaryForm(a, b, c)
        n = rng.randint(-200, 200)
        r = rng.randint(1, 6)
        pt = lift_representation_two(f, n, r)
        assert_valid_lift(f, 2, n, r, pt)


def test_lift_representation_two_odd_coordinate():
    # with a even the second coordinate of the lift stays odd
    for n in range(-8, 9):
        x, y = lift_representation_two(BinaryForm(2, 1, 1), n, 4)
        assert y % 2 == 1


def test_lift_representation_two_rejects():
    with pytest.raises(ValueError):
        lift_representation_two(BinaryForm(1, 0, 1), 1, 2)  # even disc
    with pytest.raises(ValueError):
        lift_representation_two(BinaryForm(1, 1, 1), 1, 2)  # a and c odd


def assert_witness_hits(f, p, w, tn, td, r):
    nv = f.evaluate(w.num_point)
    dv = f.evaluate(w.den_point)
    assert dv != 0
    assert quotient_error_valuation(nv, dv, tn, td, p) >= r
    assert w.achieved_valuation >= r


def test_approximate_quotient_lift_strategy():
    f = BinaryForm(1, 0, 1)
    w = approximate_quotient(f, Prime(5), 2, 1, 3)
    assert w.strategy == "lift"
    assert_witness_hits(f, 5, w, 2, 1, 3)

    # negative valuation target: 3/5 at p = 5
    w2 = approximate_quotient(f, Prime(5), 3, 5, 2)
    assert_witness_hits(f, 5, w2, 3, 5, 2)

    # target zero
    w3 = approximate_quotient(f, Prime(13), 0, 1, 2)
    assert_witness_hits(f, 13, w3, 0, 1, 2)


def test_approximate_quotient_reduce_strategy():
    f = BinaryForm(1, 0, -9)
    w = approximate_quotient(f, Prime(3), 2, 1, 2)
    assert w.strategy == "reduce-lift"
    assert_witness_hits(f, 3, w, 2, 1, 2)

    g = BinaryForm(1, 0, -4)
    w2 = approximate_quotient(g, Prime(2), 3, 1, 3)
    assert w2.strategy == "reduce-lift"
    assert_witness_hits(g, 2, w2, 3, 1, 3)


def test_approximate_quotient_random_binary():
    count = 0
    while count < 120:
        a, b, c = (rng.randint(-12, 12) for _ in range(3))
        if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
            continue
        f = BinaryForm(a, b, c)
        p = Prime(rng.choice((2, 3, 5, 7)))
        if not decide(f, p).dense:
            continue
        count += 1
        tn = rng.randint(-60, 60)
        td = rng.randint(1, 60)
        r = rng.randint(1, 4)
        w = approximate_quotient(f, p, tn, td, r)
        assert_witness_hits(f, p, w, tn, td, r)


def fraction_valuation(q: Fraction, p: int) -> int | float:
    """v_p of a rational by repeated division, apart from qform's padic."""
    if q == 0:
        return inf
    v = 0
    for part, sign in ((q.numerator, 1), (q.denominator, -1)):
        while part % p == 0:
            part //= p
            v += sign
    return v


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@st.composite
def dense_binary_cases(draw):
    """(f, p, strategy): a dense binary form at a prime below 3.3e24, either
    small or the first prime from a random integer on. reduce-lift forms
    are g under a substitution of determinant p**j, so p**(2j) divides the
    discriminant and the verdict is g's."""
    p = draw(st.one_of(st.sampled_from((2, 3, 5, 7)),
                       st.integers(8, 3 * 10**24).map(next_prime)))
    coeffs = draw(st.tuples(*[st.integers(-40, 40)] * 3))
    assume(gcd(*coeffs) == 1 and coeffs[1] ** 2 - 4 * coeffs[0] * coeffs[2])
    g = BinaryForm(*coeffs)
    assume(g.discriminant() % p)
    j = draw(st.integers(0, 3))
    u = draw(st.integers(0, p ** (2 * j) - 1))
    assume(g.evaluate((u, 1)) % p)
    f = change_variables(g, ((p ** j, u), (0, 1)))
    assume(decide(f, Prime(p)).dense)
    return f, Prime(p), "reduce-lift" if j else "lift"


@settings(max_examples=200, deadline=None)
@given(dense_binary_cases(), st.integers(-99, 99), st.integers(1, 99),
       st.integers(1, 40))
def test_binary_witness_revalidates_at_random_primes(case, tn, td, r):
    # ROADMAP item 5: the quotient of the witness points is within p**-r of
    # tn/td by Fraction arithmetic
    f, p, strategy = case
    w = approximate_quotient(f, p, tn, td, r)
    assert w.strategy == strategy
    den = f.evaluate(w.den_point)
    assert den != 0
    diff = Fraction(f.evaluate(w.num_point), den) - Fraction(tn, td)
    assert fraction_valuation(diff, p) >= r


def test_approximate_quotient_rank_three():
    g = GeneralForm(3, (1, 0, 0, 1, 0, 1))
    # no sum of three squares is 7 mod 8, so the numerator cannot be 7 itself
    w = approximate_quotient(g, Prime(2), 7, 1, 3)
    assert w.strategy == "enumeration"
    nv = g.evaluate(w.num_point)
    dv = g.evaluate(w.den_point)
    assert quotient_error_valuation(nv, dv, 7, 1, 2) >= 3

    d = w.to_json_dict()
    assert d["x"] == list(w.num_point)
    assert d["z"] == list(w.den_point)

    # values past int64 take the exact object-array path
    h = GeneralForm(3, (2**62 + 3, 1, 0, 5, 0, 7))
    w2 = approximate_quotient(h, Prime(3), 2, 5, 2, budget=8)
    assert w2.strategy == "enumeration"
    assert_witness_hits(h, 3, w2, 2, 5, 2)


def test_enumeration_witness_points_are_pinned(monkeypatch):
    # denominators by (|D|, D), least numerator, first point of each value in
    # itertools.product order; the origin stands for 0 only when no other
    # point of the first box is isotropic
    sphere = GeneralForm(3, (1, 0, 0, 1, 0, 1))
    cone = GeneralForm(3, (1, 0, 0, 1, 0, -1))
    cases = [
        (sphere, 2, 7, 1, 3, (-3, -2, -1), (-1, -1, 0)),
        (cone, 3, 1, 9, 2, (-2, -2, -3), (0, 0, -3)),
        (cone, 2, 5, 4, 3, (-2, 0, -3), (-2, -1, -3)),
        (cone, 3, 0, 1, 5, (-4, 0, -4), (-2, -2, -3)),
        (sphere, 3, 0, 1, 5, (0, 0, 0), (-1, 0, 0)),
    ]
    for g, p, tn, td, r, num, den in cases:
        w = approximate_quotient(g, Prime(p), tn, td, r)
        assert (w.num_point, w.den_point) == (num, den), (g.coeffs, p, tn, td)
    # blocks and folds of one entry, or of 37, find the same points as
    # whole shells
    for fold in (1, 37):
        monkeypatch.setattr(oracle_mod, "_CHUNK_ENTRIES", fold)
        for g, p, tn, td, r, num, den in cases:
            w = approximate_quotient(g, Prime(p), tn, td, r)
            assert (w.num_point, w.den_point) == (num, den), (fold, g.coeffs)


def test_structured_witness_points_are_pinned():
    # a swapped orientation or a flipped translation sign still gives a valid
    # witness, so only the exact points catch it
    cases = [
        ((2, 1, 3), 2, 7, 3, 5, "lift", (4, 1), (0, 1)),              # a even
        ((3, 1, 2), 2, -5, 9, 4, "lift", (1, 8), (1, 14)),            # a odd
        ((1, 1, -2), 2, 1, 6, 3, "lift", (1, 0), (1, 7)),             # a odd
        ((1, 0, 1), 5, 3, 5, 2, "lift", (182, 2), (1, 2)),
        ((2, 1, -3), 7, -51, 5, 3, "lift", (246, 6), (281, 6)),
        ((7, -1, -1), 13, 5, 26, 3, "lift", (1, 1), (326, 4)),
        ((1, 0, -4), 2, 7, 3, 4, "reduce-lift", (16, 6), (8, 2)),
        ((1, 2, -3), 2, 3, 1, 5, "reduce-lift", (6, 2), (4, 0)),
        ((4, 0, -1), 2, -2, 5, 3, "reduce-lift", (1, 6), (2, 8)),     # a even
        ((8, 6, 1), 2, -7, 3, 4, "reduce-lift", (8, 18), (2, 6)),     # a even
        ((0, 4, 1), 2, 1, 3, 2, "reduce-lift", (0, 4), (2, 4)),       # a even
        ((1, 0, -9), 3, 5, 7, 3, "reduce-lift", (0, 7), (-39, 0)),
        ((1, 3, 0), 3, 4, 7, 3, "reduce-lift", (-75, 0), (-39, 0)),
        ((2, 5, 0), 5, 2, 7, 2, "reduce-lift", (-440, 22), (-240, 12)),
        ((9, 0, -1), 3, 2, 5, 2, "reduce-lift", (0, -12), (0, -21)),  # p | a
        ((0, 3, 1), 3, -51, 5, 2, "reduce-lift", (1, -18), (4, -24)),  # p | a
    ]
    for coeffs, p, tn, td, r, strategy, num, den in cases:
        w = approximate_quotient(BinaryForm(*coeffs), Prime(p), tn, td, r)
        assert (w.strategy, w.num_point, w.den_point) == (strategy, num, den), \
            (coeffs, p, tn, td, r)


def test_zero_target_reduces_to_zero_over_one():
    # 0/-5 is the target 0/1, with the same points
    cases = [(BinaryForm(1, 0, 1), 5, 3), (BinaryForm(1, 0, -9), 3, 2),
             (BinaryForm(2, 1, 3), 2, 4),
             (GeneralForm(3, (1, 0, 0, 1, 0, 1)), 3, 2)]
    for f, p, r in cases:
        w = approximate_quotient(f, Prime(p), 0, -5, r)
        assert (w.target_num, w.target_den) == (0, 1)
        assert w == approximate_quotient(f, Prime(p), 0, 1, r), (f, p)


def test_enumeration_budget_defaults_to_fifty():
    # no quotient of values in the box of 12 comes 2**-30 close to 2000,
    # while 2000 = 40**2 + 20**2 is a value in the box of 50
    g = GeneralForm(3, (1, 0, 0, 1, 0, 1))
    with pytest.raises(BudgetExceededError):
        approximate_quotient(g, Prime(2), 2000, 1, 30, budget=12)
    assert approximate_quotient(g, Prime(2), 2000, 1, 30) == \
        approximate_quotient(g, Prime(2), 2000, 1, 30, budget=50)


def test_approximate_quotient_lift_errors_propagate(monkeypatch):
    # a failed lift on a dense binary form is a bug, never a reason to enumerate
    def broken(*args):
        raise InternalConsistencyError("forced for the test")

    monkeypatch.setattr(witness_mod, "lift_representation", broken)
    with pytest.raises(InternalConsistencyError, match="forced"):
        approximate_quotient(BinaryForm(1, 0, 1), Prime(5), 2, 1, 3)
    with pytest.raises(InternalConsistencyError, match="forced"):
        approximate_quotient(GeneralForm(2, (1, 0, 1)), Prime(5), 2, 1, 3)


def test_approximate_quotient_rejects_not_dense():
    with pytest.raises(ValueError):
        approximate_quotient(BinaryForm(1, 0, 1), Prime(3), 1, 1, 1)
    with pytest.raises(ValueError):
        approximate_quotient(BinaryForm(1, 0, 1), Prime(5), 1, 1, 0)
    with pytest.raises(ValueError):
        approximate_quotient(BinaryForm(1, 0, 1), Prime(5), 1, 0, 1)


def test_enumeration_witness_rejects_empty_box():
    # every rank refuses an empty box, also a binary form that would lift
    for g, p in ((GeneralForm(3, (1, 0, 0, 1, 0, 1)), 3),
                 (BinaryForm(1, 0, 1), 5)):
        for budget in (0, -4):
            with pytest.raises(ValueError, match="budget must be at least 1"):
                approximate_quotient(g, Prime(p), 5, 1, 1, budget=budget)


def test_budget_exhaustion():
    g = GeneralForm(3, (1, 0, 0, 1, 0, 1))
    with pytest.raises(BudgetExceededError) as info:
        # 4126 = 30 mod 4096: no value in a box of 3 gets 2^12-close
        approximate_quotient(g, Prime(2), 4126, 1, 12, budget=3)
    assert info.value.bound == 3


def test_witness_json_binary():
    f = BinaryForm(1, 0, 1)
    w = approximate_quotient(f, Prime(5), 2, 1, 2)
    d = w.to_json_dict()
    assert set(d) == {"x", "y", "z", "w", "target", "r", "strategy"}
    assert d["target"] == "2/1"
    assert d["r"] == 2
    assert f.evaluate((d["x"], d["y"])) == f.evaluate(w.num_point)


def certificate_holds_bruteforce(f, p, cert, bound):
    # no quotient may fall strictly inside the stated ball around the target
    tn, td = cert.target_num, cert.target_den
    values = set()
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            values.add(f.evaluate((x, y)))
    for nv, dv in product(values, repeat=2):
        if dv == 0:
            continue
        assert quotient_error_valuation(nv, dv, tn, td, p) <= \
            cert.radius_exponent, (nv, dv)


def test_exclusion_certificate_examples():
    parity = "every value has even valuation, so no quotient has valuation 1"
    odd_k = "odd k forbids quotients within p**-{} of any nonresidue unit"
    cases = [
        # anisotropic: valuation-1 targets missed
        ((1, 0, 1), 3, 3, 1, "anisotropic: " + parity),
        ((1, 1, 1), 2, 2, 1, "anisotropic: " + parity),
        # odd k: the least nonresidue unit is the target
        ((1, 0, -3), 3, 2, 1, "odd-singular-k-odd: " + odd_k.format(1)),
        ((1, 0, -27), 3, 2, 3, "odd-singular-k-odd: " + odd_k.format(3)),
        ((1, 0, -7), 7, 3, 1, "odd-singular-k-odd: " + odd_k.format(1)),
        ((1, 0, -73), 73, 5, 1, "odd-singular-k-odd: " + odd_k.format(1)),
        # nonresidue cofactor
        ((1, 0, 9), 3, 3, 1,
         "odd-singular-nonresidue: stripping p**k leaves a form anisotropic "
         "mod p, so quotient valuations stay even"),
        # ell = 7 mod 8: stay away from 3
        ((1, 0, 1), 2, 3, 3,
         "two-singular-ell-not-1-mod-8: ell = 3 or 7 mod 8 keeps quotients "
         "away from 3 mod 16"),
        # ell = 5 mod 8: valuation parity
        ((1, 0, 3), 2, 2, 1,
         "two-singular-ell-not-1-mod-8: ell = 5 mod 8 keeps every quotient "
         "valuation even"),
        # k = 3 odd: 5 is missed within 2^-5
        ((1, 0, 2), 2, 5, 5,
         "two-singular-k-odd: odd k forbids quotients within 2**-5 of 5"),
    ]
    for coeffs, p, target, radius, why in cases:
        f = BinaryForm(*coeffs)
        cert = exclusion_certificate(f, Prime(p))
        assert (cert.target_num, cert.target_den) == (target, 1), coeffs
        assert cert.radius_exponent == radius, coeffs
        assert cert.justification == why, coeffs
        certificate_holds_bruteforce(f, p, cert, 25 if p < 50 else 8)


def test_exclusion_certificate_is_an_excluded_class():
    # the certificate's ball is the first class the oracle checks as missing
    for coeffs in product(range(-3, 4), repeat=3):
        if gcd(*coeffs) != 1 or coeffs[1] ** 2 - 4 * coeffs[0] * coeffs[2] == 0:
            continue
        f = BinaryForm(*coeffs)
        for p in map(Prime, (2, 3, 5, 7)):
            v = decide(f, p)
            if v.dense:
                continue
            cert = exclusion_certificate(f, p, verify_bound=3)
            e = cert.radius_exponent
            assert excluded_classes(v, p, e) == frozenset(), (coeffs, p)
            assert cert.target_num % p ** (e + 1) in \
                excluded_classes(v, p, e + 1), (coeffs, p)


def test_exclusion_certificate_is_the_least_excluded_class():
    # the ball is the least class excluded_classes forbids, at the first
    # precision r0 where it forbids any; the obstruction table names it
    for coeffs in product(range(-6, 7), repeat=3):
        if gcd(*coeffs) != 1 or coeffs[1] ** 2 == 4 * coeffs[0] * coeffs[2]:
            continue
        f = BinaryForm(*coeffs)
        for p in map(Prime, (2, 3, 5, 7, 11)):
            v = decide(f, p)
            if v.dense:
                continue
            r0, least, _, _ = oracle_mod._obstruction(v, p)
            for r in range(1, r0):
                assert excluded_classes(v, p, r) == frozenset(), (coeffs, p, r)
            excluded = excluded_classes(v, p, r0)
            assert excluded and least == min(excluded), (coeffs, p)
            cert = exclusion_certificate(f, p, verify_bound=3)
            assert (cert.target_num, cert.target_den, cert.radius_exponent) \
                == (least, 1, r0 - 1), (coeffs, p)


def test_exclusion_certificate_random():
    count = 0
    while count < 40:
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
            continue
        f = BinaryForm(a, b, c)
        p = Prime(rng.choice((2, 3, 5, 7)))
        if decide(f, p).dense:
            continue
        count += 1
        cert = exclusion_certificate(f, p, verify_bound=20)
        certificate_holds_bruteforce(f, p, cert, 15)


def test_exclusion_certificate_plain_int_prime():
    # a plain int prime past the box's dtype gives the Prime's certificate
    for coeffs, p in [((1, 0, 1), 2147483659),
                      ((1, 0, 3), 18446744073709551629)]:
        f = BinaryForm(*coeffs)
        assert exclusion_certificate(f, p) == exclusion_certificate(f, Prime(p))


def test_exclusion_certificate_refuted(monkeypatch):
    # plant a false claim: 1 is a square, so quotients come within 3**-1 of it;
    # the first denominator is 1 and the least numerator 1 mod 9 is -71
    monkeypatch.setattr(witness_mod, "_obstruction",
                        lambda v, p: (2, 1, lambda z: z % 3 == 1, "planted"))
    f = BinaryForm(1, 0, -3)
    with pytest.raises(InternalConsistencyError) as info:
        exclusion_certificate(f, Prime(3), verify_bound=5)
    message = str(info.value)
    for part in ("1,0,-3", "p=3", "target 1", "radius 1", "bound 5",
                 "N/D = -71/1"):
        assert part in message, part
    # the message names each value's first point in the half box
    points = {name: (int(x), int(y)) for name, x, y in
              re.findall(r"([ND]) = f\((-?\d+), (-?\d+)\)", message)}
    assert points == {"N": (-2, -5), "D": (-2, -1)}
    assert (f.evaluate(points["N"]), f.evaluate(points["D"])) == (-71, 1)


def test_value_pair_outside_the_box_names_the_call(monkeypatch):
    # plant a search that answers a pair the box does not hold: the second
    # walk cannot find its points and says which form, p and shells it walked
    monkeypatch.setattr(oracle_mod, "_value_pair", lambda *args: (7, 10 ** 9))
    cases = [(exclusion_certificate, (BinaryForm(1, 0, -3), Prime(3), 5),
              ("form 1,0,-3", "p=3", "shells [(0, 5)]")),
             (approximate_quotient,
              (GeneralForm(3, (1, 0, 0, 1, 0, 1)), Prime(5), 2, 1, 1),
              ("form 3; 1,0,0,1,0,1", "p=5", "shells [(0, 4)]"))]
    for call, args, parts in cases:
        with pytest.raises(InternalConsistencyError) as info:
            call(*args)
        message = str(info.value)
        assert "values (7, 1000000000) not found in the box" in message
        for part in parts:
            assert part in message, part


def test_exclusion_certificate_over_many_blocks(monkeypatch):
    # the verify box is folded block by block: boxes of many blocks give the
    # same certificates, and a planted false claim the same refuting pair
    cases = [((1, 0, 1), 3), ((1, 0, -7), 7), ((1, 0, 2), 2), ((1, 1, 1), 2)]
    want = [exclusion_certificate(BinaryForm(*c), Prime(p), verify_bound=30)
            for c, p in cases]

    def refutation():
        with pytest.raises(InternalConsistencyError) as info:
            exclusion_certificate(BinaryForm(1, 0, -3), Prime(3),
                                  verify_bound=5)
        return str(info.value)

    with monkeypatch.context() as planted:
        planted.setattr(witness_mod, "_obstruction",
                        lambda v, p: (2, 1, lambda z: z % 3 == 1, "planted"))
        refuted = refutation()
    for ceiling in (1, 37, 1000):
        monkeypatch.setattr(oracle_mod, "_CHUNK_ENTRIES", ceiling)
        assert len(list(oracle_mod._shell_batches(BinaryForm(1, 0, 1), 0, 30))) > 1
        assert [exclusion_certificate(BinaryForm(*c), Prime(p), verify_bound=30)
                for c, p in cases] == want, ceiling
        with monkeypatch.context() as planted:
            planted.setattr(witness_mod, "_obstruction",
                            lambda v, p: (2, 1, lambda z: z % 3 == 1, "planted"))
            assert refutation() == refuted, ceiling


def test_exclusion_certificate_rejects_empty_box():
    # a box without a nonzero value would pass the exhaustive check vacuously
    for bound in (0, -5):
        with pytest.raises(ValueError, match="verify_bound must be at least 1"):
            exclusion_certificate(BinaryForm(1, 0, 1), Prime(3),
                                  verify_bound=bound)


def test_exclusion_certificate_rejects_dense():
    # the dense check comes before the rank check: rank 3 is always dense
    for f, p in ((BinaryForm(1, 0, 1), 5), (GeneralForm(2, (1, 0, 1)), 5),
                 (GeneralForm(3, (1, 0, 0, 1, 0, 1)), 3)):
        with pytest.raises(ValueError, match="^quotients are dense; no "
                           "exclusion certificate exists$"):
            exclusion_certificate(f, Prime(p))


def test_exclusion_certificate_takes_any_form():
    # a not-dense form of rank other than 2 is refused with the CLI's text;
    # a rank-2 general form is certified as its binary form
    with pytest.raises(ValueError) as info:
        exclusion_certificate(GeneralForm(1, (1,)), Prime(3))
    assert str(info.value) == ("exclusion certificates are built for binary "
                               "forms; this form is not dense but has rank 1")
    assert exclusion_certificate(GeneralForm(2, (1, 0, 1)), Prime(3)) == \
        exclusion_certificate(BinaryForm(1, 0, 1), Prime(3))


def test_certificate_json():
    cert = exclusion_certificate(BinaryForm(1, 0, 1), Prime(3))
    d = cert.to_json_dict()
    assert d["target"] == "3/1"
    assert d["radius_exp"] == 1
    assert "justification" in d
