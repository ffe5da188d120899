import math
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qform import (INFINITY, Prime, is_prime, is_square_in_qp, legendre,
                   mod_inverse, split_unit, valuation)
from qform.padic import _sqrt_mod

rng = random.Random(0x5eed)

PRIMES = (2, 3, 5, 7, 11, 13)


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert valuation(-250, 5) == 3
    assert valuation(7, 5) == 0
    assert valuation(1024, 2) == 10
    assert valuation(0, 3) == INFINITY


def test_valuation_random_reconstruction():
    for _ in range(500):
        p = rng.choice(PRIMES)
        u = rng.randint(1, 10_000)
        while u % p == 0:
            u += 1
        e = rng.randint(0, 12)
        sign = rng.choice((1, -1))
        n = sign * u * p**e
        assert valuation(n, p) == e
        v, unit = split_unit(n, p)
        assert v == e
        assert unit == sign * u
        assert unit * p**v == n


def test_split_unit_rejects_zero():
    with pytest.raises(ValueError):
        split_unit(0, 5)


def split_unit_by_division(n, p):
    """The reference: divide out p one power at a time."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((3, 5, 1009, 10**18 + 3)),
       v=st.integers(0, 3000),
       u=st.integers(-10**30, 10**30).filter(bool))
@example(p=3, v=2**11 - 1, u=-1)
@example(p=5, v=2**11, u=25)
def test_split_unit_matches_division_loop(p, v, u):
    # u may itself be divisible by p, so v is a lower bound on the valuation
    n = u * p**v
    assert split_unit(n, p) == split_unit_by_division(n, p)


def test_valuation_of_a_large_power_is_fast():
    n = 5**50000 * 3
    start = time.perf_counter()
    v = valuation(n, 5)
    assert time.perf_counter() - start < 0.1
    assert v == 50000


def test_valuation_multiplicative():
    for _ in range(300):
        p = rng.choice(PRIMES)
        m = rng.randint(-9999, 9999) or 1
        n = rng.randint(-9999, 9999) or 1
        assert valuation(m * n, p) == valuation(m, p) + valuation(n, p)


def test_valuation_ultrametric():
    for _ in range(300):
        p = rng.choice(PRIMES)
        m = rng.randint(-9999, 9999)
        n = rng.randint(-9999, 9999)
        both = min(valuation(m, p), valuation(n, p))
        assert valuation(m + n, p) >= both
        if valuation(m, p) != valuation(n, p):
            assert valuation(m + n, p) == both


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(97)
    assert is_prime(2**31 - 1)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert not is_prime(561)        # Carmichael
    assert not is_prime(1_000_001)
    assert is_prime(1_000_003)


def test_prime_type():
    assert Prime(13) == 13
    assert isinstance(Prime(13), int)
    for bad in (0, 1, 4, 9, 561):
        with pytest.raises(ValueError):
            Prime(bad)


def test_prime_refuses_non_integers():
    # int() would truncate 5.5 to the prime 5
    for bad in (5.5, 2.9, 7.0, "7"):
        with pytest.raises(TypeError):
            Prime(bad)
    for good in (7, np.int64(7), Prime(7)):
        assert Prime(good) == 7 and type(Prime(good)) is Prime


def test_legendre_examples():
    assert legendre(-4, 5) == 1     # -4 = 1 mod 5, a square
    assert legendre(-4, 3) == -1    # -4 = 2 mod 3, not a square
    assert legendre(2, 7) == 1
    assert legendre(10, 5) == 0
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_legendre_matches_bruteforce():
    for p in (3, 5, 7, 11, 13, 17):
        squares = {x * x % p for x in range(1, p)}
        for a in range(-2 * p, 2 * p + 1):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == expected


def test_legendre_multiplicative():
    for _ in range(300):
        p = rng.choice((3, 5, 7, 11, 13))
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_sqrt_mod_matches_bruteforce():
    # 17, 97 and 257 have p - 1 divisible by 2**4, 2**5 and 2**8
    for p in (3, 5, 7, 11, 13, 17, 97, 257):
        roots = {}
        for x in range(p):
            roots.setdefault(x * x % p, set()).add(x)
        for a in range(-p, 2 * p):
            s = _sqrt_mod(a, p)
            if a % p in roots:
                assert s in roots[a % p], (a, p)
            else:
                assert s is None, (a, p)


def test_sqrt_mod_large_primes():
    # 2**61 - 1, a prime just below 1e18, and 15 * 2**27 + 1 (p - 1 has 2**27)
    for p in (2**61 - 1, 999999999999999989, 15 * 2**27 + 1):
        for _ in range(100):
            a = rng.randrange(p)
            s = _sqrt_mod(a, p)
            if legendre(a, p) == -1:
                assert s is None
            else:
                assert s * s % p == a


def test_mod_inverse():
    for _ in range(200):
        m = rng.randint(2, 10_000)
        a = rng.randint(1, m - 1)
        if math.gcd(a, m) != 1:
            with pytest.raises(ValueError):
                mod_inverse(a, m)
        else:
            assert a * mod_inverse(a, m) % m == 1


def _square_in_qp_bruteforce(num, den, p):
    # num/den is a square iff num*den is: clear the denominator by den**2.
    n = num * den
    if n == 0:
        return True
    v = valuation(n, p)
    m = v + (3 if p == 2 else 1)
    target = n % p**m
    return any(x * x % p**m == target for x in range(p**m))


def test_is_square_in_qp_matches_bruteforce():
    for p in (2, 3, 5, 7):
        for num in range(-40, 41):
            for den in (1, 2, 3, p, p * p, -p):
                if num == 0:
                    assert is_square_in_qp(num, den, p)
                    continue
                assert is_square_in_qp(num, den, p) == \
                    _square_in_qp_bruteforce(num, den, p), (num, den, p)


def test_is_square_in_qp_examples():
    assert is_square_in_qp(4, 1, 5)
    assert is_square_in_qp(-4, 1, 5)
    assert not is_square_in_qp(5, 1, 5)
    assert is_square_in_qp(25, 1, 5)
    assert not is_square_in_qp(2, 1, 2)
    assert is_square_in_qp(17, 1, 2)    # 17 = 1 mod 8
    assert not is_square_in_qp(3, 1, 2)
    assert is_square_in_qp(9, 16, 2)
    assert is_square_in_qp(2, 1, 7)
    assert is_square_in_qp(7, 28, 7)
    assert not is_square_in_qp(1, 3, 7)
