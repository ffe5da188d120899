"""Exact p-adic arithmetic on integers and rationals.

Valuations, Legendre symbols, unit parts, the p-adic square test, and the text of an integer past Python's digit cap. Everything runs on plain Python integers, so there is no
overflow anywhere in the pipeline.
"""

from __future__ import annotations

import math
import operator
import sys

INFINITY = math.inf

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Deterministic Miller-Rabin witness set, valid for every n below this bound.
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test (valid for n < 3.3e24)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic primality range")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """An integer certified prime at construction."""

    __slots__ = ()

    def __new__(cls, value: int) -> "Prime":
        if not is_prime(operator.index(value)):
            raise ValueError(f"{value} is not a prime number")
        return super().__new__(cls, value)


def valuation(n: int, p: int) -> int | float:
    """Exponent of the largest power of p dividing n. Zero gets INFINITY."""
    return INFINITY if n == 0 else split_unit(n, p)[0]


def split_unit(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p**v * u and p not dividing u. Requires n != 0."""
    if n == 0:
        raise ValueError("zero has no unit part")
    if p == 2:
        v = (n & -n).bit_length() - 1
        return v, n >> v
    if n % p:
        return 0, n
    # n = (p*p)**w * m with p*p not dividing m, so p divides m at most once:
    # p, p**2, p**4, ... cost O(log v) big divisions instead of v
    w, m = split_unit(n, p * p)
    return (2 * w + 1, m // p) if m % p == 0 else (2 * w, m)


def uncapped_text(text, *args) -> str:
    """text(*args), retried with Python's cap on the digits of int-to-text
    conversion (3.10.7 on) lifted if it hits that cap, which is put back."""
    try:
        return text(*args)
    except ValueError:
        cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not cap:
            raise
        sys.set_int_max_str_digits(0)
        try:
            return text(*args)
        finally:
            sys.set_int_max_str_digits(cap)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p: 1, -1, or 0."""
    if p == 2:
        raise ValueError("Legendre symbol needs an odd prime")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None for a nonresidue.

    Cipolla's method: with t least such that w = t*t - a is a nonresidue,
    (t + u)**((p+1)/2) in F_p[u], u*u = w, squares to (t + u)(t - u) = a.
    """
    a %= p
    if legendre(a, p) != 1:
        return None if a else 0
    t = 0  # t = 0 counts: at p = 3, a = 1 it is the least t that works
    while legendre(t * t - a, p) != -1:
        t += 1
    w, x, y = (t * t - a) % p, 1, 0
    for bit in bin((p + 1) // 2)[2:]:  # x + y*u, square and multiply
        x, y = (x * x + y * y * w) % p, 2 * x * y % p
        if bit == "1":
            x, y = (x * t + y * w) % p, (x + y * t) % p
    return x


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [1, m-1]."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {m}") from None


def is_square_in_qp(num: int, den: int, p: int) -> bool:
    """Whether num/den is a square p-adically. Zero counts as a square.

    num/den = num*den / den**2, so it is a square exactly when num*den has
    even valuation and a unit part u that is a quadratic residue mod p (odd
    p), or u = 1 mod 8 (p = 2).
    """
    if den == 0:
        raise ValueError("denominator is zero")
    if num == 0:
        return True
    v, u = split_unit(num * den, p)
    if v % 2:
        return False
    return u % 8 == 1 if p == 2 else legendre(u, p) == 1
