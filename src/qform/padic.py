"""Exact p-adic arithmetic on integers and rationals.

Valuations, Legendre symbols, unit parts, the p-adic square test, and the text of an integer past Python's digit cap. Everything runs on plain Python integers, so there is no
overflow anywhere in the pipeline.
"""

from __future__ import annotations

import math
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
        if not is_prime(int(value)):
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

    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 1.5.1): x**2 = a * b with b in the 2-Sylow subgroup,
    and each step multiplies in a power of its generator z to shrink b's order.
    """
    a %= p
    if legendre(a, p) == -1:
        return None
    if a == 0:
        return 0
    e, q = split_unit(p - 1, 2)
    nonresidue = next(n for n in range(2, p) if legendre(n, p) == -1)
    z = pow(nonresidue, q, p)
    x = pow(a, (q + 1) // 2, p)
    b = pow(a, q, p)
    while b != 1:
        # least m with b**(2**m) = 1; m < e since a is a residue
        m, t = 0, b
        while t != 1:
            t = t * t % p
            m += 1
        t = pow(z, 1 << (e - m - 1), p)
        z = t * t % p
        e = m
        x = x * t % p
        b = b * z % p
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

    A nonzero rational is a square exactly when its valuation is even and its
    unit part u satisfies: u a quadratic residue mod p (odd p), or u = 1 mod 8
    (p = 2).
    """
    if den == 0:
        raise ValueError("denominator is zero")
    if num == 0:
        return True
    vn, un = split_unit(num, p)
    vd, ud = split_unit(den, p)
    if (vn - vd) % 2:
        return False
    if p == 2:
        return un * pow(ud, -1, 8) % 8 == 1
    return legendre(un * pow(ud, -1, p), p) == 1
