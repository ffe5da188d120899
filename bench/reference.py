"""Reference arithmetic for the benchmark's output checks.

Everything here is written from the definitions, apart from qform, so that a
check never asks the program to confirm its own answer. Quadratic-residue
facts come in as `qr`, a set of the nonzero squares mod an odd prime; the
benchmark builds those sets with sympy's `legendre_symbol`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

INF = float("inf")


def val(n: int, p: int) -> float:
    """p-adic valuation of an integer; zero has infinite valuation."""
    if n == 0:
        return INF
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def split(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p**v * u and p not dividing u; n nonzero."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def frac_val(q: Fraction, p: int) -> float:
    return INF if q == 0 else val(q.numerator, p) - val(q.denominator, p)


def disc_is_square(d: int, p: int, qr: set[int] | None) -> bool:
    """Whether the nonzero integer d is a square in Q_p.

    Even valuation, and a unit part that is a square mod p (odd p) or 1 mod 8
    (p = 2). A binary form's quotients are dense exactly in this case.
    """
    v, u = split(d, p)
    if v % 2:
        return False
    return u % 8 == 1 if p == 2 else u % p in qr


def hilbert(a: int, b: int, p: int, qr: set[int] | None) -> int:
    """Hilbert symbol (a, b)_p of nonzero integers (Serre, Ch. III, Thm. 1)."""
    al, u = split(a, p)
    be, w = split(b, p)
    if p == 2:
        eps = lambda x: (x % 4 - 1) // 2
        omega = lambda x: ((x % 8) ** 2 - 1) // 8 % 2
        e = eps(u) * eps(w) + al * omega(w) + be * omega(u)
        return -1 if e % 2 else 1
    leg = lambda x: 1 if x % p in qr else -1
    sign = -1 if (al * be * (p - 1) // 2) % 2 else 1
    return sign * leg(u) ** be * leg(w) ** al


def forbidden_residues(d: int, p: int, r: int, qr: set[int] | None) -> set[int]:
    """Residues mod p**r that no quotient of a form of non-square disc d reaches.

    4a*Q(x, y) = (2ax + by)**2 - d*y**2 is a norm from Q_p(sqrt d), so every
    quotient z has Hilbert symbol (z, d)_p = 1. A residue class is forbidden
    when every p-adic number in it has symbol -1.
    """
    m = p ** r
    out = set()
    for z in range(1, m):
        v, u = split(z, p)
        room = p ** (r - v)
        # unit parts the class allows, up to what decides the symbol
        step = 8 if p == 2 else p
        units = {(u + room * t) % step for t in range(step)} if room < step \
            else {u % step}
        units = {x for x in units if x % p}
        if all(hilbert(p ** v * x, d, p, qr) == -1 for x in units):
            out.add(z)
    return out


def eval_form(coeffs: list[int], rank: int, point) -> int:
    """Value of sum(a_ij x_i x_j, i <= j), coefficients in upper-triangle row order."""
    total, k = 0, 0
    for i in range(rank):
        for j in range(i, rank):
            total += coeffs[k] * point[i] * point[j]
            k += 1
    return total


def determinant(coeffs: list[int], rank: int) -> Fraction:
    """Determinant of the Gram matrix with doubled diagonal, by elimination."""
    m = [[Fraction(0)] * rank for _ in range(rank)]
    k = 0
    for i in range(rank):
        for j in range(i, rank):
            m[i][j] = m[j][i] = Fraction(coeffs[k] * (2 if i == j else 1))
            k += 1
    det = Fraction(1)
    for c in range(rank):
        pivot = next((i for i in range(c, rank) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, rank):
            f = m[i][c] / m[c][c]
            for j in range(c, rank):
                m[i][j] -= f * m[c][j]
    return det


def box_values(coeffs: list[int], rank: int, bound: int) -> set[int]:
    side = range(-bound, bound + 1)
    return {eval_form(coeffs, rank, pt) for pt in product(side, repeat=rank)}


def brute_coverage(coeffs: list[int], rank: int, p: int, r: int,
                   bound: int) -> set[int]:
    """Residues mod p**r of every quotient N/D that is a p-adic integer.

    Pairs every value with every nonzero value of the box, one Fraction each.
    """
    m = p ** r
    values = box_values(coeffs, rank, bound)
    out = set()
    for dv in values:
        if dv == 0:
            continue
        for nv in values:
            q = Fraction(nv, dv)
            if frac_val(q, p) >= 0:
                out.add(q.numerator * pow(q.denominator, -1, m) % m)
    return out


def quotients_in_ball(coeffs: list[int], rank: int, p: int, target: Fraction,
                      radius: int, bound: int) -> int:
    """Denominator values D of the box for which some value N has
    v(N/D - target) > radius; zero means no quotient enters the open ball.

    v(N/D - tn/td) > radius is the congruence N*td = tn*D mod
    p**(radius + v(D) + v(td) + 1), tested per valuation class of D.
    """
    tn, td = target.numerator, target.denominator
    g = int(val(td, p))
    values = box_values(coeffs, rank, bound)
    by_val: dict[int, list[int]] = {}
    for dv in values:
        if dv:
            by_val.setdefault(int(val(dv, p)), []).append(dv)
    hits = 0
    for s, dens in by_val.items():
        m = p ** (radius + s + g + 1)
        nums = {nv * td % m for nv in values}
        hits += sum(1 for dv in dens if tn * dv % m in nums)
    return hits


def witness_problem(coeffs: list[int], rank: int, p: int, target: Fraction,
                    r: int, num_point, den_point) -> str | None:
    """None when Q(num)/Q(den) lies within p**-r of target, else the reason."""
    if len(num_point) != rank or len(den_point) != rank:
        return "witness points have the wrong length"
    den = eval_form(coeffs, rank, den_point)
    if den == 0:
        return "witness denominator value is zero"
    got = frac_val(Fraction(eval_form(coeffs, rank, num_point), den) - target, p)
    if got < r:
        return f"witness error valuation {got} < r = {r}"
    return None
