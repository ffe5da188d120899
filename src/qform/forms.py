"""Integral quadratic forms: validation, local predicates, reductions, composition.

Binary forms are a x^2 + b xy + c y^2 with integer coefficients. General forms
of rank r carry the upper-triangular coefficients of sum(a_ij x_i x_j, i <= j).
Every form is validated at construction: coefficients coprime (primitive) and
nonzero discriminant (nonsingular over the rationals).
"""

from __future__ import annotations

import math
from operator import index
from typing import NamedTuple

from .errors import InternalConsistencyError
from .padic import legendre, mod_inverse, split_unit

_set = object.__setattr__  # gets past the records' own __setattr__, which refuses


class InvalidFormError(ValueError):
    """Coefficients violate a structural hypothesis (primitive, nonsingular, shape)."""


class _Frozen:
    """Base of the immutable form records: __init__ sets each field of __slots__
    once, and _key, their values in order, which ==, hash, repr and pickle read."""

    __slots__ = ("_key",)

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ \
            else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class BinaryForm(_Frozen):
    __slots__ = ("a", "b", "c")
    rank = 2
    coeffs = _Frozen._key  # (a, b, c), read straight from the slot

    def __init__(self, a: int, b: int, c: int):
        a, b, c = index(a), index(b), index(c)  # numpy ints would wrap
        if (g := math.gcd(a, b, c)) != 1:
            raise InvalidFormError(f"form ({a},{b},{c}) is not primitive: "
                                   f"coefficients share the factor {g}")
        if b * b - 4 * a * c == 0:
            raise InvalidFormError(
                f"form ({a},{b},{c}) is not nonsingular: discriminant is zero")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "_key", (a, b, c))

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def evaluate(self, point) -> int:
        if len(point) != 2:
            raise ValueError(f"binary form evaluated at a {len(point)}-tuple")
        x, y = point
        return self.a * x * x + self.b * x * y + self.c * y * y

    def to_binary(self) -> "BinaryForm":
        return self

    def swapped(self) -> "BinaryForm":
        """The form with outer coefficients exchanged; same values, via (x,y) -> (y,x)."""
        return BinaryForm(self.c, self.b, self.a)


class GeneralForm(_Frozen):
    """Rank-r integral form; coeffs lists the upper triangle row by row:
    a_11, a_12, ..., a_1r, a_22, ..., a_2r, ..., a_rr."""

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: tuple[int, ...]):
        if rank < 1:
            raise InvalidFormError(f"rank must be positive, got {rank}")
        want = rank * (rank + 1) // 2
        if len(coeffs) != want:
            raise InvalidFormError(
                f"rank {rank} needs {want} coefficients, got {len(coeffs)}")
        coeffs = tuple(map(index, coeffs))
        _set(self, "rank", rank)
        _set(self, "coeffs", coeffs)
        _set(self, "_key", (rank, coeffs))
        if math.gcd(*coeffs) != 1:
            raise InvalidFormError("form is not primitive: coefficients share a factor")
        if self.determinant() == 0:
            raise InvalidFormError("form is not nonsingular: matrix determinant is zero")

    def coeff(self, i: int, j: int) -> int:
        """Coefficient of x_i x_j, zero-based, any order of i and j."""
        if i > j:
            i, j = j, i
        base = i * self.rank - i * (i - 1) // 2
        return self.coeffs[base + (j - i)]

    def matrix(self) -> list[list[int]]:
        """Symmetric matrix with doubled diagonal, so Q(x) = x^T A x / 2."""
        r = self.rank
        return [[self.coeff(i, j) * (1 + (i == j)) for j in range(r)] for i in range(r)]

    def determinant(self) -> int:
        """det(matrix()), exact, by fraction-free (Bareiss) elimination."""
        m, n, sign, prev = self.matrix(), self.rank, 1, 1
        for i in range(n - 1):
            if m[i][i] == 0:
                j = next((row for row in range(i + 1, n) if m[row][i]), None)
                if j is None:
                    return 0
                m[i], m[j], sign = m[j], m[i], -sign
            for j in range(i + 1, n):
                for k in range(i + 1, n):
                    m[j][k] = (m[j][k] * m[i][i] - m[j][i] * m[i][k]) // prev
            prev = m[i][i]
        return sign * m[-1][-1]

    def evaluate(self, point) -> int:
        if len(point) != self.rank:
            raise ValueError(
                f"rank {self.rank} form evaluated at a {len(point)}-tuple")
        return sum(self.coeff(i, j) * point[i] * point[j]
                   for i in range(self.rank) for j in range(i, self.rank))

    def to_binary(self) -> BinaryForm:
        if self.rank != 2:
            raise InvalidFormError(f"rank {self.rank} form has no binary equivalent")
        return BinaryForm(*self.coeffs)


class DiscFactorization(NamedTuple):
    """disc = p**k * ell with p not dividing ell, as factor_discriminant checks."""

    p: int
    k: int
    ell: int
    disc: int


def factor_discriminant(f: BinaryForm, p: int) -> DiscFactorization:
    """Split the discriminant as p**k * ell with ell coprime to p."""
    d, p = f.discriminant(), int(p)
    k, ell = split_unit(d, p)
    if p ** k * ell != d or ell % p == 0:
        raise InternalConsistencyError(
            f"bad factorization {p}**{k} * {ell} != {d}")
    # tuple.__new__ skips the named tuple's costly generated __new__
    return tuple.__new__(DiscFactorization, (p, k, ell, d))


def is_isotropic_mod_p(f: BinaryForm, p: int) -> bool:
    """Whether the form has a nonzero root mod p.

    The classical criterion (Serre, A Course in Arithmetic, Ch. IV): at p = 2
    the form is anisotropic exactly when a, b and c are all odd; at odd p it
    is isotropic exactly when the discriminant is not a nonresidue. The test
    suite checks this against isotropic_by_scan, a scan of F_p x F_p.
    """
    if p == 2:
        return not f.a & f.b & f.c & 1
    return legendre(f.discriminant(), p) != -1


class SingularReduction(NamedTuple):
    """Outcome of stripping an even power p**k from the discriminant.

    f(matrix . x) = p**k * reduced(x) and reduced has discriminant
    ell = disc / p**k, so pull_back sends a reduced-form point to an
    original-form point and preserves value quotients exactly.
    """

    reduced: BinaryForm
    k: int
    matrix: tuple[tuple[int, int], tuple[int, int]]

    def pull_back(self, point) -> tuple[int, int]:
        x, y = point
        (m11, m12), (m21, m22) = self.matrix
        return m11 * x + m12 * y, m21 * x + m22 * y


def _singular_reduction(f: BinaryForm, p: int) -> SingularReduction:
    """Strip p**k from the discriminant, for k even and at least 2.

    Substituting x -> t1 x + t2 y, for the top row (t1, t2), makes the
    coefficients divisible by p**k; dividing them out leaves a form of
    discriminant ell = disc / p**k. When p divides a the substitution goes
    into y instead, and c takes the part of the unit a below.
    At odd p the top row is (-p**(k/2), -u), for the least nonnegative u with
    2au = b mod p**k. At p = 2 it is (2**(k/2), q), for
    q = -b/(2a) + 2**(k/2-1) mod 2**k: b is even as soon as 2 divides the
    discriminant, primitivity then makes one of a, c odd, and ell = 1 mod 8
    is what makes the last division exact.
    """
    fact = factor_discriminant(f, p)
    if fact.k < 2 or fact.k % 2:
        raise ValueError(
            f"discriminant valuation must be even and at least 2, got k={fact.k}")
    if p == 2 and fact.ell % 8 != 1:
        raise ValueError(f"unit cofactor must be 1 mod 8, got {fact.ell % 8}")
    if p == 2 and f.b % 2:
        raise InternalConsistencyError("even discriminant forces an even middle coefficient")
    swapped = f.a % p == 0
    a = f.c if swapped else f.a
    if a % p == 0:
        raise InternalConsistencyError(
            f"{p} divides both outer coefficients of a primitive form")
    pk, half = p ** fact.k, p ** (fact.k // 2)
    top = (half, (-(f.b // 2) * mod_inverse(a, pk) + half // 2) % pk) if p == 2 \
        else (-half, -(f.b * mod_inverse(2 * a, pk) % pk))
    matrix = ((0, 1), top) if swapped else (top, (0, 1))
    coeffs = _compose(f, matrix)
    if any(v % pk for v in coeffs):
        raise InternalConsistencyError("reduction divisions are not exact")
    reduced = BinaryForm(*(v // pk for v in coeffs))
    if reduced.discriminant() != fact.ell:
        raise InternalConsistencyError(
            f"reduced discriminant {reduced.discriminant()} != {fact.ell}")
    return SingularReduction(reduced, fact.k, matrix)


def odd_singular_reduction(f: BinaryForm, p: int) -> SingularReduction:
    """Reduce f at an odd prime whose discriminant valuation k is even, >= 2."""
    if p == 2:
        raise ValueError("reduction requires an odd prime")
    return _singular_reduction(f, p)


def two_singular_reduction(f: BinaryForm) -> SingularReduction:
    """Reduce f at 2 when the discriminant valuation k is even and ell = 1 mod 8."""
    return _singular_reduction(f, 2)


def _compose(f: BinaryForm, m) -> tuple[int, int, int]:
    """Coefficients of f(m11 x + m12 y, m21 x + m22 y): f at the columns e1
    and e2 of m, and between them f(e1 + e2) - f(e1) - f(e2)."""
    (m11, m12), (m21, m22) = m
    a2, c2 = f.evaluate((m11, m21)), f.evaluate((m12, m22))
    return a2, f.evaluate((m11 + m12, m21 + m22)) - a2 - c2, c2


def change_variables(f: BinaryForm, m) -> BinaryForm:
    """The form f(m11 x + m12 y, m21 x + m22 y).

    For unimodular m this keeps the value set and the discriminant.
    """
    return BinaryForm(*_compose(f, m))


def parse_form(text: str) -> BinaryForm | GeneralForm:
    """Parse "a,b,c" to a binary form or "r; a11,...,arr" to a general form.

    General coefficients come in upper-triangular row order. Whitespace is
    ignored everywhere.
    """
    s = text.strip()
    left, general, right = s.partition(";")
    try:
        rank = int(left) if general else 2
        parts = [int(tok) for tok in (right if general else s).split(",")]
    except ValueError:
        raise InvalidFormError(f"malformed form text {text!r}") from None
    if general:
        return GeneralForm(rank, tuple(parts))
    if len(parts) != 3:
        raise InvalidFormError(
            f"binary form text needs 3 coefficients, got {len(parts)}")
    return BinaryForm(*parts)


def format_form(f: BinaryForm | GeneralForm) -> str:
    """Inverse of parse_form."""
    if isinstance(f, BinaryForm):
        return f"{f.a},{f.b},{f.c}"
    return f"{f.rank}; " + ",".join(str(v) for v in f.coeffs)
