"""Constructive evidence for density verdicts.

Dense side: a Witness is a pair of lattice points whose value quotient lands
within p**-r of a requested target rational. Preferred route is lifting a
representation of each target component to high precision (after stripping the
discriminant's p-power if needed); rank >= 3 uses bounded lattice enumeration.

Not-dense side: an ExclusionCertificate names a target rational and a radius
exponent e such that the open ball of radius p**-e around the target contains
no quotient at all, and verifies that claim by exhaustive search.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .decide import decide
from .errors import BudgetExceededError, InternalConsistencyError
from .forms import (BinaryForm, format_form, is_isotropic_mod_p,
                    odd_singular_reduction, two_singular_reduction)
from .oracle import _expanding_bounds, _obstruction, _search_pair
from .padic import INFINITY, _sqrt_mod, mod_inverse, valuation

DEFAULT_BUDGET = 50
# a witness works with integers near p**(r + 2 v(td)), of at most ceil(log2 p)
# bits a digit (exactly 1 at p = 2), and CPython divides them in time quadratic
# in their bits: past this many a request is refused up front
MAX_PRECISION_BITS = 1 << 18


def quotient_error_valuation(num_value: int, den_value: int,
                             target_num: int, target_den: int,
                             p: int) -> int | float:
    """Exact valuation of num_value/den_value - target_num/target_den.

    INFINITY when the quotient hits the target on the nose.
    """
    if den_value == 0 or target_den == 0:
        raise ValueError("denominators must be nonzero")
    delta = num_value * target_den - target_num * den_value
    if delta == 0:
        return INFINITY
    return valuation(delta, p) - valuation(den_value, p) - valuation(target_den, p)


def lift_representation(f: BinaryForm, p: int, n: int, r: int) -> tuple[int, int]:
    """(x, y) with f(x, y) = n mod p**r, for odd p.

    Needs f isotropic and nonsingular mod p; such a form represents every
    residue. The base step takes x = 0, 1, 2, ... and solves for y, a
    quadratic c y**2 + b x y + a x**2 - n = 0 mod p (linear when p | c), so
    it costs a few square roots; the first root with some partial derivative
    a unit is the least such point in lexicographic order. Each later step
    corrects along that direction by a multiple of p**s, which never
    disturbs the unit condition.
    """
    if p == 2:
        raise ValueError("this lift needs an odd prime")
    if r < 1:
        raise ValueError("precision must be at least 1")
    if f.discriminant() % p == 0 or not is_isotropic_mod_p(f, p):
        raise ValueError("lifting needs a form isotropic and nonsingular mod p")
    a, b, c = f.a % p, f.b % p, f.c % p
    for x in range(p):
        k = (a * x * x - n) % p
        if c:
            s = _sqrt_mod(b * b * x * x - 4 * c * k, p)
            ys = () if s is None else sorted(
                {(t - b * x) * mod_inverse(2 * c, p) % p for t in (s, -s)})
        elif x:
            ys = (-k * mod_inverse(b * x, p) % p,)
        else:
            # at x = 0 the equation reads k = 0: every y is a root when p | n
            ys = () if k else range(1, p)
        for y in ys:
            if (2 * a * x + b * y) % p or (b * x + 2 * c * y) % p:
                return _hensel(f, p, n, r, x, y)
    raise InternalConsistencyError(
        f"no representative of {n} mod {p}; the form should be universal")


def _hensel(f: BinaryForm, p: int, n: int, r: int, x: int,
            y: int) -> tuple[int, int]:
    """Lift f(x, y) = n mod p, at a point where a partial derivative is a
    unit mod p, to the one root mod p**r congruent to it mod p, in [0, p**r).
    Newton steps move that coordinate alone, by multiples of p, and double the
    precision of both the point and that partial's inverse, taken once mod p."""
    point = [x, y]

    def partial(i: int) -> int:
        # f(point + h e_i) = f(point) + partial(i) h + f.coeffs[2i] h**2
        return 2 * f.coeffs[2 * i] * point[i] + f.b * point[1 - i]
    i = 0 if partial(0) % p else 1
    if not partial(i) % p:
        raise InternalConsistencyError("both partial derivatives vanished mod p")
    inv, s = mod_inverse(partial(i), p), 1
    while s < r:
        s = min(2 * s, r)
        ps = p ** s
        point[i] = (point[i] - (f.evaluate(point) - n) * inv) % ps
        inv = inv * (2 - partial(i) * inv) % ps
    if (f.evaluate(point) - n) % p ** r:
        raise InternalConsistencyError("lift lost the target residue")
    return tuple(point)


def lift_representation_two(f: BinaryForm, n: int, r: int) -> tuple[int, int]:
    """(x, y) with f(x, y) = n mod 2**r.

    Needs f isotropic and nonsingular mod 2, i.e. b odd and a or c even. The
    coordinate multiplying the odd outer coefficient stays odd throughout:
    y when a is even, x otherwise (the two cases trade places via (x,y)->(y,x)).
    With b and y odd, the partial derivative in x is the unit 1 mod 2, so each
    step moves x alone.
    """
    if r < 1:
        raise ValueError("precision must be at least 1")
    if f.discriminant() % 2 == 0:
        raise ValueError("lifting needs a form nonsingular mod 2")
    if f.a % 2 and f.c % 2:
        raise ValueError("lifting needs a form isotropic mod 2")
    swapped = f.a % 2 == 1
    g = f.swapped() if swapped else f
    x, y = _hensel(g, 2, n, r, (n - g.c) % 2, 1)
    return (y, x) if swapped else (x, y)


class Witness(NamedTuple):
    """A validated approximation of a target rational by a value quotient."""

    num_point: tuple[int, ...]
    den_point: tuple[int, ...]
    target_num: int
    target_den: int
    precision: int
    strategy: str
    achieved_valuation: int | float

    @classmethod
    def build(cls, f, p: int, num_point, den_point, target_num: int,
              target_den: int, r: int, strategy: str) -> "Witness":
        """Construct after revalidating from scratch with exact arithmetic."""
        den_value = f.evaluate(den_point)
        if den_value == 0:
            raise InternalConsistencyError("witness denominator evaluates to zero")
        achieved = quotient_error_valuation(
            f.evaluate(num_point), den_value, target_num, target_den, p)
        if achieved < r:
            raise InternalConsistencyError(
                f"witness reaches valuation {achieved}, needed {r}")
        return cls(tuple(num_point), tuple(den_point), target_num, target_den,
                   r, strategy, achieved)

    def to_json_dict(self) -> dict:
        x, z = self.num_point, self.den_point
        out = {"x": x[0], "y": x[1], "z": z[0], "w": z[1]} if len(x) == 2 \
            else {"x": list(x), "z": list(z)}
        out["target"] = f"{self.target_num}/{self.target_den}"
        out["r"], out["strategy"] = self.precision, self.strategy
        return out


class ExclusionCertificate(NamedTuple):
    """A ball no quotient enters: |q - target| < p**-radius_exponent never holds."""

    target_num: int
    target_den: int
    radius_exponent: int
    justification: str

    def to_json_dict(self) -> dict:
        return {"target": f"{self.target_num}/{self.target_den}",
                "radius_exp": self.radius_exponent,
                "justification": self.justification}


def approximate_quotient(f, p: int, target_num: int, target_den: int,
                         r: int, budget: int = DEFAULT_BUDGET) -> Witness:
    """Witness that some value quotient lies within p**-r of the target.

    Only meaningful on dense verdicts; raises ValueError otherwise. Rank 2
    lifts (stripping the discriminant's p-power first when the form is
    singular mod p); rank >= 3 goes through bounded lattice enumeration.
    """
    if r < 1:
        raise ValueError("precision must be at least 1")
    if target_den == 0:
        raise ValueError("target denominator is zero")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    tn, td = Fraction(target_num, target_den).as_integer_ratio()
    precision = r + 2 * int(valuation(td, p))
    if (bits := precision * (p - 1).bit_length()) > MAX_PRECISION_BITS:
        raise ValueError(f"r = {r} at p = {p} needs precision {precision}: {bits} "
                         f"bits, past the limit of {MAX_PRECISION_BITS} bits")
    verdict = decide(f, p)
    if not verdict.dense:
        raise ValueError(f"quotients are not dense at p={p} ({verdict.theorem_tag}); "
                         "no witness exists")
    if f.rank == 2:
        return _structured_witness(f.to_binary(), p, tn, td, r, precision,
                                   verdict.factorization.k)
    if found := _search_pair(f, p, tn, td, r, _expanding_bounds(budget)):
        return Witness.build(f, p, *found[1], tn, td, r, "enumeration")
    raise BudgetExceededError(
        f"no witness found with coordinates up to {budget}", budget)


def _structured_witness(f: BinaryForm, p: int, tn: int, td: int, r: int,
                        precision: int, k: int) -> Witness:
    """Lift both target components to precision r + 2*val(td); quotient follows.

    With N = tn and D = td mod p**M for M = precision = r + 2*val(td), the error
    N*td - tn*D is divisible by p**M while val(D) = val(td), which pushes the
    quotient within p**-r of tn/td. k is the discriminant's valuation at p.
    """
    reduction = None
    if k:
        reduction = two_singular_reduction(f) if p == 2 \
            else odd_singular_reduction(f, p)
    g = f if reduction is None else reduction.reduced

    def lift(m: int) -> tuple[int, int]:
        point = lift_representation_two(g, m, precision) if p == 2 \
            else lift_representation(g, p, m, precision)
        # pulled-back points scale both values by p**k: the quotient is unchanged
        return point if reduction is None else reduction.pull_back(point)

    return Witness.build(f, p, lift(tn), lift(td), tn, td, r,
                         "lift" if reduction is None else "reduce-lift")


def exclusion_certificate(f, p: int, verify_bound: int = DEFAULT_BUDGET
                          ) -> ExclusionCertificate:
    """Certificate for a not-dense verdict, checked by exhaustive search.

    f is a BinaryForm or a rank-2 GeneralForm. The ball is the least class
    the oracle's excluded_classes forbids, at the first precision where it
    forbids any. No quotient q may satisfy val(q - target) > radius_exponent;
    verification enumerates every value pair with coordinates up to
    verify_bound and confirms none does.
    """
    if verify_bound < 1:
        raise ValueError("verify_bound must be at least 1")
    verdict = decide(f, p)
    if verdict.dense:
        raise ValueError("quotients are dense; no exclusion certificate exists")
    if f.rank != 2:
        raise ValueError("exclusion certificates are built for binary forms; "
                         f"this form is not dense but has rank {f.rank}")
    f = f.to_binary()
    r0, target, _, why = _obstruction(verdict, p)
    if found := _search_pair(f, p, target, 1, r0, [(0, verify_bound)]):
        (n, d), (x, z) = found
        raise InternalConsistencyError(
            f"exclusion certificate refuted: form {format_form(f)}, p={p}, "
            f"target {target}, radius {r0 - 1}, bound {verify_bound}: "
            f"quotient N/D = {n}/{d} enters the ball, N = f{x}, D = f{z}")
    return ExclusionCertificate(target, 1, r0 - 1,
                                f"{verdict.theorem_tag}: {why}")
