"""Brute-force oracle: residue coverage of value quotients mod p**r.

Independent of the deciders: it enumerates lattice points, pairs the values
(numerator valuation at least denominator valuation, so the quotient is a
p-adic integer), strips the denominator's p-power from both, and multiplies by
the inverse of the denominator's unit part to get the quotient's residue.
cross_check compares what a verdict promises against what enumeration finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .decide import (LEAF_ANISOTROPIC, LEAF_ODD_K_ODD, LEAF_ODD_NONRESIDUE,
                     LEAF_TWO_K_ODD, LEAF_TWO_UNIT_NONSQUARE, TAG_RANK_ONE,
                     Verdict, decide)
from .forms import format_form
from .padic import legendre, mod_inverse, valuation

# beyond this, box values may not fit int64 and enumeration uses object arrays
_INT64_SAFE = 2 ** 62
_INT32_SAFE = 2 ** 31
# coverage builds a set of every residue mod p**r; at 2**24 it peaks near 2.5 GB
_MAX_MODULUS = 2 ** 24


def _max_abs_value(f, bound: int) -> int:
    """Upper bound for |Q(x)| over the box, also valid per monomial term."""
    return sum(abs(c) for c in f.coeffs) * bound * bound


class _ResidueTracker:
    """Running record of quotient residues mod p**r.

    Feeding raw values is equivalent to pairing every value with every value:
    for denominators of valuation s only the residues mod p**r of value/p**s
    matter. So class s keeps one set of numerator residues (value/p**s for
    each value of valuation >= s) and one dict from each denominator residue
    (valuation exactly s) to its inverse. The covered set only ever grows,
    which is what makes early stopping sound.
    """

    def __init__(self, p: int, r: int):
        self.p = int(p)
        self.modulus = self.p ** r
        self.classes: list[tuple[set[int], dict[int, int]]] = []
        self.covered: set[int] = set()
        self.saw_zero = False

    def full(self) -> bool:
        return len(self.covered) == self.modulus

    def add_batch(self, values) -> None:
        cur = np.asarray(values)
        nonzero = cur != 0
        self.saw_zero = self.saw_zero or not nonzero.all()
        cur = cur[nonzero]
        s = 0
        # peel: at step s, cur holds value/p**s for each value of valuation >= s
        while cur.size:
            residues = (cur % self.modulus).astype(np.int64)
            nums = np.flatnonzero(np.bincount(residues))
            self._add_class(s, nums.tolist(), nums[nums % self.p != 0].tolist())
            cur = cur[cur % self.p == 0] // self.p
            s += 1
        if self.saw_zero and self.classes:
            self.covered.add(0)

    def _add_class(self, s: int, nums: list[int], dens: list[int]) -> None:
        """Pair what is new to class s: new numerators with the known
        denominators, then every numerator with the new denominators."""
        if s == len(self.classes):
            self.classes.append((set(), {}))
        known_n, known_d = self.classes[s]
        mod, cov = self.modulus, self.covered
        new_n = [n for n in nums if n not in known_n]
        for i in known_d.values():
            cov.update(n * i % mod for n in new_n)
        known_n.update(new_n)
        for d in dens:
            if d not in known_d:
                i = known_d[d] = pow(d, -1, mod)
                cov.update(n * i % mod for n in known_n)

    def pairs_sampled(self) -> int:
        total = sum(len(nums) * len(dens) for nums, dens in self.classes)
        if self.saw_zero and self.classes:
            total += 1
        return total


def _expanding_bounds(bound: int):
    """(lo, hi) for the shells of the boxes 4, 8, 16, ... and finally bound."""
    lo, hi = 0, 4
    while hi < bound:
        yield lo, hi
        lo, hi = hi, 2 * hi
    yield lo, bound


def _shell_batches(f, lo: int, hi: int):
    """(prefix, keep, values) over the half shell: the lattice points with
    lo < max|x_i| <= hi whose first nonzero coordinate is negative, and the
    origin when lo = 0.

    f(-x) = f(x), and itertools.product order reaches x before -x exactly
    when x is in this half, so every value's first point, and the values
    seen after each batch, are those of the whole shell. prefix fixes all
    but the last two coordinates (the only one at rank 1); values runs over
    those in C order, restricted to the boolean mask keep unless keep is
    None (keep may span only the leading rows). Together the batches list
    the half shell in product order. Values past int64 are exact Python
    ints in object arrays.
    """
    peak = _max_abs_value(f, hi)
    dtype = (np.int32 if peak < _INT32_SAFE
             else np.int64 if peak < _INT64_SAFE else object)
    idx = np.arange(-hi, hi + 1)
    side = idx.astype(dtype)
    if f.rank == 1:
        # x < -lo, then the origin when lo = 0: a leading slice of the side
        half = side[:hi - lo + (lo == 0)]
        yield (), None, f.coeffs[0] * half * half
        return
    n = f.rank - 2
    aa, bb, cc = f.coeffs[-3:]
    # rank 2 only ever needs the rows u <= 0
    rows = 2 * hi + 1 if n else hi + 1
    u, v = side[:rows, None], side[None, :]
    quad = aa * u * u + bb * u * v + cc * v * v
    outside = np.abs(idx) > lo
    inner_new = outside[:rows, None] | outside[None, :]
    for prefix in product(range(-hi, hi + 1), repeat=n):
        if not any(prefix):
            # the zero prefix comes last: rows u < 0, then row u = 0 up to
            # v = 0 when lo = 0, else up to v = -lo - 1
            half = quad[:hi + 1]
            if not lo:
                yield prefix, None, half.ravel()[:hi * (2 * hi + 2) + 1]
            else:
                keep = inner_new[:hi + 1].copy()
                keep[hi, hi:] = False
                yield prefix, keep, half[keep]
            return
        lin_u = sum(f.coeff(i, n) * prefix[i] for i in range(n))
        lin_v = sum(f.coeff(i, n + 1) * prefix[i] for i in range(n))
        const = sum(f.coeff(i, j) * prefix[i] * prefix[j]
                    for i in range(n) for j in range(i, n))
        vals = quad + lin_u * u + lin_v * v + const
        if lo and max(map(abs, prefix)) <= lo:
            yield prefix, inner_new, vals[inner_new]
        else:
            yield prefix, None, vals.ravel()


def _point_at(f, hi: int, prefix: tuple, keep, i: int) -> tuple[int, ...]:
    """The lattice point behind entry i of a _shell_batches value array."""
    if keep is not None:
        i = np.flatnonzero(keep)[i]
    shape = (2 * hi + 1,) * min(f.rank, 2)
    return prefix + tuple(int(t) - hi for t in np.unravel_index(i, shape))


def _distinct(values) -> np.ndarray:
    """The sorted distinct entries of values, flattened, like np.unique.

    A sort and a neighbour mask: numpy's np.unique takes a hash path on
    integer arrays that is many times slower than this.
    """
    flat = np.sort(values, axis=None)
    if not flat.size:
        return flat
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]


def _value_pair(values, p: int, tn: int, td: int, r: int):
    """First value pair (N, D) whose quotient is within p**-r of tn/td, or None.

    Denominators go by (|D|, D), and each takes the least numerator N with
    N*td = tn*D mod p**(r + v(D) + v(td)). Dividing out p**v(td) leaves one
    congruence mod p**(r + s) per valuation class s of denominators. Its
    numerators all have valuation t = v(tn) + s - v(td) when t < r + s, else
    they are 0 and the values of valuation >= r + s, so each class sorts
    only that bucket of the sorted distinct values.
    """
    nums = _distinct(values)
    if nums.dtype != object and p > np.iinfo(nums.dtype).max:
        # NumPy 2 refuses a Python int outside the array's dtype
        nums = nums.astype(np.int64 if p < _INT64_SAFE else object)
    # valuations by a shrinking peel; 0 joins every bucket of valuation >= r + s
    zero = nums == 0
    vals = np.where(zero, _INT64_SAFE, 0)
    idx = np.flatnonzero(~zero)
    cur = nums[idx]
    while cur.size:
        q = cur // p
        hit = q * p == cur
        idx, cur = idx[hit], q[hit]
        vals[idx] += 1
    g = int(valuation(td, p))
    shift = valuation(tn, p) - g
    found = []
    for s in np.flatnonzero(np.bincount(vals[~zero])).tolist():
        if tn and s < g:
            continue
        m = p ** (r + s)
        bucket = nums[vals == s + shift] if shift < r else nums[vals >= r + s]
        if not bucket.size:
            continue
        # products of two residues stay below m**2, inside int64 for m < 2**31
        dtype = object if nums.dtype == object or m >= _INT32_SAFE else np.int64
        cls = nums[vals == s].astype(dtype)
        inv = mod_inverse(td // p ** g, m)
        want = (tn % m) * (cls // p ** g % m) % m * inv % m
        residues, first = np.unique(bucket.astype(dtype) % m, return_index=True)
        pos = np.minimum(np.searchsorted(residues, want), residues.size - 1)
        hits = np.flatnonzero(residues[pos] == want)
        if hits.size:
            # 2|D| + (D > 0) orders denominators by (|D|, D)
            j = hits[np.argmin(2 * np.abs(cls[hits]) + (cls[hits] > 0))]
            d = int(cls[j])
            found.append((abs(d), d, int(bucket[first[pos[j]]])))
    if not found:
        return None
    _, d, n = min(found)
    return n, d


@dataclass(frozen=True, slots=True)
class CoverageReport:
    p: int
    r: int
    bound: int
    covered: frozenset[int]
    missing: tuple[int, ...]
    quotients_sampled: int

    def to_json_dict(self) -> dict:
        return {"p": self.p, "r": self.r, "bound": self.bound,
                "covered_count": len(self.covered),
                "missing": list(self.missing),
                "quotients_sampled": self.quotients_sampled}


def coverage_modulus(p: int, r: int) -> int:
    """p**r, or ValueError when coverage would list more than 2**24 residues."""
    # p >= 2, so a large r is over the limit without computing p**r
    small = r < _MAX_MODULUS.bit_length()
    if small and p ** r <= _MAX_MODULUS:
        return p ** r
    shown = p ** r if small else f"{p}**{r}"
    raise ValueError(f"coverage lists every residue mod p**r, and p={p}, "
                     f"r={r} gives p**r = {shown}, past 2**24")


def coverage(f, p: int, r: int, bound: int) -> CoverageReport:
    """Residues mod p**r reached by integer-valued quotients, coords <= bound.

    Works through expanding boxes and stops as soon as every residue class is
    covered; coverage is monotone in the box, so the early stop changes
    nothing. A miss is only reported after the full box has been enumerated.
    """
    if r < 1:
        raise ValueError("precision must be at least 1")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    coverage_modulus(p, r)
    tracker = _ResidueTracker(p, r)
    batches = (batch for lo, hi in _expanding_bounds(bound)
               for _, _, batch in _shell_batches(f, lo, hi))
    for batch in batches:
        tracker.add_batch(batch)
        if tracker.full():
            break
    covered = frozenset(tracker.covered)
    missing = tuple(sorted(set(range(tracker.modulus)) - covered))
    return CoverageReport(int(p), r, bound, covered, missing,
                          tracker.pairs_sampled())


def _obstruction(verdict: Verdict, p: int):
    """(r0, test, why) for a not-dense binary leaf, else None.

    No quotient is congruent mod p**r, for any r >= r0, to a residue z with
    test(z); why is the reason, as certificates state it.
    """
    tag, fac = verdict.theorem_tag, verdict.factorization
    parity = 2, lambda z: z % p == 0 and valuation(z, p) % 2 == 1
    if tag == LEAF_ANISOTROPIC:
        return *parity, ("every value has even valuation, so no quotient "
                         "has valuation 1")
    if tag == LEAF_ODD_NONRESIDUE:
        return *parity, ("stripping p**k leaves a form anisotropic mod p, "
                         "so quotient valuations stay even")
    if tag == LEAF_ODD_K_ODD:
        return fac.k + 1, lambda z: legendre(z, p) == -1, \
            f"odd k forbids quotients within p**-{fac.k} of any nonresidue unit"
    if tag == LEAF_TWO_K_ODD:
        return fac.k + 3, lambda z: z % 2 ** (fac.k + 3) == 5, \
            f"odd k forbids quotients within 2**-{fac.k + 2} of 5"
    if tag != LEAF_TWO_UNIT_NONSQUARE:
        return None
    if fac.ell % 8 == 5:
        return *parity, "ell = 5 mod 8 keeps every quotient valuation even"
    return 4, lambda z: z % 16 == 3, \
        "ell = 3 or 7 mod 8 keeps quotients away from 3 mod 16"


def excluded_classes(verdict: Verdict, p: int, r: int) -> frozenset[int]:
    """Residues mod p**r that the not-dense verdict forbids quotients to hit.

    Empty when r is too small for the obstruction to be visible; the oracle
    then has nothing to falsify at this precision.
    """
    m = p ** r
    if verdict.theorem_tag == TAG_RANK_ONE:
        return frozenset(set(range(m)) - {x * x % m for x in range(m)})
    obstruction = _obstruction(verdict, p)
    if obstruction is None or r < obstruction[0]:
        return frozenset()
    return frozenset(z for z in range(1, m) if obstruction[1](z))


# a dense form must cover every class mod p**r once r <= COVERAGE_MAX_R and
# bound >= COVERAGE_BOUND_FACTOR * p**r
COVERAGE_MAX_R = 3
COVERAGE_BOUND_FACTOR = 10


@dataclass(frozen=True, slots=True)
class CrossCheckReport:
    form_text: str
    p: int
    r: int
    bound: int
    dense: bool
    theorem_tag: str
    expectation: str
    passed: bool
    discrepancies: tuple[int, ...]
    coverage: CoverageReport

    def to_json_dict(self) -> dict:
        return {"form": self.form_text, "p": self.p, "r": self.r,
                "bound": self.bound, "dense": self.dense,
                "theorem_tag": self.theorem_tag,
                "expectation": self.expectation, "passed": self.passed,
                "discrepancies": list(self.discrepancies),
                "coverage": self.coverage.to_json_dict()}


def cross_check(f, p: int, r: int, bound: int) -> CrossCheckReport:
    """Confront the decider with enumeration.

    Dense: every residue class mod p**r must be covered once r and bound
    meet the coverage schedule above. Not dense: the classes the verdict's
    obstruction excludes must stay missing at every bound.
    """
    verdict = decide(f, p)
    report = coverage(f, p, r, bound)
    if verdict.dense:
        if r <= COVERAGE_MAX_R and bound >= COVERAGE_BOUND_FACTOR * p ** r:
            expectation = "full-coverage"
            bad = report.missing
        else:
            expectation = "bound-below-schedule"
            bad = ()
    else:
        expectation = "excluded-classes-missing"
        bad = tuple(sorted(excluded_classes(verdict, p, r) & report.covered))
    return CrossCheckReport(format_form(f), int(p), r, bound, verdict.dense,
                            verdict.theorem_tag, expectation, not bad, bad,
                            report)
