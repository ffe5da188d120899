"""Brute-force oracle: residue coverage of value quotients mod p**r.

Independent of the deciders: it enumerates lattice points, pairs the values
(numerator valuation at least denominator valuation, so the quotient is a
p-adic integer), strips the denominator's p-power from both, and multiplies by
the inverse of the denominator's unit part to get the quotient's residue.
cross_check compares what a verdict promises against what enumeration finds.
_search_pair, the value-pair search of witnesses and certificates, lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count, groupby, islice, product
from math import gcd

from .decide import (LEAF_ANISOTROPIC, LEAF_ODD_K_ODD, LEAF_ODD_NONRESIDUE,
                     LEAF_TWO_K_ODD, LEAF_TWO_UNIT_NONSQUARE, TAG_RANK_ONE,
                     Verdict, decide)
from .errors import InternalConsistencyError
from .forms import format_form
from .padic import legendre, valuation

# beyond this, box values may not fit int64 and enumeration uses object arrays
_INT64_SAFE = 2 ** 62
_INT32_SAFE = 2 ** 31
# coverage keeps masks of p**r bools (7**4 at bound 24010: a 35 MB peak RSS),
# but its report lists Python ints, which dominate a 2.3 GB peak at 2**24
_MAX_MODULUS = 2 ** 24
# entries per block, pairing product and fold: add_batch's ~13 passes stay in L2
_CHUNK_ENTRIES = 2 ** 17


class _LazyNumpy:
    """Imports numpy on first use and rebinds np: decide never needs numpy."""

    def __getattr__(self, name):
        global np
        import numpy as np
        return getattr(np, name)


np = _LazyNumpy()


class _ResidueTracker:
    """Running record of quotient residues mod p**r.

    Feeding raw values is equivalent to pairing every value with every value:
    for denominators of valuation s only the residues mod p**r of value/p**s
    matter. Class s is [a mask of its numerators, value/p**s mod p**r for the
    values of valuation >= s; the inverses of the unit ones]. covered, a mask
    too, only ever grows, which is what makes early stopping sound; once it
    is full the pairing stops.
    """

    def __init__(self, p: int, r: int):
        self.p, self.modulus = int(p), int(p) ** r
        self.covered = np.zeros(self.modulus, dtype=bool)
        self.classes, self.saw_zero, self.full = [], False, False

    def add_batch(self, values) -> None:
        cur, m, s = np.asarray(values), self.modulus, 0
        if np.count_nonzero(cur) < cur.size:
            self.saw_zero, cur = True, cur[cur != 0]
        # peel: at step s, cur holds value/p**s for each value of valuation >= s
        while cur.size:
            if s == len(self.classes):
                self.classes.append([np.zeros(m, bool), np.zeros(0, np.int64)])
            seen, invs = cls = self.classes[s]
            res = cur // m
            res *= m
            hit = np.zeros(m, dtype=bool)
            hit[np.subtract(cur, res, out=res).astype(np.int64, copy=False)] = True
            new = (hit > seen).nonzero()[0]
            seen[new] = True
            if new.size and not self.full:
                fresh = np.array([pow(d, -1, m) for d in new.tolist() if d % self.p],
                                 dtype=np.int64)
                # new numerators with the known inverses, then every numerator
                # with the new ones, at most _CHUNK_ENTRIES products at a time
                for nums, inv in ((new, invs), (seen.nonzero()[0], fresh)):
                    step = max(_CHUNK_ENTRIES // max(inv.size, 1), 1)
                    for a in range(0, nums.size if inv.size else 0, step):
                        prod = np.multiply.outer(nums[a:a + step], inv)
                        self.covered[prod - prod // m * m] = True
                cls[1] = np.concatenate((invs, fresh))
                self.full = np.count_nonzero(self.covered) == m
            q = cur // self.p
            cur = q[q * self.p == cur]
            s += 1
        if self.saw_zero and self.classes and not self.covered[0]:
            self.covered[0] = True
            self.full = np.count_nonzero(self.covered) == m

    def pairs_sampled(self) -> int:
        # every numerator of a class pairs with every unit one
        counts = [(int(np.count_nonzero(seen)), int(np.count_nonzero(seen[::self.p])))
                  for seen, _ in self.classes]
        return int(self.saw_zero and bool(self.classes)) + sum(
            n * (n - k) for n, k in counts)


def _expanding_bounds(bound: int):
    """(lo, hi) for the shells of the boxes 4, 8, 16, ... and finally bound."""
    lo, hi = 0, 4
    while hi < bound:
        yield lo, hi
        lo, hi = hi, 2 * hi
    yield lo, bound


def _shell_batches(f, lo: int, hi: int):
    """(where, values) blocks of at most _CHUNK_ENTRIES entries over the half
    shell: the points with lo < max|x_i| <= hi whose first nonzero coordinate
    is negative, and the origin when lo = 0. f(-x) = f(x), and product order
    reaches x before -x exactly when x is in this half, so every value's first
    point, and the values seen after each prefix (all but the last two
    coordinates), are the whole shell's. where is (prefixes, runs), run
    (u0, cols, n) being n entries over rows u0, u0 + 1, ... of columns cols
    in C order; rows inside the inner box take only its two outer strips. A
    block is as many consecutive prefixes of one layout (the zero one alone)
    as fit, each over all the runs, or else one prefix's rows or row slices.
    Values past int64 are ints in object arrays.
    """
    # bounds |Q(x)| over the box, and each monomial term's share of it too
    peak = sum(abs(c) for c in f.coeffs) * hi * hi
    dtype = (np.int32 if peak < _INT32_SAFE
             else np.int64 if peak < _INT64_SAFE else object)
    side = np.arange(-hi, hi + 1).astype(dtype)
    strips = np.concatenate((side[:hi - lo], side[hi + lo + 1:]))
    w, t, n = 2 * hi + 1, hi - lo, max(f.rank - 2, 0)
    # rank 1 is the one row u = 0 of a form in (u, v)
    aa, bb, cc = f.coeffs[-3:] if f.rank > 1 else (0, 0, f.coeffs[0])
    # per prefix coordinate: its cross terms, then its terms with u and v
    coef = np.array([[f.coeff(i, j) * (i <= j) for j in range(n + 2)]
                     for i in range(n)], dtype)
    # the prefixes up to the zero one, by layout: 2 zero, 1 outer, 0 inner
    half = islice(product(range(-hi, hi + 1), repeat=n), w ** n // 2 + 1)
    for layout, group in groupby(half, lambda x: 2 if not any(x) else
                                 not lo or max(map(abs, x)) > lo):
        zero, group = layout == 2, list(group)
        if f.rank == 1:
            runs = [(0, side[:t + (lo == 0)], t + (lo == 0))]
        elif not lo or layout == 1:
            runs = [(-hi, side, hi * w + hi + 1 if zero else w * w)]
        else:
            # the zero prefix stops on row 0 before column -lo
            runs = [(-hi, side, t * w), (-lo, strips, 2 * t * lo + t if zero
                                         else 2 * t * (2 * lo + 1))]
            runs += [] if zero else [(lo + 1, side, t * w)]
        step = max(_CHUNK_ENTRIES // sum(size for *_, size in runs), 1)
        for a in range(0, len(group), step):
            prefixes = tuple(group[a:a + step])
            if not zero:
                pre = np.array(prefixes, dtype)
                lin_u, lin_v = (pre @ coef[:, n:]).T[:, :, None, None]
                const = ((pre @ coef[:, :n]) * pre).sum(1, dtype)[:, None, None]
            for block in _blocks(runs):
                parts = []
                for u0, cols, size in block:
                    rows = side[u0 + hi:u0 + hi - (-size // len(cols)), None]
                    quad = rows * (bb * cols)
                    quad += rows * (aa * rows)
                    quad += cols * (cc * cols)
                    vals = quad
                    if not zero:
                        vals = rows * lin_u + (cols * lin_v + const)
                        vals += quad
                    parts.append(vals.reshape(len(prefixes), -1)[:, :size])
                vals = np.concatenate(parts, axis=1) if parts[1:] else parts[0]
                yield (prefixes, block), vals.ravel()


def _blocks(runs):
    """The runs as one block if they fit, else whole rows or slices of one row."""
    if sum(n for _, _, n in runs) <= _CHUNK_ENTRIES:
        yield runs
        return
    for u0, cols, n in runs:
        step = max(_CHUNK_ENTRIES // len(cols), 1) * len(cols)
        for a in range(0, n, step):
            for b in range(0, min(step, n - a), _CHUNK_ENTRIES):
                size = min(step, n - a, _CHUNK_ENTRIES + b) - b
                yield [(u0 + a // len(cols), cols[b:b + _CHUNK_ENTRIES], size)]


def _point_at(f, where, i: int) -> tuple[int, ...]:
    """The lattice point behind entry i of a block, which lists each prefix's
    runs in turn; rank 1 has no row u."""
    prefixes, runs = where
    j, i = divmod(i, sum(n for _, _, n in runs))
    for u0, cols, n in runs:
        if i < n:
            return prefixes[j] + (u0 + i // len(cols),)[:f.rank - 1] + \
                (int(cols[i % len(cols)]),)
        i -= n


def _distinct(values) -> np.ndarray:
    """The sorted distinct entries of values, flattened, like np.unique.

    A sort and a neighbour mask: numpy's np.unique takes a hash path on
    integer arrays that is many times slower than this. Object arrays sort
    as a list: sorted() compares ints on a fast path that np.sort lacks.
    """
    flat = (np.array(sorted(values.ravel().tolist()), dtype=object)
            if values.dtype == object else np.sort(values, axis=None))
    if not flat.size:
        return flat
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]


def _search_pair(f, p: int, tn: int, td: int, r: int, shells):
    """((N, D), (num_point, den_point)): _value_pair's pair, asked after each
    (lo, hi) half shell on the sorted distinct values so far, with each
    value's first point in product order from a second walk of those shells;
    or None. Every shell's blocks join one pending list, folded through
    _distinct whenever _CHUNK_ENTRIES new entries wait and at a shell's end."""
    walked, pending, size = [], [], 0
    for lo, hi in shells:
        for _, batch in _shell_batches(f, lo, hi):
            pending.append(batch)
            if (size := size + batch.size) >= _CHUNK_ENTRIES:
                pending, size = [_distinct(np.concatenate(pending))], 0
        if size:  # else the last fold left pending one sorted set
            pending, size = [_distinct(np.concatenate(pending) if pending[1:]
                                       else pending[0])], 0
        walked.append((lo, hi))
        if (pair := _value_pair(pending[0], p, tn, td, r)) is not None:
            break
    else:
        return None
    first, want = {}, set(pair)
    for lo, hi in walked:
        for where, vals in _shell_batches(f, lo, hi):
            for value in want - first.keys():
                if (hits := np.flatnonzero(vals == value)).size:
                    first[value] = _point_at(f, where, int(hits[0]))
            if len(first) == len(want):
                return pair, tuple(first[value] for value in pair)
    raise InternalConsistencyError(
        f"values {pair} not found in the box: form {format_form(f)}, p={p}, "
        f"shells {walked}")


@lru_cache(maxsize=32)
def _valuation_table(p: int):
    """(L, t): t[i] = min(v(i), L) for i < p**L <= 2**16, the most levels L."""
    level = next(k for k in count(2) if p ** (k + 1) > 2 ** 16)
    i = np.arange(p ** level)
    return level, sum((i % p ** k == 0).astype(np.int8) for k in range(1, level + 1))


def _value_pair(nums, p: int, tn: int, td: int, r: int):
    """First value pair (N, D) whose quotient is within p**-r of tn/td, or None.

    nums are sorted and distinct. Denominators go by (|D|, D), and each
    takes the least numerator N with N*td = tn*D mod p**(r + v(D) + v(td)).
    If shift = v(tn) - v(td) >= r, N is 0 or of valuation >= r + v(D). Else
    v(N) = v(D) + shift and, x' being the unit part of x, N'*td' = tn'*D'
    mod p**(r - shift): one modulus, so one table keyed by (class, residue).
    """
    if nums.dtype != object and p >= _INT32_SAFE:
        # NumPy 2 refuses a p past the dtype
        nums = nums.astype(np.int64 if p < _INT64_SAFE else object)
    level, t = _valuation_table(p) if p * p <= 2 ** 16 else (1, None)

    def low(x):  # x // p**L and min(v(x), L), read off x mod p**L
        q = x // p ** level
        x = x - q * p ** level
        return q, x == 0 if t is None else t[x.astype(np.intp, copy=False)]
    # L levels a pass: values of valuation >= L go round till only 0, at idx, is left
    q, v = low(nums)
    vals, idx = v.astype(np.int64), np.flatnonzero(v == level)
    cur = q[idx]
    while cur.any():
        q, v = low(cur)
        vals[idx] += v
        idx, cur = idx[v == level], q[v == level]
    g = int(valuation(td, p))
    shift = valuation(tn, p) - g
    # 0 is N for every D when shift >= r, else in no class: have[-1] is False
    vals[idx] = _INT64_SAFE if shift >= r else -1
    if shift >= r:
        dens = np.flatnonzero(vals <= vals.max(initial=0) - r)
    else:
        num, most = np.flatnonzero(vals >= g + shift), int(vals.max(initial=0))
        have = np.zeros(most + g + 2, bool)
        have[vals[num] - shift] = True  # the classes that hold a numerator
        if not (dens := np.flatnonzero(have[vals])).size:
            return None
        m, a, b = p ** (r - shift), td // p ** g, tn // p ** (g + shift)
        units = nums // np.array([p ** k for k in range(most + 1)],
                                 nums.dtype)[vals] if most else nums
        reach = int(max(units.max(), -units.min()))
        if (bound := reach * (abs(a) + abs(b))) < m:
            # |N'*a - D'*b| <= bound < m: an equation, which larger moduli test
            m = next(k for k in count(bound + 1) if gcd(k, a) == 1)
        # keys of N' + reach and D'*b/a + reach mod m; none past 2*reach match
        top = min(2 * reach + 1, m - 1)
        dtype = np.int64 if reach * (m + 1) < _INT64_SAFE else object
        keys = []
        for sel, c, f in ((num, shift, 1), (dens, 0, b * pow(a, -1, m) % m)):
            x = units[sel].astype(dtype) * f + reach
            x = np.minimum(x - x // m * m, top)
            keys.append((vals[sel] - c).astype(dtype) * (top + 1) + x)
        nkey, dkey = keys
        if (span := (most + 1 - shift) * (top + 1)) <= max(2 ** 16, 4 * nums.size):
            table = np.zeros(span, bool)
            table[nkey.astype(np.intp, copy=False)] = True
            hit = table[dkey.astype(np.intp, copy=False)]
        else:
            ordered = _distinct(nkey)
            pos = np.searchsorted(ordered, dkey)
            hit = ordered[np.minimum(pos, ordered.size - 1)] == dkey
        dens, dkey = dens[hit], dkey[hit]
    if not dens.size:
        return None
    # sorted nums: argmin takes the negative D of a tie, and the least N comes first
    cand = nums[dens]
    j = int(np.argmin(np.abs(cand)))
    first = (np.flatnonzero(vals >= r + vals[dens[j]])[0] if shift >= r
             else num[np.argmax(nkey == dkey[j])])
    return int(nums[first]), int(cand[j])


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
    last = None
    for lo, hi in _expanding_bounds(bound):
        rows = ((prefix, row) for (prefixes, _), batch in _shell_batches(f, lo, hi)
                for prefix, row in zip(prefixes, batch.reshape(len(prefixes), -1)))
        for prefix, row in rows:
            # stop only between prefixes: at rank <= 2, between shells
            if prefix != last and tracker.full:
                break
            last = prefix
            tracker.add_batch(row)
        if tracker.full:
            break
    covered = tracker.covered.nonzero()[0].tolist()
    missing = (~tracker.covered).nonzero()[0].tolist()
    return CoverageReport(int(p), r, bound, frozenset(covered), tuple(missing),
                          tracker.pairs_sampled())


def _obstruction(verdict: Verdict, p: int):
    """(r0, least, test, why) for a not-dense binary leaf, else None.

    No quotient is congruent mod p**r, for any r >= r0, to a residue z with
    test(z); least is the least z >= 1 with test(z), the centre of a
    certificate's ball, and why is the reason, as certificates state it.
    """
    tag, fac = verdict.theorem_tag, verdict.factorization
    parity = 2, p, lambda z: z % p == 0 and valuation(z, p) % 2 == 1
    if tag == LEAF_ANISOTROPIC:
        return *parity, ("every value has even valuation, so no quotient "
                         "has valuation 1")
    if tag == LEAF_ODD_NONRESIDUE:
        return *parity, ("stripping p**k leaves a form anisotropic mod p, "
                         "so quotient valuations stay even")
    if tag == LEAF_ODD_K_ODD:
        # 1 is a residue, so the least nonresidue is at least 2
        least = next(z for z in range(2, p) if legendre(z, p) == -1)
        return fac.k + 1, least, lambda z: legendre(z, p) == -1, \
            f"odd k forbids quotients within p**-{fac.k} of any nonresidue unit"
    if tag == LEAF_TWO_K_ODD:
        return fac.k + 3, 5, lambda z: z % 2 ** (fac.k + 3) == 5, \
            f"odd k forbids quotients within 2**-{fac.k + 2} of 5"
    if tag != LEAF_TWO_UNIT_NONSQUARE:
        return None
    if fac.ell % 8 == 5:
        return *parity, "ell = 5 mod 8 keeps every quotient valuation even"
    return 4, 3, lambda z: z % 16 == 3, \
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
    return frozenset(z for z in range(1, m) if obstruction[2](z))


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
