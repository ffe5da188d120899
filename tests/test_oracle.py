import random
import tracemalloc
from itertools import groupby, product
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qform.oracle as oracle_mod
from qform import (BinaryForm, GeneralForm, Prime, coverage, cross_check,
                   decide, excluded_classes, valuation)
from qform.oracle import (_ResidueTracker, _distinct, _expanding_bounds,
                          _point_at, _search_pair, _shell_batches,
                          _value_pair)

rng = random.Random(0x0c1e)


def quotient_residues_bruteforce(f, p, r, bound):
    """Reference computation: literally form all pairs and reduce."""
    values = set()
    span = range(-bound, bound + 1)
    for pt in product(span, repeat=f.rank):
        values.add(f.evaluate(pt))
    return pairing_reference(values, p, r)


def pairing_reference(values, p, r):
    """Residues mod p**r of every quotient N/D of the values with
    v(N) >= v(D), D nonzero."""
    seen = set()
    m = p**r
    for dv in values:
        if dv == 0:
            continue
        s = valuation(dv, p)
        du = dv // p**s
        inv = pow(du % m, -1, m)
        for nv in values:
            if nv == 0:
                seen.add(0)
            elif valuation(nv, p) >= s:
                seen.add(nv // p**s * inv % m)
    return seen


def test_coverage_matches_bruteforce():
    # the last entry is quotients_sampled
    cases = [
        ((1, 0, 1), 5, 1, 7, 34),
        ((1, 0, 1), 3, 2, 8, 68),
        ((1, 0, 1), 2, 3, 6, 42),
        ((1, 1, -3), 3, 2, 9, 108),
        ((2, 1, 3), 2, 2, 6, 48),
        ((1, 0, -9), 3, 2, 10, 48),
        ((-1, 0, 2), 5, 1, 8, 17),
        ((3, 2, 5), 7, 1, 9, 34),
        # box values past 2**62: enumeration runs on exact object arrays
        ((2**61 + 1, 3, 5), 3, 2, 6, 47),
        ((7, 2**62 - 1, -(2**40)), 2, 3, 5, 145),
        # a modulus larger than every box value
        ((1, 0, 1), 1009, 2, 5, 362),
    ]
    for coeffs, p, r, bound, sampled in cases:
        f = BinaryForm(*coeffs)
        rep = coverage(f, Prime(p), r, bound)
        want = quotient_residues_bruteforce(f, p, r, bound)
        assert rep.covered == want, (coeffs, p, r)
        assert rep.missing == tuple(sorted(set(range(p**r)) - want))
        assert rep.quotients_sampled == sampled, (coeffs, p, r)


def test_coverage_matches_bruteforce_rank3():
    for coeffs in ((1, 0, 0, 1, 0, 1), (2**62 + 3, 1, 0, 5, 0, 7)):
        g = GeneralForm(3, coeffs)
        rep = coverage(g, Prime(2), 3, 3)
        assert rep.covered == quotient_residues_bruteforce(g, 2, 3, 3)


SHELL_FORMS = (GeneralForm(1, (-1,)), BinaryForm(2, 1, -3),
               GeneralForm(3, (1, 2, 0, -1, 1, 3)),
               GeneralForm(4, (1, 0, 2, -1, 3, 0, 1, -2, 0, 1)),
               BinaryForm(2**62, 1, 1))


def half_shell_points(f, lo, hi):
    """Points of the shell in product order: first nonzero coordinate
    negative, or the origin."""
    return [pt for pt in product(range(-hi, hi + 1), repeat=f.rank)
            if (lo == 0 or max(map(abs, pt)) > lo)
            and next((t < 0 for t in pt if t), True)]


def shell_points(f, lo, hi):
    """(points, values) as _shell_batches lists them."""
    points, values = [], []
    for where, vals in _shell_batches(f, lo, hi):
        points += [_point_at(f, where, i) for i in range(len(vals))]
        values += vals.tolist()
    return points, values


def test_shell_batches_follow_product_order(monkeypatch):
    # also in blocks of one entry, or of 37, which cut rows and prefixes
    for ceiling in (None, 1, 37):
        if ceiling:
            monkeypatch.setattr(oracle_mod, "_CHUNK_ENTRIES", ceiling)
        for f in SHELL_FORMS:
            for lo, hi in ((0, 2), (2, 3), (1, 4)):
                want = half_shell_points(f, lo, hi)
                points, values = shell_points(f, lo, hi)
                assert points == want, (f, lo, hi, ceiling)
                assert values == [f.evaluate(pt) for pt in want], (f, lo, hi)
                blocks = [(where[0], len(vals))
                          for where, vals in _shell_batches(f, lo, hi)]
                assert max(size for _, size in blocks) <= oracle_mod._CHUNK_ENTRIES
                # a prefix's blocks are consecutive
                prefixes = [prefix for prefix, _ in blocks]
                assert len(set(prefixes)) == len(list(groupby(prefixes)))


def test_half_shell_and_its_negation_are_the_shell():
    for f in SHELL_FORMS:
        for lo, hi in ((0, 2), (2, 3)):
            half, _ = shell_points(f, lo, hi)
            whole = {pt for pt in product(range(-hi, hi + 1), repeat=f.rank)
                     if lo == 0 or max(map(abs, pt)) > lo}
            negated = {tuple(-t for t in pt) for pt in half}
            assert set(half) | negated == whole, (f, lo, hi)
            assert len(half) == (len(whole) + (lo == 0)) // 2, (f, lo, hi)


def test_prefixes_of_one_layout_share_a_block():
    # consecutive prefixes of one layout are one block, as far as the
    # ceiling allows: the rank-4 shells took 41 and 145 blocks, one a prefix
    f = SHELL_FORMS[3]
    for (lo, hi), most in (((2, 4), 7), ((4, 8), 11)):
        sizes = [len(vals) for _, vals in _shell_batches(f, lo, hi)]
        assert len(sizes) <= most, (lo, hi, len(sizes))
        assert max(sizes) <= oracle_mod._CHUNK_ENTRIES


@st.composite
def layout_cases(draw):
    rank = draw(st.integers(3, 5))
    # coefficients near 2**62 put the values past int64, in object arrays
    big = draw(st.booleans())
    coeff = st.integers(-9, 9)
    if big:
        coeff = st.one_of(coeff, st.integers(2 ** 62, 2 ** 62 + 9))
    coeffs = draw(st.lists(coeff, min_size=rank * (rank + 1) // 2,
                           max_size=rank * (rank + 1) // 2))
    try:
        f = GeneralForm(rank, tuple(coeffs))
    except ValueError:
        f = GeneralForm(rank, tuple(int(i == j) for i in range(rank)
                                    for j in range(i, rank)))
    # rank 5 stays at hi <= 2, which keeps one entry a block quick
    shells = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    lo, hi = draw(st.sampled_from(shells[:3] if rank == 5 else shells))
    return f, lo, hi, draw(st.sampled_from((2, 3))), draw(st.integers(1, 2))


@settings(max_examples=20, deadline=None)
@given(layout_cases())
@example((GeneralForm(5, (1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1)),
          1, 2, 2, 2))
@example((GeneralForm(3, (2 ** 62 + 3, 1, 0, 5, 0, 7)), 2, 3, 3, 1))
def test_layout_blocks_follow_product_order(case):
    # blocks of many prefixes, of one, and slices of rows give the brute
    # force's points and values, and the same coverage
    f, lo, hi, p, r = case
    want = half_shell_points(f, lo, hi)
    values = [f.evaluate(pt) for pt in want]
    reports = set()
    with pytest.MonkeyPatch.context() as patch:
        for ceiling in (None, 1, 37):
            if ceiling:
                patch.setattr(oracle_mod, "_CHUNK_ENTRIES", ceiling)
            batches = list(_shell_batches(f, lo, hi))
            assert [_point_at(f, where, i) for where, vals in batches
                    for i in range(len(vals))] == want, (f, lo, hi, ceiling)
            assert [v for _, vals in batches for v in vals.tolist()] == values
            if max(f.coeffs) > 2 ** 61:
                assert {vals.dtype for _, vals in batches} == {np.dtype(object)}
            reports.add(coverage(f, Prime(p), r, hi))
            if f.rank == 5 and lo and ceiling is None:
                # inner and outer layouts alternate inside one leading
                # coordinate; the inner frame is three runs, the outer one
                layouts = {}
                for (prefixes, runs), _ in batches:
                    for prefix in prefixes:
                        layouts.setdefault(prefix[0], set()).add(len(runs))
                assert {1, 3} in layouts.values(), layouts
    assert len(reports) == 1, reports


def test_binary_box_is_one_batch():
    # a binary half box under the ceiling is one block: coverage then
    # handles every small shell with one add_batch
    for f in (BinaryForm(1, 0, 1), BinaryForm(2**62, 1, 1)):
        for hi in (1, 5):
            assert len(list(_shell_batches(f, 0, hi))) == 1


# (form, p, r, bound): dense ones stop early, not-dense ones run the box;
# ranks 2 to 4, and box values past 2**62 in object arrays
CHUNK_CASES = [
    (BinaryForm(1, 0, 1), 5, 1, 50), (BinaryForm(1, 0, -1), 2, 3, 20),
    (BinaryForm(1, 0, 1), 3, 2, 12), (BinaryForm(1, 1, 1), 2, 2, 9),
    (GeneralForm(3, (1, 0, 0, 1, 0, 1)), 2, 3, 5),
    (GeneralForm(3, (1, 0, 0, 2, 0, 3)), 3, 2, 4),
    (GeneralForm(4, (1, 0, 2, -1, 3, 0, 1, -2, 0, 1)), 3, 1, 3),
    (BinaryForm(2**62, 1, 1), 3, 2, 10),
    (GeneralForm(3, (2**62 + 3, 1, 0, 5, 0, 7)), 2, 3, 3),
]


def test_chunking_changes_no_report(monkeypatch):
    def reports():
        return [coverage(f, Prime(p), r, bound) for f, p, r, bound in CHUNK_CASES]

    want = reports()
    assert {len(rep.missing) == 0 for rep in want} == {True, False}
    for ceiling in (1, 37):
        monkeypatch.setattr(oracle_mod, "_CHUNK_ENTRIES", ceiling)
        assert reports() == want, ceiling


def spy_value_pair(monkeypatch):
    """The value sets _search_pair asks _value_pair about, which finds no
    pair, so the search walks every shell."""
    asked = []
    monkeypatch.setattr(oracle_mod, "_value_pair",
                        lambda values, *rest: asked.append(values))
    return asked


def test_real_ceilings_change_no_result(monkeypatch):
    # the shells 512-1024 and 1024-1210 of this box hold 1.57M and 0.83M
    # values, so _blocks slices rows; the rank-3 shell's 378k values are
    # folded at 2**17 but not at 2**20
    f = GeneralForm(3, (1, 0, 0, 1, 0, 3))
    asked, results = spy_value_pair(monkeypatch), []
    for ceiling in (2 ** 17, 2 ** 20):
        monkeypatch.setattr(oracle_mod, "_CHUNK_ENTRIES", ceiling)
        assert _search_pair(f, 5, 1, 1, 1, [(32, 50)]) is None
        results.append((coverage(BinaryForm(6, 1, 5), Prime(11), 2, 1210),
                        asked.pop().tolist()))
    assert results[0] == results[1]
    assert len(results[0][1]) == 7985


def test_search_folds_every_walked_block(monkeypatch):
    # after each shell _value_pair sees the sorted distinct values of every
    # block walked so far, in their dtype, whether the blocks are folded
    # once a shell (no ceiling), every block (1) or inside a shell (37)
    shells = [(0, 2), (2, 3), (3, 5)]
    asked = spy_value_pair(monkeypatch)
    for ceiling in (None, 1, 37):
        if ceiling:
            monkeypatch.setattr(oracle_mod, "_CHUNK_ENTRIES", ceiling)
        for f in SHELL_FORMS:
            asked.clear()
            assert _search_pair(f, 3, 1, 1, 1, shells) is None
            blocks = []
            for (lo, hi), values in zip(shells, asked, strict=True):
                blocks += [vals for _, vals in _shell_batches(f, lo, hi)]
                want = _distinct(np.concatenate(blocks))
                assert values.dtype == want.dtype, (f, hi, ceiling)
                assert values.tolist() == want.tolist(), (f, hi, ceiling)


def test_coverage_memory_is_bounded():
    # a box of 18 million points; the whole box in one batch took 305 MB,
    # blocks of 2**20 entries 17.0 MB and blocks of 2**17 2.2 MB
    tracemalloc.start()
    try:
        rep = coverage(BinaryForm(1, 0, 1), Prime(7), 2, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.missing == (7, 14, 21, 28, 35, 42)
    assert peak < 8 * 2 ** 20, peak


def test_coverage_examples():
    rep = coverage(BinaryForm(1, 0, 1), Prime(5), 1, 50)
    assert rep.missing == ()
    assert len(rep.covered) == 5

    # odd-valuation classes stay missing for a form without 3-adic quotients there
    rep2 = coverage(BinaryForm(1, 0, 1), Prime(3), 2, 90)
    assert rep2.missing == (3, 6)

    rep3 = coverage(BinaryForm(1, 0, 1), Prime(2), 3, 40)
    # units of sums of two squares are 1 mod 4, so mod 8 the quotients miss
    # the units 3, 7 and the doubled nonunit 6, but reach 2 = 2/1
    assert rep3.missing == (3, 6, 7)


def test_coverage_monotone_in_bound():
    f = BinaryForm(1, 1, -3)
    for p, r in ((3, 2), (2, 3), (5, 1)):
        small = coverage(f, Prime(p), r, 6)
        big = coverage(f, Prime(p), r, 14)
        assert small.covered <= big.covered


def test_coverage_precision_consistent():
    # covered residues mod p^2 must map onto covered residues mod p
    f = BinaryForm(1, 1, -3)
    for p in (2, 3, 5):
        fine = coverage(f, Prime(p), 2, 40)
        coarse = coverage(f, Prime(p), 1, 40)
        assert {z % p for z in fine.covered} <= coarse.covered


def test_coverage_report_json():
    rep = coverage(BinaryForm(1, 0, 1), Prime(3), 2, 90)
    d = rep.to_json_dict()
    assert d == {"p": 3, "r": 2, "bound": 90, "covered_count": 7,
                 "missing": [3, 6], "quotients_sampled": rep.quotients_sampled}
    assert d["quotients_sampled"] > 0


def test_coverage_rejects_bad_arguments():
    with pytest.raises(ValueError):
        coverage(BinaryForm(1, 0, 1), Prime(3), 0, 10)
    with pytest.raises(ValueError):
        coverage(BinaryForm(1, 0, 1), Prime(3), 1, 0)
    # more than 2**24 residues is refused before enumerating, also for a
    # plain int past int32 and for an r too large to compute p**r
    for p, r, modulus in [(Prime(4099), 2, "16801801"),
                          (2 ** 31 + 11, 1, "2147483659"),
                          (3, 10 ** 9, "3**1000000000")]:
        with pytest.raises(ValueError) as info:
            coverage(BinaryForm(1, 0, 1), p, r, 5)
        assert f"p={p}, r={r} gives p**r = {modulus}," in str(info.value)


@st.composite
def tracker_cases(draw):
    p = draw(st.sampled_from((2, 2, 3, 5)))
    r = draw(st.integers(1, 4 if p == 2 else 2))
    # p = 2 goes deep; int32 edge values, and values past int64
    top, deep = draw(st.sampled_from(((50, 12 if p == 2 else 5),
                                      (2**31 - 1, 0), (2**70, 3))))
    values = [u * p ** k for u, k in draw(st.lists(
        st.tuples(st.integers(-top, top), st.integers(0, deep)), max_size=30))]
    # zeros and empty chunks may lead, before any denominator
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=5)))
    lead = draw(st.lists(st.sampled_from(([0], [])), max_size=2))
    chunks = lead + [values[a:b] for a, b in zip([0] + cuts, cuts + [len(values)])]
    return p, r, chunks


def dense_chunks(p, r, lead=()):
    # every value of BinaryForm(2, 1, 3) over [-7, 7]**2, in chunks of 13
    f = BinaryForm(2, 1, 3)
    values = sorted({f.evaluate((x, y))
                     for x in range(-7, 8) for y in range(-7, 8)})
    cuts = range(0, len(values) + 1, 13)
    return p, r, [*lead, *(values[a:a + 13] for a in cuts)]


@settings(max_examples=300, deadline=None)
@given(tracker_cases())
@example(dense_chunks(2, 3))
@example(dense_chunks(3, 2))
@example(dense_chunks(5, 1))
@example(dense_chunks(3, 2, ([0], [])))
def test_tracker_equivalent_to_pairing(case):
    # feeding values in arbitrary chunks must equal the all-pairs reference
    p, r, chunks = case
    tracker = _ResidueTracker(p, r)
    for chunk in chunks:
        peak = max(map(abs, chunk), default=0)
        tracker.add_batch(np.array(chunk, dtype=np.int32 if peak < 2**31 else
                                   np.int64 if peak < 2**62 else object))
    values = {v for chunk in chunks for v in chunk}
    assert set(np.flatnonzero(tracker.covered).tolist()) == \
        pairing_reference(values, p, r)
    # quotients_sampled counts the residue pairs of each valuation class
    m, nonzero = p ** r, [v for v in values if v]
    pairs = 0 if not nonzero else int(0 in values)
    for s in range(max((valuation(v, p) for v in nonzero), default=-1) + 1):
        nums = {v // p ** s % m for v in nonzero if valuation(v, p) >= s}
        pairs += len(nums) * len({n for n in nums if n % p})
    assert tracker.pairs_sampled() == pairs


def test_positive_values_cover_the_same_residues():
    # ROADMAP item 5, paper fidelity: the paper's A is the set of positive
    # values, the oracle pairs signed ones. Over primitive forms in [-4,4]^3
    # of positive discriminant (indefinite, so no form needs -f), a tracker
    # fed only the positive values of the same shells covers exactly
    # coverage's set
    span = range(-4, 5)
    forms = [BinaryForm(a, b, c) for a, b, c in product(span, repeat=3)
             if gcd(gcd(a, b), c) == 1 and b * b - 4 * a * c > 0]
    assert len(forms) * 8 == 2912
    for f, p, r in product(forms, (2, 3, 5, 7), (1, 2)):
        bound = 10 * p**r
        positive = _ResidueTracker(p, r)
        for lo, hi in _expanding_bounds(bound):
            for _, batch in _shell_batches(f, lo, hi):
                positive.add_batch(batch[batch > 0])
            if positive.full:
                break
        assert set(np.flatnonzero(positive.covered).tolist()) == \
            coverage(f, Prime(p), r, bound).covered, (f, p, r)


def test_excluded_classes_examples():
    v = decide(BinaryForm(1, 0, 1), Prime(3))
    assert excluded_classes(v, 3, 2) == frozenset({3, 6})
    assert excluded_classes(v, 3, 1) == frozenset()

    v2 = decide(BinaryForm(1, 0, 1), Prime(2))     # ell = 7 mod 8
    assert excluded_classes(v2, 2, 4) == frozenset({3})
    assert excluded_classes(v2, 2, 3) == frozenset()

    v3 = decide(BinaryForm(1, 0, 3), Prime(2))     # ell = 5 mod 8
    assert excluded_classes(v3, 2, 2) == frozenset({2})

    v4 = decide(BinaryForm(1, 0, -3), Prime(3))    # k = 1 odd
    assert excluded_classes(v4, 3, 2) == frozenset({2, 5, 8})

    v5 = decide(GeneralForm(1, (1,)), Prime(5))
    excl = excluded_classes(v5, 5, 1)
    assert excl == frozenset({2, 3})               # nonsquares mod 5


def test_dense_verdicts_exclude_nothing():
    # a dense leaf has no obstruction: nothing is excluded at any precision
    for f, p in ((BinaryForm(1, 0, 1), 5), (BinaryForm(1, 0, -17), 2),
                 (GeneralForm(3, (1, 0, 0, 1, 0, 3)), 3)):
        verdict = decide(f, Prime(p))
        assert verdict.dense, (f, p)
        for r in (1, 2, 4):
            assert excluded_classes(verdict, p, r) == frozenset(), (f, p, r)


def test_excluded_classes_never_covered():
    # the obstruction classes must be unreachable no matter the bound
    count = 0
    while count < 25:
        a, b, c = (rng.randint(-8, 8) for _ in range(3))
        if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
            continue
        f = BinaryForm(a, b, c)
        p = Prime(rng.choice((2, 3, 5)))
        v = decide(f, p)
        if v.dense:
            continue
        count += 1
        r = rng.randint(1, 3)
        excl = excluded_classes(v, p, r)
        rep = coverage(f, p, r, 25)
        assert not excl & rep.covered, (f, p, r)


def test_cross_check_dense_pass():
    rep = cross_check(BinaryForm(1, 0, 1), Prime(5), 2, 250)
    assert rep.passed
    assert rep.expectation == "full-coverage"
    assert rep.discrepancies == ()

    rep2 = cross_check(BinaryForm(1, 0, -1), Prime(2), 3, 80)
    assert rep2.passed and rep2.expectation == "full-coverage"


def test_cross_check_not_dense_pass():
    rep = cross_check(BinaryForm(1, 0, 1), Prime(3), 2, 90)
    assert rep.passed
    assert rep.expectation == "excluded-classes-missing"
    assert not rep.dense


def test_cross_check_below_schedule():
    # a bound below the schedule cannot prove a dense form wrong
    rep = cross_check(BinaryForm(1, 0, 1), Prime(5), 2, 30)
    assert rep.passed
    assert rep.expectation == "bound-below-schedule"


def test_cross_check_rank_three():
    rep = cross_check(GeneralForm(3, (1, 0, 0, 2, 0, 3)), Prime(3), 2, 90)
    assert rep.passed and rep.dense


def test_cross_check_json():
    rep = cross_check(BinaryForm(1, 0, 1), Prime(3), 1, 30)
    d = rep.to_json_dict()
    assert d["form"] == "1,0,1"
    assert d["passed"] is True
    assert d["coverage"]["p"] == 3


def test_distinct_matches_unique():
    rand = np.random.default_rng(0x0c1e)
    cases = [
        rand.integers(-50, 50, 500).astype(np.int32),
        rand.integers(-2**40, 2**40, 500),
        # exact Python ints past 2**62 in an object array
        np.array([2**63 + 5, 3, -(2**70), 3, 2**63 + 5, 0, 2**62], dtype=object),
        np.zeros(0, dtype=np.int32),
        np.zeros(0, dtype=object),
        rand.integers(-5, 5, (7, 9)),
    ]
    for values in cases:
        got, want = _distinct(values), np.unique(values)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


def value_pair_reference(values, p, tn, td, r):
    """_value_pair read off its docstring: denominators by (|D|, D), the
    first with some N where N*td = tn*D mod p**(r + v(D) + v(td)), and the
    least such N."""
    distinct = sorted({int(v) for v in np.ravel(values)})
    for d in sorted((v for v in distinct if v), key=lambda v: (abs(v), v)):
        m = p ** (r + valuation(d, p) + valuation(td, p))
        for n in distinct:
            if (n * td - tn * d) % m == 0:
                return n, d
    return None


@st.composite
def value_pair_cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    # unit parts times p**k: int32 boxes, int64, and object past 2**62; k up
    # to 24 goes past one pass of the valuation peel (16 levels at p = 2),
    # and values the dtype cannot hold are dropped
    dtype, top, cap = draw(st.sampled_from(
        ((np.int32, 1000, 2 ** 31), (np.int64, 2 ** 40, 2 ** 62),
         (object, 2 ** 70, None))))
    units = st.one_of(st.integers(-9, 9), st.integers(-top, top))
    values = [v for v in (u * p ** k for u, k in draw(st.lists(
        st.tuples(units, st.one_of(st.integers(0, 6), st.integers(0, 24))),
        max_size=40))) if cap is None or abs(v) < cap]
    tn = draw(st.one_of(st.just(0), st.integers(-10 ** 4, 10 ** 4)))
    td = draw(st.integers(1, 50)) * p ** draw(st.integers(0, 3))
    # callers pass a nonzero target in lowest terms; 0 keeps any td
    g = gcd(tn, td) if tn else 1
    return (np.array(values, dtype=dtype), p, tn // g, td // g,
            draw(st.integers(1, 4)))


@settings(max_examples=400, deadline=None)
@given(value_pair_cases())
def test_value_pair_matches_reference(case):
    # _value_pair takes the sorted distinct values; the reference any values
    values, *rest = case
    assert _value_pair(_distinct(values), *rest) == value_pair_reference(*case)


# primes on both sides of each boundary of _value_pair's valuation peel: a
# table of L >= 2 levels up to p = 2**8 and a comparison past it, p on
# either side of 2**16, int32 values kept below p = 2**31, objects from 2**62
_PEEL_PRIMES = (2, 3, 251, 257, 65521, 65537, 2 ** 31 - 1, 2 ** 31 + 11,
                10 ** 18 + 3, 2 ** 62 + 135)


def peel_levels(p):
    """The levels L of one pass of the peel: p**L <= 2**16, at least 1."""
    return max(k for k in range(1, 17) if k == 1 or p ** k <= 2 ** 16)


@st.composite
def peel_value_pair_cases(draw):
    p = draw(st.sampled_from(_PEEL_PRIMES))
    level = peel_levels(p)
    dtype, cap = draw(st.sampled_from(
        ((np.int32, 2 ** 31), (np.int64, 2 ** 62), (object, 2 ** 200))))
    # valuation 0, exactly L and past 2L, each a pass boundary of the peel
    exps = st.one_of(st.sampled_from((0, level, 2 * level + 1)),
                     st.integers(0, 3 * level + 2))
    units = st.one_of(st.integers(-9, 9), st.integers(-10 ** 6, 10 ** 6))
    values = {u * p ** k for u, k in draw(st.lists(st.tuples(units, exps),
                                                    max_size=30))
              if u % p and abs(u * p ** k) < cap}
    values |= {0} if draw(st.booleans()) else set()
    r = draw(st.integers(1, 4))
    tn = draw(st.one_of(st.just(0), st.integers(-10 ** 4, 10 ** 4),
                        st.integers(1, 99).map(lambda u: u * p ** r)))
    td = draw(st.integers(1, 50)) * p ** draw(st.integers(0, 2))
    g = gcd(tn, td) if tn else 1
    return (np.array(sorted(values), dtype=dtype), p, tn // g, td // g, r)


@settings(max_examples=400, deadline=None)
@given(peel_value_pair_cases())
def test_value_pair_matches_reference_across_peel_passes(case):
    # a value's valuation decides its class, and which numerators of
    # valuation >= r + v(D) pair with D when v(tn) - v(td) >= r
    assert _value_pair(*case) == value_pair_reference(*case)


# the value-pair search on real shells: boxes small enough for the quadratic
# reference, coefficients that keep the (class, residue) keys in a bool table
# (|c| <= 9), push them past it to the sorted keys (|c| near 10**6 at the
# larger primes), or make the values Python ints in object arrays (2**61)
_SHELL_PRIMES = (2, 3, 5, 7, 353, 1009, 10007, 2 ** 31 - 1, 10 ** 18 + 3)
_SHELL_BOXES = {1: 12, 2: 8, 3: 4, 4: 2}


@st.composite
def shell_value_pair_cases(draw):
    p = draw(st.sampled_from(_SHELL_PRIMES))
    rank = draw(st.integers(1, 4))
    scale = draw(st.sampled_from((9, 10 ** 6, 2 ** 61)))
    coeffs = draw(st.lists(st.one_of(st.integers(-9, 9),
                                     st.integers(-scale, scale)),
                           min_size=rank * (rank + 1) // 2,
                           max_size=rank * (rank + 1) // 2))
    try:
        f = GeneralForm(rank, tuple(coeffs))
    except ValueError:
        f = GeneralForm(rank, tuple(int(i == j) for i in range(rank)
                                    for j in range(i, rank)))
    r = draw(st.integers(1, 4))
    unit = draw(st.integers(-10 ** 4, 10 ** 4).filter(lambda u: u % p))
    kind = draw(st.sampled_from(("zero", "deep", "p-den", "any")))
    if kind == "zero":
        tn, td = 0, draw(st.integers(1, 60))
    elif kind == "deep":  # v(tn) >= r: no residue condition
        tn, td = unit * p ** (r + draw(st.integers(0, 2))), 1
    elif kind == "p-den":
        tn, td = unit, draw(st.integers(1, 60)) * p
    else:
        tn, td = draw(st.integers(-10 ** 4, 10 ** 4)), draw(st.integers(1, 60))
    g = gcd(tn, td) if tn else 1
    box = draw(st.integers(1, _SHELL_BOXES[rank]))
    shell = np.concatenate([vals for _, vals in _shell_batches(f, 0, box)])
    return (_distinct(shell), p, tn // g, td // g, r)


@settings(max_examples=150, deadline=None)
@given(shell_value_pair_cases())
def test_value_pair_matches_reference_on_shells(case):
    values, *rest = case
    # the search hands _value_pair a sorted distinct shell
    assert (values[1:] > values[:-1]).all()
    assert _value_pair(_distinct(values), *rest) == value_pair_reference(*case)
