"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v` for just this gate. The sweeps are
sized to finish comfortably inside the stated wall-clock budgets on a stock
laptop; the budgets themselves are asserted.
"""

import random
import time
from itertools import product
from math import gcd

import numpy as np
import pytest

from qform import (ALL_TREE_LEAVES, BinaryForm, GeneralForm, Prime,
                   coverage, cross_check, decide,
                   decide_binary_squareclass, decide_binary_tree,
                   exclusion_certificate, is_isotropic_mod_p,
                   lift_representation, lift_representation_two, valuation)
from test_forms import arnold_compose

rng = random.Random(0xacce97)


def _report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {number}] {name}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def primitive_nonsingular(limit):
    for a, b, c in product(range(-limit, limit + 1), repeat=3):
        if gcd(gcd(a, b), c) == 1 and b * b - 4 * a * c != 0:
            yield BinaryForm(a, b, c)


def test_criterion_1_sum_of_two_squares(capsys):
    start = time.perf_counter()
    f = BinaryForm(1, 0, 1)
    dense = {p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
             if decide(f, Prime(p)).dense}
    elapsed = time.perf_counter() - start
    ok = dense == {5, 13, 17, 29} and elapsed < 1.0
    _report(capsys, 1, "sum of two squares",
            ok, f"dense at {sorted(dense)}, {elapsed:.3f}s")


@pytest.fixture(scope="module")
def dual_sweep():
    primes = tuple(Prime(q) for q in (2, 3, 5, 7, 11, 13, 17))
    start = time.perf_counter()
    disagreements = []
    tags = {}
    cases = 0
    for f in primitive_nonsingular(20):
        for p in primes:
            tree = decide_binary_tree(f, p)
            square = decide_binary_squareclass(f, p)
            cases += 1
            if tree.dense != square.dense:
                disagreements.append((f, int(p)))
            tags[tree.theorem_tag] = tags.get(tree.theorem_tag, 0) + 1
    elapsed = time.perf_counter() - start
    return cases, disagreements, tags, elapsed


def test_criterion_2_dual_decider_agreement(capsys, dual_sweep):
    cases, disagreements, _, elapsed = dual_sweep
    ok = not disagreements and cases > 390_000 and elapsed < 120.0
    _report(capsys, 2, "dual decider agreement", ok,
            f"{cases} cases, {len(disagreements)} disagreements, "
            f"{elapsed:.1f}s")


def test_criterion_3_oracle_agreement(capsys):
    start = time.perf_counter()
    failures = []
    cases = 0
    for f in primitive_nonsingular(6):
        for q in (2, 3, 5, 7):
            for r in (1, 2):
                rep = cross_check(f, Prime(q), r, 10 * q**r)
                cases += 1
                if not rep.passed:
                    failures.append((f, q, r, rep.discrepancies[:4]))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _report(capsys, 3, "oracle agreement", ok,
            f"{cases} cross-checks, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_4_all_leaves_reached(capsys, dual_sweep):
    _, _, tags, _ = dual_sweep
    reached = set(tags) & set(ALL_TREE_LEAVES)
    ok = reached == set(ALL_TREE_LEAVES)
    histogram = ", ".join(f"{tag}={tags.get(tag, 0)}"
                          for tag in sorted(ALL_TREE_LEAVES))
    _report(capsys, 4, "all decision leaves reached", ok, histogram)


def test_criterion_5_rank_three_and_up(capsys):
    start = time.perf_counter()
    forms = (GeneralForm(3, (1, 0, 0, 1, 0, 1)),
             GeneralForm(3, (1, 0, 0, 2, 0, 3)),
             GeneralForm(4, (1, 0, 0, 0, 1, 0, 0, 1, 0, 1)))
    failures = []
    for g in forms:
        for q in (2, 3, 5, 7):
            verdict = decide(g, Prime(q))
            rep = coverage(g, Prime(q), 2, 10 * q * q)
            if not verdict.dense or rep.missing:
                failures.append((g.coeffs, q, rep.missing[:4]))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(capsys, 5, "rank three and up dense with full coverage", ok,
            f"{len(forms) * 4} pairs, {len(failures)} failures, "
            f"{elapsed:.1f}s")


def test_criterion_6_product_composition(capsys):
    start = time.perf_counter()
    bad = 0
    for _ in range(1000):
        while True:
            a, b, c = (rng.randint(-30, 30) for _ in range(3))
            if gcd(gcd(a, b), c) == 1 and b * b - 4 * a * c != 0:
                break
        f = BinaryForm(a, b, c)
        pts = [(rng.randint(-25, 25), rng.randint(-25, 25)) for _ in range(3)]
        want = f.evaluate(pts[0]) * f.evaluate(pts[1]) * f.evaluate(pts[2])
        if f.evaluate(arnold_compose(f, *pts)) != want:
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 1.0
    _report(capsys, 6, "three-point product composition", ok,
            f"1000 instances, {bad} failures, {elapsed:.3f}s")


def test_criterion_7_lifting_soundness(capsys):
    failures = 0

    done = 0
    while done < 200:
        p = rng.choice((3, 5, 7))
        a, b, c = (rng.randint(-10, 10) for _ in range(3))
        if gcd(gcd(a, b), c) != 1:
            continue
        d = b * b - 4 * a * c
        if d == 0 or d % p == 0:
            continue
        f = BinaryForm(a, b, c)
        if not is_isotropic_mod_p(f, p):
            continue
        done += 1
        n = rng.randint(-100, 100)
        r = rng.randint(1, 4)
        x, y = lift_representation(f, p, n, r)
        value_ok = (f.evaluate((x, y)) - n) % p**r == 0
        side_ok = (2 * a * x + b * y) % p != 0 or (b * x + 2 * c * y) % p != 0
        if not (value_ok and side_ok):
            failures += 1

    done = 0
    while done < 100:
        a, b, c = (rng.randint(-10, 10) for _ in range(3))
        if gcd(gcd(a, b), c) != 1 or b * b - 4 * a * c == 0:
            continue
        if (b * b - 4 * a * c) % 2 == 0 or a % 2 != 0:
            continue
        f = BinaryForm(a, b, c)
        done += 1
        n = rng.randint(-100, 100)
        r = rng.randint(1, 4)
        x, y = lift_representation_two(f, n, r)
        if (f.evaluate((x, y)) - n) % 2**r != 0 or y % 2 != 1:
            failures += 1

    _report(capsys, 7, "lifting soundness", failures == 0,
            f"300 lifts, {failures} failures")


def count_quotients_inside_ball(f, q, tn, td, radius, bound):
    """Denominator values with a quotient N/D strictly inside the ball.

    A quotient N/D lies strictly inside exactly when
    v(N*td - tn*D) > radius + v(D) + v(td), so group denominators by
    valuation and test one congruence per denominator against the sorted
    residues of the numerators. The box's values come from f.coeffs in
    local numpy, not from qform's enumerator.
    """
    a, b, c = f.coeffs
    x = np.arange(-bound, bound + 1)[:, None]
    values = np.sort(a * x * x + b * x * x.T + c * x.T * x.T, axis=None)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    g = valuation(td, q)
    hits, s, top = 0, 0, np.abs(values).max()
    while q ** s <= top:
        dens = values[(values % q ** s == 0) & (values % q ** (s + 1) != 0)]
        m = q ** (radius + s + g + 1)
        numerators = np.sort(values * td % m)
        probes = tn * dens % m
        pos = np.minimum(np.searchsorted(numerators, probes), numerators.size - 1)
        hits += int(np.count_nonzero(numerators[pos] == probes))
        s += 1
    return hits


def test_criterion_8_certificate_soundness(capsys):
    start = time.perf_counter()
    bound = 30
    violations = 0
    checked = 0
    for f in primitive_nonsingular(6):
        for q in (2, 3, 5, 7):
            p = Prime(q)
            if decide(f, p).dense:
                continue
            cert = exclusion_certificate(f, p, verify_bound=bound)
            checked += 1
            violations += count_quotients_inside_ball(
                f, q, cert.target_num, cert.target_den,
                cert.radius_exponent, bound)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and checked > 0
    _report(capsys, 8, "certificate soundness", ok,
            f"{checked} certificates, {violations} violations, "
            f"{elapsed:.0f}s")


def test_criterion_9_valuation_parity(capsys):
    pairs = []
    for f in primitive_nonsingular(6):
        for q in (2, 3, 5, 7):
            if decide(f, Prime(q)).theorem_tag == "anisotropic":
                pairs.append((f, q))
        if len(pairs) >= 50:
            break
    pairs = pairs[:50]
    odd_hits = 0
    for f, q in pairs:
        for x in range(-50, 51):
            for y in range(-50, 51):
                v = f.evaluate((x, y))
                if v != 0 and valuation(v, q) % 2 == 1:
                    odd_hits += 1
    _report(capsys, 9, "anisotropic values have even valuation",
            odd_hits == 0, f"{len(pairs)} forms, {odd_hits} odd valuations")
