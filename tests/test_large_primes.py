"""Large-prime tier: decide, explain, certificates and dense binary
witnesses at primes up to 1e18.

Every answer is checked against a reference built on sympy's Legendre symbol,
which shares no code with qform. The tier asserts its own wall-clock budget:
nothing on these paths may scan F_p or count up to p.
"""

import json
import time
from fractions import Fraction
from itertools import count

import pytest

from qform import (BinaryForm, Prime, decide_binary_squareclass,
                   decide_binary_tree)
from qform.cli import main

sympy = pytest.importorskip("sympy")

SEED = 0x1a96e
BUDGET_S = 5.0


def seeded_primes(n=20):
    """n primes in [1e6, 1e18), spread over the decades, from a fixed seed."""
    rng = sympy.core.random.rng
    state = rng.getstate()
    rng.seed(SEED)
    try:
        return [sympy.randprime(10 ** (6 + 12 * i // n),
                                10 ** (7 + 12 * i // n)) for i in range(n)]
    finally:
        rng.setstate(state)


def least_nonresidue(p):
    return next(z for z in count(2) if sympy.legendre_symbol(z, p) == -1)


def reference(f, p):
    """(dense, leaf, k, ell) for a binary form at an odd prime, from sympy."""
    d = f.discriminant()
    k = sympy.multiplicity(p, d)
    ell = d // p ** k
    if sympy.legendre_symbol(d % p, p) == -1:
        return False, "anisotropic", k, ell
    if k == 0:
        return True, "isotropic-nonsingular", k, ell
    if k % 2:
        return False, "odd-singular-k-odd", k, ell
    res = sympy.legendre_symbol(ell % p, p) == 1
    return res, "odd-singular-residue" if res else "odd-singular-nonresidue", \
        k, ell


def forms_at(p):
    """Small forms, and forms whose discriminant p divides once, twice with
    a residue cofactor, twice with a nonresidue cofactor, and three times."""
    n = least_nonresidue(p)
    return [BinaryForm(1, 0, 1), BinaryForm(1, 1, 1), BinaryForm(1, 0, -2),
            BinaryForm(2, 1, 3), BinaryForm(3, 1, -5), BinaryForm(1, 0, -p),
            BinaryForm(1, 0, -p * p), BinaryForm(1, 0, -n * p * p),
            BinaryForm(1, 0, -p ** 3)]


def cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, (argv, err)
    return out


def check_decisions(capsys, p):
    for f in forms_at(p):
        dense, leaf, k, ell = reference(f, p)
        tree = decide_binary_tree(f, Prime(p))
        square = decide_binary_squareclass(f, Prime(p))
        assert (tree.dense, tree.theorem_tag) == (dense, leaf), (f, p)
        assert square.dense == dense, (f, p)
        form = f"--form={f.a},{f.b},{f.c}"
        verdict = json.loads(cli(capsys, "decide", form, "--prime", str(p)))
        verdict = verdict["verdict"]
        assert (verdict["dense"], verdict["theorem_tag"], verdict["k"],
                verdict["ell"]) == (dense, leaf, k, ell), (f, p)
        lines = cli(capsys, "explain", form, "--prime", str(p),
                    "--plain").splitlines()
        iso = "no" if leaf == "anisotropic" else "yes"
        assert lines[1].strip() == f"Is the form isotropic modulo {p}?  {iso}"
        assert lines[-1].strip() == \
            f"=> {'dense' if dense else 'not dense'}  [{leaf}]", (f, p)


def certificate_target(capsys, form, p):
    payload = json.loads(cli(capsys, "witness", "--form", form,
                             "--prime", str(p)))
    assert payload["dense"] is False, (form, p)
    return payload["certificate"]["target"]


def check_dense_witness(capsys, form, p, target, r):
    """A lifted witness whose quotient lies within p**-r of the target."""
    payload = json.loads(cli(capsys, "witness", "--form", form, "--prime",
                             str(p), "--target", target, "--r", str(r)))
    w = payload["witness"]
    assert payload["dense"] is True and w["strategy"] == "lift", (form, p)
    f = BinaryForm(*map(int, form.split(",")))
    error = Fraction(f.evaluate((w["x"], w["y"])), f.evaluate((w["z"], w["w"]))) \
        - Fraction(target)
    assert error == 0 or sympy.multiplicity(p, error.numerator) \
        - sympy.multiplicity(p, error.denominator) >= r, (form, p)


def test_large_prime_tier(capsys):
    primes = seeded_primes()
    assert {p % 4 for p in primes} == {1, 3}
    start = time.perf_counter()
    for p in primes:
        check_decisions(capsys, p)
        if p % 4 == 3:
            # x^2 + y^2 is anisotropic: the ball around p misses every quotient
            assert certificate_target(capsys, "1,0,1", p) == f"{p}/1"
        assert certificate_target(capsys, f"1,0,-{p}", p) == \
            f"{least_nonresidue(p)}/1"
    # x^2 - y^2 is isotropic and nonsingular at every odd p
    for p in (sympy.nextprime(10 ** 6), sympy.prevprime(10 ** 18)):
        check_dense_witness(capsys, "1,0,-1", p, "3/7", 4)
        check_dense_witness(capsys, "2,1,-3", p, "-51/5", 3)
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"large-prime tier took {elapsed:.2f} s"
