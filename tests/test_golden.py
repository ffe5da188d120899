"""Byte-identity gate: every case's output hashes to its recorded digest.

Each case is a CLI call (exit code, stdout and stderr) or a library result
(its repr), reduced to the first 16 hex digits of its sha256. The digests in
golden.json were generated at commit 8e4c841 by running, from the repo root,

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json

A change that moves any verdict, witness, certificate, report or CLI byte
fails here and names the cases it moved. Regenerate the file only for a
change that means to move them, and say so in CHANGES.md.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from qform import (BinaryForm, change_variables, lift_representation,
                   lift_representation_two)
from qform.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
BIG_PRIME = 10**18 + 3

VERDICT_FORMS = ("1; 1", "1,0,1", "1,0,-9", "1,0,-4", "1,0,2", "3,1,-5",
                 "2,1,2", "5,10,-3", "3; 1,0,0,1,0,3", "4; 1,0,0,0,1,0,0,1,1,3")
WITNESS_ARGS = (
    # lift, at odd p and at p = 2
    ("--form", "1,0,1", "--prime", "5", "--target", "3/7", "--r", "20"),
    ("--form", "1,0,-1", "--prime", "5", "--target", "-1", "--r", "9"),
    ("--form", "1,1,-2", "--prime", "2", "--target", "3/4", "--r", "17"),
    ("--form", "1,0,1", "--prime", "1009", "--target", "-5/12", "--r", "6"),
    ("--form", "1,0,-1", "--prime", str(BIG_PRIME), "--target", "7", "--r", "3"),
    # reduce-lift at p = 2 and at odd p
    ("--form", "1,0,-17", "--prime", "2", "--target", "5/3", "--r", "12"),
    ("--form", "1,0,-9", "--prime", "3", "--target", "2/27", "--r", "8"),
    ("--form", "1,0,-36", "--prime", "3", "--target", "-4", "--r", "5"),
    ("--form", "2,7,-49", "--prime", "7", "--target", "3/49", "--r", "6"),
    ("--form", "-49,7,2", "--prime", "7", "--target", "10", "--r", "4"),
    # enumeration at ranks 3 and 4
    ("--rank", "3", "--coeffs", "1,0,0,1,0,3", "--prime", "5",
     "--target", "3/7", "--r", "2"),
    ("--form", "4; 1,0,0,0,1,0,0,1,0,1", "--prime", "3", "--target", "2",
     "--r", "2"),
    ("--rank", "3", "--coeffs", "1,0,0,1,0,3", "--prime", "7",
     "--target", "1/49", "--r", "3", "--bound", "4"),
    # certificates at p = 2, 3 and 1009
    ("--form", "1,1,1", "--prime", "2", "--bound", "20"),
    ("--form", "1,0,-2", "--prime", "2", "--bound", "20"),
    ("--form", "1,0,1", "--prime", "3", "--bound", "20"),
    ("--form", "1,0,-27", "--prime", "3", "--bound", "20"),
    ("--form", "1,0,-1009", "--prime", "1009", "--bound", "12"),
    ("--form", "1,0,-11", "--prime", "1009", "--bound", "12"),
    ("--form", "1,0,1", "--prime", str(BIG_PRIME)),
    # refusals
    ("--form", "1,0,1", "--prime", "5"),
    ("--form", "1; 3", "--prime", "5"),
    ("--form", "1; -1", "--prime", "5"),
    ("--rank", "3", "--coeffs", "1,0,0,1,0,3", "--prime", "1009",
     "--target", "123457/99991", "--r", "3", "--bound", "6"),
)
SWEEP_CONFIG = ("1,0,1 5\n"
                "1,0,1\n"
                "1,0,-9 3  # singular\n"
                "3; 1,0,0,1,0,1 2\n")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _cli(*argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cases():
    """(name, thunk) for every case; the name is the case's own key."""
    for command, form, p, plain in product(
            ("decide", "explain"), VERDICT_FORMS, (2, 3, 5, 7, 1009, BIG_PRIME),
            ((), ("--plain",))):
        argv = (command, "--form", form, "--prime", str(p), *plain)
        yield " ".join(argv), lambda argv=argv: _cli(*argv)
    for args, plain in product(WITNESS_ARGS, ((), ("--plain",))):
        argv = ("witness", *args, *plain)
        yield " ".join(argv), lambda argv=argv: _cli(*argv)
    for argv in (("oracle", "--form", "1,0,1", "--prime", "3", "--r", "2",
                  "--bound", "20"),
                 ("oracle", "--form", "1,0,-9", "--prime", "3", "--r", "2",
                  "--bound", "12", "--plain")):
        yield " ".join(argv), lambda argv=argv: _cli(*argv)
    for plain in ((), ("--plain",)):
        def sweep(plain=plain):
            with tempfile.TemporaryDirectory() as tmp:
                cfg = os.path.join(tmp, "forms.cfg")
                with open(cfg, "w", encoding="utf-8") as handle:
                    handle.write(SWEEP_CONFIG)
                return _cli("sweep", "--config", cfg, "--r", "2", *plain)
        yield "sweep " + " ".join(plain), sweep
    for (a, b, c), p, n, r in product(
            ((1, 0, 1), (1, 0, -1), (3, 1, -5), (5, 10, -3)),
            (5, 13, 1009, BIG_PRIME), (-1, 0, 2, 7 * 5**20), (1, 2, 7, 31, 64)):
        f = BinaryForm(a, b, c)
        yield (f"lift_representation {f} {p} {n} {r}",
               lambda f=f, p=p, n=n, r=r: _call(lift_representation, f, p, n, r))
    for (a, b, c), n, r in product(((1, 1, -2), (0, 1, 1), (2, 3, 5), (1, 3, 0)),
                                   (-3, 0, 1, 6, 3**40), (1, 2, 3, 9, 33, 64)):
        f = BinaryForm(a, b, c)
        yield (f"lift_representation_two {f} {n} {r}",
               lambda f=f, n=n, r=r: _call(lift_representation_two, f, n, r))
    for (a, b, c), m in product(
            ((1, 0, 1), (3, 1, -5), (-7, 4, 2), (10**20 + 1, 3, -2)),
            (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 1)),
             ((1, -3), (2, -5)), ((5, 0), (7, 3)), ((-4, 9), (10**9, 7)))):
        f = BinaryForm(a, b, c)
        yield (f"change_variables {f} {m}",
               lambda f=f, m=m: _call(change_variables, f, m))


def _call(func, *args):
    """The result, or the error's type and text: refusals are pinned too."""
    try:
        return func(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def digests() -> dict[str, str]:
    return {name: _digest(thunk()) for name, thunk in _cases()}


def test_outputs_match_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert got.keys() == want.keys(), \
        sorted(got.keys() ^ want.keys())
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, "outputs changed: " + "; ".join(moved)


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1)
    sys.stdout.write("\n")
