import ast
from pathlib import Path

import pytest

import qform
from qform import (BinaryForm, GeneralForm, InvalidFormError, is_square_in_qp,
                   lift_representation, lift_representation_two, mod_inverse,
                   quotient_error_valuation)


def test_all_names_resolve():
    # a stale name in __all__ breaks "from qform import *"
    missing = [name for name in qform.__all__ if not hasattr(qform, name)]
    assert not missing


def test_all_has_no_duplicates():
    assert len(qform.__all__) == len(set(qform.__all__))


def test_all_stays_small():
    # ROADMAP item 7 caps the public API at 50 names
    assert len(qform.__all__) <= 50


def test_source_stays_small():
    # ROADMAP item 7 wants src/qform to shrink: a change that grows it
    # raises this bound and says so in CHANGES.md
    counts = {path.name: len(path.read_text(encoding="utf-8").splitlines())
              for path in sorted(Path(qform.__file__).parent.glob("*.py"))}
    assert sum(counts.values()) <= 1754, \
        ", ".join(f"{name} {n}" for name, n in counts.items())


def test_witness_leaves_enumeration_to_the_oracle():
    # one value-pair search owns the half box: witness.py reaches it through
    # oracle._search_pair and never walks shells or sorts values itself
    tree = ast.parse((Path(qform.__file__).parent / "witness.py").read_text(
        encoding="utf-8"))
    walkers = {"_distinct", "_point_at", "_shell_batches", "_value_pair"}
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").split(".")[0])
            names.update(alias.name for alias in node.names)
    assert "numpy" not in modules
    assert not names & walkers, names & walkers


_SUM_OF_THREE_SQUARES = GeneralForm(3, (1, 0, 0, 1, 0, 1))


@pytest.mark.parametrize("call, error, message", [
    # Bareiss finds no pivot in the second column
    (lambda: GeneralForm(3, (1, 0, 0, 0, 0, 0)), InvalidFormError,
     "form is not nonsingular: matrix determinant is zero"),
    (lambda: _SUM_OF_THREE_SQUARES.evaluate((1, 2)), ValueError,
     "rank 3 form evaluated at a 2-tuple"),
    (lambda: _SUM_OF_THREE_SQUARES.to_binary(), InvalidFormError,
     "rank 3 form has no binary equivalent"),
    (lambda: quotient_error_valuation(1, 0, 1, 1, 5), ValueError,
     "denominators must be nonzero"),
    (lambda: lift_representation(BinaryForm(1, 0, -1), 2, 1, 3), ValueError,
     "this lift needs an odd prime"),
    (lambda: lift_representation_two(BinaryForm(0, 1, 0), 1, 0), ValueError,
     "precision must be at least 1"),
    (lambda: mod_inverse(3, 1), ValueError, "modulus must be at least 2"),
    (lambda: is_square_in_qp(1, 0, 5), ValueError, "denominator is zero"),
])
def test_refusals_name_their_fault(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
