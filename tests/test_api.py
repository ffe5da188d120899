import ast
from pathlib import Path

import qform


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
    assert sum(counts.values()) <= 1770, \
        ", ".join(f"{name} {n}" for name, n in counts.items())


def test_witness_leaves_enumeration_to_the_oracle():
    # one value-pair search owns the half box: witness.py reaches it through
    # oracle._search_pair and never walks shells or sorts values itself
    tree = ast.parse((Path(qform.__file__).parent / "witness.py").read_text(
        encoding="utf-8"))
    walkers = {"_distinct", "_point_at", "_shell_batches", "_shell_values",
               "_value_pair"}
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").split(".")[0])
            names.update(alias.name for alias in node.names)
    assert "numpy" not in modules
    assert not names & walkers, names & walkers
