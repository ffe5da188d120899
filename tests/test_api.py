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
    assert sum(counts.values()) <= 1709, \
        ", ".join(f"{name} {n}" for name, n in counts.items())
