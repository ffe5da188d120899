from pathlib import Path

import qform


def test_all_names_resolve():
    # a stale name in __all__ breaks "from qform import *"
    missing = [name for name in qform.__all__ if not hasattr(qform, name)]
    assert not missing


def test_all_has_no_duplicates():
    assert len(qform.__all__) == len(set(qform.__all__))


def test_all_stays_small():
    # ROADMAP item 6 caps the public API at 50 names
    assert len(qform.__all__) <= 50


def test_source_stays_small():
    # ROADMAP item 6 wants src/qform to shrink: a change that grows it
    # raises this bound and says so in CHANGES.md
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in Path(qform.__file__).parent.glob("*.py"))
    assert lines <= 1691
