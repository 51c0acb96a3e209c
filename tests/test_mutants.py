"""The mutants of `tools/mutants.py` still name code that exists."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutants_original_text_occurs_once_in_its_file(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    mutants = importlib.import_module("mutants").MUTANTS
    assert len({m[0] for m in mutants}) == len(mutants)
    for name, file, original, mutated, _ in mutants:
        assert original != mutated, name
        assert (ROOT / file).read_text().count(original) == 1, name
