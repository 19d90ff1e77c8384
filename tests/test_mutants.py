"""The mutation harness's table still points at code that exists."""

from tests import mutants


def test_every_mutant_text_occurs_once():
    package = mutants.ROOT / "src" / "speechground"
    counts = {m.name: (package / m.file).read_text(encoding="utf-8").count(m.old)
              for m in mutants.MUTANTS}
    assert len(counts) == len(mutants.MUTANTS), "mutant names must be unique"
    assert {name: n for name, n in counts.items() if n != 1} == {}
