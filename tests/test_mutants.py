"""The mutation gate's table (``tests/mutants.py``) still points at code:
each snippet occurs exactly once in its ``src/walshgl`` file, so a refactor
that moves or rewrites it must update the table.  The mutants themselves run
as a separate CI step."""

import pytest

from mutants import MUTANTS, SRC


@pytest.mark.parametrize("name, snippet", [entry[:2] for entry in MUTANTS],
                         ids=[f"{entry[0]}-{i}" for i, entry in enumerate(MUTANTS)])
def test_each_snippet_occurs_once_in_its_file(name, snippet):
    assert (SRC / name).read_text().count(snippet) == 1
