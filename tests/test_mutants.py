"""The mutation gate's tables (``tests/mutants.py``) still point at code:
each snippet, the declared-equivalent ones too, occurs exactly once in its
``src/walshgl`` file, so a refactor that moves or rewrites it must update
the table.  The mutants themselves run as a separate CI step."""

import pytest

from mutants import EQUIVALENT, MUTANTS, SRC


@pytest.mark.parametrize("name, snippet", [entry[:2] for entry in MUTANTS + EQUIVALENT],
                         ids=[f"{entry[0]}-{i}" for i, entry in enumerate(MUTANTS + EQUIVALENT)])
def test_each_snippet_occurs_once_in_its_file(name, snippet):
    assert (SRC / name).read_text().count(snippet) == 1
