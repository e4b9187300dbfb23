import pytest

import mutants


@pytest.mark.parametrize("row", mutants.ROWS)
def test_old_text_occurs_once(row):
    """Each mutation ledger row's old text is in its file exactly once, so
    the ledger cannot silently mutate nothing or the wrong place."""
    assert mutants.occurrences(row) == 1
