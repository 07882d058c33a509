"""`decompose` makes the stored decisions on the tier-1 part of the decision
corpus (see `decision_corpus.py`; its d = 64 part runs in CI's seed scan)."""

import pytest

from decision_corpus import load, mismatches, names


@pytest.fixture(scope="module")
def stored():
    return load()


@pytest.mark.parametrize("name", names("tier1"))
def test_decisions_match_the_corpus(name, stored):
    assert mismatches(name, stored[name]) == []
