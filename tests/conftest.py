"""Fixtures shared by the test suite."""

import pytest

from probir.corpus import CHARACTER_MODE

from corpus_builders import CHAR_ROWS, TOY_ROWS, make_index


@pytest.fixture
def toy_index():
    return make_index(TOY_ROWS)


@pytest.fixture
def char_index():
    return make_index(CHAR_ROWS, mode=CHARACTER_MODE)
