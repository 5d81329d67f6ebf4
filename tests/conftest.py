"""Fixtures shared by the test suite."""

import pytest

from probir.corpus import CHARACTER_MODE

from corpus_builders import make_index


@pytest.fixture
def toy_index():
    return make_index([
        ("d1", "enterprise amalgamation", "the enterprise amalgamation was materialized", "business"),
        ("d2", "weather report", "rain and wind with enterprise mentioned", "news"),
        ("d3", "board meeting", "amalgamation plans for the enterprise board", "business"),
        ("d4", "cooking pasta", "boil water add salt", "life"),
    ])


@pytest.fixture
def char_index():
    return make_index([
        ("c1", "abcd", "abab cdcd. abcd efef"),
        ("c2", "efgh", "efef ghgh, efgh abab"),
        ("c3", "xyzw", "xyxy zwzw. xyzw abab"),
    ], mode=CHARACTER_MODE)
