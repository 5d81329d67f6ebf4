"""The tokenizer decides each distinct word and character once per config:
its answers must equal the plain per-token rule in ``oracles``."""

import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from probir.corpus import (
    CHARACTER_MODE,
    TOKEN_MODE,
    TokenizerConfig,
    load_stopwords,
    split_sentences,
    tokenize,
)
from probir.errors import EmptyCollectionError, ParseError
from probir.index import DOCUMENTS_FILE, build_index
from probir.term_extraction import split_phrases

import oracles
from corpus_builders import make_collection

# whole words in mixed case, quoted, stemmable, numeric and non-ASCII, and
# runs of letters (some whose lowercase is longer), digits, apostrophes,
# punctuation and space
WORDS = st.sampled_from([
    "The", "the", "THE", "'the'", "isn't", "Isn't", "o'clock", "'tis", "''",
    "classes", "Running", "stories", "1990s", "x2", "42", "l'été", "Über",
    "İstanbul", "ΣΟΦΟΣ", "東京", "、"])
PIECES = st.one_of(WORDS, st.text(alphabet="aAbeEsSßéÉİıΣσς'09 .,;-!?\n\t東京。",
                                  max_size=12))
TEXTS = st.builds(" ".join, st.lists(PIECES, max_size=12))
_WORD_RE = re.compile(r"[\w']+")


def draw_stopwords(data, texts, mode=TOKEN_MODE):
    """Some of the texts' lowercased words and a few others; only entries
    token mode can match (no uppercase letter).  None in character mode,
    which applies no stopwords."""
    if mode == CHARACTER_MODE:
        return frozenset()
    words = sorted({raw.strip("'") for text in texts
                    for raw in _WORD_RE.findall(text.lower())} | {"the", "zz"})
    words = [w for w in words if w and w == w.lower()]
    return frozenset(data.draw(st.lists(st.sampled_from(words), max_size=6)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), texts=st.lists(TEXTS, min_size=1, max_size=5),
       stemming=st.booleans(), mode=st.sampled_from([TOKEN_MODE, CHARACTER_MODE]))
def test_memoised_tokenizer_equals_per_token_oracle(data, texts, stemming, mode):
    config = TokenizerConfig(mode=mode, stopwords=draw_stopwords(data, texts, mode),
                             stemming=stemming and mode == TOKEN_MODE)
    # one config reads every text, so later texts meet a warm memo
    for text in texts:
        assert tokenize(text, config) == oracles.tokenize(text, config), text
        assert split_sentences(text, config) == oracles.split_sentences(text)
        if mode == TOKEN_MODE:
            assert (split_phrases(text, config)
                    == oracles.split_phrases(text, config)), text


@settings(max_examples=200, deadline=None)
@given(data=st.data(), texts=st.lists(TEXTS, min_size=1, max_size=4),
       stemming=st.booleans())
def test_configs_that_differ_in_stopwords_share_no_answers(data, texts, stemming):
    stopped = TokenizerConfig(stopwords=draw_stopwords(data, texts),
                              stemming=stemming)
    plain = TokenizerConfig(stemming=stemming)
    for first, second in ((stopped, plain), (plain, stopped)):
        for text in texts:
            tokenize(text, first)
        for text in texts:
            assert tokenize(text, second) == oracles.tokenize(text, second)
            assert split_phrases(text, second) == oracles.split_phrases(text, second)


def test_memo_takes_no_part_in_equality():
    warm = TokenizerConfig(stopwords=frozenset({"the"}))
    tokenize("The cat", warm)
    cold = TokenizerConfig(stopwords=frozenset({"the"}))
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert warm._forms and not cold._forms


ROW_TEXTS = st.lists(st.tuples(TEXTS, TEXTS).filter(lambda tb: any(tb)),
                     min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=ROW_TEXTS, stemming=st.booleans(),
       mode=st.sampled_from([TOKEN_MODE, CHARACTER_MODE]))
def test_saved_documents_equal_an_oracle_tokenized_build(data, rows, stemming, mode):
    texts = [text for row in rows for text in row]
    config = TokenizerConfig(mode=mode, stopwords=draw_stopwords(data, texts, mode),
                             stemming=stemming and mode == TOKEN_MODE)
    """Both builds save the same bytes, or both refuse a collection in
    which no document holds a unit (texts of numbers and punctuation only)."""
    collection = make_collection(
        [(f"d{i}", title, body) for i, (title, body) in enumerate(rows)])

    def saved(out):
        try:
            build_index(collection, config).save(out)
        except EmptyCollectionError as exc:
            return f"refused: {exc}"
        return Path(out, DOCUMENTS_FILE).read_bytes()

    with tempfile.TemporaryDirectory() as tmp:
        fast = saved(Path(tmp, "fast"))
        with mock.patch("probir.index.tokenize", oracles.tokenize):
            oracle = saved(Path(tmp, "oracle"))
    assert fast == oracle


class TestStopwordCase:
    def test_uppercase_entry_is_rejected_in_token_mode(self):
        with pytest.raises(ValueError, match="'The' has an uppercase letter"):
            TokenizerConfig(stopwords=frozenset({"the", "The"}))

    def test_character_mode_refuses_stopword_entries(self):
        with pytest.raises(ValueError, match="character mode applies no stopwords"):
            TokenizerConfig(mode=CHARACTER_MODE, stopwords=frozenset({"The"}))

    def test_stopword_file_names_the_line(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("the\n\nOf\n", encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            load_stopwords(path, TOKEN_MODE)
        assert caught.value.line_no == 3
        assert str(caught.value).startswith(f"{path}:3: stopword 'Of'")
        assert load_stopwords(path, CHARACTER_MODE) == {"the", "Of"}
