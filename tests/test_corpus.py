import json

import pytest

from probir.corpus import (
    CHARACTER_MODE,
    Document,
    QueryType,
    Topic,
    TokenizerConfig,
    default_stem,
    load_documents,
    load_stopwords,
    load_topics,
    selected_parts,
    split_sentences,
    tokenize,
)
from probir.errors import DuplicateDocIdError, ParseError


class TestTokenize:
    def test_lowercases_and_drops_punctuation(self):
        config = TokenizerConfig()
        assert tokenize("Hello, World!", config) == ["hello", "world"]

    def test_drops_stopwords_and_numberlike_tokens(self):
        config = TokenizerConfig(stopwords=frozenset({"the"}))
        assert tokenize("the year 2000 report", config) == ["year", "report"]

    def test_stopwords_matched_before_stemming(self):
        # "materials" must not be stopped by a "material" stopword entry
        config = TokenizerConfig(stopwords=frozenset({"material"}), stemming=True)
        assert tokenize("material materials", config) == ["material"]

    def test_stemming_applies_lookup_table(self):
        config = TokenizerConfig(stemming=True, stemmer={"running": "run"})
        assert tokenize("running walked", config) == ["run", "walked"]

    def test_character_mode_strips_space_and_punctuation(self):
        config = TokenizerConfig(mode=CHARACTER_MODE)
        assert tokenize("ab, cd.", config) == ["a", "b", "c", "d"]

    def test_empty_text(self):
        assert tokenize("", TokenizerConfig()) == []

    def test_apostrophes_trimmed_but_kept_inside(self):
        config = TokenizerConfig()
        assert tokenize("'tis o'clock", config) == ["tis", "o'clock"]


class TestDefaultStem:
    @pytest.mark.parametrize("token,expected", [
        ("classes", "class"),
        ("stories", "story"),
        ("walking", "walk"),
        ("jumped", "jump"),
        ("cats", "cat"),
        ("glass", "glass"),
        ("bus", "bus"),
        ("is", "is"),
        ("ring", "ring"),   # too short for the -ing rule
    ])
    def test_cases(self, token, expected):
        assert default_stem(token) == expected


class TestSplitSentences:
    def test_punctuation_and_whitespace_are_boundaries(self):
        assert split_sentences("ab. cd,ef") == ["ab", "cd", "ef"]

    def test_no_boundaries(self):
        assert split_sentences("abcd") == ["abcd"]

    def test_empty(self):
        assert split_sentences("") == []


class TestDocumentValidation:
    def test_requires_doc_id(self):
        with pytest.raises(ValueError):
            Document("", "t", "b")

    def test_requires_some_text(self):
        with pytest.raises(ValueError):
            Document("d1", "", "")

    def test_title_only_is_fine(self):
        Document("d1", "t", "")


class TestLoaders:
    def test_documents_round_trip(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        rows = [
            {"doc_id": "a", "title": "T", "body": "B", "category": "x"},
            {"doc_id": "b", "title": "U", "body": "C"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        collection = load_documents(path)
        assert len(collection) == 2
        assert collection["a"].category == "x"
        assert collection["b"].category is None

    def test_duplicate_doc_id_names_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        row = json.dumps({"doc_id": "a", "title": "T", "body": "B"})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(DuplicateDocIdError) as err:
            load_documents(path)
        assert ":2:" in str(err.value)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"doc_id": "a", "title": "T", "body": "B"}\nnot json\n')
        with pytest.raises(ParseError) as err:
            load_documents(path)
        assert ":2:" in str(err.value)

    def test_topics_and_stopwords(self, tmp_path):
        tpath = tmp_path / "topics.jsonl"
        tpath.write_text(json.dumps({"query_id": "q1", "title": "T",
                                     "description": "D"}) + "\n")
        topics = load_topics(tpath)
        assert topics[0].query_id == "q1"
        spath = tmp_path / "stop.txt"
        spath.write_text("the\nand\n\n")
        assert load_stopwords(spath) == frozenset({"the", "and"})


class TestBuildQuery:
    topic = Topic("q1", "Alpha beta", "Gamma delta epsilon", "Zeta", "Eta")

    def test_very_short_uses_title(self):
        assert selected_parts(self.topic, QueryType.VERY_SHORT) == ["Alpha beta"]

    def test_short_uses_description(self):
        parts = selected_parts(self.topic, QueryType.SHORT)
        assert parts == ["Gamma delta epsilon"]

    def test_long_concatenates_all_parts(self):
        parts = selected_parts(self.topic, QueryType.LONG)
        assert parts == ["Alpha beta", "Gamma delta epsilon", "Zeta", "Eta"]
