import json

import pytest

from probir.corpus import (
    CHARACTER_MODE,
    TOKEN_MODE,
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
    config = TokenizerConfig(mode=CHARACTER_MODE)

    def test_punctuation_and_whitespace_are_boundaries(self):
        assert split_sentences("ab. cd,ef", self.config) == ["ab", "cd", "ef"]

    def test_no_boundaries(self):
        assert split_sentences("abcd", self.config) == ["abcd"]

    def test_empty(self):
        assert split_sentences("", self.config) == []


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
        assert load_documents(path) == [Document("a", "T", "B", "x"),
                                        Document("b", "U", "C")]

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

    # a run or qrels line is split at whitespace, so an id holding some
    # would shift the fields of every line it is written to
    @pytest.mark.parametrize("bad_id", ["d 1", "d\t1", " d1", "d1\u3000"])
    def test_whitespace_in_doc_id_names_line(self, tmp_path, bad_id):
        path = tmp_path / "docs.jsonl"
        rows = [{"doc_id": "a", "title": "T", "body": "B"},
                {"doc_id": bad_id, "title": "T", "body": "B"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ParseError, match=":2: doc_id .* contains whitespace"):
            load_documents(path)

    @pytest.mark.parametrize("bad_id", ["q 1", "q1\n"])
    def test_whitespace_in_query_id_names_line(self, tmp_path, bad_id):
        path = tmp_path / "topics.jsonl"
        path.write_text(json.dumps({"query_id": bad_id, "title": "T"}) + "\n")
        with pytest.raises(ParseError, match=":1: query_id .* contains whitespace"):
            load_topics(path)

    # a run line that begins with '#' is a comment to parse_run_file, so the
    # topic's lines would be dropped from evaluation without a word
    @pytest.mark.parametrize("bad_id", ["#7", "#"])
    def test_query_id_beginning_with_hash_names_line(self, tmp_path, bad_id):
        path = tmp_path / "topics.jsonl"
        path.write_text(json.dumps({"query_id": "q1", "title": "T"}) + "\n"
                        + json.dumps({"query_id": bad_id, "title": "T"}) + "\n")
        with pytest.raises(ParseError, match=f":2: query_id '{bad_id}' begins with '#'"):
            load_topics(path)
        with pytest.raises(ValueError, match="begins with '#'"):
            Topic(bad_id, "T")
        assert Topic("q#7", "T").query_id == "q#7"

    # a text field that is not a string would be read as its repr
    @pytest.mark.parametrize("value", [["x"], {"x": 1}, 3, 0, True, False, 1.5])
    @pytest.mark.parametrize("key", ["title", "body", "category"])
    def test_non_string_document_text_names_line(self, tmp_path, key, value):
        path = tmp_path / "docs.jsonl"
        rows = [{"doc_id": "a", "title": "T", "body": "B"},
                {"doc_id": "b", "title": "T", "body": "B", key: value}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ParseError, match=f":2: {key} must be a string or null"):
            load_documents(path)

    @pytest.mark.parametrize("value", [["x"], {"x": 1}, 3, 0, True, 1.5])
    @pytest.mark.parametrize("key", ["title", "description", "narrative",
                                     "concepts", "field"])
    def test_non_string_topic_text_names_line(self, tmp_path, key, value):
        path = tmp_path / "topics.jsonl"
        path.write_text(json.dumps({"query_id": "q1", "title": "T", key: value})
                        + "\n")
        with pytest.raises(ParseError, match=f":1: {key} must be a string or null"):
            load_topics(path)

    def test_absent_or_null_text_is_empty(self, tmp_path):
        dpath = tmp_path / "docs.jsonl"
        dpath.write_text(json.dumps({"doc_id": "a", "title": None, "body": "B",
                                     "category": None}) + "\n"
                         + json.dumps({"doc_id": "b", "title": "T"}) + "\n")
        assert load_documents(dpath) == [Document("a", "", "B"),
                                         Document("b", "T", "")]
        tpath = tmp_path / "topics.jsonl"
        tpath.write_text(json.dumps({"query_id": "q1", "title": "T",
                                     "description": None}) + "\n")
        assert load_topics(tpath) == [Topic("q1", "T")]

    def test_integer_ids_are_read_as_their_digits(self, tmp_path):
        dpath = tmp_path / "docs.jsonl"
        dpath.write_text(json.dumps({"doc_id": 7, "title": "T"}) + "\n")
        assert load_documents(dpath)[0].doc_id == "7"
        tpath = tmp_path / "topics.jsonl"
        tpath.write_text(json.dumps({"query_id": 12, "title": "T"}) + "\n")
        assert load_topics(tpath)[0].query_id == "12"

    @pytest.mark.parametrize("bad_id", [["a"], {"a": 1}, True, False, 1.5, None])
    def test_id_that_is_not_a_string_or_integer_names_line(self, tmp_path,
                                                           bad_id):
        dpath = tmp_path / "docs.jsonl"
        rows = [{"doc_id": "a", "title": "T"}, {"doc_id": bad_id, "title": "T"}]
        dpath.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ParseError,
                           match=":2: doc_id must be a string or an integer"):
            load_documents(dpath)
        tpath = tmp_path / "topics.jsonl"
        tpath.write_text(json.dumps({"query_id": bad_id, "title": "T"}) + "\n")
        with pytest.raises(ParseError,
                           match=":1: query_id must be a string or an integer"):
            load_topics(tpath)

    def test_missing_id_names_line(self, tmp_path):
        path = tmp_path / "topics.jsonl"
        path.write_text(json.dumps({"title": "T"}) + "\n")
        with pytest.raises(ParseError, match=":1: missing field 'query_id'"):
            load_topics(path)

    def test_topics_and_stopwords(self, tmp_path):
        tpath = tmp_path / "topics.jsonl"
        tpath.write_text(json.dumps({"query_id": "q1", "title": "T",
                                     "description": "D"}) + "\n")
        topics = load_topics(tpath)
        assert topics[0].query_id == "q1"
        spath = tmp_path / "stop.txt"
        spath.write_text("the\nand\n\n")
        assert load_stopwords(spath, TOKEN_MODE) == frozenset({"the", "and"})

    def test_stopwords_keep_inner_apostrophes_and_character_entries(self, tmp_path):
        # only a leading or trailing apostrophe is stripped from a word
        spath = tmp_path / "stop.txt"
        spath.write_text("don't\n")
        assert load_stopwords(spath, TOKEN_MODE) == frozenset({"don't"})
        assert tokenize("Don't go", TokenizerConfig(
            stopwords=load_stopwords(spath, TOKEN_MODE))) == ["go"]
        # character mode applies no stopwords, so a config refuses them
        spath.write_text("a b\n'x\n")
        with pytest.raises(ValueError, match="character mode applies no stopwords"):
            TokenizerConfig(mode=CHARACTER_MODE,
                            stopwords=load_stopwords(spath, CHARACTER_MODE))
        with pytest.raises(ValueError, match="character mode applies no stopwords"):
            TokenizerConfig(mode=CHARACTER_MODE, stemming=True)


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
