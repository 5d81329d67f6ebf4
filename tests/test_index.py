import hashlib
import json
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import probir.index
from probir.corpus import CHARACTER_MODE, TOKEN_MODE, TokenizerConfig
from probir.errors import DocumentNotFoundError, EmptyCollectionError, IndexLoadError
from probir.index import (
    IN_TITLE,
    TermStats,
    build_index,
    count_nonoverlapping,
    load_index,
)

from corpus_builders import make_collection, make_index
import oracles


def naive_char_tf(text, term):
    """Greedy non-overlapping substring count, scanning left to right."""
    count = 0
    i = 0
    while True:
        j = text.find(term, i)
        if j < 0:
            return count
        count += 1
        i = j + len(term)


def naive_token_tf(tokens, words):
    """Greedy non-overlapping adjacent-run count over a token sequence."""
    count = 0
    i = 0
    n = len(words)
    while i + n <= len(tokens):
        if tuple(tokens[i:i + n]) == tuple(words):
            count += 1
            i += n
        else:
            i += 1
    return count


class TestCountNonoverlapping:
    def test_empty(self):
        assert count_nonoverlapping([], 2) == 0

    def test_overlap_collapses(self):
        # starts 1,2,3 with width 2: picks 1 and 3
        assert count_nonoverlapping([1, 2, 3], 2) == 2

    def test_disjoint(self):
        assert count_nonoverlapping([1, 5, 9], 2) == 3


class TestTokenIndex:
    def test_single_term_tf(self, toy_index):
        assert toy_index.doc_tf("d1", "amalgamation") == 2
        assert toy_index.doc_tf("d2", "amalgamation") == 0

    def test_multi_token_adjacency(self):
        index = make_index([("d1", "", "alpha beta alpha beta gamma")])
        assert index.doc_tf("d1", "alpha beta") == 2
        assert index.doc_tf("d1", "beta alpha") == 1
        assert index.doc_tf("d1", "beta gamma") == 1
        assert index.doc_tf("d1", "gamma alpha") == 0

    def test_overlapping_runs_counted_greedily(self):
        index = make_index([("d1", "", "a a a a")])
        assert index.doc_tf("d1", "a a") == 2

    def test_title_tokens_count_toward_tf_and_length(self):
        index = make_index([("d1", "alpha", "beta alpha")])
        assert index.doc_tf("d1", "alpha") == 2
        assert index.doc_len("d1") == 3

    def test_term_stats_df_and_collection_tf(self, toy_index):
        stats = toy_index.term_stats("amalgamation")
        assert stats.df == 2
        assert stats.collection_tf == 3

    def test_avg_len(self):
        index = make_index([("d1", "", "a b c"), ("d2", "", "a")])
        assert index.avg_len == 2.0

    def test_unknown_term(self, toy_index):
        assert toy_index.df("zzzz") == 0
        assert toy_index.term_stats("zzzz").df == 0

    def test_first_position(self):
        index = make_index([("d1", "alpha", "beta gamma alpha")])
        assert index.first_position("d1", "alpha") == IN_TITLE
        assert index.first_position("d1", "beta") == 1
        assert index.first_position("d1", "gamma") == 2
        assert index.first_position("d1", "zzz") is None

    def test_doc_category(self, toy_index):
        assert toy_index.doc_category("d1") == "business"
        assert toy_index.doc_category("d4") == "life"
        assert toy_index.category_counts()["business"] == 2


class TestCharacterIndex:
    def test_unigram_and_bigram_tf(self, char_index):
        # c1: title "abcd", body stream "ababcdcdabcdefef"
        assert char_index.doc_tf("c1", "a") == 4
        assert char_index.doc_tf("c1", "ab") == 4
        assert char_index.doc_tf("c1", "abcd") == 3

    def test_doc_text_round_trip(self, char_index):
        title, body = char_index.doc_text("c1")
        assert " " not in title + body

    def test_doc_text_requires_character_mode(self, toy_index):
        with pytest.raises(ValueError):
            toy_index.doc_text("d1")

    def test_long_substring_tf(self):
        index = make_index([("d1", "", "abcabcab")], mode=CHARACTER_MODE)
        assert index.doc_tf("d1", "abc") == 2
        assert index.doc_tf("d1", "abcabc") == 1
        assert index.doc_tf("d1", "cabx") == 0

    def test_title_and_body_counted_separately_then_summed(self):
        index = make_index([("d1", "ab", "zab")], mode=CHARACTER_MODE)
        # "ab" once in title, once in body; the pair spanning the
        # title/body boundary ("b"+"z") must not produce a phantom match
        assert index.doc_tf("d1", "ab") == 2
        assert index.doc_tf("d1", "bz") == 0

    def test_first_position_is_one_based(self):
        index = make_index([("d1", "xy", "abxy")], mode=CHARACTER_MODE)
        assert index.first_position("d1", "xy") == IN_TITLE
        assert index.first_position("d1", "ab") == 1
        assert index.first_position("d1", "b") == 2


@pytest.mark.parametrize("index_name", ["toy_index", "char_index"])
def test_empty_term_has_no_candidates_and_no_statistics(request, index_name):
    index = request.getfixturevalue(index_name)
    assert index.postings("") == {}
    assert index.term_stats("") == TermStats(0, 0)
    assert all(index.doc_tf(d, "") == 0 for d in index.doc_ids())


# Small unit sets make repeats, overlapping runs and misses frequent; the
# extra unit occurs in no document.
UNITS = {TOKEN_MODE: ["ab", "cd", "ef"], CHARACTER_MODE: ["a", "b", "c"]}
MISSING_UNIT = {TOKEN_MODE: "zz", CHARACTER_MODE: "z"}
SEPARATOR = {TOKEN_MODE: " ", CHARACTER_MODE: ""}


def naive_tf(mode, stream, words):
    if mode == CHARACTER_MODE:
        return naive_char_tf("".join(stream), "".join(words))
    return naive_token_tf(stream, words)


def naive_first_start(stream, words):
    """1-based start of the first run of ``words`` in ``stream``, or None."""
    for i in range(len(stream)):
        if stream[i:i + len(words)] == words:
            return i + 1
    return None


@st.composite
def corpora(draw, mode):
    """(rows, fields, terms): index rows, each document's analysed title and
    body as unit lists, and query terms as unit lists."""
    units = st.sampled_from(UNITS[mode])
    sep = SEPARATOR[mode]
    rows, fields = [], {}
    for i in range(draw(st.integers(1, 5))):
        title = draw(st.lists(units, max_size=5))
        body = draw(st.lists(units, min_size=1, max_size=25))
        category = draw(st.sampled_from([None, "x", "y"]))
        rows.append((f"d{i}", sep.join(title), sep.join(body), category))
        fields[f"d{i}"] = (title, body)
    terms = draw(st.lists(
        st.lists(st.sampled_from(UNITS[mode] + [MISSING_UNIT[mode]]),
                 min_size=1, max_size=4),
        min_size=1, max_size=8))
    return rows, fields, terms


def check_against_oracles(index, mode, rows, fields, terms):
    assert index.doc_ids() == tuple(fields)
    for doc_id, title, body, category in rows:
        assert index.doc_category(doc_id) == category
    for doc_id, (title, body) in fields.items():
        assert index.doc_len(doc_id) == len(title) + len(body)
        # first-occurrence order, title then body: feedback sums follow it
        bag = {}
        for unit in title + body:
            bag[unit] = bag.get(unit, 0) + 1
        assert list(index.doc_terms(doc_id).items()) == list(bag.items())
    for words in terms:
        term = SEPARATOR[mode].join(words)
        holding = {}
        for doc_id, (title, body) in fields.items():
            tf = naive_tf(mode, title, words) + naive_tf(mode, body, words)
            assert index.doc_tf(doc_id, term) == tf, (doc_id, term)
            first = (IN_TITLE if naive_tf(mode, title, words)
                     else naive_first_start(body, words))
            assert index.first_position(doc_id, term) == first, (doc_id, term)
            if tf:
                holding[doc_id] = tf
        assert index.term_stats(term) == TermStats(len(holding), sum(holding.values()))
        assert dict(index.postings(term)) == holding


@pytest.mark.parametrize("mode", [TOKEN_MODE, CHARACTER_MODE])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_matches_naive_oracles(mode, data):
    """Every lookup equals a plain scan of the analysed streams, in both
    modes, on the built index and on the same index saved and reloaded."""
    rows, fields, terms = data.draw(corpora(mode))
    index = make_index(rows, mode=mode)
    check_against_oracles(index, mode, rows, fields, terms)
    with tempfile.TemporaryDirectory() as tmp:
        index.save(tmp)
        loaded = load_index(tmp, expected_mode=mode)
    assert loaded.avg_len == index.avg_len
    assert loaded.category_counts() == index.category_counts()
    check_against_oracles(loaded, mode, rows, fields, terms)


def saved_and_loaded(index):
    with tempfile.TemporaryDirectory() as tmp:
        index.save(tmp)
        return load_index(tmp, expected_mode=index.mode)


@pytest.mark.parametrize("mode", [TOKEN_MODE, CHARACTER_MODE])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_count_tables_equal_a_plain_count_of_the_streams(mode, data):
    """postings (in order), doc_tf, doc_terms (in order) and term_stats of
    every unit equal a plain count of the analysed streams, on the built
    index, whichever lookup comes first, and on the same index saved and
    reloaded."""
    rows, fields, _ = data.draw(corpora(mode))
    postings, bags = oracles.stream_counts(fields)
    units = list(postings) + [MISSING_UNIT[mode]]

    def check_postings(index):
        for unit in units:
            want = postings.get(unit, {})
            assert list(index.postings(unit).items()) == list(want.items())

    def check_doc_tf(index):
        for doc_id in fields:
            for unit in units:
                assert index.doc_tf(doc_id, unit) == bags[doc_id].get(unit, 0)

    def check_doc_terms(index):
        for doc_id, bag in bags.items():
            assert list(index.doc_terms(doc_id).items()) == list(bag.items())

    def check_term_stats(index):
        for unit in units:
            tfs = postings.get(unit, {}).values()
            assert index.term_stats(unit) == TermStats(len(tfs), sum(tfs))

    checks = [check_postings, check_doc_tf, check_doc_terms, check_term_stats]
    first = data.draw(st.sampled_from(checks), label="first lookup")
    built = make_index(rows, mode=mode)
    for index in (built, saved_and_loaded(built)):
        first(index)
        for check in checks:
            check(index)


@pytest.mark.parametrize("index_name,unseen,longer", [
    ("toy_index", "zzzz", "enterprise amalgamation"),
    ("char_index", "q", "ab"),
], ids=["toy_index", "char_index"])
def test_unknown_doc_id_raises(request, monkeypatch, index_name, unseen, longer):
    index = request.getfixturevalue(index_name)
    for lookup in (index.doc_len, index.doc_category, index.doc_terms):
        with pytest.raises(DocumentNotFoundError):
            lookup("nope")
    for lookup in (index.doc_tf, index.first_position):
        with pytest.raises(DocumentNotFoundError):
            lookup("nope", "a")
    # doc_tf checks the id where its read misses: a unit no document
    # holds, and a longer term, which is refused before it is counted
    scans = []

    def scan(haystack, needle):  # a term counted through it is stored empty
        scans.append(needle)
        return iter(())

    monkeypatch.setattr(probir.index, "_sequence_starts", scan)
    for term in (unseen, longer):
        with pytest.raises(DocumentNotFoundError):
            index.doc_tf("nope", term)
    assert scans == []
    monkeypatch.undo()
    assert index.postings(longer)


class TestBuildIndex:
    def test_empty_collection_raises(self):
        with pytest.raises(EmptyCollectionError):
            build_index(make_collection([]), TokenizerConfig())

    def test_length_zero_doc_allowed(self):
        # a title of pure punctuation tokenizes to nothing
        index = make_index([("d1", "...", "alpha")])
        assert index.doc_len("d1") == 1


class TestSaveLoad:
    def test_round_trip_preserves_query_answers(self, tmp_path, toy_index):
        toy_index.save(tmp_path)
        loaded = load_index(tmp_path)
        assert loaded.mode == toy_index.mode
        assert loaded.doc_ids() == toy_index.doc_ids()
        assert loaded.avg_len == toy_index.avg_len
        for term in ("amalgamation", "weather", "board", "zzzz"):
            assert loaded.df(term) == toy_index.df(term)
            assert loaded.term_stats(term) == toy_index.term_stats(term)
            for doc_id in toy_index.doc_ids():
                assert loaded.doc_tf(doc_id, term) == toy_index.doc_tf(doc_id, term)
                assert (loaded.first_position(doc_id, term)
                        == toy_index.first_position(doc_id, term))

    def test_round_trip_character_mode(self, tmp_path, char_index):
        char_index.save(tmp_path)
        loaded = load_index(tmp_path, expected_mode=CHARACTER_MODE)
        for doc_id in char_index.doc_ids():
            assert loaded.doc_text(doc_id) == char_index.doc_text(doc_id)
            assert loaded.doc_tf(doc_id, "ab") == char_index.doc_tf(doc_id, "ab")

    def test_mode_mismatch(self, tmp_path, toy_index):
        toy_index.save(tmp_path)
        with pytest.raises(IndexLoadError):
            load_index(tmp_path, expected_mode=CHARACTER_MODE)

    def test_missing_file(self, tmp_path, toy_index):
        toy_index.save(tmp_path)
        (tmp_path / "documents.json").unlink()
        with pytest.raises(IndexLoadError):
            load_index(tmp_path)

    def test_checksum_mismatch(self, tmp_path, toy_index):
        toy_index.save(tmp_path)
        path = tmp_path / "documents.json"
        payload = json.loads(path.read_text())
        payload["docs"][0]["title"] = ["tampered"]
        path.write_text(json.dumps(payload))
        with pytest.raises(IndexLoadError, match="checksum mismatch"):
            load_index(tmp_path)

    def test_missing_checksum_is_refused(self, tmp_path, toy_index):
        toy_index.save(tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["checksums"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IndexLoadError, match="no checksum"):
            load_index(tmp_path)

    def test_version_1_is_refused_with_a_hint(self, tmp_path, toy_index):
        toy_index.save(tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 1
        meta_path.write_text(json.dumps(meta))
        (tmp_path / "postings.json").write_text('{"terms": {}}')
        with pytest.raises(IndexLoadError, match="re-run `probir index`"):
            load_index(tmp_path)

    @pytest.mark.parametrize("index_name,field,value,message", [
        # tuple() would split a string into characters without complaint
        ("toy_index", "title", "enterprise amalgamation", "must be lists"),
        ("toy_index", "body", [1, 2], "not a string"),
        ("toy_index", "body", [["nested"]], "malformed"),
        ("char_index", "body", ["a", "b"], "must be strings"),
        ("toy_index", "category", ["x"], "category is not a string"),
        ("char_index", "category", 7, "category is not a string"),
        ("toy_index", "doc_id", "d2", "repeated doc_id"),
        ("toy_index", "doc_id", None, "bad or repeated doc_id"),
        ("toy_index", "doc_id", "d 9", "bad or repeated doc_id"),
        # a unit that is empty or holds whitespace could equal a longer term
        ("toy_index", "body", ["beta", ""], "'d1': unit '' is empty or holds"),
        ("toy_index", "title", ["beta gamma"], "unit 'beta gamma' is empty or holds"),
        ("toy_index", "body", ["a\tb"], "empty or holds whitespace"),
        ("char_index", "body", "ab cd", "unit ' ' is empty or holds whitespace"),
    ])
    def test_field_of_the_wrong_type_is_refused(self, request, tmp_path, index_name,
                                                field, value, message):
        request.getfixturevalue(index_name).save(tmp_path)
        payload = json.loads((tmp_path / "documents.json").read_text())
        payload["docs"][0][field] = value
        rewrite_documents(tmp_path, json.dumps(payload))
        with pytest.raises(IndexLoadError, match=message):
            load_index(tmp_path)

    @pytest.mark.parametrize("payload", [
        [], {"docs": {"d1": {}}}, {"docs": [{"doc_id": "d1"}]}, {"docs": []},
    ])
    def test_malformed_documents_are_refused(self, tmp_path, toy_index, payload):
        toy_index.save(tmp_path)
        rewrite_documents(tmp_path, json.dumps(payload))
        with pytest.raises(IndexLoadError):
            load_index(tmp_path)

    def test_version_mismatch(self, tmp_path, toy_index):
        toy_index.save(tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IndexLoadError):
            load_index(tmp_path)

    def test_malformed_payload(self, tmp_path, toy_index):
        toy_index.save(tmp_path)
        rewrite_documents(tmp_path, "{not json")
        with pytest.raises(IndexLoadError, match="unreadable JSON"):
            load_index(tmp_path)


def rewrite_documents(path, text):
    """Replace documents.json and record its checksum, so that only the
    content of the payload is wrong."""
    data = text.encode("utf-8")
    (path / "documents.json").write_bytes(data)
    meta_path = path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["checksums"]["documents.json"] = hashlib.sha256(data).hexdigest()
    meta_path.write_text(json.dumps(meta))
