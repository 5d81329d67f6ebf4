import json
import random

import pytest

from probir.corpus import CHARACTER_MODE, TokenizerConfig, tokenize
from probir.errors import EmptyCollectionError, IndexLoadError
from probir.index import (
    IN_TITLE,
    TermStats,
    build_index,
    count_nonoverlapping,
    load_index,
)

from corpus_builders import make_collection, make_index, random_token_rows, random_vocab


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

    def test_random_corpus_matches_naive_scan(self):
        rng = random.Random(1207)
        vocab = random_vocab(rng, 12)
        config = TokenizerConfig()
        for _ in range(15):
            rows = random_token_rows(rng, rng.randint(1, 8), vocab, max_len=20)
            index = make_index(rows)
            fields = {
                doc_id: (tokenize(title, config), tokenize(body, config))
                for doc_id, title, body in rows
            }
            for term in rng.sample(vocab, 6):
                expected_df = sum(
                    1 for t, b in fields.values() if term in t or term in b
                )
                assert index.df(term) == expected_df
                for doc_id, (t, b) in fields.items():
                    assert index.doc_tf(doc_id, term) == t.count(term) + b.count(term)
            # phrases run against the greedy oracle, per field: a phrase
            # never spans the title/body boundary
            for _ in range(6):
                words = [rng.choice(vocab) for _ in range(rng.randint(2, 3))]
                phrase = " ".join(words)
                for doc_id, (t, b) in fields.items():
                    expected = naive_token_tf(t, words) + naive_token_tf(b, words)
                    assert index.doc_tf(doc_id, phrase) == expected


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

    def test_random_strings_match_naive_count(self):
        rng = random.Random(4102)
        alphabet = "abcde"
        for _ in range(25):
            title = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            body = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            index = make_index([("d1", title, body)], mode=CHARACTER_MODE)
            for _ in range(12):
                term = "".join(rng.choice(alphabet)
                               for _ in range(rng.randint(1, 4)))
                expected = naive_char_tf(title, term) + naive_char_tf(body, term)
                assert index.doc_tf("d1", term) == expected, (title, body, term)

    def test_first_position_is_one_based(self):
        index = make_index([("d1", "xy", "abxy")], mode=CHARACTER_MODE)
        assert index.first_position("d1", "xy") == IN_TITLE
        assert index.first_position("d1", "ab") == 1
        assert index.first_position("d1", "b") == 2


@pytest.mark.parametrize("index_name", ["toy_index", "char_index"])
def test_empty_term_has_no_candidates_and_no_statistics(request, index_name):
    index = request.getfixturevalue(index_name)
    assert index.candidate_docs("") == set()
    assert index.term_stats("") == TermStats(0, 0)


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
        (tmp_path / "postings.json").unlink()
        with pytest.raises(IndexLoadError):
            load_index(tmp_path)

    def test_checksum_mismatch(self, tmp_path, toy_index):
        toy_index.save(tmp_path)
        path = tmp_path / "documents.json"
        payload = json.loads(path.read_text())
        payload["docs"][0]["title_tokens"] = ["tampered"]
        path.write_text(json.dumps(payload))
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
        path = tmp_path / "postings.json"
        path.write_text("{not json")
        with pytest.raises(IndexLoadError):
            load_index(tmp_path)
