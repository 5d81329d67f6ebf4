import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from probir.clir import (
    build_dictionary,
    document_expansion,
    load_dictionary,
    translate,
)
from probir.errors import ParseError
from probir.scoring import bm11_query_weight, idf, rank, score_bm11

from corpus_builders import make_index
from oracles import pair_dictionary


class TestBuildDictionary:
    def test_most_frequent_target_wins(self):
        pairs = [
            (["hund"], ["dog"]),
            (["hund"], ["dog"]),
            (["hund"], ["dog"]),
            (["hund"], ["hound"]),
        ]
        dictionary = build_dictionary(pairs)
        assert dictionary.head(["hund"]) == "dog"
        assert dictionary.targets(["hund"]) == [("dog", 3), ("hound", 1)]

    def test_tie_breaks_lexicographically(self):
        pairs = [
            (["katze"], ["cat"]),
            (["katze"], ["kitty"]),
            (["katze"], ["kitty"]),
            (["katze"], ["cat"]),
        ]
        assert build_dictionary(pairs).head(["katze"]) == "cat"

    def test_cross_product_counting(self):
        pairs = [(["a", "b"], ["x", "y"])]
        dictionary = build_dictionary(pairs)
        assert dictionary.targets(["a"]) == [("x", 1), ("y", 1)]
        assert dictionary.targets(["b"]) == [("x", 1), ("y", 1)]

    def test_single_pair(self):
        dictionary = build_dictionary([(["rot"], ["red"])])
        assert len(dictionary) == 1
        assert dictionary.head(["rot"]) == "red"

    def test_permutation_invariance(self):
        rng = random.Random(48)
        pairs = [
            ([rng.choice(["a", "b", "c d"])], [rng.choice(["X", "Y", "Z"])])
            for _ in range(30)
        ]
        base = build_dictionary(pairs)
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        other = build_dictionary(shuffled)
        assert list(base.entries()) == list(other.entries())

    def test_empty_stream(self):
        dictionary = build_dictionary([])
        assert len(dictionary) == 0
        assert dictionary.head(["anything"]) is None

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_counts_equal_one_add_pair_per_pair(self, seed, tmp_path_factory):
        # empty and blank keywords, repeats and multi-word sources; a blank
        # source or an empty target adds nothing
        rng = random.Random(seed)
        keywords = ["a", "b", "c d", "a b c", "", " ", "X", "Y Z"]
        pairs = [(rng.choices(keywords, k=rng.randint(0, 3)),
                    rng.choices(keywords, k=rng.randint(0, 3)))
                   for _ in range(rng.randint(0, 12))]
        want = pair_dictionary((source, target) for sources, targets in pairs
                               for source in sources for target in targets)
        got = build_dictionary(pairs)
        assert list(got.entries()) == list(want.entries())
        assert (len(got), got.max_source_len) == (len(want), want.max_source_len)
        # a repeated line adds its count; a blank source or an empty target
        # adds nothing
        path = tmp_path_factory.mktemp("dict") / "dict.tsv"
        lines = [f"{src}\t{tgt}\t{count}\n" for src, tgt, count in want.entries()]
        lines += lines[:2] + [" \tX\t4\n", "a\t\t3\n"]
        rng.shuffle(lines)
        path.write_text("".join(lines), encoding="utf-8")
        want = pair_dictionary((src, tgt, int(count)) for src, tgt, count in
                               (line.rstrip("\n").split("\t") for line in lines))
        loaded = load_dictionary(path)
        assert list(loaded.entries()) == list(want.entries())
        assert (len(loaded), loaded.max_source_len) == (len(want), want.max_source_len)


class TestTranslate:
    def build(self):
        return pair_dictionary([("a", "A"), ("a b c", "D E"), ("a b", "F"),
                                ("b c", "G"), ("c", "C")])

    def test_longest_match_beats_word_by_word(self):
        assert translate(["a", "b", "c"], self.build()) == ["D", "E"]

    def test_unknown_tokens_dropped(self):
        assert translate(["a", "x"], self.build()) == ["A"]
        assert translate(["x", "y"], self.build()) == []

    def test_passthrough_keeps_unknown_tokens(self):
        assert translate(["a", "x"], self.build(), passthrough=True) == ["A", "x"]

    def test_leftmost_longest_on_overlap(self):
        dictionary = pair_dictionary([("a b", "AB"), ("b c", "BC"), ("c", "C")])
        assert translate(["a", "b", "c"], dictionary) == ["AB", "C"]

    def test_each_token_consumed_once(self):
        rng = random.Random(12)
        dictionary = self.build()
        for _ in range(20):
            tokens = [rng.choice(["a", "b", "c", "x"]) for _ in range(rng.randint(0, 9))]
            out = translate(tokens, dictionary, passthrough=True)
            # pass-through emission maps each source token to >= 0 targets;
            # the scan never stalls or revisits
            assert len(out) <= 2 * len(tokens)

    def test_empty_input(self):
        assert translate([], self.build()) == []

    def test_a_kept_head_is_the_first_target(self):
        dictionary = pair_dictionary([("a", "A"), ("a", "B", 2), ("b c", "C")])
        for _ in range(2):  # the second ask reads the kept head
            assert dictionary.head(["a"]) == "B"
            assert dictionary.head(("b", "c")) == "C"
            assert dictionary.head(["b"]) is None
        assert translate(["a", "b", "c", "b"], dictionary) == ["B", "C"]


class TestDictionaryIO:
    def test_round_trip(self, tmp_path):
        dictionary = self.sample()
        path = tmp_path / "dict.tsv"
        dictionary.save(path)
        loaded = load_dictionary(path)
        assert list(loaded.entries()) == list(dictionary.entries())

    def sample(self):
        return pair_dictionary([("hund", "dog", 3), ("hund", "hound", 1),
                                ("rote katze", "red cat", 2)])

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("hund\tdog\t3\nbroken line\n")
        with pytest.raises(ParseError) as err:
            load_dictionary(path)
        assert ":2:" in str(err.value)

    def test_bad_count(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("hund\tdog\tmany\n")
        with pytest.raises(ParseError):
            load_dictionary(path)
        path.write_text("hund\tdog\t0\n")
        with pytest.raises(ParseError):
            load_dictionary(path)


class TestDocumentExpansion:
    def source_corpus(self):
        # "suche" co-occurs with its synonym "fahndung" in the source docs
        rows = [
            ("s1", "suche", "suche fahndung bericht"),
            ("s2", "suche", "suche fahndung archiv"),
            ("s3", "thema", "anderes thema hier"),
            ("s4", "thema", "anderes thema hier"),
            ("s5", "thema", "anderes thema hier"),
        ]
        return make_index(rows)

    def test_zero_docs_is_identity(self):
        index = self.source_corpus()
        bag = {"suche": 2}
        assert document_expansion(bag, index, n_docs=0) == bag

    def test_infinite_threshold_is_identity(self):
        index = self.source_corpus()
        bag = {"suche": 2}
        assert document_expansion(bag, index, theta=math.inf) == bag

    def test_unknown_query_is_identity(self):
        index = self.source_corpus()
        bag = {"zzz": 1}
        assert document_expansion(bag, index) == bag

    def test_counts_preserved_and_new_words_appended(self):
        index = self.source_corpus()
        got = document_expansion({"suche": 2}, index, n_docs=2, theta=1.0)
        assert got["suche"] == 2
        assert got.get("fahndung") == 1

    def test_expand_all_takes_every_top_word(self):
        index = self.source_corpus()
        got = document_expansion({"suche": 1}, index, n_docs=2, expand_all=True)
        assert {"fahndung", "bericht", "archiv"} <= set(got)

    def test_synonym_enables_dictionary_hit(self):
        source = self.source_corpus()
        dictionary = pair_dictionary([("fahndung", "manhunt")])
        raw = translate(["suche"], dictionary)
        assert raw == []
        expanded = document_expansion({"suche": 1}, source, n_docs=2, theta=1.0)
        got = translate(sorted(expanded), dictionary)
        assert "manhunt" in got


class TestIdentityDictionary:
    def test_translation_then_search_matches_monolingual(self):
        index = make_index([
            ("a", "gold", "gold vault codes"),
            ("b", "maps", "gold maps here"),
            ("c", "dull", "dull filler text"),
        ])
        tokens = ["gold", "maps"]
        dictionary = pair_dictionary((token, token)
                                     for token in set(tokens) | {"vault", "dull"})
        translated = translate(tokens, dictionary)
        assert translated == tokens
        weights = {
            w: bm11_query_weight(1, idf(index.df(w), index.n_docs), 1000.0)
            for w in tokens
        }
        direct = rank(index, lambda d: score_bm11(index, d, weights), 3, "q")
        via_translation = rank(
            index,
            lambda d: score_bm11(index, d, {
                w: bm11_query_weight(1, idf(index.df(w), index.n_docs), 1000.0)
                for w in translated
            }),
            3, "q")
        assert via_translation.items == direct.items
