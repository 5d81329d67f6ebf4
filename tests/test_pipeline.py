import math
import random
from collections import Counter

import pytest

from probir.clir import KeywordPairRecord, build_dictionary
from probir.corpus import QueryType, Topic, TokenizerConfig
from probir.errors import EmptyQueryError
from probir.feedback_b import AUTO, FeedbackBParams
from probir.pipeline import (
    CompiledTopicA,
    clir_topic,
    compile_bag,
    compile_phrases,
    format_run,
    run_tag,
    search_system_a,
    search_system_b,
    search_topic_b,
    sweep_b,
)
from probir.scoring import Ranking, ScoringParamsA, bm11_weights, rank, score_bm11
from probir.term_extraction import ALL_PATTERNS, LATTICE, SHORTEST, ExtractionConfig

from conftest import make_index, random_token_rows, random_vocab

TOK = TokenizerConfig()


def topic(query_id, title, description=""):
    return Topic(query_id=query_id, title=title, description=description)


class TestCompileBag:
    def test_token_mode_uses_selected_parts(self):
        t = topic("q1", "alpha beta", "gamma alpha")
        sequence, bag = compile_bag(t, QueryType.VERY_SHORT, TOK)
        assert sequence == ["alpha", "beta"]
        assert bag == Counter({"alpha": 1, "beta": 1})
        sequence, bag = compile_bag(t, QueryType.SHORT, TOK)
        assert sequence == ["gamma", "alpha"]

    def test_long_concatenates_parts(self):
        t = topic("q1", "alpha", "beta")
        sequence, _ = compile_bag(t, QueryType.LONG, TOK)
        assert sequence == ["alpha", "beta"]

    def test_character_mode_needs_statistics(self):
        from probir.corpus import CHARACTER_MODE

        config = TokenizerConfig(mode=CHARACTER_MODE)
        with pytest.raises(ValueError):
            compile_phrases(topic("q1", "abcd"), QueryType.VERY_SHORT, config)


class TestSearchSystemB:
    def setup_method(self):
        self.index = make_index([
            ("d1", "alpha beta", "alpha gamma gamma"),
            ("d2", "gamma delta", "delta delta beta"),
            ("d3", "epsilon", "epsilon epsilon alpha"),
        ])

    def test_matches_direct_topic_search(self):
        topics = [topic("q1", "alpha gamma"), topic("q2", "delta")]
        rankings, warnings = search_system_b(self.index, topics,
                                             QueryType.VERY_SHORT, TOK)
        assert warnings == []
        assert [r.query_id for r in rankings] == ["q1", "q2"]
        direct = search_topic_b(self.index, "q1", Counter(["alpha", "gamma"]))
        assert rankings[0].items == direct.items

    def test_unknown_only_query_warns_and_skips(self):
        topics = [topic("q1", "alpha"), topic("q2", "zzz qqq")]
        rankings, warnings = search_system_b(self.index, topics,
                                             QueryType.VERY_SHORT, TOK)
        assert [r.query_id for r in rankings] == ["q1"]
        assert warnings == ["query q2: no usable terms; skipped"]

    def test_identity_feedback_leaves_ranking_alone(self):
        params = FeedbackBParams(theta=float("inf"), alpha=1.0, r=2)
        topics = [topic("q1", "alpha gamma")]
        plain, _ = search_system_b(self.index, topics, QueryType.VERY_SHORT, TOK)
        fed, _ = search_system_b(self.index, topics, QueryType.VERY_SHORT, TOK,
                                 feedback=params)
        assert fed[0].items == plain[0].items

    def test_scores_equal_manual_bm11(self):
        bag = Counter(["alpha", "gamma", "zzz"])
        weights = bm11_weights(self.index, bag)
        assert set(weights) == {"alpha", "gamma"}
        expected = rank(self.index,
                        lambda d: score_bm11(self.index, d, weights),
                        1000, "q1")
        got = search_topic_b(self.index, "q1", bag)
        assert got.items == expected.items

    def test_all_unknown_bag_returns_none(self):
        assert search_topic_b(self.index, "q1", Counter(["zzz"])) is None


class TestSearchSystemA:
    def setup_method(self):
        self.rows = [
            ("d1", "alpha beta", "alpha gamma gamma", "x"),
            ("d2", "gamma delta", "delta delta beta", "x"),
            ("d3", "epsilon", "epsilon epsilon alpha", "x"),
        ]
        self.index = make_index(self.rows)
        self.extraction = ExtractionConfig(SHORTEST)
        self.params = ScoringParamsA()

    def test_returns_ranking_per_usable_topic(self):
        topics = [topic("q1", "alpha gamma"), topic("q2", "qqq zzz")]
        rankings, warnings = search_system_a(
            self.index, topics, QueryType.VERY_SHORT, TOK, self.extraction,
            self.params)
        assert [r.query_id for r in rankings] == ["q1"]
        assert warnings == ["query q2: no usable terms; skipped"]
        assert len(rankings[0]) == 3

    def test_uniform_category_preserves_order(self):
        # every document shares a category, so the category factor is a
        # common scale and cannot reorder anything
        topics = [topic("q1", "alpha gamma")]
        on, _ = search_system_a(self.index, topics, QueryType.VERY_SHORT, TOK,
                                self.extraction, self.params)
        off, _ = search_system_a(
            self.index, topics, QueryType.VERY_SHORT, TOK, self.extraction,
            ScoringParamsA(use_category=False))
        assert on[0].doc_ids() == off[0].doc_ids()

    def test_lattice_equals_shortest_on_single_word_phrases(self):
        # one word per phrase leaves the lattice a single grouping, so the
        # best path score is exactly the flat vector sum
        topics = [topic("q1", "alpha, gamma")]
        flat, _ = search_system_a(self.index, topics, QueryType.VERY_SHORT,
                                  TOK, ExtractionConfig(SHORTEST), self.params)
        lattice, _ = search_system_a(self.index, topics, QueryType.VERY_SHORT,
                                     TOK, ExtractionConfig(LATTICE), self.params)
        assert lattice[0].doc_ids() == flat[0].doc_ids()
        for (_, a), (_, b) in zip(lattice[0].items, flat[0].items):
            assert a == pytest.approx(b, rel=1e-12)

    def test_lattice_skips_topic_without_phrases(self):
        topics = [topic("q1", "zzz")]
        rankings, warnings = search_system_a(
            self.index, topics, QueryType.VERY_SHORT, TOK,
            ExtractionConfig(LATTICE), self.params)
        # the unknown word still forms a phrase; scores may all be length
        # bonus only, but the topic is not skipped
        assert len(rankings) == 1
        assert warnings == []

    def test_multiword_extraction_runs(self):
        topics = [topic("q1", "alpha gamma delta")]
        rankings, _ = search_system_a(
            self.index, topics, QueryType.VERY_SHORT, TOK,
            ExtractionConfig(ALL_PATTERNS, max_span=2), self.params)
        assert rankings[0].doc_ids()


def dictionary_from(pairs):
    records = [KeywordPairRecord(str(i), (src,), (dst,))
               for i, (src, dst) in enumerate(pairs)]
    return build_dictionary(records)


class TestClirTopic:
    def setup_method(self):
        self.target = make_index([
            ("t1", "cat story", "the cat sat"),
            ("t2", "dog story", "the dog ran"),
            ("t3", "bird story", "the bird flew"),
        ])
        self.dictionary = dictionary_from([("gato", "cat"), ("perro", "dog")])

    def test_translates_then_searches(self):
        ranking = clir_topic(topic("q1", "gato perro"), QueryType.VERY_SHORT,
                             TOK, self.dictionary, self.target)
        direct = search_topic_b(self.target, "q1", Counter(["cat", "dog"]))
        assert ranking.items == direct.items

    def test_untranslatable_raises(self):
        with pytest.raises(EmptyQueryError,
                           match="'q7': nothing translatable"):
            clir_topic(topic("q7", "unbekannt"), QueryType.VERY_SHORT, TOK,
                       self.dictionary, self.target)

    def test_passthrough_keeps_unknown_words(self):
        ranking = clir_topic(topic("q1", "gato bird"), QueryType.VERY_SHORT,
                             TOK, self.dictionary, self.target,
                             passthrough=True)
        direct = search_topic_b(self.target, "q1", Counter(["cat", "bird"]))
        assert ranking.items == direct.items

    def test_expansion_needs_both_source_index_and_theta(self):
        source = make_index([
            ("s1", "gato felino", "gato felino gato"),
            ("s2", "otro tema", "nada interesante aqui"),
        ])
        plain = clir_topic(topic("q1", "gato"), QueryType.VERY_SHORT, TOK,
                           self.dictionary, self.target)
        gated = clir_topic(topic("q1", "gato"), QueryType.VERY_SHORT, TOK,
                           self.dictionary, self.target, source_index=source,
                           expansion_theta=None)
        assert gated.items == plain.items

    def test_expansion_can_rescue_untranslatable_query(self):
        # "felino" never translates, but expansion pulls in "gato" from the
        # source-side neighbours, which does
        source = make_index([
            ("s1", "felino gato", "felino gato felino gato"),
            ("s2", "otro tema", "nada interesante aqui"),
            ("s3", "mas temas", "nada nuevo aqui"),
        ])
        with pytest.raises(EmptyQueryError):
            clir_topic(topic("q1", "felino"), QueryType.VERY_SHORT, TOK,
                       self.dictionary, self.target)
        ranking = clir_topic(topic("q1", "felino"), QueryType.VERY_SHORT, TOK,
                             self.dictionary, self.target, source_index=source,
                             expansion_theta=float("-inf"), expansion_docs=1,
                             expand_all=True)
        assert "t1" in ranking.doc_ids()


class TestRunTag:
    def test_shape(self):
        tag = run_tag({"a": 1})
        assert len(tag) == 12
        assert all(c in "0123456789abcdef" for c in tag)

    def test_stable_across_key_order(self):
        assert run_tag({"a": 1, "b": 2}) == run_tag({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert run_tag({"a": 1}) != run_tag({"a": 2})
        assert run_tag({"a": 1}) != run_tag({"b": 1})

    def test_handles_non_json_values(self):
        # default=str covers Paths, enums, floats like inf
        tag = run_tag({"k_q": float("inf"), "qtype": QueryType.SHORT})
        assert len(tag) == 12


class TestFormatRun:
    def test_exact_layout(self):
        rankings = [
            Ranking("q2", (("d1", 0.5),)),
            Ranking("q1", (("d9", 1.0), ("d3", 0.25))),
        ]
        text = format_run(rankings, "tag123", {"b": 1, "a": "x"})
        assert text == (
            "# a = x\n"
            "# b = 1\n"
            "q1 Q0 d9 1 1 tag123\n"
            "q1 Q0 d3 2 0.25 tag123\n"
            "q2 Q0 d1 1 0.5 tag123\n"
        )

    def test_no_header(self):
        text = format_run([Ranking("q1", (("d1", 1.5),))], "t")
        assert text == "q1 Q0 d1 1 1.5 t\n"

    def test_nine_significant_digits(self):
        text = format_run([Ranking("q1", (("d1", 1 / 3),))], "t")
        assert "0.333333333" in text

    def test_round_trips_through_parser(self, tmp_path):
        from probir.evaluation import parse_run_file

        rankings = [Ranking("q1", (("d2", 2.0), ("d1", 1.0)))]
        path = tmp_path / "run.txt"
        path.write_text(format_run(rankings, "t", {"note": "hi"}),
                        encoding="utf-8")
        run = parse_run_file(path)
        assert run == {"q1": ["d2", "d1"]}


class TestSweepB:
    def setup_method(self):
        rng = random.Random(411)
        vocab = random_vocab(rng, 12)
        self.index = make_index(random_token_rows(rng, 20, vocab))
        self.topics = [
            Topic(query_id="q1", title=" ".join(vocab[:3])),
            Topic(query_id="q2", title=" ".join(vocab[3:6])),
        ]
        self.qrels = {
            "q1": {"d000": 2, "d001": 1},
            "q2": {"d002": 2},
        }

    def test_one_row_per_grid_cell(self):
        report = sweep_b(self.index, self.topics, QueryType.VERY_SHORT, TOK,
                         self.qrels, [0.10, 0.05], [1, AUTO],
                         [1.0, AUTO], cutoff=10)
        assert len(report.rows) == 2 * 2 * 2
        cells = [(r.p_level, r.r, r.alpha) for r in report.rows]
        assert cells[0] == (0.10, 1, 1.0)
        assert cells[-1] == (0.05, AUTO, AUTO)
        assert len(set(cells)) == 8

    def test_group_means_average_defined_cells(self):
        report = sweep_b(self.index, self.topics, QueryType.VERY_SHORT, TOK,
                         self.qrels, [0.10], [1, 3], [1.0], cutoff=10)
        by_r = report.averages["R"]
        for row in report.rows:
            assert by_r[str(row.r)] == pytest.approx(row.ap_relax, rel=1e-12)
        overall = [row.ap_relax for row in report.rows]
        assert report.averages["p"]["0.1"] == pytest.approx(
            sum(overall) / len(overall), rel=1e-12)

    def test_format_layout(self):
        report = sweep_b(self.index, self.topics, QueryType.VERY_SHORT, TOK,
                         self.qrels, [0.10], [1], [1.0], cutoff=10)
        lines = report.format().splitlines()
        assert lines[0] == "p\tR\talpha\tap_rigid\tap_relax"
        assert lines[1].startswith("0.1\t1\t1.0\t")
        assert "# mean ap_relax by p" in lines
        assert "# mean ap_relax by R" in lines
        assert "# mean ap_relax by alpha" in lines
        assert report.format().endswith("\n")
