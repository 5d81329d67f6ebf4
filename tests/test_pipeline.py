import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from probir.clir import build_dictionary
from probir.corpus import (
    CHARACTER_MODE,
    QueryType,
    Topic,
    TokenizerConfig,
    selected_parts,
    tokenize,
)
from probir.errors import EmptyQueryError
from probir.feedback_a import FeedbackAParams
from probir.feedback_b import AUTO, FeedbackBParams
from probir.index import Index
from probir.pipeline import (
    Analyzer,
    CompiledTopicA,
    _lattice_sums,
    clir_topic,
    compile_bag,
    format_run,
    run_tag,
    search_system_a,
    search_system_b,
    search_topic_a,
    search_topic_b,
    sweep_b,
)
from probir.scoring import (
    RARITY_ALL,
    RARITY_OFF,
    RARITY_TITLE,
    Ranking,
    ScoringParamsA,
    bm11_word_weight,
    build_query_set_stats,
    rank,
    score_bm11,
    score_system_a,
    SystemATables,
    bm11_retrieval,
    system_a_lookup,
    system_a_sums,
)
from probir.term_extraction import (
    ALL_PATTERNS,
    DOWN_WEIGHT,
    LATTICE,
    SHORTEST,
    ExtractionConfig,
    all_term_patterns,
    extract_terms,
    split_phrases,
)

from corpus_builders import make_index, random_token_rows, random_vocab
from oracles import lattice_oracle

TOK = Analyzer(TokenizerConfig())


def topic(query_id, title, description=""):
    return Topic(query_id=query_id, title=title, description=description)


STOPWORDS = frozenset({"the", "isn't", "é", "über"})
# whole words (stopwords in other cases and quoted, stemmable, numeric), and
# runs of letters, non-ASCII ones whose lowercase is longer among them,
# digits, apostrophes, punctuation and space
TEXT_PIECES = st.one_of(
    st.sampled_from(["the", "The", "'the'", "isn't", "Über", "classes",
                     "running", "1990s", "x2", "42", "l'été"]),
    st.text(alphabet="abeisßéİΣςü'0123456789 .,;:-!?()\"\n\t—«»", max_size=12))


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

    @settings(max_examples=400, deadline=None)
    @given(pieces=st.lists(TEXT_PIECES, max_size=10),
           separator=st.sampled_from(["", " ", ", ", "'", "\n"]),
           stopwords=st.booleans(), stemming=st.booleans())
    def test_token_bag_is_the_tokenized_text(self, pieces, separator,
                                             stopwords, stemming):
        # compile_bag flattens the phrases in token mode too; it relies on
        # the flattened phrases being tokenize's words, in order
        config = TokenizerConfig(
            stopwords=STOPWORDS if stopwords else frozenset(), stemming=stemming)
        text = separator.join(pieces)
        flattened = [word for phrase in split_phrases(text, config)
                     for word in phrase]
        assert flattened == tokenize(text, config)
        # the bag tokenize gave when it read the parts joined by newlines
        t = topic("q1", f"x{separator}{text}", text)
        sequence, _ = compile_bag(t, QueryType.LONG, Analyzer(config))
        assert sequence == tokenize("\n".join(selected_parts(t, QueryType.LONG)),
                                    config)

    def test_character_mode_needs_statistics(self):
        with pytest.raises(ValueError, match="needs mi_table and k_cmi"):
            Analyzer(TokenizerConfig(mode=CHARACTER_MODE))


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
        pruned, _ = bm11_retrieval(self.index, bag, 1000, "q1")
        assert pruned == {"alpha": 1, "gamma": 1}
        weights = {word: bm11_word_weight(self.index, word, tf_q)
                   for word, tf_q in pruned.items()}
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
        # the unknown word still forms a phrase, but no term of it is in the
        # collection, so the lattice skips the topic like every strategy
        assert rankings == []
        assert warnings == ["query q1: no usable terms; skipped"]

    def test_multiword_extraction_runs(self):
        topics = [topic("q1", "alpha gamma delta")]
        rankings, _ = search_system_a(
            self.index, topics, QueryType.VERY_SHORT, TOK,
            ExtractionConfig(ALL_PATTERNS, max_span=2), self.params)
        assert rankings[0].doc_ids()


class TestCompiledSystemA:
    """``system_a_sums`` and the pipeline's lattice sums, looked up through
    ``system_a_lookup``, against the plain per-document oracles, on random token and character corpora."""

    ALPHABET = "abcde"
    UNKNOWN = "qqqqqqqqqq"  # longer than any random word or string

    def corpus(self, rng, mode):
        """An index, and query phrases over its words (plus an unknown one)."""
        categories = ["x", "y", "z", None]
        if mode == CHARACTER_MODE:
            def text(low, high):
                return "".join(rng.choices(self.ALPHABET, k=rng.randint(low, high)))
            rows = [(f"c{i:02d}", text(0, 5), text(1, 30), rng.choice(categories))
                    for i in range(rng.randint(1, 10))]
            words = [text(1, 3) for _ in range(6)]
        else:
            vocab = random_vocab(rng, rng.randint(3, 8))
            rows = random_token_rows(rng, rng.randint(1, 10), vocab, max_len=15,
                                     categories=categories)
            words = vocab
        words = words + [self.UNKNOWN]
        phrases = [rng.choices(words, k=rng.randint(1, 5))
                   for _ in range(rng.randint(1, 3))]
        return make_index(rows, mode=mode), phrases

    def draw_setting(self, data, rng, index, terms):
        params = ScoringParamsA(
            k_t=data.draw(st.sampled_from([0.5, 0.7, 1.0, 2.0]), label="k_t"),
            k_q_a=data.draw(st.sampled_from([math.inf, 1.0]), label="k_q_a"),
            k_nq=data.draw(st.sampled_from([RARITY_OFF, RARITY_ALL, RARITY_TITLE]),
                           label="k_nq"),
            use_location=data.draw(st.booleans(), label="location"),
            use_category=data.draw(st.booleans(), label="category"),
            use_length_bonus=data.draw(st.booleans(), label="length"),
            use_query_rarity=data.draw(st.booleans(), label="rarity"),
        )
        queries = [(set(rng.sample(terms, rng.randint(1, len(terms)))),
                    set(rng.sample(terms, rng.randint(0, len(terms)))))
                   for _ in range(rng.randint(1, 4))]
        qstats = build_query_set_stats(queries)
        idf_map = None
        if data.draw(st.booleans(), label="idf_map"):
            idf_map = {term: rng.choice([0.0, rng.uniform(0, 3)])
                       for term in rng.sample(terms, rng.randint(0, len(terms)))}
        docs = list(index.doc_ids())
        rng.shuffle(docs)
        first = Ranking("q", tuple((d, 0.0) for d in docs[:rng.randint(0, len(docs))]))
        return params, qstats, idf_map, first

    def extra_terms(self, rng, terms):
        return {term: (rng.choice([1.0, 0.5]), rng.randint(1, 2))
                for term in rng.sample(terms, rng.randint(0, min(3, len(terms))))}

    def assert_same(self, index, fast, oracle):
        docs = index.doc_ids()
        assert [fast(d) for d in docs] == [oracle(d) for d in docs]
        n = index.n_docs
        assert rank(index, fast, n, "q").items == rank(index, oracle, n, "q").items

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(),
           mode=st.sampled_from(["token", CHARACTER_MODE]),
           strategy=st.sampled_from([SHORTEST, ALL_PATTERNS, DOWN_WEIGHT, LATTICE]))
    def test_compiled_scorer_equals_oracle(self, data, mode, strategy):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        index, phrases = self.corpus(rng, mode)
        joiner = "" if mode == CHARACTER_MODE else " "
        max_span = data.draw(st.integers(1, 4), label="max_span")
        if strategy == LATTICE:
            vector = all_term_patterns(phrases, max_span, joiner)
        else:
            extraction = ExtractionConfig(strategy, max_span=max_span)
            vector = extract_terms(phrases, extraction, joiner)
        terms = sorted(vector) + sorted({w for phrase in phrases for w in phrase})
        params, qstats, idf_map, first = self.draw_setting(data, rng, index, terms)
        extra = self.extra_terms(rng, terms)
        tables = SystemATables(index, params, qstats)

        if strategy == LATTICE:
            compiled = SimpleNamespace(vector=vector, phrases=phrases,
                                       max_span=max_span, joiner=joiner)
            sums = _lattice_sums(tables, compiled, idf_map, extra)
            oracle = lattice_oracle(index, compiled, params, qstats, first,
                                    idf_map, extra)
        else:
            full = {**vector, **extra}
            sums = system_a_sums(tables, full, idf_map)

            def oracle(doc_id):
                return score_system_a(index, doc_id, full, params, qstats,
                                      first, idf_map)
        fast = system_a_lookup(tables, sums,
                               first if params.use_category else None)
        self.assert_same(index, fast, oracle)

    def test_lattice_guard_holds_without_hits(self, toy_index):
        compiled = SimpleNamespace(vector={}, phrases=[["zzz"] * 20],
                                   max_span=2, joiner=" ")
        params = ScoringParamsA(use_category=False)
        with pytest.raises(ValueError, match="lattice guard"):
            _lattice_sums(SystemATables(toy_index, params), compiled, None, {})


def dictionary_from(pairs):
    return build_dictionary(([src], [dst]) for src, dst in pairs)


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
                             expansion_docs=1, expand_all=True)
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

    @pytest.mark.parametrize("score", [math.inf, -math.inf, math.nan])
    def test_non_finite_score_refused(self, score):
        rankings = [Ranking("q1", (("d1", 1.0),)),
                    Ranking("q2", (("d9", 2.0), ("d3", score)))]
        with pytest.raises(ValueError, match="query q2: document d3 has a "
                                             "non-finite score"):
            format_run(rankings, "t")

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


class TestTopDocumentBagsCountedOnce:
    """``Index.doc_terms`` counts a bag on every call; each search counts a
    top document's bag at most once per topic that reads it."""

    def setup_method(self):
        rng = random.Random(1618)
        vocab = random_vocab(rng, 10)
        rows = random_token_rows(rng, 40, vocab, max_len=12)
        self.index = make_index(rows)
        self.topics = [Topic(query_id=f"q{i}", title=" ".join(rng.sample(vocab, 2)))
                       for i in range(6)]
        self.bags = [compile_bag(t, QueryType.VERY_SHORT, TOK)[1] for t in self.topics]
        # a target-language twin: every word w of a document becomes "wx"
        self.target = make_index([(doc_id, " ".join(w + "x" for w in title.split()),
                                   " ".join(w + "x" for w in body.split()))
                                  for doc_id, title, body in rows])
        self.dictionary = dictionary_from([(w, w + "x") for w in vocab])
        self.qrels = {t.query_id: {"d000": 2, "d001": 1} for t in self.topics}

    def count_calls(self, monkeypatch):
        calls = Counter()
        original = Index.doc_terms

        def counting(index, doc_id):
            calls[doc_id] += 1
            return original(index, doc_id)

        monkeypatch.setattr(Index, "doc_terms", counting)
        return calls

    def first_tops(self, n):
        """Each topic's top n documents of its B first retrieval."""
        return [bm11_retrieval(self.index, bag, 30)[1].doc_ids()[:n]
                for bag in self.bags]

    def assert_once_per_topic(self, calls, tops):
        allowed = Counter(doc_id for top in tops for doc_id in set(top))
        assert calls, "no bag was counted"
        assert not calls - allowed, calls - allowed

    def test_b_feedback_search(self, monkeypatch):
        tops = self.first_tops(20)  # auto-R reads at most r_cap = 20 documents
        calls = self.count_calls(monkeypatch)
        rankings, _ = search_system_b(self.index, self.topics, QueryType.VERY_SHORT,
                                      TOK, FeedbackBParams(), cutoff=30)
        assert len(rankings) == len(self.topics)
        self.assert_once_per_topic(calls, tops)

    def test_a_feedback_search(self, monkeypatch):
        extraction = ExtractionConfig(SHORTEST)
        compiled = [CompiledTopicA(t, QueryType.VERY_SHORT, TOK, extraction)
                    for t in self.topics]
        tables = SystemATables(self.index, ScoringParamsA(),
                               build_query_set_stats([(set(c.vector), c.title_terms)
                                                      for c in compiled]))
        feedback = FeedbackAParams(k_r=5)
        # the ranking feedback starts from is the one the search returns
        # without feedback
        tops = [search_topic_a(TOK, c, tables, None, 30).doc_ids()[:feedback.k_r]
                for c in compiled]
        calls = self.count_calls(monkeypatch)
        rankings, _ = search_system_a(self.index, self.topics, QueryType.VERY_SHORT,
                                      TOK, extraction, ScoringParamsA(), feedback,
                                      cutoff=30)
        assert len(rankings) == len(self.topics)
        self.assert_once_per_topic(calls, tops)

    def test_clir_search_with_expansion(self, monkeypatch):
        tops = [bm11_retrieval(self.index, bag, 5)[1].doc_ids() for bag in self.bags]
        calls = self.count_calls(monkeypatch)
        for t in self.topics:
            clir_topic(t, QueryType.VERY_SHORT, TOK, self.dictionary, self.target,
                       source_index=self.index, expansion_docs=5, cutoff=30)
        self.assert_once_per_topic(calls, tops)

    def test_sweep_over_several_r(self, monkeypatch):
        tops = self.first_tops(20)
        calls = self.count_calls(monkeypatch)
        sweep_b(self.index, self.topics, QueryType.VERY_SHORT, TOK, self.qrels,
                [0.10, 0.05], [1, 3, 5, 10, AUTO], [1.0, AUTO], cutoff=30)
        self.assert_once_per_topic(calls, tops)
