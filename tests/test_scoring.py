import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import probir.index
from probir.clir import document_expansion
from probir.corpus import TokenizerConfig, tokenize
from probir.errors import ZeroDocumentFrequencyError
from probir.index import IN_TITLE
from probir.pipeline import search_topic_b
from probir.scoring import (
    RARITY_ALL,
    RARITY_TITLE,
    Ranking,
    ScoringParamsA,
    bm11_query_weight,
    bm11_rank,
    bm11_retrieval,
    bm11_word_weight,
    build_query_set_stats,
    idf,
    k_category,
    k_location,
    length_bonus,
    prune_vector,
    query_rarity_factor,
    query_tf_saturation,
    rank,
    score_bm11,
    score_system_a,
    tf_factor,
)

from corpus_builders import make_index, random_token_rows, random_vocab

ALL_OFF = ScoringParamsA(use_location=False, use_category=False,
                         use_length_bonus=False, use_query_rarity=False)


class TestTfFactor:
    def test_zero_tf(self):
        assert tf_factor(0, 10, 10.0) == 0.0

    def test_average_length_doc(self):
        # doc_len == avg_len collapses the denominator to tf + k_t
        assert tf_factor(3, 20, 20.0) == pytest.approx(0.75, abs=1e-12)
        assert tf_factor(1, 20, 20.0) == pytest.approx(0.5, abs=1e-12)

    def test_k_t_scales_length_penalty(self):
        assert tf_factor(2, 10, 10.0, k_t=3.0) == pytest.approx(0.4, abs=1e-12)

    @given(
        tf=st.integers(min_value=1, max_value=500),
        doc_len=st.integers(min_value=1, max_value=500),
        avg_len=st.floats(min_value=0.5, max_value=500),
        k_t=st.floats(min_value=0.1, max_value=10),
    )
    def test_bounded_and_monotone_in_tf(self, tf, doc_len, avg_len, k_t):
        value = tf_factor(tf, doc_len, avg_len, k_t)
        assert 0.0 < value < 1.0
        assert value < tf_factor(tf + 1, doc_len, avg_len, k_t)


class TestIdf:
    def test_everywhere_term_scores_zero(self):
        assert idf(1000, 1000) == 0.0

    def test_one_in_ten(self):
        assert idf(100, 1000) == pytest.approx(math.log(10), abs=1e-12)

    def test_df_zero_raises(self):
        with pytest.raises(ZeroDocumentFrequencyError):
            idf(0, 1000)


class TestBm11QueryWeight:
    def test_single_occurrence_is_plain_idf(self):
        assert bm11_query_weight(1, 2.345) == 2.345
        assert bm11_query_weight(1, 0.7, k_q=3.0) == 0.7

    def test_repeat_occurrences_saturate(self):
        assert bm11_query_weight(3, 2.0, k_q=1000.0) == pytest.approx(
            5.988035892323031, abs=1e-9)

    def test_monotone_and_bounded_in_tf_q(self):
        values = [bm11_query_weight(n, 1.0) for n in range(1, 6)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 1001.0 for v in values)  # sup as tf_q grows is (k_q+1)·idf


class TestQueryTfSaturation:
    def test_infinite_k_passes_tf_through(self):
        assert query_tf_saturation(3, math.inf) == 3.0

    def test_finite_k(self):
        assert query_tf_saturation(2, 1000.0) == pytest.approx(2 / 1002, abs=1e-15)


class TestLengthBonus:
    def test_average_doc_gets_half(self):
        assert length_bonus(25, 25.0) == 0.5

    def test_empty_doc_gets_nothing(self):
        assert length_bonus(0, 25.0) == 0.0


class TestKLocation:
    def test_title_hit(self):
        assert k_location(IN_TITLE, 50, 1.2, 0.1) == 1.2

    def test_early_body_hit(self):
        assert k_location(1, 100, 1.2, 0.1) == pytest.approx(1.098, abs=1e-12)

    def test_midpoint_is_neutral(self):
        assert k_location(50, 100, 1.2, 0.1) == pytest.approx(1.0, abs=1e-15)

    def test_absent_term_is_neutral(self):
        assert k_location(None, 100, 1.2, 0.1) == 1.0

    def test_late_hit_is_a_penalty(self):
        assert k_location(99, 100, 1.2, 0.1) < 1.0
        # bounded below by 1 - k_loc2
        assert k_location(100, 100, 1.2, 0.1) >= 1.0 - 0.1 - 1e-12


def ranking_of(doc_ids):
    return Ranking("q", tuple((d, 1.0) for d in doc_ids))


class TestKCategory:
    def test_uncategorized_doc_is_neutral(self, toy_index):
        assert k_category(None, ranking_of(["d1"]), toy_index, 0.1) == 1.0

    def test_overrepresented_category_boost(self):
        # 3 of 30 docs are category x (share 0.1) but 3 of the top 10 are
        # -> 1 + 0.1 * (0.3 - 0.1) / (0.3 + 0.1) = 1.05
        rows = []
        for i in range(30):
            cat = "x" if i < 3 else "y"
            rows.append((f"d{i:02d}", "t", f"word{i}", cat))
        index = make_index(rows)
        top = ranking_of([f"d{i:02d}" for i in range(10)])
        assert k_category("x", top, index, 0.1) == pytest.approx(1.05, abs=1e-12)

    def test_underrepresented_category_penalty(self):
        rows = [(f"d{i:02d}", "t", f"word{i}", "x" if i < 15 else "y")
                for i in range(30)]
        index = make_index(rows)
        top = ranking_of([f"d{i:02d}" for i in range(25, 30)])  # all y
        assert k_category("x", top, index, 0.1) < 1.0

    def test_empty_ranking_is_neutral(self, toy_index):
        assert k_category("business", Ranking("q", ()), toy_index, 0.1) == 1.0


class TestQueryRarityFactor:
    stats = build_query_set_stats([
        ({"common", "rare"}, {"common"}),
        ({"common"}, {"common"}),
        ({"common"}, set()),
        ({"common"}, set()),
        ({"common"}, set()),
        ({"common"}, set()),
        ({"common"}, set()),
        ({"common"}, set()),
        ({"common"}, set()),
        ({"common"}, set()),
    ])

    def test_disabled(self):
        assert query_rarity_factor("anything", None, 0) == 1.0

    def test_batch_wide_term_scores_zero(self):
        assert query_rarity_factor("common", self.stats, RARITY_ALL) == 0.0

    def test_rare_term(self):
        assert query_rarity_factor("rare", self.stats, RARITY_ALL) == pytest.approx(
            math.log(10), abs=1e-12)

    def test_title_variant_uses_title_counts(self):
        # "common" sits in 10 queries but only 2 titles
        assert query_rarity_factor("common", self.stats, RARITY_TITLE) == pytest.approx(
            math.log(5), abs=1e-12)

    def test_unseen_term_clamps_to_one(self):
        assert query_rarity_factor("novel", self.stats, RARITY_ALL) == pytest.approx(
            math.log(10), abs=1e-12)

    def test_enabled_without_stats_raises(self):
        with pytest.raises(ValueError):
            query_rarity_factor("x", None, RARITY_ALL)


class TestScoreBm11:
    def test_disjoint_query_scores_zero(self, toy_index):
        assert score_bm11(toy_index, "d4", {"weather": 1.0}) == 0.0

    def test_single_term_hand_value(self):
        index = make_index([("d1", "", "alpha beta"), ("d2", "", "beta gamma")])
        # tf=1, doc_len=2, avg=2 -> tf_factor 0.5; weight 3.0
        assert score_bm11(index, "d1", {"alpha": 3.0}) == pytest.approx(1.5, abs=1e-12)

    def test_matches_brute_force(self):
        rng = random.Random(82)
        vocab = random_vocab(rng, 10)
        from probir.corpus import TokenizerConfig, tokenize
        config = TokenizerConfig()
        for _ in range(10):
            rows = random_token_rows(rng, rng.randint(2, 10), vocab)
            index = make_index(rows)
            token_lists = {
                r[0]: tokenize(r[1], config) + tokenize(r[2], config) for r in rows
            }
            avg = sum(len(t) for t in token_lists.values()) / len(token_lists)
            weights = {t: rng.uniform(0.1, 4.0) for t in rng.sample(vocab, 5)}
            for doc_id, toks in token_lists.items():
                expected = 0.0
                for term, w in weights.items():
                    tf = toks.count(term)
                    if tf:
                        expected += tf / (tf + len(toks) / avg) * w
                got = score_bm11(index, doc_id, weights)
                assert got == pytest.approx(expected, abs=1e-9)


class TestScoreSystemA:
    def test_all_factors_off_reduces_to_weighted_bm11(self, toy_index):
        vector = {"enterprise": (1.0, 1), "weather": (0.5, 2)}
        flat = {
            term: idf(toy_index.df(term), toy_index.n_docs) * tf_q * w
            for term, (w, tf_q) in vector.items()
        }
        for doc_id in toy_index.doc_ids():
            assert score_system_a(toy_index, doc_id, vector, ALL_OFF) == pytest.approx(
                score_bm11(toy_index, doc_id, flat), rel=1e-12)

    def test_title_hit_hand_value(self):
        index = make_index([("d1", "alpha", "beta gamma"),
                            ("d2", "delta", "beta epsilon zeta")])
        # alpha: tf=1, len=3, avg=3.5, idf=ln 2, in title -> x1.2, bonus 3/6.5
        params = ScoringParamsA(use_category=False)
        got = score_system_a(index, "d1", {"alpha": (1.0, 1)}, params)
        assert got == pytest.approx(0.9094181782079647, abs=1e-12)

    def test_category_factor_needs_first_ranking(self, toy_index):
        with pytest.raises(ValueError):
            score_system_a(toy_index, "d1", {"enterprise": (1.0, 1)},
                           ScoringParamsA())

    def test_neutral_category_pass_matches_explicit_off(self, toy_index):
        # all-corpora-neutral reference: every doc categoryless would do it,
        # but here simply compare factor-off scoring against a ranking over
        # an uncategorized twin corpus
        index = make_index([("d1", "alpha", "beta gamma"),
                            ("d2", "delta", "beta epsilon zeta")])
        vector = {"beta": (1.0, 1)}
        off = ScoringParamsA(use_category=False)
        on = ScoringParamsA()
        reference = rank(index, lambda d: score_system_a(index, d, vector, off), 10)
        for doc_id in index.doc_ids():
            assert score_system_a(index, doc_id, vector, on,
                                  first_ranking=reference) == pytest.approx(
                score_system_a(index, doc_id, vector, off), rel=1e-12)

    def test_location_boost_raises_title_doc(self):
        # "alpha" must stay out of d2: df = N would zero the idf
        index = make_index([("d1", "alpha", "filler words here"),
                            ("d2", "other", "filler words here too")])
        vector = {"alpha": (1.0, 1)}
        on = ScoringParamsA(use_category=False)
        off = ScoringParamsA(use_category=False, use_location=False)
        assert (score_system_a(index, "d1", vector, on)
                > score_system_a(index, "d1", vector, off))

    def test_unseen_terms_contribute_nothing(self, toy_index):
        with_junk = {"enterprise": (1.0, 1), "qqqq": (9.0, 3)}
        clean = {"enterprise": (1.0, 1)}
        assert score_system_a(toy_index, "d1", with_junk, ALL_OFF) == score_system_a(
            toy_index, "d1", clean, ALL_OFF)

    def test_idf_map_overrides_collection_idf(self, toy_index):
        vector = {"enterprise": (1.0, 1)}
        base = score_system_a(toy_index, "d1", vector, ALL_OFF)
        doubled = score_system_a(toy_index, "d1", vector, ALL_OFF,
                                 idf_map={"enterprise": 2 * idf(3, 4)})
        assert doubled == pytest.approx(2 * base, rel=1e-12)


class TestPruneVector:
    def test_drops_unknown_terms(self, toy_index):
        vector = {"enterprise": 1.0, "zzzz": 2.0}
        assert prune_vector(toy_index, vector) == {"enterprise": 1.0}


class TestRank:
    def test_orders_by_score_then_doc_id(self):
        index = make_index([("a", "", "x"), ("b", "", "x"), ("c", "", "y")])
        scores = {"a": 1.0, "b": 2.0, "c": 2.0}
        ranking = rank(index, scores.__getitem__, 10, query_id="q7")
        assert ranking.query_id == "q7"
        assert ranking.doc_ids() == ("b", "c", "a")

    def test_cutoff_truncates(self):
        index = make_index([("a", "", "x"), ("b", "", "x"), ("c", "", "y")])
        ranking = rank(index, {"a": 3.0, "b": 2.0, "c": 1.0}.__getitem__, 2)
        assert ranking.doc_ids() == ("a", "b")
        assert len(ranking) == 2

    def test_cutoff_below_one_raises(self, toy_index):
        with pytest.raises(ValueError):
            rank(toy_index, lambda d: 0.0, 0)

    def test_matches_sorted_oracle(self):
        rng = random.Random(5150)
        vocab = random_vocab(rng, 8)
        for _ in range(10):
            rows = random_token_rows(rng, rng.randint(3, 12), vocab)
            index = make_index(rows)
            scores = {r[0]: rng.choice([0.0, 1.0, 2.5, rng.random()]) for r in rows}
            expected = sorted(scores, key=lambda d: (-scores[d], d))
            ranking = rank(index, scores.__getitem__, len(rows))
            assert list(ranking.doc_ids()) == expected

    def test_weight_scaling_preserves_order(self):
        rng = random.Random(99)
        vocab = random_vocab(rng, 10)
        rows = random_token_rows(rng, 12, vocab)
        index = make_index(rows)
        weights = {t: rng.uniform(0.5, 2.0) for t in vocab[:6]}
        scaled = {t: 3.7 * w for t, w in weights.items()}
        base = rank(index, lambda d: score_bm11(index, d, weights), 12)
        other = rank(index, lambda d: score_bm11(index, d, scaled), 12)
        assert base.doc_ids() == other.doc_ids()


def full_sort(scores, cutoff):
    """The first ``cutoff`` (doc_id, score) pairs of a full sort by
    (-score, doc_id), each score shown by its repr so that 0.0 and -0.0
    differ."""
    ordered = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
    return [(doc_id, repr(score)) for doc_id, score in ordered[:cutoff]]


def exact(ranking):
    return [(doc_id, repr(score)) for doc_id, score in ranking.items]


class TestTopK:
    """The top-k selection of ``rank`` and ``bm11_rank`` against a full
    sort, with tied scores, both zeros, both infinities, negative scores and
    every cutoff.  Up to 40 documents draw their scores from a few values,
    so that many tie at the cutoff-th score and every one of them must be
    kept for the doc_id order to decide."""

    SCORES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5,
                                        math.inf, -math.inf]),
                       st.floats(-1e6, 1e6))

    def few_values(self, data):
        """A strategy for one score: mostly one of a few values."""
        pool = data.draw(st.lists(self.SCORES, min_size=1, max_size=4), label="pool")
        return st.one_of(st.sampled_from(pool), self.SCORES)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rank_equals_a_full_sort(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        # documents not in doc_id order, so a tie is not broken by position
        doc_ids = data.draw(st.permutations([f"d{i:02d}" for i in range(n)]),
                            label="doc_ids")
        index = make_index([(doc_id, "", "x") for doc_id in doc_ids])
        score = self.few_values(data)
        scores = {doc_id: data.draw(score, label=doc_id) for doc_id in doc_ids}
        cutoff = data.draw(st.integers(1, n + 2), label="cutoff")
        got = rank(index, scores.__getitem__, cutoff, "q")
        assert exact(got) == full_sort(scores, cutoff)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bm11_rank_equals_a_full_sort(self, data):
        """Also when fewer than ``cutoff`` documents score above 0.0 (no
        word, negative or zero weights), and the documents no word reaches
        fill the ranking at 0.0."""
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        vocab = random_vocab(rng, rng.randint(2, 4))
        # short documents over a few words, so that many score the same
        rows = random_token_rows(rng, rng.randint(1, 40), vocab, max_len=3)
        rng.shuffle(rows)
        index = make_index(rows)
        weight = self.few_values(data)
        weights = {word: data.draw(weight, label=word)
                   for word in data.draw(st.lists(st.sampled_from(vocab),
                                                  unique=True), label="words")}
        cutoff = data.draw(st.integers(1, index.n_docs + 2), label="cutoff")
        scores = {doc_id: score_bm11(index, doc_id, weights)
                  for doc_id in index.doc_ids()}
        # inf + -inf has no order to check
        assume(not any(map(math.isnan, scores.values())))
        got = bm11_rank(index, weights, cutoff, "q")
        assert exact(got) == full_sort(scores, cutoff)


def oracle_bm11_ranking(rows, bag, k_q=1000.0):
    """Every document scored as Σ tf/(tf + len/avg)·weight over the bag, in
    bag order, sorted by (-score, doc_id); also each document's words."""
    config = TokenizerConfig()
    tokens = {r[0]: tokenize(r[1], config) + tokenize(r[2], config) for r in rows}
    n = len(tokens)
    avg = sum(len(t) for t in tokens.values()) / n
    weights = {}
    for word, tf_q in bag.items():
        df = sum(1 for t in tokens.values() if word in t)
        if df:
            weights[word] = (k_q + 1.0) * tf_q / (k_q + tf_q) * math.log(n / df)
    scored = []
    for doc_id, toks in tokens.items():
        score = 0.0
        for word, weight in weights.items():
            tf = toks.count(word)
            if tf:
                score += tf / (tf + len(toks) / avg) * weight
        scored.append((doc_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return weights, scored, tokens


class TestBm11Retrieval:
    UNKNOWN = "qqqqqqqqqq"  # longer than any random_vocab word

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           cutoff=st.integers(min_value=1, max_value=15),
           n_expand=st.integers(min_value=1, max_value=4))
    def test_shared_first_retrieval_matches_oracle(self, seed, cutoff, n_expand):
        rng = random.Random(seed)
        vocab = random_vocab(rng, rng.randint(3, 12))
        rows = random_token_rows(rng, rng.randint(1, 12), vocab, max_len=12)
        index = make_index(rows)
        words = rng.sample(vocab, rng.randint(0, min(4, len(vocab))))
        words += [self.UNKNOWN] * rng.randint(0, 1)
        bag = {word: rng.randint(1, 3) for word in words}
        weights, oracle, tokens = oracle_bm11_ranking(rows, bag)

        result = bm11_retrieval(index, bag, cutoff, "q")
        if not weights:
            assert result is None
            assert search_topic_b(index, "q", bag, cutoff=cutoff) is None
            assert document_expansion(bag, index, n_expand, expand_all=True) == bag
            return
        pruned, ranking = result
        assert pruned == {word: bag[word] for word in weights}
        assert ranking == Ranking("q", tuple(oracle[:cutoff]))
        assert search_topic_b(index, "q", bag, feedback=None,
                              cutoff=cutoff) == ranking

        top = [doc_id for doc_id, score in oracle[:n_expand] if score > 0]
        added = {word for doc_id in top for word in tokens[doc_id]} - set(bag)
        expanded = document_expansion(bag, index, n_expand, expand_all=True)
        assert expanded == {**bag, **{word: 1 for word in added}}


def plain_bm11_ranking(index, weights, cutoff):
    return rank(index, lambda d: score_bm11(index, d, weights), cutoff, "q")


class TestBm11Rank:
    EVERY = "every"     # put in every document: df = N, idf 0
    UNKNOWN = "qqqqqqqqqq"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_term_at_a_time_equals_plain_ranking(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        vocab = random_vocab(rng, rng.randint(3, 12))
        rows = [(doc_id, title, f"{body} {self.EVERY}")
                for doc_id, title, body in
                random_token_rows(rng, rng.randint(1, 12), vocab, max_len=12)]
        # copies under other ids tie with their originals on every score,
        # and the shuffle puts the ids out of sorted order, so the tie order
        # and the order unreached documents enter in are both checked
        rows += [(f"c{i:03d}", title, body)
                 for i, (_, title, body) in enumerate(rows) if rng.random() < 0.3]
        rng.shuffle(rows)
        index = make_index(rows)
        n = index.n_docs
        # with all weights positive, unreached documents enter only below
        # the scored ones; a negative weight, or a document that sums to
        # ±0.0, puts scores at or below their 0.0
        weight = data.draw(st.sampled_from([
            st.floats(0, 50, exclude_min=True),
            st.one_of(st.floats(-50, -0.01), st.floats(0.01, 50)),
            st.one_of(st.floats(-50, 50), st.just(0.0), st.just(-0.0)),
        ]), label="weights")
        words = data.draw(st.lists(st.sampled_from(vocab + [self.UNKNOWN]),
                                   unique=True), label="words")
        weights = {word: data.draw(weight, label=word) for word in words}
        if data.draw(st.booleans(), label="every"):
            weights[self.EVERY] = bm11_word_weight(index, self.EVERY, 1)
            assert weights[self.EVERY] == 0.0
        cutoff = data.draw(st.integers(1, n + 2), label="cutoff")

        fast = bm11_rank(index, weights, cutoff, "q")
        plain = plain_bm11_ranking(index, weights, cutoff)
        assert fast.items == plain.items  # floats compared with ==
        assert fast == plain

    def test_character_mode_multi_character_words(self, char_index):
        weights = {"ab": 1.5, "abc": -0.5, "cdcd": 2.0, "ef": 0.0,
                   "gh": -3.0, "zz": 1.0, "a": 0.7, "xyzw": 0.25}
        for cutoff in range(1, char_index.n_docs + 2):
            assert (bm11_rank(char_index, weights, cutoff, "q")
                    == plain_bm11_ranking(char_index, weights, cutoff))

    def test_longer_words_are_counted_once(self, char_index, monkeypatch):
        """A second ranking over words of several characters reads their
        counted postings and scans no stream again."""
        scans = []
        sequence_starts = probir.index._sequence_starts

        def counted(haystack, needle):
            scans.append(needle)
            return sequence_starts(haystack, needle)

        monkeypatch.setattr(probir.index, "_sequence_starts", counted)
        weights = {"ab": 1.5, "cdcd": 2.0, "a": 0.7, "xyzw": 0.25, "zz": 1.0}
        first = bm11_rank(char_index, weights, char_index.n_docs, "q")
        assert scans
        scans.clear()
        assert bm11_rank(char_index, weights, char_index.n_docs, "q") == first
        assert scans == []

    @pytest.mark.parametrize("weights,cutoff,listed,expected", [
        ({"a": 1.0}, 2, False, ("d2", "d1")),
        # d3 sums to 0.0, below the top
        ({"a": 1.0, "c": 0.0}, 2, False, ("d2", "d1")),
        # the scored documents fall short of the cutoff
        ({"a": 1.0}, 3, True, ("d2", "d1", "d3")),
        # the top reaches down to d3's 0.0 sum
        ({"a": 1.0, "c": 0.0}, 3, True, ("d2", "d1", "d3")),
        # the top is below 0.0, where unreached d3 ranks first
        ({"a": -1.0}, 1, True, ("d3",)),
    ])
    def test_documents_are_listed_only_when_the_top_is_not_all_positive(
            self, monkeypatch, weights, cutoff, listed, expected):
        """The unreached documents are looked for only when fewer than
        ``cutoff`` documents score above 0.0."""
        index = make_index([("d1", "", "a b"), ("d2", "", "a"), ("d3", "", "c")])
        calls = []
        doc_ids = index.doc_ids
        monkeypatch.setattr(index, "doc_ids", lambda: calls.append(1) or doc_ids())
        assert bm11_rank(index, weights, cutoff, "q").doc_ids() == expected
        assert bool(calls) is listed

    def test_cutoff_below_one_raises(self, toy_index):
        with pytest.raises(ValueError):
            bm11_rank(toy_index, {"enterprise": 1.0}, 0)

    @pytest.mark.parametrize("index_name,terms", [
        ("char_index", ["ab", "abab", "cd", "efgh", "a", "zz", "bab"]),
        ("toy_index", ["enterprise", "enterprise amalgamation",
                       "amalgamation plans", "salt", "zzzz"]),
    ])
    def test_memoised_term_stats_equal_a_fresh_count(self, request, index_name,
                                                     terms):
        index = request.getfixturevalue(index_name)
        for term in terms:
            tfs = [index.doc_tf(doc_id, term) for doc_id in index.doc_ids()]
            fresh = (sum(1 for tf in tfs if tf), sum(tfs))
            first = index.term_stats(term)
            assert (first.df, first.collection_tf) == fresh
            assert index.term_stats(term) is first


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScoringParamsA(k_t=0)
        with pytest.raises(ValueError):
            ScoringParamsA(k_loc1=0.9)
        with pytest.raises(ValueError):
            ScoringParamsA(k_loc2=1.0)
        with pytest.raises(ValueError):
            ScoringParamsA(k_nq="x")

    @pytest.mark.parametrize("field,value", [
        ("k_t", math.nan), ("k_q_a", math.nan), ("k_q_a", 0.0), ("k_q_a", -1.0),
        ("k_cat", math.nan), ("k_cat", math.inf), ("k_cat", -math.inf),
        ("k_loc1", math.nan), ("k_t", math.inf), ("k_loc1", math.inf),
    ])
    def test_rejects_nan_infinite_and_non_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScoringParamsA(**{field: value})

    def test_accepts_infinite_k_q_a(self):
        # the rank-preserving limit of TF_q: plain tf_q
        assert ScoringParamsA(k_q_a=math.inf).k_q_a == math.inf
