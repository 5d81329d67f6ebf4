import math
import random

import pytest

from probir.corpus import TokenizerConfig, tokenize
from probir.feedback_b import (
    THETA_BY_P,
    FeedbackBParams,
    PrefixBags,
    _auto_r_core,
    alpha,
    auto_r,
    feedback_weights,
    run_feedback_b,
    select_terms,
    selected_vocabulary_size,
)
from probir.scoring import Ranking, bm11_query_weight, idf, rank, score_bm11

from corpus_builders import make_index, random_token_rows, random_vocab, top_bag
from oracles import word_prob, word_var


class TestWordProb:
    def test_empty_bag_prior(self):
        assert word_prob(0, 0) == 0.5
        assert word_var(0.5, 0) == pytest.approx(0.25 / 3, abs=1e-12)

    def test_hand_values(self):
        assert word_prob(2, 8) == pytest.approx(0.3, abs=1e-12)
        assert word_var(0.3, 8) == pytest.approx(0.21 / 11, abs=1e-12)

    def test_bounds(self):
        for tf in range(0, 30, 3):
            for size in range(tf, 50, 7):
                pr = word_prob(tf, size)
                assert 0.0 < pr < 1.0
                assert word_var(pr, size) > 0.0


class TestRelevance:
    def test_identical_rates_score_zero(self):
        # two identical docs: every word has the same rate in bag and complement
        index = make_index([("a", "", "x y z"), ("b", "", "x y z")])
        bag = top_bag(index, ["a"])
        for word in ("x", "y", "z"):
            assert bag.relevance(word) == 0.0

    def test_concentrated_word_is_positive(self):
        index = make_index([("a", "", "gold gold gold dust"),
                            ("b", "", "plain filler text here"),
                            ("c", "", "plain filler text here")])
        bag = top_bag(index, ["a"])
        assert bag.relevance("gold") > 0

    def test_absent_word_is_negative(self):
        index = make_index([("a", "", "gold dust"),
                            ("b", "", "plain plain plain filler"),
                            ("c", "", "plain plain plain filler")])
        bag = top_bag(index, ["a"])
        assert bag.relevance("plain") < 0

    def test_matches_direct_formula(self):
        rng = random.Random(653)
        vocab = random_vocab(rng, 10)
        config = TokenizerConfig()
        for _ in range(10):
            rows = random_token_rows(rng, rng.randint(3, 8), vocab)
            index = make_index(rows)
            tokens = {
                r[0]: tokenize(r[1], config) + tokenize(r[2], config) for r in rows
            }
            top = [r[0] for r in rows[:2]]
            bag = top_bag(index, top)
            bag_tokens = [t for d in top for t in tokens[d]]
            total = sum(len(t) for t in tokens.values())
            for word in rng.sample(vocab, 5):
                tf_bag = bag_tokens.count(word)
                ctf = sum(t.count(word) for t in tokens.values())
                size = len(bag_tokens)
                comp_size = total - size
                pr_b = (tf_bag + 1) / (size + 2)
                pr_c = (ctf - tf_bag + 1) / (comp_size + 2)
                var = (pr_b * (1 - pr_b) / (size + 3)
                       + pr_c * (1 - pr_c) / (comp_size + 3))
                want = (pr_b - pr_c) / math.sqrt(var)
                assert bag.relevance(word) == pytest.approx(want, abs=1e-12)


class TestTopDocBag:
    def test_keeps_each_documents_bag_in_rank_order(self):
        index = make_index([("a", "", "gold gold vault"), ("b", "", "vault maps"),
                            ("c", "", "dull text")])
        bag = top_bag(index, ["b", "a"])
        assert bag.doc_ids == ("b", "a")
        assert [list(b.items()) for b in bag.doc_bags] == [
            [("vault", 1), ("maps", 1)], [("gold", 2), ("vault", 1)]]
        assert list(bag.tf.items()) == [("vault", 2), ("maps", 1), ("gold", 2)]
        assert (bag.size, bag.comp_size) == (5, 2)

    def test_complement_never_negative(self):
        rng = random.Random(7207)
        vocab = random_vocab(rng, 12)
        for _ in range(10):
            rows = random_token_rows(rng, rng.randint(2, 10), vocab)
            index = make_index(rows)
            k = rng.randint(1, len(rows))
            bag = top_bag(index, [r[0] for r in rows[:k]])
            assert bag.size + bag.comp_size == index.total_len
            for word in bag.tf:
                assert index.term_stats(word).collection_tf - bag.tf[word] >= 0


class TestSelectTerms:
    def build(self):
        index = make_index([
            ("a", "", "gold gold vault codes"),
            ("b", "", "gold vault maps"),
            ("c", "", "dull mundane filler text"),
            ("d", "", "dull mundane filler text"),
            ("e", "", "dull mundane filler text"),
        ])
        return index, top_bag(index, ["a", "b"])

    def test_minus_inf_keeps_the_whole_bag(self):
        index, bag = self.build()
        terms = select_terms(index.doc_terms("a"), bag, -math.inf)
        assert terms == {"gold": 2, "vault": 1, "codes": 1}

    def test_plus_inf_keeps_nothing(self):
        index, bag = self.build()
        assert select_terms(index.doc_terms("a"), bag, math.inf) == {}

    def test_threshold_matches_recomputed_relevance(self):
        index, bag = self.build()
        theta = THETA_BY_P[0.10]
        got = select_terms(index.doc_terms("a"), bag, theta)
        want = {w: tf for w, tf in index.doc_terms("a").items()
                if bag.relevance(w) >= theta}
        assert got == want
        assert "gold" in got  # bag-only, repeated: comfortably over 1.28

    def test_monotone_in_theta(self):
        index, bag = self.build()
        doc = index.doc_terms("a")
        previous = None
        for theta in (-2.0, 0.0, 1.0, 2.0, 5.0):
            selected = set(select_terms(doc, bag, theta))
            if previous is not None:
                assert selected <= previous
            previous = selected

    def test_vocabulary_size_counts_the_union(self):
        index, bag = self.build()
        theta = 0.0
        want = sum(1 for w in bag.tf if bag.relevance(w) >= theta)
        assert selected_vocabulary_size(bag, theta) == want
        assert selected_vocabulary_size(top_bag(index, []), theta) == 0


class TestAutoR:
    def test_growth_acceleration_breaks(self):
        sizes = {0: 0, 1: 2, 2: 7, 3: 10, 4: 14, 5: 15}
        # diffs: 5 (r=2), 3 (r=3), 4 (r=4): first acceleration at r=4
        assert _auto_r_core(sizes.__getitem__, 5) == 4

    def test_immediate_acceleration(self):
        sizes = {0: 0, 1: 1, 2: 2, 3: 8, 4: 9}
        assert _auto_r_core(sizes.__getitem__, 4) == 3

    def test_concave_growth_runs_to_the_limit(self):
        sizes = {i: 20 * i - i * i for i in range(10)}  # diffs strictly decrease
        assert _auto_r_core(sizes.__getitem__, 9) == 9

    def test_tiny_result_lists(self):
        assert _auto_r_core(lambda i: 0, 2) == 2
        assert _auto_r_core(lambda i: 0, 1) == 1

    def test_bounds_on_real_corpora(self):
        rng = random.Random(3202)
        vocab = random_vocab(rng, 15)
        for _ in range(8):
            rows = random_token_rows(rng, rng.randint(1, 12), vocab)
            index = make_index(rows)
            ranking = Ranking("q", tuple((r[0], 1.0) for r in rows))
            cap = rng.choice([3, 5, 20])
            r = auto_r(PrefixBags(index, ranking), theta=1.281552, r_cap=cap)
            assert 1 <= r <= min(len(ranking), cap)


class TestAlpha:
    def test_sixteen_words_over_four(self):
        assert alpha(4, 16) == 2.0

    def test_single_query_word(self):
        assert alpha(1, 13) == 13.0

    def test_nothing_selected(self):
        assert alpha(3, 0) == 1.0

    def test_single_selected_word(self):
        assert alpha(7, 1) == 1.0

    def test_power_consistency(self):
        for k in (2, 3, 5):
            for m in (1, 2, 3, 4):
                assert alpha(m, k**m) == pytest.approx(k, rel=1e-12)

    def test_at_least_one(self):
        for m in range(1, 9):
            for n in range(0, 40, 5):
                assert alpha(m, n) >= 1.0

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            alpha(0, 5)


def oracle_scores(rows, query_bag, top_docs, theta, alpha_value, k_q=1000.0):
    """Monolithic recomputation of the feedback scores from raw rows."""
    config = TokenizerConfig()
    tokens = {r[0]: tokenize(r[1], config) + tokenize(r[2], config) for r in rows}
    n = len(rows)
    total = sum(len(t) for t in tokens.values())
    avg = total / n

    def df(word):
        return sum(1 for t in tokens.values() if word in t)

    def ctf(word):
        return sum(t.count(word) for t in tokens.values())

    bag_tokens = [t for d in top_docs for t in tokens[d]]
    size = len(bag_tokens)
    comp_size = total - size

    def rel(word):
        tf_bag = bag_tokens.count(word)
        pr_b = (tf_bag + 1) / (size + 2)
        pr_c = (ctf(word) - tf_bag + 1) / (comp_size + 2)
        var = pr_b * (1 - pr_b) / (size + 3) + pr_c * (1 - pr_c) / (comp_size + 3)
        return (pr_b - pr_c) / math.sqrt(var)

    def q(word, tf):
        d = df(word)
        if d == 0:
            return 0.0
        return (k_q + 1) * tf / (k_q + tf) * math.log(n / d)

    r = len(top_docs)
    filtered = []
    for doc_id in top_docs:
        doc_tf = {}
        for w in tokens[doc_id]:
            doc_tf[w] = doc_tf.get(w, 0) + 1
        filtered.append({w: tf for w, tf in doc_tf.items() if rel(w) >= theta})
    weights = {}
    for w, tf in query_bag.items():
        weights[w] = alpha_value * q(w, tf)
    for f in filtered:
        for w, tf in f.items():
            weights[w] = weights.get(w, 0.0) + q(w, tf) / r

    scores = {}
    for doc_id, toks in tokens.items():
        s = 0.0
        for w, weight in weights.items():
            tf = toks.count(w)
            if tf:
                s += tf / (tf + len(toks) / avg) * weight
        scores[doc_id] = s
    return scores


class TestFeedbackWeights:
    def test_query_only_words_scale_by_alpha(self):
        index = make_index([("a", "", "gold maps"), ("b", "", "dull text")])
        weights = feedback_weights({"gold": 1}, top_bag(index, ["a"]),
                                   FeedbackBParams(theta=math.inf, alpha=2.5))
        assert weights == {
            "gold": 2.5 * bm11_query_weight(1, idf(1, 2), 1000.0)
        }

    def test_adopted_word_enters_at_one_over_r(self):
        index = make_index([
            ("a", "", "gold gold gold vault"),
            ("b", "", "gold plain"),
            ("c", "", "dull text filler one"),
            ("d", "", "dull text filler two"),
        ])
        bag = top_bag(index, ["a", "b"])
        weights = feedback_weights({"plain": 1}, bag,
                                   FeedbackBParams(theta=1.0, alpha=1.0))
        assert bag.relevance("gold") >= 1.0
        expected = (bm11_query_weight(3, idf(2, 4), 1000.0) / 2
                    + bm11_query_weight(1, idf(2, 4), 1000.0) / 2)
        assert weights["gold"] == pytest.approx(expected, rel=1e-12)

    def test_matches_monolithic_oracle(self):
        rng = random.Random(1464)
        vocab = random_vocab(rng, 12)
        for _ in range(8):
            rows = random_token_rows(rng, rng.randint(4, 12), vocab)
            index = make_index(rows)
            query_terms = [t for t in rng.sample(vocab, 3) if index.df(t) > 0]
            if not query_terms:
                continue
            query_bag = {t: 1 for t in query_terms}
            top = [r[0] for r in rows[:3]]
            theta = rng.choice([0.5, 1.281552, 2.0])
            a = rng.choice([1.0, 1.7])
            weights = feedback_weights(query_bag, top_bag(index, top),
                                       FeedbackBParams(theta=theta, alpha=a))
            want = oracle_scores(rows, query_bag, top, theta, a)
            for doc_id in index.doc_ids():
                got = score_bm11(index, doc_id, weights)
                assert got == pytest.approx(want[doc_id], abs=1e-9)


class TestRunFeedbackB:
    def bm11_query_weights(self, index, query_bag):
        return {
            w: bm11_query_weight(tf, idf(index.df(w), index.n_docs), 1000.0)
            for w, tf in query_bag.items() if index.df(w) > 0
        }

    def test_degenerate_params_reproduce_first_ranking(self):
        rng = random.Random(624)
        vocab = random_vocab(rng, 12)
        for _ in range(8):
            rows = random_token_rows(rng, rng.randint(3, 10), vocab)
            index = make_index(rows)
            query_bag = {t: 1 for t in rng.sample(vocab, 3) if index.df(t) > 0}
            if not query_bag:
                continue
            weights = self.bm11_query_weights(index, query_bag)
            first = rank(index, lambda d: score_bm11(index, d, weights), 50, "q")
            again = run_feedback_b(query_bag, PrefixBags(index, first),
                                   FeedbackBParams(theta=math.inf, alpha=1.0, r=3))
            assert again.items == first.items  # bit-exact scores

    def test_fixed_r_one_uses_single_doc(self):
        index = make_index([
            ("a", "", "gold gold gold vault"),
            ("b", "", "gold plain text"),
            ("c", "", "dull filler words"),
            ("d", "", "dull filler words"),
        ])
        query_bag = {"gold": 1}
        weights = self.bm11_query_weights(index, query_bag)
        first = rank(index, lambda d: score_bm11(index, d, weights), 4, "q")
        assert first.doc_ids()[0] == "a"
        params = FeedbackBParams(theta=-math.inf, alpha=1.0, r=1)
        fb = feedback_weights(query_bag, top_bag(index, first.doc_ids()[:1]),
                              params)
        # Q' = Q ∪ F(D_1) = words of the single top document plus the query
        assert set(fb) == {"gold", "vault"}
        second = run_feedback_b(query_bag, PrefixBags(index, first), params)
        assert len(second) == 4

    def test_shared_vocabulary_cluster_rises(self):
        # relevant docs share "vault"; one of them lacks the query word
        rows = [
            ("r1", "", "gold vault codes gold"),
            ("r2", "", "gold vault maps"),
            ("r3", "", "vault codes maps"),
        ]
        rows += [(f"n{i}", "", "dull filler words") for i in range(7)]
        index = make_index(rows)
        query_bag = {"gold": 1}
        weights = self.bm11_query_weights(index, query_bag)
        first = rank(index, lambda d: score_bm11(index, d, weights), 10, "q")
        before = first.doc_ids().index("r3")
        second = run_feedback_b(query_bag, PrefixBags(index, first),
                                FeedbackBParams(theta=1.0, alpha=1.0, r=2))
        after = second.doc_ids().index("r3")
        assert after < before

    def test_fixed_r_clamps_to_result_size(self):
        index = make_index([("a", "", "gold dust"), ("b", "", "plain text")])
        query_bag = {"gold": 1}
        weights = self.bm11_query_weights(index, query_bag)
        first = rank(index, lambda d: score_bm11(index, d, weights), 2, "q")
        second = run_feedback_b(query_bag, PrefixBags(index, first),
                                FeedbackBParams(theta=0.0, alpha=1.0, r=100))
        assert len(second) == 2


class TestParams:
    def test_theta_table(self):
        assert FeedbackBParams(p_level=0.05).resolved_theta() == 1.644854
        assert FeedbackBParams(p_level=0.01).resolved_theta() == 2.326348
        assert FeedbackBParams(theta=0.42).resolved_theta() == 0.42

    def test_validation(self):
        with pytest.raises(ValueError):
            FeedbackBParams(p_level=0.2)
        with pytest.raises(ValueError):
            FeedbackBParams(r=0)
        with pytest.raises(ValueError):
            FeedbackBParams(r_cap=0)

    def test_non_finite_alpha_and_nan_theta_refused(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha must be finite"):
                FeedbackBParams(alpha=value)
        with pytest.raises(ValueError, match="theta must be a number"):
            FeedbackBParams(theta=math.nan)
        # an infinite θ is the select-nothing / select-everything limit
        assert FeedbackBParams(theta=math.inf).resolved_theta() == math.inf
        assert FeedbackBParams(theta=-math.inf).resolved_theta() == -math.inf
