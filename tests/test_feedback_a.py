import math
import random
from types import SimpleNamespace

import pytest
from scipy import stats

from probir import feedback_a
from probir.corpus import QueryType, Topic, TokenizerConfig
from probir.feedback_a import (
    FeedbackAParams,
    TopDocCounts,
    afw,
    binomial_tail,
    expansion_terms,
    feedback_idf,
    feedback_vector,
)
from probir.pipeline import Analyzer, search_system_a, search_topic_a
from probir.scoring import ScoringParamsA, SystemATables, rank, score_system_a
from probir.term_extraction import SHORTEST, ExtractionConfig

from corpus_builders import make_index, random_token_rows, random_vocab, top_view

NO_CATEGORY = ScoringParamsA(use_category=False)
TOK = Analyzer(TokenizerConfig())


def flat_topic(vector):
    """A compiled topic whose flat query vector is ``vector``."""
    return SimpleNamespace(query_id="q", vector=vector, phrases=[], lattice=False,
                           max_span=6, joiner=" ")


class TestAfw:
    def test_endpoints(self):
        assert afw(1, 5, 0.5) == 1.5
        assert afw(5, 5, 0.5) == 0.5

    def test_midpoint_is_one(self):
        assert afw(3, 5, 0.5) == 1.0

    def test_single_doc(self):
        assert afw(1, 1, 0.9) == 1.0

    def test_zero_decay_counts_plainly(self):
        assert all(afw(r, 7, 0.0) == 1.0 for r in range(1, 8))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            afw(0, 5, 0.5)
        with pytest.raises(ValueError):
            afw(6, 5, 0.5)

    def test_weights_sum_to_k_r(self):
        for k_r in (1, 2, 5, 9, 20):
            for k_afw in (0.0, 0.3, 0.5, 0.99):
                total = sum(afw(r, k_r, k_afw) for r in range(1, k_r + 1))
                assert total == pytest.approx(k_r, abs=1e-12)


def weighted_doc_ratios(term, top_docs, index, k_afw):
    return TopDocCounts(top_view(index, top_docs), len(top_docs), k_afw).ratio(term)


def adopted(top_docs, index, k_r, k_p, k_afw, kp_literal=False, candidates=None):
    """``expansion_terms`` over the top k_r of ``top_docs``."""
    counts = TopDocCounts(top_view(index, top_docs), k_r, k_afw)
    return expansion_terms(counts, {}, k_p, kp_literal, candidates)


class TestWeightedDocRatios:
    def build(self):
        return make_index([
            ("r1", "gold", "gold coins here"),
            ("r2", "silver", "nothing else"),
            ("r3", "gold", "gold gold mentioned"),
            ("r4", "filler", "filler text"),
        ])

    def test_everywhere_term_is_exactly_one(self):
        index = make_index([("a", "x", "x y"), ("b", "x", "y z"), ("c", "x", "z")])
        assert weighted_doc_ratios("x", ["a", "b", "c"], index, 0.5) == 1.0

    def test_absent_term_is_zero(self):
        index = self.build()
        assert weighted_doc_ratios("platinum", ["r1", "r2", "r3"],
                                   index, 0.5) == 0.0

    def test_ranks_one_and_three_of_three(self):
        index = self.build()
        ratio_c = weighted_doc_ratios("gold", ["r1", "r2", "r3"], index, 0.5)
        assert ratio_c == pytest.approx(2 / 3, abs=1e-12)

    def test_empty_prefix(self):
        index = self.build()
        assert weighted_doc_ratios("gold", [], index, 0.5) == 0.0


class TestFeedbackIdf:
    def test_no_shift_leaves_idf_alone(self):
        assert feedback_idf(True, 0.4, 0.4, 0.7, 2.5) == 2.5

    def test_enriched_term_gains(self):
        got = feedback_idf(True, 0.8, 0.1, 0.7, 3.0)
        assert got == pytest.approx(1.49 * 3.0, rel=1e-12)

    def test_absent_expansion_term_clamps_to_zero(self):
        assert feedback_idf(False, 0.0, 0.2, 0.7, 3.0) == 0.0

    def test_monotone_in_ratios(self):
        grid = [i / 10 for i in range(11)]
        values = [feedback_idf(True, rc, 0.3, 0.7, 2.0) for rc in grid]
        assert values == sorted(values)
        values = [feedback_idf(True, 0.3, rd, 0.7, 2.0) for rd in grid]
        assert values == sorted(values, reverse=True)


class TestBinomialTail:
    def test_zero_observations(self):
        assert binomial_tail(5, 0.3, 0) == 1.0

    def test_more_than_trials(self):
        assert binomial_tail(5, 0.3, 6) == 0.0

    def test_worked_tail(self):
        # C(5,3)·.1³·.9² + C(5,4)·.1⁴·.9 + .1⁵ = .0081 + .00045 + .00001
        assert binomial_tail(5, 0.1, 3) == pytest.approx(0.00856, abs=1e-12)

    def test_certain_event(self):
        assert binomial_tail(4, 1.0, 4) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy_survival_function(self):
        rng = random.Random(271)
        for _ in range(60):
            k_r = rng.randint(1, 20)
            p0 = rng.choice([0.01, 0.1, 1 / 3, 0.5, 0.9, rng.random()])
            n_obs = rng.randint(0, k_r + 1)
            want = stats.binom.sf(n_obs - 1, k_r, p0)
            assert binomial_tail(k_r, p0, n_obs) == pytest.approx(want, abs=1e-12)


class TestExpansionTerms:
    def expansion_corpus(self):
        # "gold" in 5 of 50 docs; three of those are the retrieval's top 5;
        # "common" blankets the whole collection
        rows = [
            ("t1", "query hit", "payload gold inside common"),
            ("t2", "query hit", "plain payload common"),
            ("t3", "query hit", "payload gold inside common"),
            ("t4", "query hit", "plain payload common"),
            ("t5", "query hit", "payload gold inside common"),
        ]
        rows += [(f"f{i:02d}", "filler", "assorted words common") for i in range(43)]
        rows += [("g1", "other", "gold elsewhere common"),
                 ("g2", "other", "gold elsewhere common")]
        return make_index(rows)

    def test_surprising_term_selected(self):
        index = self.expansion_corpus()
        top = ["t1", "t2", "t3", "t4", "t5"]
        # gold at ranks 1,3,5: weighted count 1.5+1.0+0.5 = 3 -> n_obs 3,
        # p0 = 5/50, tail 0.00856, significance 0.99144 >= 0.9
        got = adopted(top, index, k_r=5, k_p=0.9, k_afw=0.5)
        assert "gold" in got

    def test_everywhere_term_never_selected(self):
        index = self.expansion_corpus()
        top = ["t1", "t2", "t3", "t4", "t5"]
        got = adopted(top, index, k_r=5, k_p=0.9, k_afw=0.5)
        assert "common" not in got  # p0 = 1: present in every collection doc
        # "payload" appears in all five top docs but df=5/50 keeps it eligible
        assert "payload" in got

    def test_fractional_count_rounds_to_zero(self):
        index = self.expansion_corpus()
        # k_afw = 0.6: a term only in the last of five docs weighs 0.4 -> n_obs 0
        got = adopted(["t2", "t4", "t1", "t3", "t5"], index,
                              k_r=5, k_p=0.0, k_afw=0.6)
        # t5 is rank 5; "gold" sits in t1(3), t3(4), t5(5) with weights
        # 1.0+0.8+0.4 = 2.2 -> n_obs 2 -> still eligible; but a term unique
        # to t5 would round to zero.  Use a dedicated corpus for clarity:
        index2 = make_index([
            ("a", "x", "common words"),
            ("b", "x", "common words"),
            ("c", "x", "common words"),
            ("d", "x", "common words"),
            ("e", "x", "rare common words"),
            ("z", "y", "rare something"),
        ])
        got2 = adopted(["a", "b", "c", "d", "e"], index2,
                               k_r=5, k_p=0.0, k_afw=0.6)
        assert "rare" not in got2

    def test_literal_threshold_flips_selection(self):
        index = self.expansion_corpus()
        top = ["t1", "t2", "t3", "t4", "t5"]
        literal = adopted(top, index, k_r=5, k_p=0.9, k_afw=0.5,
                                  kp_literal=True)
        assert "gold" not in literal  # tail 0.00856 < 0.9

    def test_explicit_candidates_restrict_the_pool(self):
        index = self.expansion_corpus()
        top = ["t1", "t2", "t3", "t4", "t5"]
        got = adopted(top, index, k_r=5, k_p=0.9, k_afw=0.5,
                              candidates=["payload"])
        assert got == {"payload"}

    def test_empty_top_docs(self):
        index = self.expansion_corpus()
        assert adopted([], index, k_r=5, k_p=0.9, k_afw=0.5) == set()


class TestFeedbackVector:
    def test_expansions_enter_with_unit_weight(self):
        index = make_index([
            ("a", "query", "query bonus words"),
            ("b", "query", "query bonus words"),
            ("c", "other", "unrelated text here"),
            ("d", "other", "unrelated text here"),
        ])
        vector, idf_map = feedback_vector(
            {"query": (1.0, 1)}, top_view(index, ["a", "b"]),
            FeedbackAParams(k_r=2, k_p=0.5, k_afw=0.5), {})
        assert vector["query"] == (1.0, 1)
        assert vector["bonus"] == (1.0, 1)
        assert "bonus" in idf_map
        # in-query term keeps E=1; expansion term runs on E=0
        assert idf_map["query"] > idf_map["bonus"] > 0

    def test_unseen_query_terms_have_no_idf(self, toy_index):
        vector, idf_map = feedback_vector(
            {"enterprise": (1.0, 1), "qqqq": (1.0, 1)}, top_view(toy_index, ["d1"]),
            FeedbackAParams(k_r=1, k_p=1.0), {})
        assert "qqqq" in vector
        assert "qqqq" not in idf_map


class TestRunFeedbackA:
    """A's feedback pass, run by ``search_topic_a`` after its first pass."""

    def test_degenerate_params_reproduce_first_ranking(self):
        rng = random.Random(90125)
        vocab = random_vocab(rng, 15)
        for _ in range(8):
            rows = random_token_rows(rng, rng.randint(4, 15), vocab)
            index = make_index(rows)
            terms = rng.sample(vocab, 4)
            vector = {
                t: (1.0, 1) for t in terms if index.df(t) > 0
            }
            if not vector:
                continue
            first = rank(index, lambda d: score_system_a(index, d, vector,
                                                         NO_CATEGORY), 100)
            again = search_topic_a(TOK, flat_topic(vector),
                                   SystemATables(index, NO_CATEGORY),
                                   FeedbackAParams(k_af=0.0, k_p=1.0), cutoff=100)
            assert again.items == first.items  # scores equal bit for bit

    def test_shared_discriminative_term_promotes_carriers(self):
        # "z1" sorts after every filler, so without the adopted term it sits
        # at the very bottom of the tie on length bonus alone
        rows = [
            ("a", "map", "map treasure island"),
            ("b", "map", "map treasure cove"),
            ("c", "map", "map treasure reef"),
            ("z1", "hidden", "treasure vault secret"),
        ]
        rows += [(f"f{i:02d}", "noise", "assorted ordinary words") for i in range(26)]
        index = make_index(rows)
        vector = {"map": (1.0, 1)}
        first = rank(index, lambda doc: score_system_a(index, doc, vector,
                                                       NO_CATEGORY), 30)
        params = FeedbackAParams(k_r=3, k_p=0.9, k_afw=0.5)
        assert "treasure" in adopted(first.doc_ids()[:3], index,
                                             3, 0.9, 0.5)
        # the pass feedback starts from is the oracle's ranking
        tables = SystemATables(index, NO_CATEGORY)
        assert search_topic_a(TOK, flat_topic(vector), tables,
                              cutoff=30).items == first.items
        second = search_topic_a(TOK, flat_topic(vector), tables, params, cutoff=30)
        before = first.doc_ids().index("z1")
        after = second.doc_ids().index("z1")
        assert after < before

    def test_k_r_beyond_result_list(self):
        index = make_index([("a", "alpha", "alpha beta"), ("b", "beta", "gamma")])
        vector = {"alpha": (1.0, 1)}
        first = rank(index, lambda d: score_system_a(index, d, vector,
                                                     NO_CATEGORY), 2)
        second = search_topic_a(TOK, flat_topic(vector),
                                SystemATables(index, NO_CATEGORY),
                                FeedbackAParams(k_r=50), cutoff=2)
        assert len(second) == 2

    def test_each_tail_is_summed_once_per_run(self, monkeypatch):
        """The topics of one ``search_system_a`` call share its tables' tail
        memo; a second call, in the same process, sums its own again."""
        rng = random.Random(1729)
        vocab = random_vocab(rng, 12)
        index = make_index(random_token_rows(rng, 40, vocab, max_len=12))
        topics = [Topic(query_id=f"q{i}", title=" ".join(rng.sample(vocab, 2)))
                  for i in range(8)]
        sums = []
        original = feedback_a.binomial_tail

        def counting(k, p0, n_obs):
            sums.append((k, p0, n_obs))
            return original(k, p0, n_obs)

        monkeypatch.setattr(feedback_a, "binomial_tail", counting)

        def run():
            sums.clear()
            rankings, _ = search_system_a(index, topics, QueryType.VERY_SHORT, TOK,
                                          ExtractionConfig(SHORTEST), ScoringParamsA(),
                                          FeedbackAParams(k_r=5), cutoff=30)
            assert len(rankings) == len(topics)
            return list(sums)

        first = run()
        assert first and len(set(first)) == len(first)
        assert run() == first

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FeedbackAParams(k_r=0)
        with pytest.raises(ValueError):
            FeedbackAParams(k_p=1.5)
        with pytest.raises(ValueError):
            FeedbackAParams(k_afw=1.0)
