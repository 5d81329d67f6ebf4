"""Per-topic feedback statistics computed once and shared, against the plain
versions in ``oracles``: the top-document view (its prefix bags, System A's
feedback counts and document expansion), the score-only lattice DP, System
B's relevance table, feedback weights, auto-R and the parameter sweep.
Every comparison is exact."""

import math
import random

from hypothesis import given, settings, strategies as st

import oracles
from probir import feedback_a, feedback_b
from probir.clir import document_expansion
from probir.corpus import CHARACTER_MODE, QueryType, Topic, TokenizerConfig
from probir.feedback_a import FeedbackAParams, TopDocCounts, expansion_terms, feedback_vector
from probir.feedback_b import (
    AUTO,
    FeedbackBParams,
    PrefixBags,
    auto_r,
    feedback_weights,
    run_feedback_b,
)
from probir.pipeline import Analyzer, sweep_b
from probir.segmentation import build_mi_table, collection_sentences, segment
from probir.scoring import Ranking, bm11_retrieval
from probir.term_extraction import lattice_best_path, lattice_best_score

from corpus_builders import (
    make_collection,
    make_index,
    random_token_rows,
    random_vocab,
    top_bag,
    top_view,
)

ALPHABET = "abcde"
SEEDS = st.integers(0, 2**32 - 1)


def token_corpus(rng, every=""):
    """A token index, its vocabulary, and terms of one to three units;
    ``every``, when given, ends each document's body."""
    vocab = random_vocab(rng, rng.randint(3, 9))
    rows = random_token_rows(rng, rng.randint(1, 9), vocab, max_len=15)
    index = make_index([(doc_id, title, f"{body} {every}")
                        for doc_id, title, body in rows])
    terms = vocab + [" ".join(rng.choices(vocab, k=rng.randint(2, 3)))
                     for _ in range(4)] + ["zzzz", "zzzz " + vocab[0]]
    return index, terms


def char_corpus(rng, every=""):
    """A character index and strings of one to three characters; ``every``,
    when given, ends each document's body."""
    def text(low, high):
        return "".join(rng.choices(ALPHABET, k=rng.randint(low, high)))
    rows = [(f"c{i:02d}", text(0, 5), text(1, 25) + every)
            for i in range(rng.randint(1, 9))]
    index = make_index(rows, mode=CHARACTER_MODE)
    terms = list(ALPHABET) + [text(2, 3) for _ in range(6)] + ["q", "qa"]
    return index, terms


def corpus(rng, mode, every=""):
    return (char_corpus if mode == CHARACTER_MODE else token_corpus)(rng, every)


def top_documents(rng, index):
    """A ranking prefix: some of the documents, in a random order."""
    docs = list(index.doc_ids())
    rng.shuffle(docs)
    return tuple(docs[:rng.randint(0, len(docs))])


class TestOneWalkFeedbackA:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, mode=st.sampled_from(["token", CHARACTER_MODE]),
           explicit=st.booleans())
    def test_feedback_vector_equals_per_document_oracle(self, seed, mode, explicit):
        rng = random.Random(seed)
        index, terms = corpus(rng, mode)
        top_docs = top_documents(rng, index)
        params = FeedbackAParams(
            k_r=rng.randint(1, index.n_docs + 3),  # may exceed the ranking
            k_af=rng.choice([0.0, 0.7, 1.3]),
            k_p=rng.choice([0.0, 0.5, 0.9, 1.0]),
            k_afw=rng.choice([0.0, 0.5, 0.9]),
            kp_literal=rng.random() < 0.3,
        )
        # originals: units, runs of several units, terms no document holds
        query_vector = {term: (1.0, rng.randint(1, 2))
                        for term in rng.sample(terms, rng.randint(1, len(terms)))}
        candidates = (set(rng.sample(terms, rng.randint(0, len(terms))))
                      if explicit else None)

        calls = []
        original = feedback_a.weighted_doc_count

        def counting(ranks, *args):
            calls.append(tuple(ranks))
            return original(ranks, *args)

        feedback_a.weighted_doc_count = counting
        try:
            got = feedback_vector(query_vector, top_view(index, top_docs), params,
                                  {}, candidates)
        finally:
            feedback_a.weighted_doc_count = original
        want = oracles.feedback_vector(query_vector, top_docs, index, params,
                                       candidates)
        assert list(got[0].items()) == list(want[0].items())
        assert list(got[1].items()) == list(want[1].items())
        # one count per term: the adoption test and the IDF pass share them
        docs = top_docs[:params.k_r]
        if docs:
            tested = (candidates if candidates is not None
                      else {u for doc_id in docs for u in index.doc_terms(doc_id)})
            read = {t for t in got[0] if index.df(t) > 0}
            assert len(calls) == len(tested | read)
        else:
            assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, mode=st.sampled_from(["token", CHARACTER_MODE]))
    def test_one_count_per_tested_candidate(self, seed, mode):
        rng = random.Random(seed)
        index, terms = corpus(rng, mode)
        top_docs = top_documents(rng, index) or index.doc_ids()[:1]
        k_r = rng.randint(1, index.n_docs + 3)
        candidates = set(rng.sample(terms, rng.randint(0, len(terms))))
        calls = []
        original = feedback_a.weighted_doc_count

        def counting(*args):
            calls.append(args)
            return original(*args)

        feedback_a.weighted_doc_count = counting
        try:
            got = expansion_terms(TopDocCounts(top_view(index, top_docs), k_r, 0.5),
                                  {}, 0.5, candidates=candidates)
            default = expansion_terms(
                TopDocCounts(top_view(index, top_docs), k_r, 0.5), {}, 0.5)
        finally:
            feedback_a.weighted_doc_count = original
        units = {u for doc_id in top_docs[:k_r] for u in index.doc_terms(doc_id)}
        assert len(calls) == len(candidates) + len(units)
        assert got == oracles.expansion_terms(top_docs, index, k_r, 0.5, 0.5,
                                              candidates=candidates)
        assert default == oracles.expansion_terms(top_docs, index, k_r, 0.5, 0.5)

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, mode=st.sampled_from(["token", CHARACTER_MODE]),
           kp_literal=st.booleans())
    def test_one_tail_memo_serves_every_top_document_set(self, seed, mode,
                                                         kp_literal):
        """The top documents of several topics share one run's memo: k_r = 1,
        k_r beyond the ranking (k < k_r), and a unit every document holds
        (df = n), in each mode.  Each memo entry is the tail its key
        names."""
        rng = random.Random(seed)
        # every document holds "q", a unit no other draw of either mode makes
        index, terms = corpus(rng, mode, every="q")
        assert index.df("q") == index.n_docs
        tails = {}
        for _ in range(rng.randint(2, 6)):
            top_docs = top_documents(rng, index)
            k_r = rng.choice([1, len(top_docs) + rng.randint(1, 3),
                              rng.randint(1, index.n_docs + 3)])
            k_p = rng.choice([0.0, 0.5, 0.9, 1.0])
            candidates = (set(rng.sample(terms, rng.randint(0, len(terms)))) | {"q"}
                          if rng.random() < 0.5 else None)
            got = expansion_terms(TopDocCounts(top_view(index, top_docs), k_r, 0.5),
                                  tails, k_p, kp_literal, candidates)
            assert got == oracles.expansion_terms(top_docs, index, k_r, k_p, 0.5,
                                                  kp_literal, candidates)
        for (k, df, n_obs), tail in tails.items():
            assert tail == feedback_a.binomial_tail(k, df / index.n_docs, n_obs)

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, mode=st.sampled_from(["token", CHARACTER_MODE]))
    def test_ranks_equal_a_positive_doc_tf_scan(self, seed, mode):
        """Units, runs of several units and terms no document holds, read
        from the one walk or from the postings."""
        rng = random.Random(seed)
        index, terms = corpus(rng, mode)
        docs = top_documents(rng, index)
        counts = TopDocCounts(top_view(index, docs), len(docs), 0.5)
        for term in terms + [""]:
            assert counts.ranks(term) == oracles.doc_ranks(term, docs, index), term
            assert counts.ratio(term) == oracles.weighted_doc_ratios(
                term, docs, index, 0.5)


class TestSegmentationMemo:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, k_cmi=st.sampled_from([-math.inf, 0.0, 1.0, math.inf]))
    def test_memoised_candidates_equal_fresh_segmentation(self, seed, k_cmi):
        rng = random.Random(seed)

        def text(low, high):
            return "".join(rng.choices(ALPHABET, k=rng.randint(low, high)))
        rows = [(f"c{i:02d}", text(0, 6), text(1, 25)) for i in range(rng.randint(1, 8))]
        config = TokenizerConfig(mode=CHARACTER_MODE)
        table = build_mi_table(collection_sentences(make_collection(rows), config))
        analyzer = Analyzer(config, table, k_cmi)
        # a second index under the same ids holds other texts: the memo
        # serves the index it was filled from only
        first = make_index(rows, mode=CHARACTER_MODE)
        other = make_index([(doc_id, text(0, 6), text(1, 25)) for doc_id, _, _ in rows],
                           mode=CHARACTER_MODE)
        for index in (first, first, first, other, first):
            docs = top_documents(rng, index)
            want = set()
            for doc_id in docs:
                title, body = index.doc_text(doc_id)
                want.update(segment(title, table, k_cmi))
                want.update(segment(body, table, k_cmi))
            assert analyzer.feedback_candidates(index, docs) == want
            assert set(analyzer._doc_words) >= set(docs)


def non_negative_zero(value):
    return value + 0.0  # turns -0.0 into 0.0 and leaves the rest alone


class TestLatticeBestScore:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), joiner=st.sampled_from([" ", ""]),
           n=st.integers(1, 8))
    def test_equals_the_path_score(self, data, joiner, n):
        units = st.sampled_from(["a", "b", "c"])
        phrase = data.draw(st.lists(units, min_size=n, max_size=n), label="phrase")
        docs = ["d1", "d2", "d3"]
        values = st.floats(-1e3, 1e3, allow_nan=False).map(non_negative_zero)
        contributions = {}
        for i in range(1, n + 1):
            for j in range(i):
                term = joiner.join(phrase[j:i])
                if term not in contributions:
                    holders = data.draw(st.lists(st.sampled_from(docs), unique=True),
                                        label="holders")
                    contributions[term] = {d: data.draw(values, label="value")
                                           for d in holders}
        rows = [[contributions[joiner.join(phrase[j:i])] for j in range(i)]
                for i in range(1, n + 1)]
        scored = docs + ["absent"]
        got = lattice_best_score(rows, scored)
        want = [lattice_best_path(
                    phrase, lambda term: contributions[term].get(doc_id, 0.0),
                    joiner=joiner)[1]
                for doc_id in scored]
        assert got == want
        assert all(math.copysign(1.0, score) == 1.0 for score in got if score == 0.0)


class TestBagRelevance:
    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, mode=st.sampled_from(["token", CHARACTER_MODE]))
    def test_relevance_table_equals_per_word_oracle(self, seed, mode):
        rng = random.Random(seed)
        index, terms = corpus(rng, mode)
        bag = top_bag(index, top_documents(rng, index))
        # the bag's words and words it lacks (some of which no document
        # holds), asked in a random order, so that either kind fills the
        # table first
        words = list(bag.tf) + [t for t in terms if len(index._units(t)) == 1]
        rng.shuffle(words)
        assert [bag.relevance(w) for w in words] == [
            oracles.relevance(bag, w) for w in words]


class TestPrefixBags:
    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, mode=st.sampled_from(["token", CHARACTER_MODE]))
    def test_each_prefix_equals_a_fresh_bag(self, seed, mode):
        rng = random.Random(seed)
        index, terms = corpus(rng, mode)
        doc_ids = list(index.doc_ids())
        rng.shuffle(doc_ids)
        prefixes = PrefixBags(index, Ranking("q", tuple((d, 1.0) for d in doc_ids)))
        order = list(range(len(doc_ids) + 1))
        rng.shuffle(order)
        for i in order:
            got = prefixes.bag(i)
            want = oracles.FreshBag(index, doc_ids[:i])
            assert got.doc_ids == want.doc_ids
            assert [list(b.items()) for b in got.doc_bags] == [
                list(b.items()) for b in want.doc_bags]
            assert list(got.tf.items()) == list(want.tf.items())
            assert (got.size, got.comp_size) == (want.size, want.comp_size)
            # relevance is asked of units: the bag's and some it lacks
            words = list(want.tf) + [t for t in terms if len(index._units(t)) == 1]
            relevance = [oracles.relevance(want, w) for w in words]
            assert [got.relevance(w) for w in words] == relevance
            # and again, now from the memo
            assert [got.relevance(w) for w in words] == relevance
            assert prefixes.bag(i) is got


class TestTopDocumentView:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS)
    def test_view_equals_fresh_counts(self, seed):
        """Everything read from one view of a random ranking equals the
        oracles that count each bag afresh: the prefix bags with their
        relevance and feedback weights (keys in order), System A's counts
        over the top k_r, and document expansion."""
        rng = random.Random(seed)
        index, terms = token_corpus(rng)
        units = [t for t in terms if " " not in t]
        known = [t for t in units if index.df(t) > 0]
        doc_ids = top_documents(rng, index)
        view = top_view(index, doc_ids)
        order = list(range(len(doc_ids) + 1))
        rng.shuffle(order)
        for i in order:
            got, want = view.bag(i), oracles.FreshBag(index, doc_ids[:i])
            assert got.doc_ids == want.doc_ids
            assert [list(b.items()) for b in got.doc_bags] == [
                list(b.items()) for b in want.doc_bags]
            assert list(got.tf.items()) == list(want.tf.items())
            assert (got.size, got.comp_size) == (want.size, want.comp_size)
            words = list(want.tf) + units
            assert [got.relevance(w) for w in words] == [
                oracles.relevance(want, w) for w in words]
            if i and known:
                query_bag = {w: rng.randint(1, 2)
                             for w in rng.sample(known, rng.randint(1, len(known)))}
                params = FeedbackBParams(
                    theta=rng.choice([-math.inf, 0.0, 1.281552, math.inf]),
                    alpha=rng.choice([None, 1.0, -2.0]))
                assert list(feedback_weights(query_bag, got, params).items()) == list(
                    oracles.feedback_weights(query_bag, want, params).items())

        k_r = rng.randint(1, len(doc_ids) + 2)
        k_afw = rng.choice([0.0, 0.5, 0.9])
        counts = TopDocCounts(view, k_r, k_afw)
        docs = doc_ids[:k_r]
        assert counts.docs == docs
        assert counts.units == tuple(dict.fromkeys(
            unit for bag in oracles.FreshBag(index, docs).doc_bags for unit in bag))
        for term in terms + [""]:
            assert counts.ranks(term) == oracles.doc_ranks(term, docs, index), term
            assert counts.ratio(term) == oracles.weighted_doc_ratios(
                term, docs, index, k_afw)

        query_bag = {w: rng.randint(1, 2)
                     for w in rng.sample(units, rng.randint(1, len(units)))}
        expansion = (query_bag, index, rng.randint(0, index.n_docs + 1),
                     rng.choice([-math.inf, 0.0, 1.281552, math.inf]),
                     rng.random() < 0.3)
        assert list(document_expansion(*expansion).items()) == list(
            oracles.document_expansion(*expansion).items())


class TestSharedPrefixesB:
    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, mode=st.sampled_from(["token", CHARACTER_MODE]))
    def test_auto_r_with_and_without_shared_prefixes(self, seed, mode):
        rng = random.Random(seed)
        index, _ = corpus(rng, mode)
        doc_ids = list(index.doc_ids())
        rng.shuffle(doc_ids)
        ranking = Ranking("q", tuple((d, 1.0) for d in doc_ids))
        shared = PrefixBags(index, ranking)
        for _ in range(3):
            theta = rng.choice([-math.inf, -1.0, 0.0, 0.5, 1.281552, 2.0, math.inf])
            cap = rng.choice([1, 2, 3, 5, 20])
            want = oracles.auto_r(ranking, index, theta, cap)
            calls = []
            original = feedback_b.selected_vocabulary_size

            def counting(bag, theta):
                calls.append(len(bag.doc_ids))
                return original(bag, theta)

            feedback_b.selected_vocabulary_size = counting
            try:
                assert auto_r(PrefixBags(index, ranking), theta, cap) == want
                fresh_calls, calls[:] = list(calls), []
                assert auto_r(shared, theta, cap) == want
            finally:
                feedback_b.selected_vocabulary_size = original
            # one vocabulary size per prefix walked, shared bags or not
            assert calls == fresh_calls
            assert calls == ([] if min(len(ranking), cap) < 3
                             else [2, 1] + list(range(3, want + 1)))

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS)
    def test_run_feedback_b_with_shared_prefixes(self, seed):
        rng = random.Random(seed)
        vocab = random_vocab(rng, rng.randint(4, 10))
        index = make_index(random_token_rows(rng, rng.randint(1, 12), vocab))
        bag = {w: rng.randint(1, 2) for w in rng.sample(vocab, rng.randint(1, 3))}
        first = bm11_retrieval(index, bag, rng.randint(1, 15), "q")
        if first is None:
            return
        pruned, ranking = first
        prefixes = PrefixBags(index, ranking)
        for _ in range(4):
            params = FeedbackBParams(
                p_level=rng.choice([0.10, 0.05, 0.01]),
                r=rng.choice([None, None, 1, 3, 50]),
                alpha=rng.choice([None, 1.0, 2.5, -3.0]),
                r_cap=rng.choice([3, 20]),
            )
            want = oracles.run_feedback_b(pruned, ranking, index, params, 15)
            assert (run_feedback_b(pruned, PrefixBags(index, ranking), params,
                                   15).items == want.items)
            assert run_feedback_b(pruned, prefixes, params, 15).items == want.items


class TestSweepB:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS)
    def test_report_equals_a_per_cell_rebuild(self, seed):
        rng = random.Random(seed)
        vocab = random_vocab(rng, rng.randint(5, 12))
        rows = random_token_rows(rng, rng.randint(2, 15), vocab)
        index = make_index(rows)
        topics = [Topic(query_id=f"q{i}", title=" ".join(rng.sample(vocab, 3)))
                  for i in range(rng.randint(1, 4))]
        topics.append(Topic(query_id="qz", title="unknownword"))
        doc_ids = [r[0] for r in rows]
        qrels = {t.query_id: {d: rng.randint(0, 2)
                              for d in rng.sample(doc_ids, rng.randint(1, len(doc_ids)))}
                 for t in topics}
        grid = ([0.10, 0.05], rng.sample([1, 2, 5, AUTO], 2),
                rng.sample([1.0, 0.5, AUTO], 2))
        analyzer = Analyzer(TokenizerConfig())
        got = sweep_b(index, topics, QueryType.VERY_SHORT, analyzer, qrels, *grid,
                      cutoff=10)
        want = oracles.sweep_b(index, topics, QueryType.VERY_SHORT, analyzer, qrels,
                               *grid, cutoff=10)
        assert got.format() == want.format()
        assert got.rows == want.rows
