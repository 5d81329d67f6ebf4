"""The index's postings, System A's per-document tables, its shared-sums
passes and its feedback pass, against the plain per-document lookups and
oracles, on random token and character corpora, built and after
``save``/``load_index``.  Every comparison is exact."""

import math
import random
import tempfile
from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from probir.corpus import CHARACTER_MODE, TokenizerConfig
from probir.feedback_a import FeedbackAParams
from probir.index import TermStats, load_index
from probir.pipeline import Analyzer, search_topic_a
from probir.scoring import (
    RARITY_ALL,
    RARITY_OFF,
    RARITY_TITLE,
    TOP_CATEGORY_DOCS,
    Ranking,
    ScoringParamsA,
    SystemATables,
    build_query_set_stats,
    category_factors,
    k_category,
    k_location,
    length_bonus,
    prune_vector,
    rank,
    score_system_a,
    tf_factor,
)
from probir.segmentation import build_mi_table
from probir.term_extraction import (
    ALL_PATTERNS,
    DOWN_WEIGHT,
    LATTICE,
    SHORTEST,
    ExtractionConfig,
    all_term_patterns,
    extract_terms,
)

from corpus_builders import make_index, random_token_rows, random_vocab
import oracles

ALPHABET = "abcde"
TITLE_ONLY = {"token": "ttttttttt", CHARACTER_MODE: "t"}  # in no body
JOINER = {"token": " ", CHARACTER_MODE: ""}
SEEDS = st.integers(0, 2**32 - 1)
CATEGORIES = ["x", "y", "z", None]
MODES = st.sampled_from(["token", CHARACTER_MODE])


def corpus_rows(rng, mode, max_docs=9):
    """A categorised index's rows and its words, plus words no document
    holds and a unit that only titles hold."""
    if mode == CHARACTER_MODE:
        def text(low, high):
            return "".join(rng.choices(ALPHABET, k=rng.randint(low, high)))
        rows = [(f"c{i:03d}", text(0, 5), text(1, 25), rng.choice(CATEGORIES))
                for i in range(rng.randint(1, max_docs))]
        words = [text(1, 3) for _ in range(6)] + ["q"]
    else:
        vocab = random_vocab(rng, rng.randint(3, 8))
        rows = random_token_rows(rng, rng.randint(1, max_docs), vocab,
                                 max_len=15, categories=CATEGORIES)
        words = vocab + ["zzzz"]
    title_only = TITLE_ONLY[mode]
    rows = [(doc_id, JOINER[mode].join([title, title_only])
             if rng.random() < 0.5 else title, body, category)
            for doc_id, title, body, category in rows]
    return rows, words + [title_only]


def corpus(rng, mode, max_docs=9):
    """The index of ``corpus_rows`` and its words."""
    rows, words = corpus_rows(rng, mode, max_docs)
    return make_index(rows, mode=mode), words


def terms_of(rng, mode, words):
    """Words, and runs of two or three words, some of which no document
    holds."""
    joiner = JOINER[mode]
    return words + [joiner.join(rng.choices(words, k=rng.randint(2, 3)))
                    for _ in range(5)]


def units_of(term, mode):
    return term.split(" ") if mode == "token" else list(term)


def analysed_streams(rows, mode):
    """doc_id -> (title units, body units), by the plain tokenizer."""
    config = TokenizerConfig(mode=mode)
    return {doc_id: (oracles.tokenize(title, config),
                     oracles.tokenize(body, config))
            for doc_id, title, body, _ in rows}


def analyzer_for(index, k_cmi=0.0):
    """The index's analyzer; a character index's MI table counts its stored
    texts."""
    if index.mode != CHARACTER_MODE:
        return Analyzer(TokenizerConfig())
    texts = [text for d in index.doc_ids() for text in index.doc_text(d)]
    return Analyzer(TokenizerConfig(mode=CHARACTER_MODE),
                    build_mi_table(texts), k_cmi)


def built_and_loaded(index):
    with tempfile.TemporaryDirectory() as tmp:
        index.save(tmp)
        return index, load_index(tmp, expected_mode=index.mode)


def first_ranking(rng, index):
    """Some of the documents, in a random order, possibly none."""
    docs = list(index.doc_ids())
    rng.shuffle(docs)
    return Ranking("q", tuple((d, 0.0) for d in docs[:rng.randint(0, len(docs))]))


class TestTables:
    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, mode=MODES)
    def test_postings_and_term_stats_equal_per_document_counts(self, seed, mode):
        """postings, doc_tf and term_stats equal a plain count of the
        analysed streams, whether postings or doc_tf counts a longer term
        first."""
        rng = random.Random(seed)
        rows, words = corpus_rows(rng, mode)
        streams = analysed_streams(rows, mode)
        terms = terms_of(rng, mode, words)
        for doc_tf_first in (False, True):
            for idx in built_and_loaded(make_index(rows, mode=mode)):
                for term in terms:
                    units = units_of(term, mode)
                    tfs = {d: oracles.run_tf(title, units)
                           + oracles.run_tf(body, units)
                           for d, (title, body) in streams.items()}
                    holding = {d: tf for d, tf in tfs.items() if tf}
                    if not doc_tf_first:
                        assert dict(idx.postings(term)) == holding, term
                    assert {d: idx.doc_tf(d, term) for d in streams} == tfs, term
                    assert dict(idx.postings(term)) == holding, term
                    assert idx.term_stats(term) == TermStats(
                        len(holding), sum(holding.values()))

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, mode=MODES)
    def test_system_a_tables_equal_per_document_lookups(self, seed, mode):
        """The tables' bonuses (0.0 with the bonus off) equal the index's
        per-document lookups, the index's categories column lists each
        row's category in collection order, and each term's record holds its
        postings, each posting's ``tf_factor`` and each posting's
        ``k_location`` of a plain scan for the term's first position, for
        units and longer terms alike, whether the record or the postings
        count a longer term first.  Some documents share a length, and so
        a K_loc row, with titles of other lengths.  Without location the
        record holds no K_loc."""
        rng = random.Random(seed)
        rows, words = corpus_rows(rng, mode)
        # a twin of each of a few documents: the same length, with some of
        # the body moved to the end of the title
        for doc_id, title, body, category in rng.sample(rows, rng.randint(1, len(rows))):
            units = units_of(body, mode)
            k = rng.randint(1, len(units) - 1) if len(units) > 1 else 0
            rows.append((doc_id + "t", JOINER[mode].join([title, *units[:k]]),
                         JOINER[mode].join(units[k:]), category))
        streams = analysed_streams(rows, mode)
        terms = terms_of(rng, mode, words)
        params = ScoringParamsA(
            # not only powers of two
            k_t=rng.choice([0.3, 0.7, 1.0, 1.7]), k_loc1=rng.choice([1.0, 1.2, 3.0]),
            k_loc2=rng.choice([0.0, 0.1, 0.37, 0.9]),
            use_length_bonus=rng.choice([False, True]))
        for record_first in (False, True):
            for idx in built_and_loaded(make_index(rows, mode=mode)):
                lengths = [idx.doc_len(d) for d in idx.doc_ids()]
                assert len(set(lengths)) < len(lengths)
                tables = SystemATables(idx, params)
                no_location = SystemATables(idx, replace(params, use_location=False))
                docs = idx.doc_ids()
                assert tables.bonuses == {d: length_bonus(idx.doc_len(d), idx.avg_len)
                                          if params.use_length_bonus else 0.0
                                          for d in docs}
                assert list(idx.categories.items()) == [(d, c) for d, _, _, c in rows]
                for term in terms:
                    if record_first:
                        record = tables.term(term)
                    postings = idx.postings(term)
                    if not record_first:
                        record = tables.term(term)
                    assert list(record.postings.items()) == list(postings.items())
                    # one value per posting, in the postings' order
                    assert list(record.tf_factors) == [
                        tf_factor(tf, idx.doc_len(d), idx.avg_len, params.k_t)
                        for d, tf in postings.items()], term
                    units = units_of(term, mode)
                    assert list(record.k_locs) == [
                        k_location(oracles.first_position(*streams[d], units),
                                   idx.doc_len(d), params.k_loc1, params.k_loc2)
                        for d in postings], term
                    assert tables.term(term) is record
                    bare = no_location.term(term)
                    assert bare.k_locs is None
                    assert bare.tf_factors == record.tf_factors

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, mode=MODES)
    def test_category_factors_equal_k_category(self, seed, mode):
        rng = random.Random(seed)
        # up to 150 documents, so a first ranking can be longer than the
        # TOP_CATEGORY_DOCS prefix that K_cat reads
        index, _ = corpus(rng, mode, max_docs=rng.choice([9, 150]))
        assert TOP_CATEGORY_DOCS < 150
        k_cat = rng.choice([0.1, 0.0, -0.5, 2.0])
        for idx in built_and_loaded(index):
            for first in (Ranking("q", ()), first_ranking(rng, idx)):
                table = category_factors(first, idx, k_cat)
                # every category of the collection, whether or not the top
                # holds it, and None
                assert table == {c: k_category(c, first, idx, k_cat)
                                 for c in (None, *idx.category_counts())}


def draw_params(data, rng, terms):
    params = ScoringParamsA(
        k_t=data.draw(st.sampled_from([0.3, 1.0, 1.7]), label="k_t"),
        k_q_a=data.draw(st.sampled_from([math.inf, 1.0]), label="k_q_a"),
        k_nq=data.draw(st.sampled_from([RARITY_OFF, RARITY_ALL, RARITY_TITLE]),
                       label="k_nq"),
        k_cat=data.draw(st.sampled_from([0.1, 1.5]), label="k_cat"),
        use_location=data.draw(st.booleans(), label="location"),
        use_category=True,
        use_length_bonus=data.draw(st.booleans(), label="length"),
        use_query_rarity=data.draw(st.booleans(), label="rarity"),
    )
    queries = [(set(rng.sample(terms, rng.randint(1, len(terms)))),
                set(rng.sample(terms, rng.randint(0, len(terms)))))
               for _ in range(rng.randint(1, 4))]
    return params, build_query_set_stats(queries)


def draw_topic(data, rng, mode, strategy, words):
    """A compiled topic of one to three phrases over ``words``."""
    joiner = JOINER[mode]
    phrases = [rng.choices(words, k=rng.randint(1, 4))
               for _ in range(rng.randint(1, 3))]
    max_span = data.draw(st.integers(1, 3), label="max_span")
    if strategy == LATTICE:
        vector = all_term_patterns(phrases, max_span, joiner)
    else:
        vector = extract_terms(phrases, ExtractionConfig(strategy, max_span=max_span),
                               joiner)
    return SimpleNamespace(query_id="q", vector=vector, phrases=phrases,
                           lattice=strategy == LATTICE, max_span=max_span,
                           joiner=joiner)


def oracle_ranking(index, compiled, vector, p, qstats, reference, cutoff,
                   idf_map=None, adopted=None):
    """The plain scorer's ranking: the lattice over the topic's phrases plus
    the adopted terms, or ``score_system_a`` over ``vector``."""
    if compiled.lattice:
        scorer = oracles.lattice_oracle(index, compiled, p, qstats, reference,
                                        idf_map, adopted or {})
    else:
        def scorer(doc_id):
            return score_system_a(index, doc_id, vector, p, qstats, reference,
                                  idf_map)
    return rank(index, scorer, cutoff, "q")


def tables_for(data, rng, index, analyzer, params, qstats, words, compiled,
               cutoff):
    """Fresh tables, or tables an earlier lattice topic has ranked with."""
    tables = SystemATables(index, params, qstats)
    if data.draw(st.booleans(), label="shared tables"):
        earlier = [rng.choices(words, k=rng.randint(1, 4))]
        search_topic_a(analyzer, SimpleNamespace(
            query_id="e",
            vector=all_term_patterns(earlier, compiled.max_span, compiled.joiner),
            phrases=earlier, lattice=True, max_span=compiled.max_span,
            joiner=compiled.joiner), tables, cutoff=cutoff)
    return tables


class TestSharedSums:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), mode=MODES, strategy=st.sampled_from([SHORTEST, LATTICE]))
    def test_neutral_and_category_passes_equal_per_pass_oracle(self, data, mode,
                                                               strategy):
        """``search_topic_a`` ranks both passes from one set of term sums;
        each pass equals a ranking by the plain scorer of that pass alone,
        with fresh tables or with tables an earlier topic has used."""
        rng = random.Random(data.draw(SEEDS, label="seed"))
        index, words = corpus(rng, mode)
        compiled = draw_topic(data, rng, mode, strategy, words)
        params, qstats = draw_params(data, rng, sorted(compiled.vector))
        neutral_params = replace(params, use_category=False)
        # a cutoff below the collection size, so that the neutral ranking's
        # categories can differ from the collection's and K_cat from 1
        n = rng.randint(1, index.n_docs)
        pruned = prune_vector(index, compiled.vector)
        analyzer = analyzer_for(index)
        neutral = search_topic_a(
            analyzer, compiled, tables_for(data, rng, index, analyzer, neutral_params,
                                           qstats, words, compiled, n), cutoff=n)
        both = search_topic_a(
            analyzer, compiled, tables_for(data, rng, index, analyzer, params,
                                           qstats, words, compiled, n), cutoff=n)
        if not pruned:
            # no term the collection knows: skipped, the lattice too
            assert neutral is None and both is None
            return
        want_neutral = oracle_ranking(index, compiled, pruned, neutral_params,
                                      qstats, None, n)
        assert neutral.items == want_neutral.items
        assert both.items == oracle_ranking(index, compiled, pruned, params,
                                            qstats, want_neutral, n).items

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), mode=MODES,
           strategy=st.sampled_from([SHORTEST, ALL_PATTERNS, DOWN_WEIGHT, LATTICE]))
    def test_feedback_pass_equals_plain_oracle(self, data, mode, strategy):
        """``search_topic_a``'s feedback ranking, for every term strategy,
        equals the plain scorer over the oracle feedback vector and IDF map
        (the lattice with the adopted terms as extra terms), with K_cat
        measured against the ranking feedback starts from."""
        rng = random.Random(data.draw(SEEDS, label="seed"))
        # more documents than the first-pass test, so that fewer terms occur
        # in every one and more are adopted
        index, words = corpus(rng, mode, max_docs=rng.choice([9, 30]))
        compiled = draw_topic(data, rng, mode, strategy, words)
        params, qstats = draw_params(data, rng, sorted(compiled.vector))
        params = replace(params, use_category=data.draw(st.booleans(),
                                                        label="category"))
        feedback = FeedbackAParams(
            k_r=data.draw(st.integers(1, 6), label="k_r"),
            k_af=data.draw(st.sampled_from([0.0, 0.7, -0.5, 2.0]), label="k_af"),
            k_p=data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), label="k_p"),
            k_afw=data.draw(st.sampled_from([0.0, 0.5, 0.9]), label="k_afw"),
            kp_literal=data.draw(st.booleans(), label="kp_literal"))
        k_cmi = 0.0
        if mode == CHARACTER_MODE:
            k_cmi = data.draw(st.sampled_from([-math.inf, 0.0, 1.0, math.inf]),
                              label="k_cmi")
        analyzer = analyzer_for(index, k_cmi)
        n = rng.randint(1, index.n_docs)
        pruned = prune_vector(index, compiled.vector)
        tables = tables_for(data, rng, index, analyzer, params, qstats, words,
                            compiled, n)
        got = search_topic_a(analyzer, compiled, tables, feedback, cutoff=n)
        if not pruned:
            assert got is None
            return
        first = oracle_ranking(index, compiled, pruned,
                               replace(params, use_category=False), qstats, None, n)
        if params.use_category:
            first = oracle_ranking(index, compiled, pruned, params, qstats, first, n)
        top_docs = first.doc_ids()[:feedback.k_r]
        candidates = None
        if mode == CHARACTER_MODE:
            candidates = {word for d in top_docs for text in index.doc_text(d)
                          for word in oracles.segment(text, analyzer.mi_table, k_cmi)}
        vector, idf_map = oracles.feedback_vector(pruned, top_docs, index,
                                                  feedback, candidates)
        adopted = {t: w for t, w in vector.items() if t not in pruned}
        want = oracle_ranking(index, compiled, vector, params, qstats, first, n,
                              idf_map, adopted)
        assert got.items == want.items
