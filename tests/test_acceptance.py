"""Acceptance suite: eleven numbered end-to-end checks.

Each test prints one `ACCEPTANCE NN: PASS - ...` line on success (run with
`pytest tests/test_acceptance.py -s` to see them); a failed assertion is the
FAIL signal.  Oracles here recompute everything from raw token lists and
never call back into the code path under test.
"""

import json
import math
import random
import time
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
import scipy.stats

from probir.cli import main as cli_main
from probir.clir import BilingualDictionary, translate
from probir.corpus import QueryType, Topic, TokenizerConfig
from probir.evaluation import average_precision, evaluate_run, r_precision
from probir.feedback_a import FeedbackAParams, binomial_tail, afw
from probir.feedback_b import (
    THETA_BY_P,
    FeedbackBParams,
    PrefixBags,
    alpha,
    auto_r,
    run_feedback_b,
    _auto_r_core,
)
from probir.index import load_index
from probir.pipeline import Analyzer, clir_topic, search_topic_a, search_topic_b
from probir.scoring import (
    BM11_K_Q,
    RARITY_ALL,
    Ranking,
    ScoringParamsA,
    SystemATables,
    bm11_query_weight,
    build_query_set_stats,
    idf,
    k_location,
    rank,
    score_bm11,
    score_system_a,
)
from probir.segmentation import (
    RatioTarget,
    build_mi_table,
    calibrate_kcmi,
    pmi,
    segment,
)
from probir.term_extraction import all_term_patterns, lattice_best_path
from probir.index import IN_TITLE

from corpus_builders import make_index, random_token_rows, random_vocab
import oracles


def report(number, message):
    print(f"ACCEPTANCE {number:02d}: PASS - {message}")


def doc_maps(rows):
    """doc_id -> (title tokens, body tokens, category) from raw rows."""
    docs = {}
    for row in rows:
        doc_id, title, body = row[:3]
        category = row[3] if len(row) > 3 else None
        docs[doc_id] = (title.split(), body.split(), category)
    return docs


def collection_stats(docs):
    n = len(docs)
    lengths = {d: len(t) + len(b) for d, (t, b, _) in docs.items()}
    avg = sum(lengths.values()) / n
    df = Counter()
    for t, b, _ in docs.values():
        df.update(set(t + b))
    return n, lengths, avg, df


# -- 1: scoring oracle equivalence ---------------------------------------------


def oracle_bm11(docs, lengths, avg, doc_id, weights, k_t=1.0):
    title, body, _ = docs[doc_id]
    tokens = title + body
    total = 0.0
    for term, weight in weights.items():
        tf = tokens.count(term)
        if tf:
            total += tf / (tf + k_t * lengths[doc_id] / avg) * weight
    return total


def oracle_system_a(docs, lengths, avg, n, df, doc_id, vector, params,
                    qstats, reference):
    title, body, category = docs[doc_id]
    tokens = title + body
    length = lengths[doc_id]
    total = 0.0
    for term, (weight, tf_q) in vector.items():
        tf = tokens.count(term)
        if tf == 0 or df.get(term, 0) == 0:
            continue
        value = tf / (tf + params.k_t * length / avg)
        value *= math.log(n / df[term])
        if math.isinf(params.k_q_a):
            value *= float(tf_q)
        else:
            value *= tf_q / (tf_q + params.k_q_a)
        if params.use_location:
            if term in title:
                value *= params.k_loc1
            else:
                pos = body.index(term) + 1
                value *= 1.0 + params.k_loc2 * (length - 2 * pos) / length
        if params.use_query_rarity and params.k_nq != 0:
            counts = qstats.qf_title if params.k_nq == "t" else qstats.qf
            value *= math.log(qstats.n_queries / max(1, counts.get(term, 0)))
        total += value * weight
    if params.use_length_bonus:
        total += length / (length + avg)
    if params.use_category and category is not None:
        top = reference.doc_ids()[:100]
        if top:
            ratio_a = sum(1 for d in top if docs[d][2] == category) / len(top)
            ratio_b = sum(1 for t, b, c in docs.values() if c == category) / n
            denom = ratio_a + ratio_b
            if denom:
                total *= 1.0 + params.k_cat * (ratio_a - ratio_b) / denom
    return total


def test_01_scoring_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(1001)
    params_flat = ScoringParamsA(use_category=False, k_nq=RARITY_ALL)
    params_full = ScoringParamsA(k_q_a=1000.0)
    worst = 0.0
    pairs = 0
    for _ in range(20):
        vocab = random_vocab(rng, rng.randint(8, 50))
        rows = random_token_rows(rng, rng.randint(3, 100), vocab,
                                 categories=["x", "y", "z", None])
        index = make_index(rows)
        docs = doc_maps(rows)
        n, lengths, avg, df = collection_stats(docs)

        queries = []
        for _ in range(5):
            terms = rng.sample(vocab, rng.randint(2, min(6, len(vocab))))
            terms.append("never-indexed")
            queries.append(terms)
        qstats = build_query_set_stats(
            [(set(q), set(q[:1])) for q in queries])

        for terms in queries:
            weights = {t: rng.uniform(0.2, 2.0) for t in terms}
            vector = {t: (rng.uniform(0.2, 2.0), rng.randint(1, 3))
                      for t in terms}
            neutral = rank(
                index,
                lambda d: score_system_a(
                    index, d, vector, replace(params_full, use_category=False),
                    qstats),
                n)
            for doc_id in docs:
                got = score_bm11(index, doc_id, weights)
                want = oracle_bm11(docs, lengths, avg, doc_id, weights)
                worst = max(worst, abs(got - want))

                got = score_system_a(index, doc_id, vector, params_flat, qstats)
                want = oracle_system_a(docs, lengths, avg, n, df, doc_id,
                                       vector, params_flat, qstats, None)
                worst = max(worst, abs(got - want))

                got = score_system_a(index, doc_id, vector, params_full,
                                     qstats, neutral)
                want = oracle_system_a(docs, lengths, avg, n, df, doc_id,
                                       vector, params_full, qstats, neutral)
                worst = max(worst, abs(got - want))
                pairs += 3
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(1, f"{pairs} scored (doc, query) pairs on 20 corpora, "
              f"max |error| = {worst:.2e}, {elapsed:.1f}s")


# -- 2: feedback-B monolith equivalence ----------------------------------------


def monolith_feedback_b(rows, query_bag, params, cutoff):
    """Full second-retrieval recomputation from raw rows: initial ranking,
    R auto-sizing, term selection, alpha, mixed weights, final ranking."""
    tokens = {r[0]: r[1].split() + r[2].split() for r in rows}
    n = len(tokens)
    total = sum(len(t) for t in tokens.values())
    avg = total / n
    df = Counter()
    for t in tokens.values():
        df.update(set(t))
    theta = params.theta if params.theta is not None else THETA_BY_P[params.p_level]
    k_q = BM11_K_Q

    def q_weight(word, tf_q):
        d = df.get(word, 0)
        if d == 0:
            return 0.0
        return (k_q + 1.0) * tf_q / (k_q + tf_q) * math.log(n / d)

    def order(weights):
        def score(doc_id):
            toks = tokens[doc_id]
            s = 0.0
            for word, weight in weights.items():
                tf = toks.count(word)
                if tf:
                    s += tf / (tf + len(toks) / avg) * weight
            return s

        scored = sorted(((d, score(d)) for d in tokens),
                        key=lambda pair: (-pair[1], pair[0]))
        return scored[:cutoff]

    first = order({w: q_weight(w, tf) for w, tf in query_bag.items()})
    first_ids = [d for d, _ in first]

    def relevance_over(top):
        bag_tokens = [t for d in top for t in tokens[d]]
        size = len(bag_tokens)
        comp_size = total - size

        def rel(word):
            tf_bag = bag_tokens.count(word)
            ctf = sum(t.count(word) for t in tokens.values())
            pr_b = (tf_bag + 1) / (size + 2)
            pr_c = (ctf - tf_bag + 1) / (comp_size + 2)
            var = (pr_b * (1 - pr_b) / (size + 3)
                   + pr_c * (1 - pr_c) / (comp_size + 3))
            return (pr_b - pr_c) / math.sqrt(var)

        return rel, set(bag_tokens)

    def vocab_size_at(i):
        if i == 0:
            return 0
        rel, bag_vocab = relevance_over(first_ids[:i])
        return sum(1 for w in bag_vocab if rel(w) >= theta)

    if params.r is not None:
        r = min(params.r, len(first_ids))
    else:
        limit = min(len(first_ids), params.r_cap)
        if limit < 3:
            r = limit
        else:
            r = limit
            prev_diff = vocab_size_at(2) - vocab_size_at(1)
            prev_size = vocab_size_at(2)
            for i in range(3, limit + 1):
                size = vocab_size_at(i)
                diff = size - prev_size
                if diff > prev_diff:
                    r = i
                    break
                prev_diff = diff
                prev_size = size

    top = first_ids[:r]
    rel, _ = relevance_over(top)
    filtered = []
    for doc_id in top:
        counts = {}
        for word in tokens[doc_id]:
            counts[word] = counts.get(word, 0) + 1
        filtered.append({
            word: tf for word, tf in counts.items() if rel(word) >= theta
        })
    union = {word for f in filtered for word in f}
    if params.alpha is not None:
        alpha_value = params.alpha
    elif union:
        alpha_value = len(union) ** (1.0 / len(query_bag))
    else:
        alpha_value = 1.0

    weights = {}
    for word, tf_q in query_bag.items():
        weights[word] = alpha_value * q_weight(word, tf_q)
    for f in filtered:
        for word, tf in f.items():
            weights[word] = weights.get(word, 0.0) + q_weight(word, tf) / r
    return order(weights)


def test_02_feedback_b_monolith_equivalence():
    rng = random.Random(1002)
    configs = [
        FeedbackBParams(p_level=0.10, r=2, alpha=1.0),
        FeedbackBParams(p_level=0.05, r_cap=5),
        FeedbackBParams(theta=0.5, r=3, alpha=0.7),
        FeedbackBParams(p_level=0.01),
    ]
    compared = 0
    worst = 0.0
    for trial in range(12):
        vocab = random_vocab(rng, rng.randint(6, 15))
        rows = random_token_rows(rng, rng.randint(3, 20), vocab)
        index = make_index(rows)
        words = rng.sample(vocab, min(4, len(vocab)))
        bag = {w: rng.randint(1, 3) for w in words if index.df(w) > 0}
        if not bag:
            continue
        for params in configs:
            got = search_topic_b(index, "q", bag, params, cutoff=len(rows))
            want = monolith_feedback_b(rows, bag, params, cutoff=len(rows))
            assert got.doc_ids() == tuple(d for d, _ in want)
            for (_, a), (_, b) in zip(got.items, want):
                worst = max(worst, abs(a - b))
            compared += 1
    assert worst <= 1e-9
    assert compared >= 40
    report(2, f"{compared} full feedback runs match the monolith, "
              f"max |score error| = {worst:.2e}")


# -- 3: degenerate identities ----------------------------------------------------


def test_03_degenerate_identities():
    rng = random.Random(1003)
    no_category = ScoringParamsA(use_category=False)
    checked_a = checked_b = checked_c = 0
    for _ in range(6):
        vocab = random_vocab(rng, 12)
        rows = random_token_rows(rng, rng.randint(4, 15), vocab)
        index = make_index(rows)
        words = [w for w in rng.sample(vocab, 4) if index.df(w) > 0]
        if not words:
            continue

        vector = {w: (1.0, 1) for w in words}
        first = rank(index, lambda d: score_system_a(index, d, vector,
                                                     no_category), 100)
        compiled = SimpleNamespace(query_id="q", vector=vector, phrases=[],
                                   lattice=False, max_span=6, joiner=" ")
        again = search_topic_a(Analyzer(TokenizerConfig()), compiled,
                               SystemATables(index, no_category),
                               FeedbackAParams(k_af=0.0, k_p=1.0), cutoff=100)
        assert again.items == first.items
        checked_a += 1

        bag = {w: 1 for w in words}
        plain = search_topic_b(index, "q", bag)
        fed = search_topic_b(index, "q", bag,
                             FeedbackBParams(theta=math.inf, alpha=1.0, r=3))
        assert fed.items == plain.items
        checked_b += 1

        dictionary = BilingualDictionary()
        for w in vocab:
            dictionary.add_pair(w, w)
        translated = translate(words, dictionary)
        assert translated == words
        via = search_topic_b(index, "q", Counter(translated))
        assert via.items == plain.items
        checked_c += 1
    assert min(checked_a, checked_b, checked_c) >= 4
    report(3, f"identity held on {checked_a} corpora for each of: "
              "zero-shift feedback (extended), infinite-threshold feedback "
              "(parameter-light), identity-dictionary translation")


# -- 4: binomial tail ------------------------------------------------------------


def test_04_binomial_tail_against_scipy():
    worst = 0.0
    checked = 0
    p_values = [i / 100 for i in range(1, 100)]
    for k_r in range(1, 21):
        for p0 in p_values:
            for n_obs in range(0, k_r + 2):
                got = binomial_tail(k_r, p0, n_obs)
                want = float(scipy.stats.binom.sf(n_obs - 1, k_r, p0))
                worst = max(worst, abs(got - want))
                checked += 1
    assert worst <= 1e-12
    assert binomial_tail(5, 0.1, 3) == pytest.approx(0.00856, abs=1e-12)
    report(4, f"{checked} (k_r, p0, n_obs) points within 1e-12 of scipy, "
              "worked case 0.00856 exact")


# -- 5: closed-form spot checks ---------------------------------------------------


def test_05_closed_form_spot_checks():
    assert afw(1, 5, 0.5) == 1.5
    assert afw(5, 5, 0.5) == 0.5
    assert alpha(1, 13) == 13.0
    assert alpha(4, 16) == 2.0
    assert k_location(IN_TITLE, 100, 1.2, 0.1) == 1.2
    report(5, "afw endpoints 1.5/0.5, alpha 13 and 2, title boost 1.2: "
              "all exact")


# -- 6: segmentation properties ---------------------------------------------------


def random_sentences(rng, count, alphabet="abcdefgh"):
    return ["".join(rng.choices(alphabet, k=rng.randint(2, 12)))
            for _ in range(count)]


def one_char_count(sample, table, threshold):
    return sum(1 for s in sample for w in segment(s, table, threshold)
               if len(w) == 1)


def exhaustive_best_distance(sample, table, target_share):
    """Scan every candidate threshold by actually segmenting the sample."""
    pair_pmis = sorted({
        pmi(table, frag[0], frag[1])
        for s in sample for frag in oracles.segment_phase1(s, table)
        if len(frag) == 2
    })
    best = math.inf
    for threshold in [pair_pmis[0] - 1.0] + pair_pmis:
        ones = twos = 0
        for sentence in sample:
            for word in segment(sentence, table, threshold):
                if len(word) == 1:
                    ones += 1
                else:
                    twos += 1
        best = min(best, abs(ones / (ones + twos) - target_share))
    return best


def test_06_segmentation_properties():
    started = time.perf_counter()
    rng = random.Random(1006)
    sentences = random_sentences(rng, 1000)
    table = build_mi_table(sentences)

    grid = [-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf]
    for threshold in grid:
        for sentence in sentences:
            words = segment(sentence, table, threshold)
            assert "".join(words) == sentence
            assert all(1 <= len(w) <= 2 for w in words)

    counts = [one_char_count(sentences, table, t) for t in grid]
    assert counts == sorted(counts)

    sample = sentences[:300]
    target = RatioTarget(7, 3)
    threshold = calibrate_kcmi(sample, table, target)
    ones = twos = 0
    for sentence in sample:
        for word in segment(sentence, table, threshold):
            if len(word) == 1:
                ones += 1
            else:
                twos += 1
    achieved = abs(ones / (ones + twos) - target.one_char_share)
    best = exhaustive_best_distance(sample, table, target.one_char_share)
    assert achieved == pytest.approx(best, abs=1e-12)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(6, f"1000-sentence partition + monotonicity, calibration within "
              f"{achieved - best:.1e} of the exhaustive scan, {elapsed:.1f}s")


# -- 7: term-extraction counts ----------------------------------------------------


def enumerate_paths(phrase, joiner=" "):
    n = len(phrase)
    for mask in range(1 << (n - 1)):
        terms = []
        start = 0
        for i in range(1, n):
            if mask & (1 << (i - 1)):
                terms.append(joiner.join(phrase[start:i]))
                start = i
        terms.append(joiner.join(phrase[start:]))
        yield tuple(terms)


def test_07_term_extraction_counts():
    for n in range(1, 11):
        phrase = [f"w{i}" for i in range(n)]
        expected = n * (n + 1) // 2
        vector = all_term_patterns([phrase], max_span=n)
        assert len(vector) == expected
        for weight, _ in vector.values():
            assert weight == pytest.approx(1.0 / math.sqrt(expected), rel=1e-12)

    rng = random.Random(1007)
    trials = 0
    for n in range(1, 11):
        for _ in range(5):
            phrase = [f"t{i}" for i in range(n)]
            values = {}

            def contribution(term):
                if term not in values:
                    values[term] = rng.uniform(-1.0, 3.0)
                return values[term]

            got_terms, got_score = lattice_best_path(phrase, contribution, n)
            best = None
            for terms in enumerate_paths(phrase):
                score = 0.0
                for term in terms:
                    score += contribution(term)
                key = (-score, len(terms), terms)
                if best is None or key < best[0]:
                    best = (key, terms, score)
            assert got_terms == best[1]
            assert got_score == pytest.approx(best[2], abs=1e-12)
            trials += 1
    report(7, f"pattern counts n(n+1)/2 for n = 1..10; lattice equals "
              f"enumeration on {trials} random contribution tables")


# -- 8: auto-R conformance ---------------------------------------------------------


def test_08_auto_r_conformance():
    sizes = {0: 0, 1: 2, 2: 7, 3: 10, 4: 14, 5: 15}
    assert _auto_r_core(sizes.__getitem__, 5) == 4

    immediate = {0: 0, 1: 1, 2: 2, 3: 8}
    assert _auto_r_core(immediate.__getitem__, 3) == 3

    concave = {i: 20 * i - i * i for i in range(10)}
    assert _auto_r_core(concave.__getitem__, 9) == 9

    assert _auto_r_core(lambda i: 0, 2) == 2
    assert _auto_r_core(lambda i: 0, 1) == 1

    rng = random.Random(1008)
    for _ in range(10):
        vocab = random_vocab(rng, 10)
        rows = random_token_rows(rng, rng.randint(1, 15), vocab)
        index = make_index(rows)
        ranking = Ranking("q", tuple((r[0], 1.0) for r in rows))
        cap = rng.choice([1, 2, 3, 5, 20])
        r = auto_r(PrefixBags(index, ranking), theta=THETA_BY_P[0.10], r_cap=cap)
        assert 1 <= r <= min(len(ranking), cap)
    report(8, "growth-acceleration traces, first-iteration break, concave "
              "run-to-limit, short-ranking degeneracy, cap bound")


# -- 9: qualitative reproduction ---------------------------------------------------


def qualitative_corpus():
    """200 documents: 5 term clusters with hidden members, 5 title/late-body
    contrast groups, and filler."""
    rng = random.Random(1009)
    filler_vocab = [f"filler{i:02d}" for i in range(40)]
    rows = []
    for i in range(5):
        query_word = f"topic{i}"
        sats = [f"sat{i}a", f"sat{i}b"]
        for j in range(4):
            body = " ".join([query_word] + sats * 2
                            + rng.choices(filler_vocab, k=6))
            rows.append((f"e{i}{j}", query_word, body))
        for j in range(4):
            body = " ".join(sats * 3 + rng.choices(filler_vocab, k=6))
            rows.append((f"h{i}{j}", sats[0], body))
    for i in range(5):
        place = f"place{i}"
        for j in range(4):
            body = " ".join(rng.choices(filler_vocab, k=18))
            rows.append((f"z{i}{j}", f"{place} {filler_vocab[0]}", body))
        for j in range(4):
            body = " ".join(rng.choices(filler_vocab, k=17) + [place])
            rows.append((f"a{i}{j}", f"{filler_vocab[1]} {filler_vocab[2]}",
                         body))
    for i in range(120):
        body = " ".join(rng.choices(filler_vocab, k=rng.randint(5, 25)))
        rows.append((f"f{i:03d}", rng.choice(filler_vocab), body))
    assert len(rows) == 200
    return rows


def macro_ap(run, qrels):
    return evaluate_run(run, qrels).macro["ap_relax"]


def test_09_qualitative_reproduction():
    started = time.perf_counter()
    rows = qualitative_corpus()
    index = make_index(rows)
    cutoff = 200

    cluster_qrels = {
        f"c{i}": {f"{kind}{i}{j}": 2 for kind in "eh" for j in range(4)}
        for i in range(5)
    }
    initial_run = {}
    feedback_run = {}
    params = FeedbackBParams(p_level=0.10, r=4, alpha=1.0)
    for i in range(5):
        bag = {f"topic{i}": 1}
        initial_run[f"c{i}"] = list(
            search_topic_b(index, f"c{i}", bag, None, cutoff).doc_ids())
        feedback_run[f"c{i}"] = list(
            search_topic_b(index, f"c{i}", bag, params, cutoff).doc_ids())
    ap_initial = macro_ap(initial_run, cluster_qrels)
    ap_feedback = macro_ap(feedback_run, cluster_qrels)
    assert ap_feedback - ap_initial >= 0

    location_qrels = {
        f"l{i}": {f"z{i}{j}": 2 for j in range(4)} for i in range(5)
    }
    runs = {}
    for use_location in (False, True):
        scoring = ScoringParamsA(use_location=use_location,
                                 use_category=False)
        run = {}
        for i in range(5):
            vector = {f"place{i}": (1.0, 1)}
            ranking = rank(index,
                           lambda d: score_system_a(index, d, vector, scoring),
                           cutoff, f"l{i}")
            run[f"l{i}"] = list(ranking.doc_ids())
        runs[use_location] = macro_ap(run, location_qrels)
    assert runs[True] - runs[False] >= 0

    source_rows = []
    for i in range(5):
        body = (f"stopic{i} " + f"ssat{i}a " * 3 + f"ssat{i}b " * 3
                + "sfill1 sfill2")
        for j in range(3):
            source_rows.append((f"s{i}{j}", f"stopic{i}", body.strip()))
    for i in range(8):
        source_rows.append((f"sf{i}", "sfill1", "sfill1 sfill2 sfill3"))
    source_index = make_index(source_rows)
    dictionary = BilingualDictionary()
    for i in range(5):
        dictionary.add_pair(f"stopic{i}", f"topic{i}")
        dictionary.add_pair(f"ssat{i}a", f"sat{i}a")
        dictionary.add_pair(f"ssat{i}b", f"sat{i}b")
    analyzer = Analyzer(TokenizerConfig())
    plain_run = {}
    expanded_run = {}
    for i in range(5):
        topic = Topic(query_id=f"c{i}", title=f"stopic{i}")
        plain = clir_topic(topic, QueryType.VERY_SHORT, analyzer, dictionary,
                           index, cutoff=cutoff)
        expanded = clir_topic(topic, QueryType.VERY_SHORT, analyzer, dictionary,
                              index, source_index=source_index,
                              expansion_docs=3, cutoff=cutoff)
        plain_run[f"c{i}"] = list(plain.doc_ids())
        expanded_run[f"c{i}"] = list(expanded.doc_ids())
    ap_plain = macro_ap(plain_run, cluster_qrels)
    ap_expanded = macro_ap(expanded_run, cluster_qrels)
    assert ap_expanded - ap_plain >= 0

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(9, f"macro AP gains: feedback +{ap_feedback - ap_initial:.3f}, "
              f"location +{runs[True] - runs[False]:.3f}, "
              f"expansion +{ap_expanded - ap_plain:.3f}, {elapsed:.1f}s")


# -- 10: evaluator oracle -----------------------------------------------------------


def brute_force_ap(ranked, relevant):
    if not relevant:
        return None
    total = 0.0
    for pos in range(1, len(ranked) + 1):
        if ranked[pos - 1] in relevant:
            in_prefix = sum(1 for d in ranked[:pos] if d in relevant)
            total += in_prefix / pos
    return total / len(relevant)


def brute_force_rp(ranked, relevant):
    if not relevant:
        return None
    r = len(relevant)
    return sum(1 for d in ranked[:r] if d in relevant) / r


def test_10_evaluator_oracle():
    assert average_precision(["d1", "d2", "d3"], {"d1", "d3"}) == pytest.approx(
        5 / 6, abs=1e-9)

    rng = random.Random(1010)
    universe = [f"d{i:03d}" for i in range(60)]
    for _ in range(1000):
        ranked = rng.sample(universe, rng.randint(0, 25))
        relevant = set(rng.sample(universe, rng.randint(0, 10)))
        assert average_precision(ranked, relevant) == brute_force_ap(
            ranked, relevant)
        assert r_precision(ranked, relevant) == brute_force_rp(
            ranked, relevant)
    report(10, "AP and R-precision equal the brute-force oracle on 1000 "
               "random fixtures; hand case 0.8333 verified")


# -- 11: end-to-end determinism ------------------------------------------------------


def test_11_end_to_end_determinism(tmp_path):
    docs = [
        {"doc_id": f"d{i}", "title": f"title word{i % 3}",
         "body": f"word{i % 3} word{i % 5} filler text", "category": "c"}
        for i in range(12)
    ]
    topics = [{"query_id": "q1", "title": "word0 word1",
               "description": "word0 word1"},
              {"query_id": "q2", "title": "word2", "description": "word2"}]
    (tmp_path / "docs.jsonl").write_text(
        "".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
    (tmp_path / "topics.jsonl").write_text(
        "".join(json.dumps(t) + "\n" for t in topics), encoding="utf-8")

    assert cli_main(["index", "--docs", str(tmp_path / "docs.jsonl"),
                     "--out", str(tmp_path / "idx")]) == 0
    for name in ("run1.txt", "run2.txt"):
        assert cli_main(["search", "--index", str(tmp_path / "idx"),
                         "--topics", str(tmp_path / "topics.jsonl"),
                         "--out", str(tmp_path / name), "--feedback"]) == 0
    assert ((tmp_path / "run1.txt").read_bytes()
            == (tmp_path / "run2.txt").read_bytes())

    original = make_index([(d["doc_id"], d["title"], d["body"], d["category"])
                           for d in docs])
    original.save(tmp_path / "saved")
    loaded = load_index(tmp_path / "saved")
    assert loaded.n_docs == original.n_docs
    assert loaded.avg_len == original.avg_len
    assert loaded.doc_ids() == original.doc_ids()
    assert loaded.category_counts() == original.category_counts()
    probes = ["word0", "word1", "word2", "word4", "filler", "missing",
              "filler text", "title word0"]
    for term in probes:
        assert loaded.term_stats(term) == original.term_stats(term)
        for doc_id in original.doc_ids():
            assert loaded.doc_tf(doc_id, term) == original.doc_tf(doc_id, term)
            assert (loaded.first_position(doc_id, term)
                    == original.first_position(doc_id, term))
    for doc_id in original.doc_ids():
        assert loaded.doc_len(doc_id) == original.doc_len(doc_id)
    report(11, "byte-identical repeated runs; save/load round trip preserved "
               f"{len(probes)} probe terms across {original.n_docs} documents")
