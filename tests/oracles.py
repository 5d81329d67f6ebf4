"""Plain versions of probir's fast paths, kept as oracles.

Each recomputes what it needs the direct way: the tokenizer's rule for
every word and every character, with no memo, System A's lattice scorer
document by document, its feedback counts with one ``Index.doc_tf`` per
(term, top document), every top-document bag counted afresh with a plain
``Counter`` over ``Index.doc_terms`` (``FreshBag``) and a bag word's
relevance one word at a time, System B's feedback weights, auto-R and
document expansion over those bags, a bilingual dictionary counted one
pair at a time, the sweep with every cell run on its own, and
segmentation by the global weakest-pair loop with one ``pmi`` call per
pair per pass.  The property tests compare the fast paths with
them for equality.
"""

import math
import re
import unicodedata
from collections import Counter

from probir.clir import BilingualDictionary
from probir.corpus import CHARACTER_MODE, default_stem
from probir.errors import CalibrationError
from probir.feedback_a import ROUND_EPS, afw, binomial_tail, feedback_idf
from probir.feedback_b import AUTO, THETA_BY_P, FeedbackBParams, _auto_r_core
from probir.index import IN_TITLE
from probir.pipeline import SweepReport, SweepRow, compile_bag
from probir.scoring import (
    bm11_rank,
    bm11_retrieval,
    bm11_word_weight,
    idf,
    k_category,
    length_bonus,
    system_a_term_contribution,
)
from probir.segmentation import pmi
from probir.term_extraction import lattice_best_path


_WORD_RE = re.compile(r"[\w']+", re.UNICODE)
_PHRASE_BOUNDARY_RE = re.compile(r"[^\w\s']+", re.UNICODE)


def word_form(raw, config):
    """The token one word becomes, or None when it is dropped: apostrophes
    stripped, words with no letter dropped, stopwords dropped on the
    surface form, then stemmed."""
    token = raw.strip("'")
    if not token or not any(ch.isalpha() for ch in token):
        return None
    if token in config.stopwords:
        return None
    return default_stem(token) if config.stemming else token


def keep_character(ch):
    return not ch.isspace() and unicodedata.category(ch)[0] not in ("P", "Z", "C")


def tokenize(text, config):
    """``corpus.tokenize`` with the rule run for every word and character."""
    if config.mode == CHARACTER_MODE:
        return [ch for ch in text if keep_character(ch)]
    forms = (word_form(raw, config) for raw in _WORD_RE.findall(text.lower()))
    return [form for form in forms if form is not None]


def split_sentences(text):
    """Runs of kept characters, one character at a time."""
    runs, current = [], []
    for ch in text:
        if keep_character(ch):
            current.append(ch)
        elif current:
            runs.append("".join(current))
            current = []
    if current:
        runs.append("".join(current))
    return runs


def split_phrases(text, config):
    """``term_extraction.split_phrases`` with the rule run for every word:
    a dropped word or punctuation ends a phrase."""
    phrases, current = [], []
    for chunk in _PHRASE_BOUNDARY_RE.split(text.lower()):
        for raw in _WORD_RE.findall(chunk):
            form = word_form(raw, config)
            if form is not None:
                current.append(form)
            elif current:
                phrases.append(current)
                current = []
        if current:
            phrases.append(current)
            current = []
    return phrases


def stream_counts(streams):
    """The index's count tables the plain way, from ``streams``: doc_id ->
    (title units, body units), in collection order.  Returns unit ->
    {doc_id: tf}, units in order of first occurrence and documents in
    collection order, and doc_id -> its unit bag in first-occurrence
    order, title then body."""
    postings, bags = {}, {}
    for doc_id, (title, body) in streams.items():
        bag = bags[doc_id] = {}
        for unit in [*title, *body]:
            bag[unit] = bag.get(unit, 0) + 1
        for unit, tf in bag.items():
            postings.setdefault(unit, {})[doc_id] = tf
    return postings, bags


def run_tf(stream, units):
    """Non-overlapping occurrences of the run ``units`` in one stream,
    tried at every start from the left."""
    count, i, width = 0, 0, len(units)
    while i + width <= len(stream):
        if list(stream[i:i + width]) == list(units):
            count += 1
            i += width
        else:
            i += 1
    return count


def first_position(title, body, units):
    """System A's location input the plain way, from one document's title
    and body streams: IN_TITLE if the run ``units`` occurs in the title,
    else the 1-based start of its first occurrence in the body, else
    None, trying every start from the left."""
    width = len(units)
    if any(list(title[i:i + width]) == list(units)
           for i in range(len(title) - width + 1)):
        return IN_TITLE
    for i in range(len(body) - width + 1):
        if list(body[i:i + width]) == list(units):
            return i + 1
    return None


def word_prob(tf, size):
    """Smoothed occurrence probability (tf+1)/(size+2)."""
    return (tf + 1) / (size + 2)


def word_var(pr, size):
    return pr * (1.0 - pr) / (size + 3)


class FreshBag:
    """The word bag of ``doc_ids``, each document's bag counted afresh."""

    def __init__(self, index, doc_ids):
        self.index = index
        self.doc_ids = tuple(doc_ids)
        self.doc_bags = tuple(index.doc_terms(doc_id) for doc_id in self.doc_ids)
        self.tf = Counter()
        for doc_bag in self.doc_bags:
            self.tf.update(doc_bag)
        self.size = sum(self.tf.values())
        self.comp_size = index.total_len - self.size


def relevance(bag, word):
    """The normal-approximate relevance of one word to a bag of top
    documents (a ``FreshBag`` or a ``TopDocBag``)."""
    comp_tf = bag.index.term_stats(word).collection_tf - bag.tf[word]
    pr_bag = word_prob(bag.tf[word], bag.size)
    pr_comp = word_prob(comp_tf, bag.comp_size)
    var_sum = word_var(pr_bag, bag.size) + word_var(pr_comp, bag.comp_size)
    return (pr_bag - pr_comp) / math.sqrt(var_sum)


def doc_ranks(term, top_docs, index):
    """Ranks (1-based) of the top docs that hold the term."""
    return [r for r, doc_id in enumerate(top_docs, start=1)
            if index.doc_tf(doc_id, term) > 0]


def weighted_doc_count(term, top_docs, index, k_afw):
    """Sum of afw over the top docs that contain the term."""
    k = len(top_docs)
    return sum(afw(r, k, k_afw) for r in doc_ranks(term, top_docs, index))


def weighted_doc_ratios(term, top_docs, index, k_afw):
    k = len(top_docs)
    if k == 0:
        return 0.0
    containing = weighted_doc_count(term, top_docs, index, k_afw)
    return containing / sum(afw(r, k, k_afw) for r in range(1, k + 1))


def expansion_terms(top_docs, index, k_r, k_p, k_afw, kp_literal=False,
                    candidates=None):
    docs = list(top_docs[:k_r])
    if not docs:
        return set()
    if candidates is None:
        candidates = {term for doc_id in docs for term in index.doc_terms(doc_id)}
    selected = set()
    for term in candidates:
        n_obs = math.floor(weighted_doc_count(term, docs, index, k_afw) + ROUND_EPS)
        if n_obs == 0:
            continue
        p0 = index.term_stats(term).df / index.n_docs
        if p0 >= 1.0:
            continue
        tail = binomial_tail(len(docs), p0, n_obs)
        if (tail >= k_p) if kp_literal else (1.0 - tail >= k_p):
            selected.add(term)
    return selected


def feedback_vector(query_vector, top_docs, index, params, candidates=None):
    vector = dict(query_vector)
    idf_map = {}
    expanded = expansion_terms(top_docs, index, params.k_r, params.k_p,
                               params.k_afw, params.kp_literal, candidates)
    for term in sorted(expanded - set(vector)):
        vector[term] = (1.0, 1)
    for term in vector:
        stats = index.term_stats(term)
        if stats.df == 0:
            continue
        ratio_c = weighted_doc_ratios(term, top_docs[:params.k_r], index,
                                      params.k_afw)
        idf_map[term] = feedback_idf(term in query_vector, ratio_c,
                                     stats.df / index.n_docs, params.k_af,
                                     idf(stats.df, index.n_docs))
    return vector, idf_map


def selected_vocabulary_size(index, doc_ids, theta):
    if not doc_ids:
        return 0
    bag = FreshBag(index, doc_ids)
    return sum(1 for word in bag.tf if relevance(bag, word) >= theta)


def auto_r(ranking, index, theta, r_cap=20):
    doc_ids = ranking.doc_ids()
    return _auto_r_core(
        lambda i: selected_vocabulary_size(index, doc_ids[:i], theta),
        min(len(ranking), r_cap))


def run_feedback_b(query_bag, first_ranking, index, params, cutoff=1000):
    """Feedback with auto-R and the bag of the chosen R rebuilt from the
    top documents."""
    if params.r is not None:
        r = min(params.r, len(first_ranking))
    else:
        r = auto_r(first_ranking, index, params.resolved_theta(), params.r_cap)
    weights = feedback_weights(
        query_bag, FreshBag(index, first_ranking.doc_ids()[:r]), params)
    return bm11_rank(index, weights, cutoff, first_ranking.query_id)


def feedback_weights(query_bag, bag, params):
    """q'(w|Q): the query words scaled by α, then each document's words
    with relevance >= θ, in that document's order, top document first."""
    theta = params.resolved_theta()
    filtered = [{word: tf for word, tf in doc_bag.items()
                 if relevance(bag, word) >= theta} for doc_bag in bag.doc_bags]
    n_selected = len({word for f in filtered for word in f})
    if params.alpha is not None:
        alpha = params.alpha
    else:
        alpha = n_selected ** (1.0 / len(query_bag)) if n_selected else 1.0
    weights = {word: alpha * bm11_word_weight(bag.index, word, tf_q)
               for word, tf_q in query_bag.items()}
    for f in filtered:
        for word, tf in f.items():
            weights[word] = (weights.get(word, 0.0)
                             + bm11_word_weight(bag.index, word, tf) / len(filtered))
    return weights


def add_pair(counts, source, target, count=1):
    """Add one (source, target) pair to source phrase -> {target: count},
    the count that ``build_dictionary`` and ``load_dictionary`` make in one
    go; a blank source, an empty target or a count below 1 adds nothing."""
    key = tuple(source.split())
    if not key or not target or count < 1:
        return
    targets = counts.setdefault(key, {})
    targets[target] = targets.get(target, 0) + count


def pair_dictionary(pairs):
    """The ``BilingualDictionary`` of (source, target[, count]) pairs, added
    one at a time with ``add_pair``."""
    counts = {}
    for pair in pairs:
        add_pair(counts, *pair)
    return BilingualDictionary(counts)


def document_expansion(query_bag, source_index, n_docs=5,
                       theta=THETA_BY_P[0.10], expand_all=False):
    """The query plus, with count 1, the words of the fresh bag of the
    documents its first retrieval scores above 0, sorted, that pass θ."""
    expanded = dict(query_bag)
    if n_docs <= 0:
        return expanded
    first = bm11_retrieval(source_index, query_bag, n_docs)
    if first is None:
        return expanded
    top_docs = [doc_id for doc_id, score in first[1].items if score > 0]
    if not top_docs:
        return expanded
    bag = FreshBag(source_index, top_docs)
    for word in sorted(bag.tf):
        if word not in expanded and (expand_all or relevance(bag, word) >= theta):
            expanded[word] = 1
    return expanded


def sweep_b(index, topics, qtype, analyzer, qrels, p_values, r_values,
            alpha_values, cutoff=1000):
    """The grid cell by cell: each cell reruns feedback from scratch."""
    from probir.evaluation import evaluate_run

    prepared = []
    for topic in topics:
        _, bag = compile_bag(topic, qtype, analyzer)
        first = bm11_retrieval(index, bag, cutoff, topic.query_id)
        if first is not None:
            prepared.append((topic.query_id, *first))
    rows = []
    for p_level in p_values:
        for r_value in r_values:
            for alpha_value in alpha_values:
                params = FeedbackBParams(
                    p_level=p_level,
                    r=None if r_value == AUTO else int(r_value),
                    alpha=None if alpha_value == AUTO else float(alpha_value))
                run = {query_id: list(run_feedback_b(bag, first, index, params,
                                                     cutoff).doc_ids())
                       for query_id, bag, first in prepared}
                report = evaluate_run(run, qrels)
                rows.append(SweepRow(p_level, r_value, alpha_value,
                                     report.macro["ap_rigid"],
                                     report.macro["ap_relax"]))

    def group_mean(key):
        groups = {}
        for row in rows:
            groups.setdefault(str(key(row)), []).append(row.ap_relax)
        means = {}
        for value, aps in groups.items():
            defined = [v for v in aps if v is not None]
            means[value] = sum(defined) / len(defined) if defined else None
        return means

    return SweepReport(tuple(rows), {
        "p": group_mean(lambda r: r.p_level),
        "R": group_mean(lambda r: r.r),
        "alpha": group_mean(lambda r: r.alpha),
    })


def lattice_oracle(index, compiled, params, qstats, first_ranking, idf_map,
                   extra_terms):
    """The plain per-document lattice scorer: every phrase's DP for every
    document, each term's contribution from ``system_a_term_contribution``,
    then the extra terms, the length bonus and K_cat."""
    vector = compiled.vector

    def scorer(doc_id):
        cache = {}

        def contribution(term):
            if term not in cache:
                weight_tfq = vector.get(term)
                tf_q = weight_tfq.tf_q if weight_tfq is not None else 1
                cache[term] = system_a_term_contribution(
                    index, doc_id, term, 1.0, tf_q, params, qstats, idf_map)
            return cache[term]

        total = 0.0
        for phrase in compiled.phrases:
            _, path_score = lattice_best_path(phrase, contribution,
                                              compiled.max_span, compiled.joiner)
            total += path_score
        for term, (weight, tf_q) in extra_terms.items():
            total += system_a_term_contribution(index, doc_id, term, weight,
                                                tf_q, params, qstats, idf_map)
        if params.use_length_bonus:
            total += length_bonus(index.doc_len(doc_id), index.avg_len)
        if params.use_category:
            total *= k_category(index.doc_category(doc_id), first_ranking,
                                index, params.k_cat)
        return total

    return scorer



def segment_phase1(sentence, table):
    """Phase 1 by the global loop: split the globally weakest adjacent pair
    (leftmost on ties) inside any fragment longer than two characters, each
    pair's PMI from ``pmi``, until all fragments have length <= 2."""
    if not sentence:
        return []
    fragments = [sentence]
    while True:
        weakest = None  # (pmi, global_offset, fragment_idx, split_pos)
        offset = 0
        for idx, frag in enumerate(fragments):
            if len(frag) > 2:
                for k in range(1, len(frag)):
                    value = pmi(table, frag[k - 1], frag[k])
                    key = (value, offset + k)
                    if weakest is None or key < weakest[0]:
                        weakest = (key, idx, k)
            offset += len(frag)
        if weakest is None:
            return fragments
        _, idx, k = weakest
        frag = fragments[idx]
        fragments[idx : idx + 1] = [frag[:k], frag[k:]]


def threshold_split(fragments, table, k_cmi):
    """Phase 2 over phase-1 fragments: each 2-char fragment whose ``pmi``
    is at or below k_cmi split in two."""
    words = []
    for frag in fragments:
        if len(frag) == 2 and pmi(table, frag[0], frag[1]) <= k_cmi:
            words.extend(frag)
        else:
            words.append(frag)
    return words


def segment(sentence, table, k_cmi):
    return threshold_split(segment_phase1(sentence, table), table, k_cmi)


def calibration_scan(fragment_lists, table, target):
    """The calibrated threshold from the phase-1 fragments of each sample
    sentence, each 2-char fragment's PMI from ``pmi``."""
    ones_base = 0
    pair_pmis = []
    for fragments in fragment_lists:
        for frag in fragments:
            if len(frag) == 1:
                ones_base += 1
            else:
                pair_pmis.append(pmi(table, frag[0], frag[1]))
    if not pair_pmis:
        raise CalibrationError("sample produced no two-character fragments")
    values = sorted(set(pair_pmis))
    counts = Counter(pair_pmis)
    best = None  # (distance, threshold)
    split = 0
    for threshold in [values[0] - 1.0] + values:
        if threshold in counts:
            split += counts[threshold]
        ones = ones_base + 2 * split
        twos = len(pair_pmis) - split
        share = ones / (ones + twos)
        key = (abs(share - target.one_char_share), threshold)
        if best is None or key < best:
            best = key
    return best[1]


def calibrate_kcmi(sample, table, target):
    return calibration_scan([segment_phase1(s, table) for s in sample], table,
                            target)
