"""Automatic feedback for the parameter-light scorer.

Words of the top-R documents are tested against the rest of the collection
with a normal-approximate relevance statistic; words passing a threshold θ
form filtered bags F(D_i), which are mixed into the query weights:

    q'(w|Q) = α·q(w|Q) + Σ_i q(w|F(D_i)) / R

R can be fixed or auto-sized per query by watching the growth of the
selected vocabulary (stop when it accelerates), and α defaults to
|W(F)|^(1/|W(Q)|).  Scores are Σ d(w|D)·q'(w|Q) over W(D) ∩ W(Q').

``PrefixBags`` counts a ranking's top documents' bags once per topic for
all who read them (System A's feedback and CLIR's expansion too); each
top-i bag remembers the relevance of the words asked about, so auto-R, the
feedback weights and every cell of a parameter sweep read the same values.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .index import Index
from .scoring import Ranking, bm11_rank, bm11_word_weight
# rank and score_bm11 are not called here; perfbench/tracing.py wraps them by
# this module's name, so they stay imported until its tracer is retargeted.
from .scoring import rank, score_bm11  # noqa: F401

# Standard-normal upper-tail cutoffs for the supported significance levels.
THETA_BY_P = {0.10: 1.281552, 0.05: 1.644854, 0.01: 2.326348}

AUTO = "auto"


@dataclass(frozen=True)
class FeedbackBParams:
    p_level: float = 0.10
    theta: float | None = None  # explicit override of the p_level table
    r: int | None = None        # None = auto-size per query
    alpha: float | None = None  # None = auto
    r_cap: int = 20

    def __post_init__(self):
        if self.theta is None and self.p_level not in THETA_BY_P:
            raise ValueError(
                f"p_level must be one of {sorted(THETA_BY_P)} unless theta is given"
            )
        if self.r is not None and self.r < 1:
            raise ValueError("fixed R must be >= 1")
        if self.r_cap < 1:
            raise ValueError("r_cap must be >= 1")
        if self.theta is not None and math.isnan(self.theta):
            raise ValueError("theta must be a number")
        if self.alpha is not None and not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    def resolved_theta(self) -> float:
        return self.theta if self.theta is not None else THETA_BY_P[self.p_level]


class TopDocBag:
    """Word bag of a ranking's top documents, with their own bags in rank
    order, plus its collection complement.  The first relevance asked fills
    a table for every bag word in one loop, since its callers ask about
    nearly all of them; a word the bag lacks is added when asked."""

    def __init__(self, index: Index, doc_ids: tuple[str, ...],
                 doc_bags: tuple[Counter, ...], tf: Counter):
        self.index = index
        self.doc_ids = doc_ids
        self.doc_bags = doc_bags
        self.tf = tf
        self.size = sum(tf.values())
        self.comp_size = index.total_len - self.size
        self._relevance: dict[str, float] | None = None

    def relevance(self, word: str) -> float:
        table = self._relevance
        if table is None:
            table = self._relevance = self._relevances(self.tf.items())
        value = table.get(word)
        if value is None:  # a word the bag lacks
            value = table[word] = self._relevances([(word, 0)])[word]
        return value

    def _relevances(self, words_tf) -> dict[str, float]:
        """word -> relevance of (word, tf in the bag) pairs: the difference
        of the smoothed rates Pr = (tf+1)/(size+2) in the bag and in its
        complement, over the root of their summed variances
        Pr·(1−Pr)/(size+3)."""
        term_stats = self.index.term_stats
        size, comp_size = self.size, self.comp_size
        sqrt = math.sqrt
        table = {}
        for word, tf in words_tf:
            pr_bag = (tf + 1) / (size + 2)
            pr_comp = (term_stats(word).collection_tf - tf + 1) / (comp_size + 2)
            table[word] = (pr_bag - pr_comp) / sqrt(
                pr_bag * (1.0 - pr_bag) / (size + 3)
                + pr_comp * (1.0 - pr_comp) / (comp_size + 3))
        return table


class PrefixBags:
    """The top-document view of a ranking of ``index``: each document's bag,
    counted once on first use; the bag of the top i documents, built from
    the largest one before it and kept; and each unit's ranks in the top k."""

    def __init__(self, index: Index, ranking: Ranking):
        self.index = index
        self.ranking = ranking
        self.doc_ids = ranking.doc_ids()
        self._doc_bags: list[Counter] = []
        self._bags = {0: TopDocBag(index, (), (), Counter())}

    def _doc_bags_to(self, k: int) -> tuple[Counter, ...]:
        """The unit bags of the first k documents (k <= len(doc_ids))."""
        counted = self._doc_bags
        counted.extend(map(self.index.doc_terms, self.doc_ids[len(counted):k]))
        return tuple(counted[:k])

    def bag(self, i: int) -> TopDocBag:
        """The bag of the first i documents (0 <= i <= len(doc_ids))."""
        if not 0 <= i <= len(self.doc_ids):
            raise ValueError(f"prefix {i} outside 0..{len(self.doc_ids)}")
        found = self._bags.get(i)
        if found is None:
            base = self._bags[max(j for j in self._bags if j < i)]
            doc_bags = self._doc_bags_to(i)
            tf = Counter(base.tf)
            for doc_bag in doc_bags[len(base.doc_bags):]:
                tf.update(doc_bag)
            found = self._bags[i] = TopDocBag(self.index, self.doc_ids[:i],
                                              doc_bags, tf)
        return found

    def unit_ranks(self, k: int) -> dict[str, list[int]]:
        """unit -> the ranks (1-based, ascending) of the first k documents
        that hold it, units in order of first occurrence."""
        ranks: dict[str, list[int]] = {}
        for rank_pos, doc_bag in enumerate(self._doc_bags_to(k), start=1):
            for unit in doc_bag:
                ranks.setdefault(unit, []).append(rank_pos)
        return ranks


def select_terms(doc_terms: Mapping[str, int], bag: TopDocBag,
                 theta: float) -> dict[str, int]:
    """F(D_i): the document's words with relevance >= theta, tf preserved."""
    return {
        word: tf
        for word, tf in doc_terms.items()
        if bag.relevance(word) >= theta
    }


def selected_vocabulary_size(bag: TopDocBag, theta: float) -> int:
    """|W(F(D¹_R))| for the bag of D¹_R: bag words passing the threshold
    (every bag word belongs to at least one of the docs, so the union needs
    no per-doc pass)."""
    return sum(1 for word in bag.tf if bag.relevance(word) >= theta)


def _auto_r_core(size_of, limit: int) -> int:
    """Stop at the first R >= 3 where vocabulary growth accelerates.

    size_of(i) is |W(F(D¹_i))|, asked once for each i in 1, 2, 3, ...;
    returns the breaking R, or limit when growth never accelerates."""
    if limit < 3:
        return limit
    size_1 = size_of(1)
    prev_size = size_of(2)
    prev_diff = prev_size - size_1
    for r in range(3, limit + 1):
        size = size_of(r)
        diff = size - prev_size
        if diff > prev_diff:
            return r
        prev_diff = diff
        prev_size = size
    return limit


def auto_r(prefixes: PrefixBags, theta: float, r_cap: int = 20) -> int:
    """R for the ranking of ``prefixes`` (see ``_auto_r_core``), read from
    its prefix bags."""
    return _auto_r_core(
        lambda i: selected_vocabulary_size(prefixes.bag(i), theta),
        min(len(prefixes.ranking), r_cap))


def alpha(n_query_words: int, n_selected_words: int) -> float:
    """|W(F)|^(1/|W(Q)|); 1 when nothing was selected."""
    if n_query_words < 1:
        raise ValueError("query must contain at least one word")
    if n_selected_words <= 0:
        return 1.0
    return n_selected_words ** (1.0 / n_query_words)


def feedback_weights(query_bag: Mapping[str, int], bag: TopDocBag,
                     params: FeedbackBParams) -> dict[str, float]:
    """q'(w|Q) over Q' = Q ∪ F(D_1) ∪ … ∪ F(D_R), as a weight map, where
    D_1 … D_R are the documents of ``bag``."""
    theta = params.resolved_theta()
    index = bag.index
    r = len(bag.doc_ids)
    filtered = [select_terms(doc_bag, bag, theta) for doc_bag in bag.doc_bags]
    union_size = len({word for f in filtered for word in f})
    if params.alpha is not None:
        alpha_value = params.alpha
    else:
        alpha_value = alpha(len(query_bag), union_size)
    weights: dict[str, float] = {}
    for word, tf_q in query_bag.items():
        weights[word] = alpha_value * bm11_word_weight(index, word, tf_q)
    for f in filtered:
        for word, tf in f.items():
            weights[word] = (weights.get(word, 0.0)
                             + bm11_word_weight(index, word, tf) / r)
    return weights


def run_feedback_b(query_bag: Mapping[str, int], prefixes: PrefixBags,
                   params: FeedbackBParams, cutoff: int = 1000) -> Ranking:
    """Re-retrieve the ranking of ``prefixes`` with feedback-mixed query
    weights, from the bag of its top R documents, R fixed or auto-sized.  A
    caller that runs several parameter settings on one ranking passes the
    same ``prefixes``."""
    ranking = prefixes.ranking
    if params.r is not None:
        r = min(params.r, len(ranking))
    else:
        r = auto_r(prefixes, params.resolved_theta(), params.r_cap)
    weights = feedback_weights(query_bag, prefixes.bag(r), params)
    return bm11_rank(prefixes.index, weights, cutoff, ranking.query_id)
