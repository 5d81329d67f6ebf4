"""Automatic feedback for the parameter-light scorer.

Words of the top-R documents are tested against the rest of the collection
with a normal-approximate relevance statistic; words passing a threshold θ
form filtered bags F(D_i), which are mixed into the query weights:

    q'(w|Q) = α·q(w|Q) + Σ_i q(w|F(D_i)) / R

R can be fixed or auto-sized per query by watching the growth of the
selected vocabulary (stop when it accelerates), and α defaults to
|W(F)|^(1/|W(Q)|).  Scores are Σ d(w|D)·q'(w|Q) over W(D) ∩ W(Q').
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

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
    k_q: float = 1000.0
    filter_as_set: bool = False  # drop tf inside F(D_i) (tf := 1)

    def __post_init__(self):
        if self.theta is None and self.p_level not in THETA_BY_P:
            raise ValueError(
                f"p_level must be one of {sorted(THETA_BY_P)} unless theta is given"
            )
        if self.r is not None and self.r < 1:
            raise ValueError("fixed R must be >= 1")
        if self.r_cap < 1:
            raise ValueError("r_cap must be >= 1")

    def resolved_theta(self) -> float:
        return self.theta if self.theta is not None else THETA_BY_P[self.p_level]


def word_prob(tf: int, size: int) -> float:
    """Smoothed occurrence probability (tf+1)/(size+2)."""
    return (tf + 1) / (size + 2)


def word_var(pr: float, size: int) -> float:
    return pr * (1.0 - pr) / (size + 3)


class TopDocBag:
    """Word bag over the top-R documents plus its collection complement."""

    def __init__(self, index: Index, doc_ids: Sequence[str]):
        self.index = index
        self.doc_ids = tuple(doc_ids)
        self.tf: Counter = Counter()
        for doc_id in self.doc_ids:
            self.tf.update(index.doc_terms(doc_id))
        self.size = sum(self.tf.values())
        self.comp_size = index.total_len - self.size

    def comp_tf(self, word: str) -> int:
        return self.index.term_stats(word).collection_tf - self.tf[word]

    def relevance(self, word: str) -> float:
        pr_bag = word_prob(self.tf[word], self.size)
        pr_comp = word_prob(self.comp_tf(word), self.comp_size)
        var_sum = word_var(pr_bag, self.size) + word_var(pr_comp, self.comp_size)
        return (pr_bag - pr_comp) / math.sqrt(var_sum)


def select_terms(doc_terms: Mapping[str, int], bag: TopDocBag, theta: float,
                 as_set: bool = False) -> dict[str, int]:
    """F(D_i): the document's words with relevance >= theta, tf preserved
    (or collapsed to 1 under as_set)."""
    return {
        word: 1 if as_set else tf
        for word, tf in doc_terms.items()
        if bag.relevance(word) >= theta
    }


def selected_vocabulary_size(index: Index, doc_ids: Sequence[str],
                             theta: float) -> int:
    """|W(F(D¹_R))|: bag words passing the threshold (every bag word belongs
    to at least one of the docs, so the union needs no per-doc pass)."""
    if not doc_ids:
        return 0
    bag = TopDocBag(index, doc_ids)
    return sum(1 for word in bag.tf if bag.relevance(word) >= theta)


def _auto_r_core(size_of, limit: int) -> int:
    """Stop at the first R >= 3 where vocabulary growth accelerates.

    size_of(i) is |W(F(D¹_i))| with size_of(0) = 0; returns the breaking R,
    or limit when growth never accelerates."""
    if limit < 3:
        return limit
    prev_diff = size_of(2) - size_of(1)
    prev_size = size_of(2)
    for r in range(3, limit + 1):
        size = size_of(r)
        diff = size - prev_size
        if diff > prev_diff:
            return r
        prev_diff = diff
        prev_size = size
    return limit


def auto_r(ranking: Ranking, index: Index, theta: float, r_cap: int = 20) -> int:
    limit = min(len(ranking), r_cap)
    doc_ids = ranking.doc_ids()
    cache: dict[int, int] = {0: 0}

    def size_of(i: int) -> int:
        if i not in cache:
            cache[i] = selected_vocabulary_size(index, doc_ids[:i], theta)
        return cache[i]

    return _auto_r_core(size_of, limit)


def alpha(n_query_words: int, n_selected_words: int) -> float:
    """|W(F)|^(1/|W(Q)|); 1 when nothing was selected."""
    if n_query_words < 1:
        raise ValueError("query must contain at least one word")
    if n_selected_words <= 0:
        return 1.0
    return n_selected_words ** (1.0 / n_query_words)


def feedback_weights(query_bag: Mapping[str, int], top_docs: Sequence[str],
                     index: Index, params: FeedbackBParams) -> dict[str, float]:
    """q'(w|Q) over Q' = Q ∪ F(D_1) ∪ … ∪ F(D_R), as a weight map."""
    theta = params.resolved_theta()
    r = len(top_docs)
    bag = TopDocBag(index, top_docs)
    filtered = [
        select_terms(index.doc_terms(doc_id), bag, theta, params.filter_as_set)
        for doc_id in top_docs
    ]
    union_size = len({word for f in filtered for word in f})
    if params.alpha is not None:
        alpha_value = params.alpha
    else:
        alpha_value = alpha(len(query_bag), union_size)
    k_q = params.k_q
    weights: dict[str, float] = {}
    for word, tf_q in query_bag.items():
        weights[word] = alpha_value * bm11_word_weight(index, word, tf_q, k_q)
    for f in filtered:
        for word, tf in f.items():
            weights[word] = (weights.get(word, 0.0)
                             + bm11_word_weight(index, word, tf, k_q) / r)
    return weights


def run_feedback_b(query_bag: Mapping[str, int], first_ranking: Ranking,
                   index: Index, params: FeedbackBParams,
                   cutoff: int = 1000) -> Ranking:
    """Re-retrieve with feedback-mixed query weights."""
    theta = params.resolved_theta()
    if params.r is not None:
        r = min(params.r, len(first_ranking))
    else:
        r = auto_r(first_ranking, index, theta, params.r_cap)
    top_docs = first_ranking.doc_ids()[:r]
    weights = feedback_weights(query_bag, top_docs, index, params)
    return bm11_rank(index, weights, cutoff, first_ranking.query_id)
