"""Automatic feedback for the extended scorer.

After a first retrieval, the top k_r documents reshape the query:

* every term's IDF is modulated by how much more often it appears in those
  documents than in the collection (rank-decayed counting, factor afw);
* new terms are adopted when their rank-decayed document count in the top
  k_r is binomially improbable under the collection-wide rate.

The second retrieval reuses the extended scorer with the modulated IDFs;
adopted terms enter with weight 1, tf_q 1, and no query-membership bonus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .index import Index
from .scoring import (
    QuerySetStats,
    Ranking,
    ScoringParamsA,
    idf,
    rank,
    score_system_a,  # noqa: F401  (not called; perfbench/tracing.py wraps it here)
    system_a_scorer,
)

ROUND_EPS = 0.5  # n_obs = floor(weighted count + 0.5)


@dataclass(frozen=True)
class FeedbackAParams:
    k_r: int = 5
    k_af: float = 0.7
    k_p: float = 0.9
    k_afw: float = 0.5
    kp_literal: bool = False

    def __post_init__(self):
        if self.k_r < 1:
            raise ValueError("k_r must be >= 1")
        if not 0 <= self.k_p <= 1:
            raise ValueError("k_p must be in [0, 1]")
        if not 0 <= self.k_afw < 1:
            raise ValueError("k_afw must be in [0, 1)")


def afw(rank_pos: int, k_r: int, k_afw: float) -> float:
    """Rank-decayed counting weight, linear from 1+k_afw down to 1-k_afw."""
    if not 1 <= rank_pos <= k_r:
        raise ValueError(f"rank {rank_pos} outside 1..{k_r}")
    if k_r == 1:
        return 1.0
    return (k_afw + 1.0) - 2.0 * k_afw * (rank_pos - 1) / (k_r - 1)


def weighted_doc_count(term: str, top_docs: Sequence[str], index: Index,
                       k_afw: float) -> float:
    """Sum of afw over the top docs that contain the term."""
    k = len(top_docs)
    return sum(
        afw(r, k, k_afw)
        for r, doc_id in enumerate(top_docs, start=1)
        if index.doc_tf(doc_id, term) > 0
    )


def weighted_doc_ratios(term: str, top_docs: Sequence[str], index: Index,
                        k_afw: float) -> float:
    """Proportion of top docs containing the term, counted with the
    rank-decayed factor."""
    k = len(top_docs)
    if k == 0:
        return 0.0
    containing = weighted_doc_count(term, top_docs, index, k_afw)
    # Σ afw over all ranks is exactly k, but sum the terms for float fidelity.
    denom = sum(afw(r, k, k_afw) for r in range(1, k + 1))
    return containing / denom


def feedback_idf(in_query: bool, ratio_c: float, ratio_d: float, k_af: float,
                 idf_orig: float) -> float:
    """(E + k_af·(ratio_c − ratio_d)) · idf_orig, floored at zero."""
    e = 1.0 if in_query else 0.0
    return max(0.0, (e + k_af * (ratio_c - ratio_d)) * idf_orig)


def binomial_tail(k_r: int, p0: float, n_obs: int) -> float:
    """Pr[X >= n_obs] for X ~ Binomial(k_r, p0), by exact summation."""
    if n_obs <= 0:
        return 1.0
    if n_obs > k_r:
        return 0.0
    return sum(
        math.comb(k_r, i) * p0**i * (1.0 - p0) ** (k_r - i)
        for i in range(n_obs, k_r + 1)
    )


def expansion_terms(top_docs: Sequence[str], index: Index, k_r: int,
                    k_p: float, k_afw: float, kp_literal: bool = False,
                    candidates: Iterable[str] | None = None) -> set[str]:
    """Terms whose presence across the top docs is binomially surprising.

    Candidates default to every term of the top documents; character-mode
    callers pass segmented words instead.  A term is adopted when the chance
    of its rank-weighted document count under the collection rate is at most
    1 - k_p (or, under kp_literal, when the tail itself reaches k_p).
    """
    docs = list(top_docs[:k_r])
    if not docs:
        return set()
    if candidates is None:
        seen: set[str] = set()
        for doc_id in docs:
            seen.update(index.doc_terms(doc_id))
        candidates = seen
    selected = set()
    n = index.n_docs
    for term in candidates:
        count = weighted_doc_count(term, docs, index, k_afw)
        n_obs = math.floor(count + ROUND_EPS)
        if n_obs == 0:
            continue
        df = index.term_stats(term).df
        p0 = df / n
        if p0 >= 1.0:
            continue
        tail = binomial_tail(len(docs), p0, n_obs)
        if (tail >= k_p) if kp_literal else (1.0 - tail >= k_p):
            selected.add(term)
    return selected


def feedback_vector(query_vector: Mapping[str, tuple[float, int]],
                    top_docs: Sequence[str], index: Index,
                    params: FeedbackAParams,
                    candidates: Iterable[str] | None = None):
    """Build the second-retrieval vector and its per-term IDF map."""
    vector = dict(query_vector)
    idf_map: dict[str, float] = {}
    n = index.n_docs
    expanded = expansion_terms(top_docs, index, params.k_r, params.k_p,
                               params.k_afw, params.kp_literal, candidates)
    for term in sorted(expanded - set(vector)):
        vector[term] = (1.0, 1)
    originals = set(query_vector)
    for term in vector:
        stats = index.term_stats(term)
        if stats.df == 0:
            continue
        ratio_c = weighted_doc_ratios(term, top_docs[:params.k_r], index,
                                      params.k_afw)
        ratio_d = stats.df / n
        idf_map[term] = feedback_idf(term in originals, ratio_c, ratio_d,
                                     params.k_af, idf(stats.df, n))
    return vector, idf_map


def run_feedback_a(query_vector: Mapping[str, tuple[float, int]],
                   first_ranking: Ranking, index: Index,
                   params: FeedbackAParams, scoring_params: ScoringParamsA,
                   qstats: QuerySetStats | None = None,
                   cutoff: int = 1000,
                   candidates: Iterable[str] | None = None,
                   category_reference: Ranking | None = None) -> Ranking:
    """Second retrieval with modulated IDFs and adopted terms.

    category_reference carries the category-neutral ranking the category
    factor is measured against; defaults to first_ranking.
    """
    top_docs = first_ranking.doc_ids()[:params.k_r]
    vector, idf_map = feedback_vector(query_vector, top_docs, index, params,
                                      candidates)
    reference = category_reference if category_reference is not None else first_ranking
    return rank(index, system_a_scorer(index, vector, scoring_params, qstats,
                                       reference, idf_map),
                cutoff, first_ranking.query_id)
