"""BM11 scoring and its extended variant with location, category,
query-rarity, and document-length factors.

Two scorers share the TF machinery:

* ``score_bm11``     -- plain Σ tf_factor(w) · weight(w); the query-side
                        weight is expected to carry IDF already (see
                        ``bm11_query_weight``).
* ``score_system_a`` -- extended score over a (weight, tf_q) term vector:
                        K_cat(d) · [Σ_t TF·IDF·TF_q·K_loc(d,t)·rarity(t) · w_t
                        + length_bonus(d)].

Both systems rank term-at-a-time (Turtle & Flood, "Query evaluation:
strategies and optimizations", IPM 1995): each query term's statistics are
computed once, and its contribution is added to the documents in its
postings.  ``bm11_rank`` is System B's one ranking; ``bm11_retrieval``, the
first retrieval that search, the feedback sweep and cross-lingual document
expansion share, and the feedback pass both rank through it.
``system_a_scorer`` is System A's compiled query, built once per ranking
pass by the vector pass, the feedback pass and the lattice (for its extra
terms); it accumulates the term sums up front and hands ``rank`` a
per-document lookup that adds the length bonus and K_cat.
``score_bm11`` and ``score_system_a`` are only the plain per-document
oracles of the two fast paths; neither system ranks through them.

All logarithms are natural.  Terms unseen in the collection (df = 0)
contribute nothing; ``prune_vector`` drops them up front.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ZeroDocumentFrequencyError
from .index import IN_TITLE, Index

# Exponent markers for the query-rarity factor.
RARITY_OFF = 0
RARITY_ALL = 1
RARITY_TITLE = "t"

TOP_CATEGORY_DOCS = 100  # ranking prefix that defines the category ratio


@dataclass(frozen=True)
class ScoringParamsA:
    """Knobs of the extended scorer; defaults follow the tuned values."""

    k_t: float = 1.0
    k_q_a: float = math.inf
    k_nq: int | str = RARITY_OFF
    k_loc1: float = 1.2
    k_loc2: float = 0.1
    k_cat: float = 0.1
    use_location: bool = True
    use_category: bool = True
    use_length_bonus: bool = True
    use_query_rarity: bool = True

    def __post_init__(self):
        if self.k_t <= 0:
            raise ValueError("k_t must be positive")
        if self.k_loc1 < 1:
            raise ValueError("k_loc1 must be >= 1")
        if not 0 <= self.k_loc2 < 1:
            raise ValueError("k_loc2 must be in [0, 1)")
        if self.k_nq not in (RARITY_OFF, RARITY_ALL, RARITY_TITLE):
            raise ValueError(f"k_nq must be 0, 1, or {RARITY_TITLE!r}")


@dataclass(frozen=True)
class QuerySetStats:
    """How often each term appears across a batch of queries.

    Lookups clamp to 1 so terms added later (query expansion) behave as
    maximally rare rather than blowing up the log.
    """

    n_queries: int
    qf: Mapping[str, int] = field(default_factory=dict)
    qf_title: Mapping[str, int] = field(default_factory=dict)

    def query_freq(self, term: str) -> int:
        return max(1, self.qf.get(term, 0))

    def title_freq(self, term: str) -> int:
        return max(1, self.qf_title.get(term, 0))


def build_query_set_stats(queries: Sequence[tuple[set, set]]) -> QuerySetStats:
    """queries = (terms_in_query, terms_in_title) sets, one pair per query."""
    qf: dict[str, int] = {}
    qf_title: dict[str, int] = {}
    for all_terms, title_terms in queries:
        for t in all_terms:
            qf[t] = qf.get(t, 0) + 1
        for t in title_terms:
            qf_title[t] = qf_title.get(t, 0) + 1
    return QuerySetStats(len(queries), qf, qf_title)


@dataclass(frozen=True)
class Ranking:
    """Scored documents for one query, best first."""

    query_id: str
    items: tuple[tuple[str, float], ...]

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(doc_id for doc_id, _ in self.items)

    def top(self, k: int) -> tuple[tuple[str, float], ...]:
        return self.items[:k]

    def __len__(self) -> int:
        return len(self.items)


# -- elementary factors -----------------------------------------------------


def tf_factor(tf: int, doc_len: int, avg_len: float, k_t: float = 1.0) -> float:
    """Within-document term weight tf / (tf + k_t·doc_len/avg_len)."""
    if tf <= 0:
        return 0.0
    return tf / (tf + k_t * doc_len / avg_len)


def idf(df: int, n_docs: int) -> float:
    if df <= 0:
        raise ZeroDocumentFrequencyError(
            "idf undefined for df = 0; drop unseen terms before scoring"
        )
    return math.log(n_docs / df)


def bm11_query_weight(tf_q: int, idf_value: float, k_q: float = 1000.0) -> float:
    """Query-side weight (k_q+1)·tf_q/(k_q+tf_q) · idf; equals idf at tf_q=1."""
    return (k_q + 1.0) * tf_q / (k_q + tf_q) * idf_value


def bm11_word_weight(index: Index, word: str, tf_q: int,
                     k_q: float = 1000.0) -> float:
    """q(w|Q) of one word with its collection IDF; 0.0 for a word the
    collection has never seen."""
    df = index.term_stats(word).df
    if df == 0:
        return 0.0
    return bm11_query_weight(tf_q, idf(df, index.n_docs), k_q)


def query_tf_saturation(tf_q: int, k_q_a: float) -> float:
    """Extended scorer's TF_q: tf_q/(tf_q+k_q_a), or plain tf_q at k_q_a=inf
    (the rank-preserving limit)."""
    if math.isinf(k_q_a):
        return float(tf_q)
    return tf_q / (tf_q + k_q_a)


def length_bonus(doc_len: int, avg_len: float) -> float:
    return doc_len / (doc_len + avg_len)


def k_location(first_pos, doc_len: int, k_loc1: float, k_loc2: float) -> float:
    """Boost for early/title occurrence; neutral 1 for absent terms."""
    if first_pos is None:
        return 1.0
    if first_pos == IN_TITLE:
        return k_loc1
    return 1.0 + k_loc2 * (doc_len - 2 * first_pos) / doc_len


def k_category(doc_category, first_ranking: Ranking, index: Index, k_cat: float) -> float:
    """Boost by how over-represented the doc's category is in the top of a
    first retrieval, against its collection-wide share."""
    if doc_category is None:
        return 1.0
    top = first_ranking.top(TOP_CATEGORY_DOCS)
    if not top:
        return 1.0
    in_top = sum(1 for doc_id, _ in top if index.doc_category(doc_id) == doc_category)
    ratio_a = in_top / len(top)
    ratio_b = index.category_counts().get(doc_category, 0) / index.n_docs
    denom = ratio_a + ratio_b
    if denom == 0:
        return 1.0
    return 1.0 + k_cat * (ratio_a - ratio_b) / denom


def category_factors(first_ranking: Ranking, index: Index,
                     k_cat: float) -> dict[str | None, float]:
    """``k_category`` of every category of the collection (None included)
    against one first retrieval, so that a ranking pass computes each once
    and looks it up per document."""
    return {category: k_category(category, first_ranking, index, k_cat)
            for category in (None, *index.category_counts())}


def query_rarity_factor(term: str, qstats: QuerySetStats | None, k_nq) -> float:
    """Down-weight terms common across the query batch; 1 when disabled."""
    if k_nq == RARITY_OFF:
        return 1.0
    if qstats is None:
        raise ValueError("query-set statistics required when k_nq != 0")
    if k_nq == RARITY_TITLE:
        return math.log(qstats.n_queries / qstats.title_freq(term))
    return math.log(qstats.n_queries / qstats.query_freq(term))


# -- scorers ------------------------------------------------------------------


def prune_vector(index: Index, vector: Mapping) -> dict:
    """Silently drop terms the collection has never seen (df = 0)."""
    return {term: value for term, value in vector.items() if index.term_stats(term).df > 0}


def score_bm11(index: Index, doc_id: str, weights: Mapping[str, float],
               k_t: float = 1.0) -> float:
    """Σ tf_factor(w) · weights[w] over terms present in both sides."""
    doc_len = index.doc_len(doc_id)
    total = 0.0
    for term, weight in weights.items():
        tf = index.doc_tf(doc_id, term)
        if tf:
            total += tf_factor(tf, doc_len, index.avg_len, k_t) * weight
    return total


def system_a_term_contribution(index: Index, doc_id: str, term: str,
                               weight: float, tf_q: int,
                               params: ScoringParamsA,
                               qstats: QuerySetStats | None = None,
                               idf_map: Mapping[str, float] | None = None) -> float:
    """One term's addend in the extended score (no per-document factors).

    idf_map substitutes a precomputed per-term IDF (feedback reweighting);
    terms absent from the map fall back to the collection IDF.
    """
    tf = index.doc_tf(doc_id, term)
    if tf == 0:
        return 0.0
    stats = index.term_stats(term)
    if stats.df == 0:
        return 0.0
    doc_len = index.doc_len(doc_id)
    value = tf_factor(tf, doc_len, index.avg_len, params.k_t)
    if idf_map is not None and term in idf_map:
        value *= idf_map[term]
    else:
        value *= idf(stats.df, index.n_docs)
    value *= query_tf_saturation(tf_q, params.k_q_a)
    if params.use_location:
        value *= k_location(index.first_position(doc_id, term), doc_len,
                            params.k_loc1, params.k_loc2)
    if params.use_query_rarity:
        value *= query_rarity_factor(term, qstats, params.k_nq)
    return value * weight


def score_system_a(index: Index, doc_id: str,
                   vector: Mapping[str, tuple[float, int]],
                   params: ScoringParamsA,
                   qstats: QuerySetStats | None = None,
                   first_ranking: Ranking | None = None,
                   idf_map: Mapping[str, float] | None = None) -> float:
    """Extended score over a term -> (weight, tf_q) vector.

    The category factor needs a first retrieval ranked with the factor
    disabled; pass it via first_ranking whenever use_category is on.
    """
    if params.use_category and first_ranking is None:
        raise ValueError("use_category requires the first-retrieval ranking")
    total = 0.0
    for term, (weight, tf_q) in vector.items():
        total += system_a_term_contribution(index, doc_id, term, weight, tf_q,
                                            params, qstats, idf_map)
    if params.use_length_bonus:
        total += length_bonus(index.doc_len(doc_id), index.avg_len)
    if params.use_category:
        total *= k_category(index.doc_category(doc_id), first_ranking, index,
                            params.k_cat)
    return total


def system_a_contributions(index: Index, term: str, weight: float, tf_q: int,
                           params: ScoringParamsA,
                           qstats: QuerySetStats | None = None,
                           idf_map: Mapping[str, float] | None = None
                           ) -> dict[str, float]:
    """``system_a_term_contribution`` of ``term`` for every document that
    holds it, doc_id -> addend; every other document's addend is 0.0.

    The IDF, TF_q and rarity are computed once for the term, and the factors
    are multiplied in ``system_a_term_contribution``'s order, so each addend
    is the same float.
    """
    stats = index.term_stats(term)
    if stats.df == 0:
        return {}
    if idf_map is not None and term in idf_map:
        term_idf = idf_map[term]
    else:
        term_idf = idf(stats.df, index.n_docs)
    tf_q_factor = query_tf_saturation(tf_q, params.k_q_a)
    rarity = (query_rarity_factor(term, qstats, params.k_nq)
              if params.use_query_rarity else None)
    addends = {}
    for doc_id in index.candidate_docs(term):
        tf = index.doc_tf(doc_id, term)
        if not tf:
            continue
        doc_len = index.doc_len(doc_id)
        value = (tf_factor(tf, doc_len, index.avg_len, params.k_t) * term_idf
                 * tf_q_factor)
        if params.use_location:
            value *= k_location(index.first_position(doc_id, term), doc_len,
                                params.k_loc1, params.k_loc2)
        if rarity is not None:
            value *= rarity
        addends[doc_id] = value * weight
    return addends


def system_a_scorer(index: Index, vector: Mapping[str, tuple[float, int]],
                    params: ScoringParamsA,
                    qstats: QuerySetStats | None = None,
                    first_ranking: Ranking | None = None,
                    idf_map: Mapping[str, float] | None = None,
                    acc: dict[str, float] | None = None
                    ) -> Callable[[str], float]:
    """``score_system_a`` compiled once for a ranking pass: a doc_id -> score
    lookup equal to ``lambda d: score_system_a(index, d, vector, params,
    qstats, first_ranking, idf_map)``.

    Terms are visited in vector order and each adds its nonzero addends to a
    per-document accumulator, so every document gets score_system_a's sum;
    K_cat is computed once per category.  ``acc`` holds sums to start from
    (the lattice's path scores) and is added to in place.
    """
    if params.use_category:
        if first_ranking is None:
            raise ValueError("use_category requires the first-retrieval ranking")
        category_table = category_factors(first_ranking, index, params.k_cat)
    acc = {} if acc is None else acc
    for term, (weight, tf_q) in vector.items():
        for doc_id, value in system_a_contributions(index, term, weight, tf_q,
                                                    params, qstats, idf_map).items():
            acc[doc_id] = acc.get(doc_id, 0.0) + value

    def score(doc_id: str) -> float:
        total = acc.get(doc_id, 0.0)
        if params.use_length_bonus:
            total += length_bonus(index.doc_len(doc_id), index.avg_len)
        if params.use_category:
            total *= category_table[index.doc_category(doc_id)]
        return total

    return score


def _rank_order(pair: tuple[str, float]) -> tuple[float, str]:
    return -pair[1], pair[0]


def _top(scored: Iterable[tuple[str, float]], cutoff: int,
         query_id: str) -> Ranking:
    """The first ``cutoff`` (doc_id, score) pairs by (score desc, doc_id
    asc), selected with a heap rather than a full sort."""
    return Ranking(query_id, tuple(heapq.nsmallest(cutoff, scored, key=_rank_order)))


def rank(index: Index, scorer: Callable[[str], float], cutoff: int,
         query_id: str = "") -> Ranking:
    """Score every document, order by (score desc, doc_id asc), truncate."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return _top([(doc_id, scorer(doc_id)) for doc_id in index.doc_ids()],
                cutoff, query_id)


def bm11_rank(index: Index, weights: Mapping[str, float], cutoff: int,
              query_id: str = "", k_t: float = 1.0) -> Ranking:
    """``rank(index, lambda d: score_bm11(index, d, weights, k_t), cutoff,
    query_id)``, computed term-at-a-time.

    Words are visited in the order of ``weights``, so each document gets
    score_bm11's additions in score_bm11's order and the same float.  A
    document no word reaches scores 0.0, which ranks above negative scores
    (a negative α makes them).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    acc: dict[str, float] = {}
    for term, weight in weights.items():
        for doc_id in index.candidate_docs(term):
            tf = index.doc_tf(doc_id, term)
            if tf:
                acc[doc_id] = acc.get(doc_id, 0.0) + tf_factor(
                    tf, index.doc_len(doc_id), index.avg_len, k_t) * weight
    return _top([(doc_id, acc.get(doc_id, 0.0)) for doc_id in index.doc_ids()],
                cutoff, query_id)


def bm11_weights(index: Index, bag: Mapping[str, int],
                 k_q: float = 1000.0) -> dict[str, float]:
    """Query-side weights q(w|Q) for every bag word the collection knows."""
    return {word: bm11_word_weight(index, word, tf_q, k_q)
            for word, tf_q in prune_vector(index, bag).items()}


def bm11_retrieval(index: Index, bag: Mapping[str, int], cutoff: int,
                   query_id: str = "", k_q: float = 1000.0
                   ) -> tuple[dict[str, int], Ranking] | None:
    """The BM11 first retrieval shared by search, the feedback sweep and
    document expansion: the bag pruned to the words the collection knows,
    and its ranking.  None when the collection knows no word of the bag."""
    weights = bm11_weights(index, bag, k_q)
    if not weights:
        return None
    pruned = {word: bag[word] for word in weights}
    return pruned, bm11_rank(index, weights, cutoff, query_id)
