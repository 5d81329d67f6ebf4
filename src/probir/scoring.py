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
postings.  ``bm11_rank``, with k_t = 1, is System B's one ranking: it walks
each word's postings (``Index.postings``) and, per posting, reads the tf
(``Index.doc_tf``) and the document's length (the index's ``lengths``
map), and adds tf / (tf + length / avg_len) · weight; no other call is made
per posting.  Its top documents come from the accumulator when every
score is positive, zero-filled in ``doc_id`` order, and from a pass over
every document otherwise.  ``bm11_retrieval``, the first retrieval that
search, the feedback sweep and cross-lingual document expansion share, and
the feedback pass both rank through it.

System A ranks in two steps, and each reads the one ``SystemATables`` of
its run: the index, the params and the query-set statistics, with the
per-document tables built from them.  ``system_a_sums`` is the one fast
place that multiplies a term's addend: it walks each term's postings
(``Index.postings``), takes the term's IDF, TF_q, rarity and K_loc array
once, and adds every posting's addend straight into one accumulator, its
factors multiplied in the oracle's order.  The lattice asks it for one
span at a time, into a fresh accumulator, and reads the span's addends
from that map.  ``system_a_lookup`` turns the sums into the per-document
score ``rank`` asks for: it adds the length bonus and multiplies by K_cat
against the reference ranking it is given, counted once per category
(``category_factors``).  The term sums do not depend on K_cat, so a
topic's neutral pass and category pass share them.

Both systems select a ranking's top documents from (-score, doc_id) pairs
with a heap, with no key function per document.

``score_bm11``, ``score_system_a`` and ``k_category`` are only the plain
per-document oracles of the fast paths; neither system ranks through them.

All logarithms are natural.  Terms unseen in the collection (df = 0)
contribute nothing; ``prune_vector`` drops them up front.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ZeroDocumentFrequencyError
from .index import IN_TITLE, Index

# Exponent markers for the query-rarity factor.
RARITY_OFF = 0
RARITY_ALL = 1
RARITY_TITLE = "t"

BM11_K_Q = 1000.0  # System B's query-side tf saturation

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
        if not self.k_t > 0:
            raise ValueError("k_t must be positive")
        if not self.k_q_a > 0:
            raise ValueError("k_q_a must be positive")
        if not self.k_loc1 >= 1:
            raise ValueError("k_loc1 must be >= 1")
        if not 0 <= self.k_loc2 < 1:
            raise ValueError("k_loc2 must be in [0, 1)")
        if not math.isfinite(self.k_cat):
            raise ValueError("k_cat must be finite")
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


def bm11_query_weight(tf_q: int, idf_value: float, k_q: float = BM11_K_Q) -> float:
    """Query-side weight (k_q+1)·tf_q/(k_q+tf_q) · idf; equals idf at tf_q=1."""
    return (k_q + 1.0) * tf_q / (k_q + tf_q) * idf_value


def bm11_word_weight(index: Index, word: str, tf_q: int) -> float:
    """q(w|Q) of one word with its collection IDF; 0.0 for a word the
    collection has never seen."""
    df = index.term_stats(word).df
    if df == 0:
        return 0.0
    return bm11_query_weight(tf_q, idf(df, index.n_docs))


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
    against one first retrieval, so that a ranking pass looks it up per
    document.  The top documents' categories are counted once, and each
    factor is ``k_category``'s arithmetic on those counts."""
    top = first_ranking.top(TOP_CATEGORY_DOCS)
    if not top:
        return dict.fromkeys((None, *index.category_counts()), 1.0)
    in_top = Counter(index.doc_category(doc_id) for doc_id, _ in top)
    factors: dict[str | None, float] = {None: 1.0}
    for category, in_collection in index.category_counts().items():
        ratio_a = in_top[category] / len(top)
        ratio_b = in_collection / index.n_docs
        denom = ratio_a + ratio_b
        factors[category] = (1.0 if denom == 0
                             else 1.0 + k_cat * (ratio_a - ratio_b) / denom)
    return factors


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


class SystemATables:
    """One run's System A state: its index, params and query-set statistics,
    and what its term-at-a-time passes read besides the postings: each
    document's length norm k_t·length/avg_len (``tf_factor``'s denominator,
    the same float), length bonus and category, and the K_loc of each term
    asked for, one value per posting.

    With location on, the tables also own every document's unit -> first
    position map (``Index.first_position_maps``), built once here, before
    the run's first topic; the index keeps none, so a run without
    location, System B and ``probir index`` never build them.  A longer
    term is in no map, and its first positions are scanned with
    ``Index.first_position``.

    A term's K_loc values are an array in the order of its postings, built
    on first use and kept for as long as the tables are:
    ``search_system_a`` keeps one set for all of its topics, since most of
    the terms a topic asks for (feedback adopts the same common words) were
    asked for by an earlier topic, and a longer term's documents are
    scanned once per run.
    """

    def __init__(self, index: Index, params: ScoringParamsA,
                 qstats: QuerySetStats | None = None):
        self.index = index
        self.params = params
        self.qstats = qstats
        avg_len = index.avg_len
        self.lengths = lengths = index.lengths
        self.norms = {doc_id: params.k_t * length / avg_len
                      for doc_id, length in lengths.items()}
        self.bonuses = {doc_id: length_bonus(length, avg_len)
                        for doc_id, length in lengths.items()}
        self.categories = {doc_id: index.doc_category(doc_id) for doc_id in lengths}
        self._firsts = index.first_position_maps() if params.use_location else None
        self._location: dict[str, array] = {}

    def location_factors(self, term: str) -> array:
        """``k_location`` of the term's ``first_position`` in each document
        of ``Index.postings(term)``, in the postings' order: its expression
        evaluated inline, the same float.  A unit's first position is read
        from the tables' maps; a longer term is in none of them (no unit
        equals one), and ``Index.first_position`` scans for it.  A document
        of the postings holds the term, so no position is None.  Asked only
        when location is on."""
        factors = self._location.get(term)
        if factors is None:
            index = self.index
            k_loc1, k_loc2 = self.params.k_loc1, self.params.k_loc2
            lengths, maps = self.lengths, self._firsts
            postings = index.postings(term)
            # a position is IN_TITLE or 1-based, so a map's miss is the
            # only falsy read
            firsts = [maps[doc_id].get(term) or index.first_position(doc_id, term)
                      for doc_id in postings]
            factors = self._location[term] = array("d", [
                k_loc1 if first == IN_TITLE
                else 1.0 + k_loc2 * (lengths[doc_id] - 2 * first) / lengths[doc_id]
                for doc_id, first in zip(postings, firsts)])
        return factors


def system_a_sums(tables: SystemATables, vector: Mapping[str, tuple[float, int]],
                  idf_map: Mapping[str, float] | None = None,
                  acc: dict[str, float] | None = None) -> dict[str, float]:
    """doc_id -> Σ of the vector's term contributions, for every document
    some term reaches: ``score_system_a``'s sum before the length bonus and
    K_cat, which are left to ``system_a_lookup``.

    The one fast place that multiplies System A's addend.  Each term's
    postings, IDF (``idf_map``'s when it has the term), TF_q, K_loc array
    and rarity are taken once; a factor that is off is 1.0, which leaves
    every float as it is.  Each posting's addend is multiplied in
    ``system_a_term_contribution``'s order, with the document's norm from
    the tables, and added straight into the accumulator; terms are visited
    in vector order, so every document gets ``score_system_a``'s additions
    in its order.  ``acc`` holds sums to start from (the lattice's path
    scores) and is added to in place.

    With a one-term vector of weight 1.0 and a fresh accumulator, the
    result is that term's doc -> addend map, which the lattice reads for
    each span: each value is 0.0 + x, which is x unless x is -0.0, and no
    such addend is.  Every factor is >= +0.0 (the TF factor, log(n/df),
    TF_q, K_loc with k_loc2 < 1, rarity, the weight 1.0), and a feedback
    IDF is ``feedback_idf``'s ``max(0.0, ...)``, +0.0 where the value is
    -0.0.
    """
    acc = {} if acc is None else acc
    get = acc.get
    index, params, norms = tables.index, tables.params, tables.norms
    for term, (weight, tf_q) in vector.items():
        postings = index.postings(term)
        if not postings:
            continue
        if idf_map is not None and term in idf_map:
            term_idf = idf_map[term]
        else:
            term_idf = idf(len(postings), index.n_docs)
        tf_q_factor = query_tf_saturation(tf_q, params.k_q_a)
        k_locs = (tables.location_factors(term) if params.use_location
                  else repeat(1.0))
        rarity = (query_rarity_factor(term, tables.qstats, params.k_nq)
                  if params.use_query_rarity else 1.0)
        for (doc_id, tf), k_loc in zip(postings.items(), k_locs):
            acc[doc_id] = get(doc_id, 0.0) + (tf / (tf + norms[doc_id]) * term_idf
                                              * tf_q_factor * k_loc * rarity * weight)
    return acc


def system_a_lookup(tables: SystemATables, sums: Mapping[str, float],
                    reference: Ranking | None = None) -> Callable[[str], float]:
    """The doc_id -> score lookup of one ranking pass over ``system_a_sums``:
    the sum, plus the length bonus when the tables' params switch it on,
    times K_cat against ``reference`` when one is given.  With the sums of a
    vector it equals ``lambda d: score_system_a(index, d, vector, params,
    qstats, reference, idf_map)``, where the params' ``use_category`` says
    whether a reference is given."""
    get = sums.get
    bonus = tables.bonuses if tables.params.use_length_bonus else None
    if reference is None:
        if bonus is None:
            return lambda doc_id: get(doc_id, 0.0)
        return lambda doc_id: get(doc_id, 0.0) + bonus[doc_id]
    table = category_factors(reference, tables.index, tables.params.k_cat)
    category = tables.categories
    if bonus is None:
        return lambda doc_id: get(doc_id, 0.0) * table[category[doc_id]]
    return lambda doc_id: (get(doc_id, 0.0) + bonus[doc_id]) * table[category[doc_id]]


def _top(scored: Iterable[tuple[float, str]], cutoff: int,
         query_id: str) -> Ranking:
    """The first ``cutoff`` documents by (score desc, doc_id asc), from
    (-score, doc_id) pairs, which order that way as they are: selected with
    a heap rather than a full sort, and with no key call per document.  Each
    score is negated back, which is exact, ±0.0 included."""
    return Ranking(query_id, tuple([(doc_id, -negated) for negated, doc_id
                                    in heapq.nsmallest(cutoff, scored)]))


def rank(index: Index, scorer: Callable[[str], float], cutoff: int,
         query_id: str = "") -> Ranking:
    """Score every document, order by (score desc, doc_id asc), truncate."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return _top([(-scorer(doc_id), doc_id) for doc_id in index.doc_ids()],
                cutoff, query_id)


def bm11_rank(index: Index, weights: Mapping[str, float], cutoff: int,
              query_id: str = "") -> Ranking:
    """``rank(index, lambda d: score_bm11(index, d, weights), cutoff,
    query_id)``, computed term-at-a-time over each word's postings.

    Words are visited in the order of ``weights``, so each document gets
    score_bm11's additions in score_bm11's order and the same float.  Each
    posting costs one tf read and ``tf / (tf + lengths[d] / avg_len) *
    weight``, with the length from the index's length map: at k_t = 1 that
    is ``tf_factor``'s float, since ``1.0 * length`` is ``length``.  The tf
    is read through ``Index.doc_tf``, one call per posting, because
    perfbench's tracer counts those calls; walking
    ``postings(term).items()`` waits on the tracer's retarget.

    A document no word reaches scores 0.0, which ranks above negative
    scores (a negative α makes them).  When no weight is negative and no
    scored document sums to exactly 0.0, every scored document ranks above
    every other one, so the top is taken from the accumulator alone, and
    when fewer than ``cutoff`` documents scored, the rest of the list is
    the unreached documents at 0.0 in ``doc_id`` order.  Otherwise every
    document is ranked, as ``rank`` does.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    acc: dict[str, float] = {}
    get, doc_tf = acc.get, index.doc_tf
    lengths, avg_len = index.lengths, index.avg_len
    for term, weight in weights.items():
        for doc_id in index.postings(term):
            tf = doc_tf(doc_id, term)
            acc[doc_id] = (get(doc_id, 0.0)
                           + tf / (tf + lengths[doc_id] / avg_len) * weight)
    if any(weight < 0 for weight in weights.values()) or 0.0 in acc.values():
        return _top([(-get(doc_id, 0.0), doc_id) for doc_id in index.doc_ids()],
                    cutoff, query_id)
    # every scored document is above 0.0, and every other one is at 0.0
    ranking = _top([(-score, doc_id) for doc_id, score in acc.items()],
                   cutoff, query_id)
    missing = cutoff - len(ranking)
    if missing <= 0:
        return ranking
    zeros = heapq.nsmallest(missing, [doc_id for doc_id in index.doc_ids()
                                      if doc_id not in acc])
    return Ranking(query_id, ranking.items + tuple(zip(zeros, repeat(0.0))))


def bm11_weights(index: Index, bag: Mapping[str, int]) -> dict[str, float]:
    """Query-side weights q(w|Q) for every bag word the collection knows."""
    return {word: bm11_word_weight(index, word, tf_q)
            for word, tf_q in prune_vector(index, bag).items()}


def bm11_retrieval(index: Index, bag: Mapping[str, int], cutoff: int,
                   query_id: str = "") -> tuple[dict[str, int], Ranking] | None:
    """The BM11 first retrieval shared by search, the feedback sweep and
    document expansion: the bag pruned to the words the collection knows,
    and its ranking.  None when the collection knows no word of the bag."""
    weights = bm11_weights(index, bag)
    if not weights:
        return None
    pruned = {word: bag[word] for word in weights}
    return pruned, bm11_rank(index, weights, cutoff, query_id)
