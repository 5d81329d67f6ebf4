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
per posting.  Its top documents come from the accumulator, joined by the
first unreached documents at 0.0 when fewer than the cutoff score above
0.0.  ``bm11_retrieval``, the first retrieval that search, the feedback
sweep and cross-lingual document expansion share, and the feedback pass
both rank through it.

System A ranks in two steps, and each reads the one ``SystemATables`` of
its run: the index, the params and the query-set statistics, with the
per-document tables built from them and one record per term, built on
first use: the term's postings (``Index.postings``) with each posting's
TF factor and K_loc.  ``system_a_sums`` is the one fast place that
multiplies a term's addend: it takes the term's record, IDF, TF_q and
rarity once, and adds every posting's addend straight into one
accumulator, its factors multiplied in the oracle's order.  The lattice
asks it for one span at a time, into a fresh accumulator, and reads the
span's addends from that map.  ``system_a_lookup`` turns the sums into the per-document
score ``rank`` asks for: it adds the length bonus (0.0 when that is off)
and multiplies by K_cat against the reference ranking it is given, counted
once per category (``category_factors``).  The term sums do not depend on
K_cat, so a topic's neutral pass and category pass share them.

Both systems select a ranking's top documents in one ``_top``: a sort of
the scores gives the cutoff-th largest, and only the documents scoring at
least that much are sorted by (-score, doc_id), with no Python-level step
per document.

``score_bm11``, ``score_system_a`` and ``k_category`` are only the plain
per-document oracles of the fast paths; neither system ranks through them.

All logarithms are natural.  Terms unseen in the collection (df = 0)
contribute nothing; ``prune_vector`` drops them up front.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, filterfalse, repeat
from operator import gt, le, neg
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
        if math.isinf(self.k_t):
            raise ValueError("k_t must be finite")
        # inf is TF_q's rank-preserving limit (query_tf_saturation)
        if not self.k_q_a > 0:
            raise ValueError("k_q_a must be positive")
        if not self.k_loc1 >= 1:
            raise ValueError("k_loc1 must be >= 1")
        if math.isinf(self.k_loc1):
            raise ValueError("k_loc1 must be finite")
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
    document through the index's ``categories`` column.  The top
    documents' categories are counted once, from that column, and each
    factor is ``k_category``'s arithmetic on those counts."""
    top = first_ranking.top(TOP_CATEGORY_DOCS)
    if not top:
        return dict.fromkeys((None, *index.category_counts()), 1.0)
    in_top = Counter(index.categories[doc_id] for doc_id, _ in top)
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


class TermRecord(NamedTuple):
    """What System A's passes read of one term besides its IDF, TF_q and
    rarity: its postings, and one TF factor and one K_loc per posting, in
    the postings' order.  ``k_locs`` is None when location is off."""

    postings: Mapping[str, int]
    tf_factors: array
    k_locs: array | None


class SystemATables:
    """One run's System A state: its index, params and query-set statistics,
    and what its term-at-a-time passes read besides the postings and the
    index's ``categories`` column: each document's length bonus (0.0 for
    every document when the params switch the bonus off), and one
    ``TermRecord`` per term asked for.

    With location on, the tables own every document's unit -> K_loc map,
    built once here, before the run's first topic: each unit's
    ``k_location`` at its ``first_position`` in the document, k_loc1 for a
    unit of the title.  The body values are read from one row per distinct
    document length, the K_loc of each body position, computed with
    ``k_location``'s expression.  A longer term is in no map, and its first
    positions are scanned with ``Index.first_position``.  The index keeps
    none of this, so a run without location, System B and ``probir index``
    never build it.

    A term's record is built on first use, in one walk of its postings, and
    kept for as long as the tables are: ``search_system_a`` keeps one set
    for all of its topics, since most of the terms a topic asks for
    (feedback adopts the same common words) were asked for by an earlier
    topic, and a longer term's documents are scanned once per run.
    """

    def __init__(self, index: Index, params: ScoringParamsA,
                 qstats: QuerySetStats | None = None):
        self.index = index
        self.params = params
        self.qstats = qstats
        avg_len = index.avg_len
        lengths = index.lengths
        self.bonuses = {doc_id: length_bonus(length, avg_len)
                        if params.use_length_bonus else 0.0
                        for doc_id, length in lengths.items()}
        self._terms: dict[str, TermRecord] = {}
        self._rows: dict[int, list[float]] = {}
        self._k_locs: dict[str, dict[str, float]] | None = None
        if params.use_location:
            k_loc1 = params.k_loc1
            self._k_locs = maps = {}
            for doc_id, title, body in index.streams():
                row = self._row(lengths[doc_id])
                # the earliest body write wins, and the title's writes come last
                k_locs = maps[doc_id] = dict(zip(reversed(body),
                                                 reversed(row[:len(body)])))
                k_locs.update(dict.fromkeys(title, k_loc1))

    def _row(self, length: int) -> list[float]:
        """``k_location`` of body positions 1..length in a document of that
        length: its expression, the same float."""
        row = self._rows.get(length)
        if row is None:
            k_loc2 = self.params.k_loc2
            row = self._rows[length] = [1.0 + k_loc2 * (length - 2 * first) / length
                                        for first in range(1, length + 1)]
        return row

    def term(self, term: str) -> TermRecord:
        """The term's record: its ``Index.postings``, each posting's
        ``tf_factor`` (``tf / (tf + k_t * length / avg_len)``, the same
        float), and with location on each posting's ``k_location`` of the
        term's ``first_position``.  A unit's K_loc is read from the tables'
        maps; a longer term is in none of them (no unit equals one), and
        ``Index.first_position`` scans for it.  A document of the postings
        holds the term, so no position is None.  Built on first use and
        kept: a second ask returns the same record."""
        record = self._terms.get(term)
        if record is None:
            index, maps = self.index, self._k_locs
            lengths, avg_len, k_t = index.lengths, index.avg_len, self.params.k_t
            postings = index.postings(term)
            tf_factors = array("d")
            k_locs = None if maps is None else array("d")
            for doc_id, tf in postings.items():
                length = lengths[doc_id]
                tf_factors.append(tf / (tf + k_t * length / avg_len))
                if maps is not None:
                    # every K_loc is > 0, so a map's miss is the only
                    # falsy read
                    k_loc = maps[doc_id].get(term)
                    if not k_loc:
                        first = index.first_position(doc_id, term)
                        k_loc = (self.params.k_loc1 if first == IN_TITLE
                                 else self._row(length)[first - 1])
                    k_locs.append(k_loc)
            record = self._terms[term] = TermRecord(postings, tf_factors, k_locs)
        return record


def system_a_sums(tables: SystemATables, vector: Mapping[str, tuple[float, int]],
                  idf_map: Mapping[str, float] | None = None,
                  acc: dict[str, float] | None = None) -> dict[str, float]:
    """doc_id -> Σ of the vector's term contributions, for every document
    some term reaches: ``score_system_a``'s sum before the length bonus and
    K_cat, which are left to ``system_a_lookup``.

    The one fast place that multiplies System A's addend.  Each term's
    record (its postings, TF factors and K_locs, ``SystemATables.term``),
    IDF (``idf_map``'s when it has the term), TF_q and rarity are taken
    once; a factor that is off is 1.0, which leaves every float as it is.
    Each posting's addend is the product ``factor * idf * tf_q * k_loc *
    rarity * weight``, in ``system_a_term_contribution``'s order, with no
    length lookup or division per posting, and is added straight into the
    accumulator; terms are visited in vector order, so every document gets
    ``score_system_a``'s additions in its order.  ``acc`` holds sums to
    start from (the lattice's path scores) and is added to in place.

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
    index, params = tables.index, tables.params
    for term, (weight, tf_q) in vector.items():
        postings, tf_factors, k_locs = tables.term(term)
        if not postings:
            continue
        if idf_map is not None and term in idf_map:
            term_idf = idf_map[term]
        else:
            term_idf = idf(len(postings), index.n_docs)
        tf_q_factor = query_tf_saturation(tf_q, params.k_q_a)
        rarity = (query_rarity_factor(term, tables.qstats, params.k_nq)
                  if params.use_query_rarity else 1.0)
        for doc_id, factor, k_loc in zip(postings, tf_factors,
                                         repeat(1.0) if k_locs is None else k_locs):
            acc[doc_id] = get(doc_id, 0.0) + (factor * term_idf * tf_q_factor
                                              * k_loc * rarity * weight)
    return acc


def system_a_lookup(tables: SystemATables, sums: Mapping[str, float],
                    reference: Ranking | None = None) -> Callable[[str], float]:
    """The doc_id -> score lookup of one ranking pass over ``system_a_sums``:
    the sum plus the tables' length bonus, times K_cat against ``reference``
    when one is given.  With the sums of a vector it equals ``lambda d:
    score_system_a(index, d, vector, params, qstats, reference, idf_map)``,
    where the params' ``use_category`` says whether a reference is given; a
    bonus that is off is 0.0, and ``x + 0.0`` is ``x`` for every sum, none
    of which is -0.0."""
    get, bonus = sums.get, tables.bonuses
    if reference is None:
        return lambda doc_id: get(doc_id, 0.0) + bonus[doc_id]
    table = category_factors(reference, tables.index, tables.params.k_cat)
    category = tables.index.categories
    return lambda doc_id: (get(doc_id, 0.0) + bonus[doc_id]) * table[category[doc_id]]


def _top(doc_ids: Iterable[str], scores: Sequence[float], cutoff: int,
         query_id: str) -> Ranking:
    """The first ``cutoff`` documents by (score desc, doc_id asc), from the
    documents and their scores in the same order.  When there are more than
    ``cutoff``, the ``cutoff``-th largest score is read from a sort of the
    scores, and only the documents scoring at least that much are kept: the
    top holds no other, and every document tied with it is kept.  The kept
    (-score, doc_id) pairs, which order that way as they are, are sorted and
    truncated; each score is negated back, which is exact, ±0.0 included.
    Every step but the last runs in C, with no call per document."""
    if len(scores) > cutoff:
        kept = list(map(le, repeat(sorted(scores)[-cutoff]), scores))
        doc_ids, scores = compress(doc_ids, kept), compress(scores, kept)
    best = sorted(zip(map(neg, scores), doc_ids))[:cutoff]
    return Ranking(query_id, tuple([(doc_id, -negated) for negated, doc_id in best]))


def rank(index: Index, scorer: Callable[[str], float], cutoff: int,
         query_id: str = "") -> Ranking:
    """Score every document, order by (score desc, doc_id asc), truncate."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    doc_ids = index.doc_ids()
    return _top(doc_ids, list(map(scorer, doc_ids)), cutoff, query_id)


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

    The top is selected once, by ``_top``, from the accumulator.  A
    document no word reaches scores 0.0, so it can enter only when fewer
    than ``cutoff`` documents scored above 0.0 (a negative α or a zero
    weight makes scores <= 0.0); then the first ``cutoff`` unreached
    documents by ``doc_id`` join the candidates at 0.0, since within a tie
    no later one can enter.  No sum is -0.0 (``0.0 + ±0.0`` is +0.0), so
    every score and tie is ``rank``'s.
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
    doc_ids, scores = list(acc), list(acc.values())
    if sum(map(gt, scores, repeat(0.0))) < cutoff:
        unreached = sorted(filterfalse(acc.__contains__, index.doc_ids()))[:cutoff]
        doc_ids += unreached
        scores += repeat(0.0, len(unreached))
    return _top(doc_ids, scores, cutoff, query_id)


def bm11_retrieval(index: Index, bag: Mapping[str, int], cutoff: int,
                   query_id: str = "") -> tuple[dict[str, int], Ranking] | None:
    """The BM11 first retrieval shared by search, the feedback sweep and
    document expansion: the bag pruned to the words the collection knows,
    and its ranking.  None when the collection knows no word of the bag."""
    pruned = prune_vector(index, bag)
    if not pruned:
        return None
    return pruned, bm11_rank(index, {word: bm11_word_weight(index, word, tf_q)
                                     for word, tf_q in pruned.items()},
                             cutoff, query_id)
