"""Automatic feedback for the extended scorer.

After a first retrieval, the top k_r documents reshape the query:

* every term's IDF is modulated by how much more often it appears in those
  documents than in the collection (rank-decayed counting, factor afw);
* new terms are adopted when their rank-decayed document count in the top
  k_r is binomially improbable under the collection-wide rate.

Both read one table of rank-weighted counts per topic (``TopDocCounts``):
the first ranking's ``feedback_b.PrefixBags`` tells every unit the ranks
it occurs at, and any other term's ranks are read from its postings.

``feedback_vector`` gives the second retrieval its terms and modulated
IDFs; ``pipeline.search_topic_a`` ranks them with the same extended scorer
as the first, for every term strategy.  Adopted terms enter with weight 1,
tf_q 1, and no query-membership bonus.

A candidate's binomial tail depends only on the number of top documents,
its df and its rounded count, so the run's ``SystemATables.tails`` memo
keeps every tail its topics have summed, and each is summed once per run.
The memo belongs to the run, not to the process: a process that searches
several times (a test session, a benchmark's rounds) sums each run's tails
again, so every run costs what a single ``probir search`` costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .feedback_b import PrefixBags
from .scoring import (
    idf,
    rank, score_system_a,  # noqa: F401  (not called; perfbench/tracing.py wraps them here)
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
        if not math.isfinite(self.k_af):
            raise ValueError("k_af must be finite")


def afw(rank_pos: int, k_r: int, k_afw: float) -> float:
    """Rank-decayed counting weight, linear from 1+k_afw down to 1-k_afw."""
    if not 1 <= rank_pos <= k_r:
        raise ValueError(f"rank {rank_pos} outside 1..{k_r}")
    if k_r == 1:
        return 1.0
    return (k_afw + 1.0) - 2.0 * k_afw * (rank_pos - 1) / (k_r - 1)


def weighted_doc_count(ranks: Iterable[int], weights: Mapping[int, float]) -> float:
    """Sum of afw over the ranks at which a term occurs, read from
    ``weights`` (rank -> afw of the top docs), in rank order."""
    return sum(map(weights.__getitem__, ranks))


class TopDocCounts:
    """Rank-weighted counts of terms over ``view``'s top k_r documents.

    The view gives each of their units its ranks; any other term tests the
    top documents against its postings, which its callers read anyway.
    Each term's count is computed once and shared by ``expansion_terms``
    and ``feedback_vector``; it sums the k afw weights in rank order, so it
    is the float a per-document walk gives.
    """

    def __init__(self, view: PrefixBags, k_r: int, k_afw: float):
        self.index = view.index
        self.docs = view.doc_ids[:k_r]
        self._ranks = view.unit_ranks(len(self.docs))
        self.units = tuple(self._ranks)  # every unit of the top docs
        self._counts: dict[str, float] = {}
        k = len(self.docs)
        self._afw = {r: afw(r, k, k_afw) for r in range(1, k + 1)}
        # Σ afw over all ranks is exactly k, but sum the terms for float fidelity.
        self._afw_total = sum(self._afw.values())

    def ranks(self, term: str) -> list[int]:
        """Ranks (1-based, ascending) of the top docs holding the term."""
        found = self._ranks.get(term)
        if found is None:
            postings = self.index.postings(term)
            found = self._ranks[term] = [
                rank_pos for rank_pos, doc_id in enumerate(self.docs, start=1)
                if doc_id in postings
            ]
        return found

    def count(self, term: str) -> float:
        """Σ afw over the top docs containing the term."""
        value = self._counts.get(term)
        if value is None:
            value = self._counts[term] = weighted_doc_count(self.ranks(term),
                                                            self._afw)
        return value

    def ratio(self, term: str) -> float:
        """Proportion of top docs containing the term, counted with the
        rank-decayed factor; 0.0 without top docs."""
        if not self.docs:
            return 0.0
        return self.count(term) / self._afw_total


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


def expansion_terms(counts: TopDocCounts,
                    tails: dict[tuple[int, int, int], float], k_p: float,
                    kp_literal: bool = False,
                    candidates: Iterable[str] | None = None) -> set[str]:
    """Terms whose presence across the top docs is binomially surprising.

    Candidates default to every unit of the top documents; character-mode
    callers pass segmented words instead.  A term is adopted when the chance
    of its rank-weighted document count under the collection rate is at most
    1 - k_p (or, under kp_literal, when the tail itself reaches k_p).
    Candidates share a tail when they share (k, df, n_obs), with k the
    number of top documents, and ``tails`` is the run's memo of them (read
    and filled here), so each tail is summed once per run.  The memo is the
    run's, not a module-level cache, so that a process that searches
    several times sums each run's tails as a lone ``probir search`` would.
    """
    docs = counts.docs
    if not docs:
        return set()
    if candidates is None:
        candidates = counts.units
    selected = set()
    k = len(docs)
    n = counts.index.n_docs
    for term in candidates:
        count = counts.count(term)
        n_obs = math.floor(count + ROUND_EPS)
        if n_obs == 0:
            continue
        df = counts.index.term_stats(term).df
        p0 = df / n
        if p0 >= 1.0:
            continue
        tail = tails.get((k, df, n_obs))
        if tail is None:
            tail = tails[k, df, n_obs] = binomial_tail(k, p0, n_obs)
        if (tail >= k_p) if kp_literal else (1.0 - tail >= k_p):
            selected.add(term)
    return selected


def feedback_vector(query_vector: Mapping[str, tuple[float, int]],
                    view: PrefixBags, params: FeedbackAParams,
                    tails: dict[tuple[int, int, int], float],
                    candidates: Iterable[str] | None = None):
    """The second-retrieval vector and its per-term IDF map, from one
    ``TopDocCounts`` of ``view``'s top k_r documents; ``tails`` is the
    run's memo that ``expansion_terms`` reads and fills."""
    vector = dict(query_vector)
    idf_map: dict[str, float] = {}
    index = view.index
    n = index.n_docs
    counts = TopDocCounts(view, params.k_r, params.k_afw)
    expanded = expansion_terms(counts, tails, params.k_p, params.kp_literal,
                               candidates)
    for term in sorted(expanded - set(vector)):
        vector[term] = (1.0, 1)
    originals = set(query_vector)
    for term in vector:
        stats = index.term_stats(term)
        if stats.df == 0:
            continue
        ratio_c = counts.ratio(term)
        ratio_d = stats.df / n
        idf_map[term] = feedback_idf(term in originals, ratio_c, ratio_d,
                                     params.k_af, idf(stats.df, n))
    return vector, idf_map

