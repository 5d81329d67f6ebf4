"""Turn query phrases into weighted retrieval terms.

A phrase is a maximal run of content tokens; stopwords, numbers, and
punctuation end a run.  Four strategies build the term vector:

* shortest     -- each token alone, weight 1
* all_patterns -- every contiguous subsequence, weight 1/sqrt(n(n+1)/2)
* down_weight  -- every contiguous subsequence, weight k_down^(span-1)
* lattice      -- per document, the single segmentation of the phrase whose
                  terms maximize the summed score contribution (dynamic
                  programming; see lattice_best_path for the path and
                  lattice_best_score for its score alone)

Multi-token terms are joined with a separator: " " in token mode (matched as
adjacent tokens), "" in character mode (matched as substrings).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

from .corpus import TokenizerConfig

SHORTEST = "shortest"
ALL_PATTERNS = "all_patterns"
LATTICE = "lattice"
DOWN_WEIGHT = "down_weight"
STRATEGIES = (SHORTEST, ALL_PATTERNS, LATTICE, DOWN_WEIGHT)

# Punctuation (anything that is not a word char, whitespace, or apostrophe)
# terminates a phrase even when the tokenizer would simply skip it.
_PHRASE_BOUNDARY_RE = re.compile(r"[^\w\s']+", re.UNICODE)


class TermWeight(NamedTuple):
    weight: float
    tf_q: int


WeightedTermVector = dict[str, TermWeight]


@dataclass(frozen=True)
class ExtractionConfig:
    strategy: str = SHORTEST
    k_down: float = 0.2
    max_span: int = 6

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown extraction strategy {self.strategy!r}")
        if not 0 < self.k_down <= 1:
            raise ValueError("k_down must be in (0, 1]")
        if self.max_span < 1:
            raise ValueError("max_span must be >= 1")


def split_phrases(text: str, config: TokenizerConfig) -> list[list[str]]:
    """Token-mode phrase extraction; rejected tokens break the current run.
    A word's form comes from ``config.word_forms``, the rule ``tokenize``
    applies, so the phrases flattened are ``tokenize``'s words."""
    phrases: list[list[str]] = []
    current: list[str] = []
    for chunk in _PHRASE_BOUNDARY_RE.split(text.lower()):
        for form in config.word_forms(chunk):
            if form is not None:
                current.append(form)
            elif current:
                phrases.append(current)
                current = []
        if current:
            phrases.append(current)
            current = []
    return phrases


def _merge(vector: WeightedTermVector, term: str, weight: float, tf_q: int = 1):
    # Repeats accumulate tf_q; on conflicting weights the larger one stands.
    entry = vector.get(term)
    if entry is None:
        vector[term] = TermWeight(weight, tf_q)
    else:
        vector[term] = TermWeight(max(entry.weight, weight), entry.tf_q + tf_q)


def shortest_terms(phrases: Sequence[Sequence[str]]) -> WeightedTermVector:
    vector: WeightedTermVector = {}
    for phrase in phrases:
        for token in phrase:
            _merge(vector, token, 1.0)
    return vector


def _spans(n: int, max_span: int):
    for start in range(n):
        for stop in range(start + 1, min(n, start + max_span) + 1):
            yield start, stop


def all_term_patterns(phrases: Sequence[Sequence[str]], max_span: int = 6,
                      joiner: str = " ") -> WeightedTermVector:
    """All contiguous subsequences; the weight denominator counts the full
    n(n+1)/2 pattern set even when max_span trims long spans."""
    vector: WeightedTermVector = {}
    for phrase in phrases:
        n = len(phrase)
        if n == 0:
            continue
        weight = 1.0 / (n * (n + 1) / 2) ** 0.5
        for start, stop in _spans(n, max_span):
            _merge(vector, joiner.join(phrase[start:stop]), weight)
    return vector


def down_weighted_terms(phrases: Sequence[Sequence[str]], k_down: float = 0.2,
                        max_span: int = 6, joiner: str = " ") -> WeightedTermVector:
    if not 0 < k_down <= 1:
        raise ValueError("k_down must be in (0, 1]")
    vector: WeightedTermVector = {}
    for phrase in phrases:
        for start, stop in _spans(len(phrase), max_span):
            _merge(vector, joiner.join(phrase[start:stop]), k_down ** (stop - start - 1))
    return vector


def extract_terms(phrases: Sequence[Sequence[str]], config: ExtractionConfig,
                  joiner: str = " ") -> WeightedTermVector:
    """Build the query vector for the non-lattice strategies."""
    if config.strategy == SHORTEST:
        return shortest_terms(phrases)
    if config.strategy == ALL_PATTERNS:
        return all_term_patterns(phrases, config.max_span, joiner)
    if config.strategy == DOWN_WEIGHT:
        return down_weighted_terms(phrases, config.k_down, config.max_span, joiner)
    raise ValueError("lattice extraction is per-document; use lattice_best_path")


# The guard bounds DP cost; 2^(n-1) candidate paths are never materialized.
LATTICE_SPAN_FACTOR = 8


def check_lattice_phrase(phrase: Sequence[str], max_span: int) -> None:
    """Raise ValueError for a phrase the lattice refuses: empty, or longer
    than the guard."""
    n = len(phrase)
    if n == 0:
        raise ValueError("cannot build a lattice over an empty phrase")
    if n > max_span * LATTICE_SPAN_FACTOR:
        raise ValueError(
            f"phrase of {n} tokens exceeds the lattice guard "
            f"({max_span * LATTICE_SPAN_FACTOR})"
        )


def lattice_best_path(phrase: Sequence[str],
                      contribution: Callable[[str], float],
                      max_span: int = 6,
                      joiner: str = " ") -> tuple[tuple[str, ...], float]:
    """Best segmentation of ``phrase`` into contiguous term groups.

    Maximizes the sum of ``contribution(term)`` over the path's terms by
    dynamic programming over token positions.  Ties prefer fewer terms, then
    the lexicographically smaller term tuple.  Returns (terms, path score).
    """
    check_lattice_phrase(phrase, max_span)
    n = len(phrase)
    # best[i]: (score, term count, terms) over phrase[:i]
    best: list[tuple[float, int, tuple[str, ...]]] = [(0.0, 0, ())] + [None] * n
    for i in range(1, n + 1):
        chosen = None
        for j in range(i):
            score, count, terms = best[j]
            term = joiner.join(phrase[j:i])
            candidate = (score + contribution(term), count + 1, terms + (term,))
            if chosen is None or (-candidate[0], candidate[1], candidate[2]) < (
                -chosen[0], chosen[1], chosen[2]
            ):
                chosen = candidate
        best[i] = chosen
    score, _, terms = best[n]
    return terms, score


def lattice_best_score(rows: Sequence[Sequence[Mapping[str, float]]],
                       doc_ids: Sequence[str]) -> list[float]:
    """The path score of ``lattice_best_path`` for each of ``doc_ids``,
    without building the paths.

    ``rows[i - 1][j]`` is the doc_id -> contribution map of the span
    ``phrase[j:i]`` (a document it lacks contributes 0.0), so each span's
    term is joined once per phrase, not once per document, and the DP runs
    for all the documents together, one span at a time.  A best prefix
    score is the first largest of its candidate sums, taken in the path
    DP's order; the path DP's tie-breaks only choose among equal floats.

    A span no document holds (an empty map) offers its prefix row itself
    as its candidates, not ``score + 0.0`` for each score.  That is the
    same float: every prefix score is a sum that starts at +0.0 and adds
    contributions >= +0.0, so it is never -0.0, the one float for which
    ``x + 0.0`` is not ``x``.
    """
    best = [[0.0] * len(doc_ids)]
    for row in rows:
        sums = []
        for prefix, addends in zip(best, row):
            if addends:
                get = addends.get
                sums.append([score + get(doc_id, 0.0)
                             for doc_id, score in zip(doc_ids, prefix)])
            else:
                sums.append(prefix)
        best.append(list(map(max, *sums)) if len(sums) > 1 else sums[0])
    return best[-1]
