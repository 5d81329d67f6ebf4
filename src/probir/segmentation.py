"""Unsupervised word segmentation for unsegmented scripts.

Adjacent-character pointwise mutual information (add-one smoothed, natural
log) drives a two-phase splitter.  Phase 1 splits every fragment longer
than two characters at its own weakest adjacent pair (the leftmost on
ties) and repeats on both halves, until no fragment exceeds two
characters.  That gives the fragments of the classic loop that keeps
breaking the globally weakest pair: a split never changes the pairs of
another fragment, and the globally weakest pair is also the weakest of its
own fragment, so both loops make the same splits, only in another order.
Those splits are the inner nodes of the pair PMIs' Cartesian tree, which
one left-to-right pass finds, so phase 1 takes linear time.
Phase 2 splits each remaining two-character fragment whose internal PMI
falls at or below a threshold k_cmi.  The PMI of each adjacent pair of a
sentence is computed once and read by both phases.  The threshold is
calibrated on a sample so the resulting 1-char:2-char word proportion
lands closest to a target ratio (7:3 unless overridden).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import Document, TokenizerConfig, split_sentences
from .errors import CalibrationError, EmptyCollectionError

DEFAULT_RATIO = (7, 3)


@dataclass(frozen=True)
class MiTable:
    """Adjacent-character statistics: unigram/bigram counts and totals."""

    unigrams: Mapping[str, int]
    bigrams: Mapping[str, int]
    total_unigrams: int
    total_bigrams: int

    @property
    def vocab_size(self) -> int:
        return len(self.unigrams)


@dataclass(frozen=True)
class RatioTarget:
    """Target proportion of 1-char to 2-char words, a:b."""

    a: float = DEFAULT_RATIO[0]
    b: float = DEFAULT_RATIO[1]

    def __post_init__(self):
        if not (0 <= self.a < math.inf and 0 <= self.b < math.inf) or self.a + self.b <= 0:
            raise ValueError("ratio weights must be finite, nonnegative and not both zero")

    @property
    def one_char_share(self) -> float:
        return self.a / (self.a + self.b)


def build_mi_table(sentences: Iterable[str]) -> MiTable:
    """Count characters and adjacent pairs; pairs never cross a sentence."""
    unigrams: Counter = Counter()
    bigrams: Counter = Counter()
    for sentence in sentences:
        unigrams.update(sentence)
        for i in range(len(sentence) - 1):
            bigrams[sentence[i : i + 2]] += 1
    return MiTable(dict(unigrams), dict(bigrams),
                   sum(unigrams.values()), sum(bigrams.values()))


def collection_sentences(docs: Iterable[Document],
                         config: TokenizerConfig) -> list[str]:
    """Every document's title and body sentences under ``config``'s
    character rule: what ``build_mi_table`` counts, and a sample for
    ``calibrate_kcmi``.  Raises EmptyCollectionError when there is none:
    no document, or only punctuation and space, gives no statistics."""
    sentences = []
    for doc in docs:
        sentences.extend(split_sentences(doc.title, config))
        sentences.extend(split_sentences(doc.body, config))
    if not sentences:
        raise EmptyCollectionError(
            "cannot build character statistics: no document holds a character")
    return sentences


def pmi(table: MiTable, x: str, y: str) -> float:
    """Smoothed pointwise mutual information of the adjacent pair x,y."""
    v = table.vocab_size
    if v == 0:
        return 0.0
    p_pair = (table.bigrams.get(x + y, 0) + 1) / (table.total_bigrams + v * v)
    p_x = (table.unigrams.get(x, 0) + 1) / (table.total_unigrams + v)
    p_y = (table.unigrams.get(y, 0) + 1) / (table.total_unigrams + v)
    return math.log(p_pair / (p_x * p_y))


def _pair_pmis(sentence: str, table: MiTable) -> list[float]:
    """``pmi`` of every adjacent pair: entry k is that of sentence[k:k + 2].

    The same expression as ``pmi``, with each character's probability
    computed once per sentence."""
    v = table.vocab_size
    if v == 0:
        return [0.0] * max(len(sentence) - 1, 0)
    unigram, bigram = table.unigrams.get, table.bigrams.get
    uni_total = table.total_unigrams + v
    bi_total = table.total_bigrams + v * v
    probs = [(unigram(ch, 0) + 1) / uni_total for ch in sentence]
    log = math.log
    return [log(((bigram(sentence[k : k + 2], 0) + 1) / bi_total)
                / (probs[k] * probs[k + 1]))
            for k in range(len(sentence) - 1)]


def _phase1_spans(pmis: Sequence[float], n: int) -> list[tuple[int, int]]:
    """Phase 1's fragments of an n-character sentence as (start, stop)
    offsets, left to right, from its ``_pair_pmis``.

    Splitting a fragment at its first pair of least PMI and recursing on
    both halves builds the Cartesian tree of the pair PMIs, leftmost minima
    as roots: a pair's subtree is the fragment it splits.  So a pair is cut
    exactly when its node has a child, that is when its fragment holds
    more than two characters.  A monotone stack builds the tree in one
    left-to-right pass: each pair pops the pairs of strictly greater PMI
    (its left subtree, whose last root becomes its child) and becomes the
    right child of the pair left on top."""
    cut = [False] * len(pmis)
    stack: list[int] = []
    for k, value in enumerate(pmis):
        while stack and pmis[stack[-1]] > value:
            stack.pop()
            cut[k] = True
        if stack:
            cut[stack[-1]] = True
        stack.append(k)
    spans = []
    start = 0
    for k, is_cut in enumerate(cut):
        if is_cut:
            spans.append((start, k + 1))
            start = k + 1
    if n:
        spans.append((start, n))
    return spans


def segment(sentence: str, table: MiTable, k_cmi: float) -> list[str]:
    """Full segmentation: phase 1, then threshold-split 2-char fragments.
    A k_cmi of -inf splits none, leaving phase 1's fragments."""
    pmis = _pair_pmis(sentence, table)
    words = []
    for start, stop in _phase1_spans(pmis, len(sentence)):
        if stop - start == 2 and pmis[start] <= k_cmi:
            words.extend(sentence[start:stop])
        else:
            words.append(sentence[start:stop])
    return words


def _sample_fragments(sample: Iterable[str], table: MiTable) -> tuple[int, list[float]]:
    """Phase-1 the sample; return (1-char word count, PMIs of 2-char fragments)."""
    ones = 0
    two_pmis = []
    for sentence in sample:
        pmis = _pair_pmis(sentence, table)
        for start, stop in _phase1_spans(pmis, len(sentence)):
            if stop - start == 1:
                ones += 1
            else:
                two_pmis.append(pmis[start])
    return ones, two_pmis


def calibrate_kcmi(sample: Sequence[str], table: MiTable,
                   target: RatioTarget = RatioTarget()) -> float:
    """Pick the threshold whose induced 1-char:2-char proportion on the
    sample is closest to the target, by scanning every candidate split count.

    Candidate thresholds are "below the minimum PMI" (split nothing) and each
    distinct observed PMI (split everything at or below it); equally close
    candidates resolve to the smaller threshold.
    """
    ones_base, two_pmis = _sample_fragments(sample, table)
    if not two_pmis:
        raise CalibrationError("sample produced no two-character fragments")
    values = sorted(set(two_pmis))
    counts = Counter(two_pmis)
    candidates = [values[0] - 1.0] + values
    best = None  # (distance, threshold)
    split = 0
    for threshold in candidates:
        if threshold in counts:
            split += counts[threshold]
        ones = ones_base + 2 * split
        twos = len(two_pmis) - split
        share = ones / (ones + twos)
        key = (abs(share - target.one_char_share), threshold)
        if best is None or key < best:
            best = key
    return best[1]
