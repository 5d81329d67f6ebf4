"""Cross-lingual retrieval support.

A bilingual dictionary is distilled from records that pair source-language
and target-language keyword lists: every cross-product pair increments a
co-occurrence count, and each source phrase's head translation is its most
frequent target (ties to the lexicographically smaller one).  Queries are
translated by a leftmost-longest scan; words without a dictionary entry are
dropped unless pass-through is requested.  Before translation the query can
be document-expanded: words that are over-represented in the top documents
of a same-language retrieval (their bag read from its ``PrefixBags``) are
appended, which buys extra dictionary hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ParseError
from .feedback_b import THETA_BY_P, PrefixBags
from .index import Index
# rank and score_bm11 are not called here; perfbench/tracing.py wraps them by
# this module's name, so they stay imported until its tracer is retargeted.
from .scoring import bm11_retrieval, rank, score_bm11  # noqa: F401

DEFAULT_EXPANSION_DOCS = 5
DEFAULT_EXPANSION_THETA = THETA_BY_P[0.10]


@dataclass(frozen=True)
class KeywordPairRecord:
    record_id: str
    source_keywords: tuple[str, ...]
    target_keywords: tuple[str, ...]


class BilingualDictionary:
    """source phrase (token tuple) -> targets ordered by co-occurrence.

    ``counts`` is source phrase -> {target: count}, every phrase non-empty
    with at least one non-empty target, and is kept as it is: nothing adds
    to a dictionary once it is built, so each phrase's head, the first of
    its ``targets``, is sorted out once, on its first lookup, and kept."""

    def __init__(self, counts: dict[tuple[str, ...], dict[str, int]]):
        self._counts = counts
        self._heads: dict[tuple[str, ...], str] = {}
        self.max_source_len = max(map(len, self._counts), default=0)

    def __len__(self) -> int:
        return len(self._counts)

    def targets(self, source_tokens: Sequence[str]) -> list[tuple[str, int]]:
        """All targets with counts, most frequent first, ties lexicographic."""
        targets = self._counts.get(tuple(source_tokens), {})
        return sorted(targets.items(), key=lambda kv: (-kv[1], kv[0]))

    def head(self, source_tokens: Sequence[str]) -> str | None:
        """The phrase's most frequent target; None when it has no entry."""
        key = tuple(source_tokens)
        head = self._heads.get(key)
        if head is None and key in self._counts:
            head = self._heads[key] = self.targets(key)[0][0]
        return head

    def entries(self):
        for source in sorted(self._counts):
            for target, count in self.targets(source):
                yield " ".join(source), target, count

    def save(self, path):
        lines = [f"{src}\t{tgt}\t{count}\n" for src, tgt, count in self.entries()]
        Path(path).write_text("".join(lines), encoding="utf-8")


def build_dictionary(records: Iterable[KeywordPairRecord]) -> BilingualDictionary:
    """Count every (source, target) pair of each record's cross product; a
    blank source or an empty target adds nothing."""
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    for record in records:
        targets = [target for target in record.target_keywords if target]
        if not targets:
            continue
        for source in record.source_keywords:
            key = tuple(source.split())
            if not key:
                continue
            row = counts.get(key)
            if row is None:
                row = counts[key] = {}
            for target in targets:
                row[target] = row.get(target, 0) + 1
    return BilingualDictionary(counts)


def load_dictionary(path) -> BilingualDictionary:
    """Read tab-separated source/target/count lines; the counts of a
    repeated pair add up, and a blank source or an empty target adds
    nothing."""
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(str(path), line_no, "expected source<TAB>target<TAB>count")
            source, target, raw_count = parts
            try:
                count = int(raw_count)
            except ValueError:
                raise ParseError(str(path), line_no, f"bad count {raw_count!r}") from None
            if count < 1:
                raise ParseError(str(path), line_no, "count must be >= 1")
            key = tuple(source.split())
            if not key or not target:
                continue
            row = counts.get(key)
            if row is None:
                counts[key] = {target: count}
            else:
                row[target] = row.get(target, 0) + count
    return BilingualDictionary(counts)


def translate(tokens: Sequence[str], dictionary: BilingualDictionary,
              passthrough: bool = False) -> list[str]:
    """Leftmost-longest dictionary replacement over the token sequence; each
    probe is one ``head`` lookup."""
    out: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        for length in range(min(dictionary.max_source_len, n - i), 0, -1):
            head = dictionary.head(tokens[i : i + length])
            if head is not None:
                out.extend(head.split())
                i += length
                break
        else:
            if passthrough:
                out.append(tokens[i])
            i += 1
    return out


def document_expansion(query_bag: Mapping[str, int], source_index: Index,
                       n_docs: int = DEFAULT_EXPANSION_DOCS,
                       theta: float = DEFAULT_EXPANSION_THETA,
                       expand_all: bool = False) -> dict[str, int]:
    """Append over-represented words of the top source-language documents.

    Original counts are preserved; appended words enter with count 1.  Docs
    that match nothing (score 0) never feed the expansion, so a query foreign
    to the source collection passes through unchanged.
    """
    if n_docs <= 0:
        return dict(query_bag)
    first = bm11_retrieval(source_index, query_bag, n_docs)
    if first is None:
        return dict(query_bag)
    _, ranking = first
    # scores are never negative here, so the documents scored above 0 lead
    n_scored = sum(1 for _, score in ranking.items if score > 0)
    bag = PrefixBags(source_index, ranking).bag(n_scored)
    expanded = dict(query_bag)
    for word in sorted(bag.tf):
        if word in expanded:
            continue
        if expand_all or bag.relevance(word) >= theta:
            expanded[word] = 1
    return expanded
