"""End-to-end retrieval pipelines and run-file plumbing.

The extended-scorer pipeline ranks in up to three passes per topic: a
category-neutral pass, a category-aware pass measured against it, and an
optional feedback pass.  The parameter-light pipeline is a single BM11 pass
with optional probabilistic feedback.  Cross-lingual search compiles the
query in the source language, optionally document-expands it there, then
translates and retrieves monolingually.

Run files are TREC formatted; header comments echo the resolved
configuration and the tag defaults to a hash of it.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from .clir import BilingualDictionary, document_expansion, translate
from .corpus import (
    CHARACTER_MODE,
    QueryType,
    Topic,
    TokenizerConfig,
    selected_parts,
    split_sentences,
    tokenize,
)
from .errors import EmptyQueryError
from .feedback_a import FeedbackAParams, feedback_vector, run_feedback_a
from .feedback_b import AUTO, FeedbackBParams, run_feedback_b
from .index import Index
from .scoring import (
    QuerySetStats,
    Ranking,
    ScoringParamsA,
    bm11_retrieval,
    build_query_set_stats,
    k_category,  # noqa: F401  (not called; perfbench/tracing.py wraps it here)
    prune_vector,
    rank,
    score_bm11,  # noqa: F401  (not called; perfbench/tracing.py wraps it here)
    score_system_a,  # noqa: F401  (not called; perfbench/tracing.py wraps it here)
    system_a_contributions,
    system_a_scorer,
)
from .segmentation import MiTable, segment
from .term_extraction import (
    LATTICE,
    ExtractionConfig,
    all_term_patterns,
    check_lattice_phrase,
    extract_terms,
    lattice_best_path,
    split_phrases,
)


def term_joiner(mode: str) -> str:
    return "" if mode == CHARACTER_MODE else " "


def compile_phrases(topic: Topic, qtype: QueryType, config: TokenizerConfig,
                    mi_table: MiTable | None = None,
                    k_cmi: float | None = None) -> list[list[str]]:
    """Query text as phrases: token runs, or segmented words per sentence."""
    phrases: list[list[str]] = []
    for part in selected_parts(topic, qtype):
        if config.mode == CHARACTER_MODE:
            if mi_table is None or k_cmi is None:
                raise ValueError("character mode needs mi_table and k_cmi")
            for sentence in split_sentences(part):
                words = segment(sentence, mi_table, k_cmi)
                if words:
                    phrases.append(words)
        else:
            phrases.extend(split_phrases(part, config))
    return phrases


def compile_bag(topic: Topic, qtype: QueryType, config: TokenizerConfig,
                mi_table: MiTable | None = None,
                k_cmi: float | None = None) -> tuple[list[str], Counter]:
    """Query as an ordered word list plus its count bag."""
    if config.mode == CHARACTER_MODE:
        sequence: list[str] = []
        for phrase in compile_phrases(topic, qtype, config, mi_table, k_cmi):
            sequence.extend(phrase)
    else:
        sequence = tokenize("\n".join(selected_parts(topic, qtype)), config)
    return sequence, Counter(sequence)


# -- extended-scorer pipeline -------------------------------------------------


class CompiledTopicA:
    """Everything the extended scorer needs for one topic."""

    def __init__(self, topic: Topic, qtype: QueryType, config: TokenizerConfig,
                 extraction: ExtractionConfig, mi_table=None, k_cmi=None):
        self.query_id = topic.query_id
        joiner = term_joiner(config.mode)
        self.joiner = joiner
        self.max_span = extraction.max_span
        self.lattice = extraction.strategy == LATTICE
        self.phrases = compile_phrases(topic, qtype, config, mi_table, k_cmi)
        if self.lattice:
            # Path terms come from all contiguous patterns; the same set
            # carries query-frequency statistics and feedback reweighting.
            self.vector = all_term_patterns(self.phrases, extraction.max_span,
                                            joiner)
        else:
            self.vector = extract_terms(self.phrases, extraction, joiner)
        title_phrases = compile_phrases(topic, QueryType.VERY_SHORT, config,
                                        mi_table, k_cmi)
        if self.lattice:
            self.title_terms = set(all_term_patterns(title_phrases,
                                                     extraction.max_span, joiner))
        else:
            self.title_terms = set(extract_terms(title_phrases, extraction, joiner))


def _lattice_scorer(index: Index, compiled: CompiledTopicA,
                    params: ScoringParamsA, qstats, first_ranking, idf_map,
                    extra_terms: Mapping[str, tuple[float, int]]
                    ) -> Callable[[str], float]:
    """Per document: Σ over phrases of the best lattice path's score, plus
    the extra terms, the length bonus and K_cat.

    A path term's contribution (weight 1, the query's tf_q or 1) is
    computed once for every span the DP can ask for, and only the documents
    holding some span of a phrase run its DP; for every other document all
    of the phrase's contributions are 0.0, and so is its path score.  A
    phrase the lattice refuses raises even when no document holds a span.
    """
    vector = compiled.vector
    contributions: dict[str, dict[str, float]] = {}
    path_sums: dict[str, float] = {}
    for phrase in compiled.phrases:
        check_lattice_phrase(phrase, compiled.max_span)
        hits: set[str] = set()
        for i in range(1, len(phrase) + 1):
            for j in range(i):
                term = compiled.joiner.join(phrase[j:i])
                if term not in contributions:
                    entry = vector.get(term)
                    contributions[term] = system_a_contributions(
                        index, term, 1.0, entry.tf_q if entry is not None else 1,
                        params, qstats, idf_map)
                hits.update(contributions[term])
        for doc_id in hits:
            _, path_score = lattice_best_path(
                phrase, lambda term: contributions[term].get(doc_id, 0.0),
                compiled.max_span, compiled.joiner)
            path_sums[doc_id] = path_sums.get(doc_id, 0.0) + path_score
    return system_a_scorer(index, extra_terms, params, qstats, first_ranking,
                           idf_map, acc=path_sums)


def build_qstats_a(compiled: Sequence[CompiledTopicA]) -> QuerySetStats:
    return build_query_set_stats(
        [(set(c.vector), c.title_terms) for c in compiled]
    )


def _char_feedback_candidates(index: Index, top_docs: Sequence[str],
                              mi_table: MiTable, k_cmi: float) -> set[str]:
    """Expansion candidates in character mode: words from MI-segmenting the
    stored title/body streams of the top documents."""
    words: set[str] = set()
    for doc_id in top_docs:
        title, body = index.doc_text(doc_id)
        words.update(segment(title, mi_table, k_cmi))
        words.update(segment(body, mi_table, k_cmi))
    return words


def search_topic_a(index: Index, compiled: CompiledTopicA,
                   params: ScoringParamsA,
                   qstats: QuerySetStats | None,
                   feedback: FeedbackAParams | None = None,
                   cutoff: int = 1000,
                   mi_table: MiTable | None = None,
                   k_cmi: float | None = None) -> Ranking | None:
    """Rank one topic; None when no query term survives pruning."""
    vector = prune_vector(index, compiled.vector)
    if not vector and not compiled.lattice:
        return None
    if compiled.lattice and not compiled.phrases:
        return None

    def ranking_for(p: ScoringParamsA, idf_map=None, extra=None, reference=None):
        if compiled.lattice:
            scorer = _lattice_scorer(index, compiled, p, qstats, reference,
                                     idf_map, extra or {})
        else:
            full = dict(vector)
            if extra:
                full.update(extra)
            scorer = system_a_scorer(index, full, p, qstats, reference, idf_map)
        return rank(index, scorer, cutoff, compiled.query_id)

    neutral = replace(params, use_category=False)
    first = ranking_for(neutral)
    if params.use_category:
        first = ranking_for(params, reference=first)
    if feedback is None:
        return first

    reference = first
    top_docs = first.doc_ids()[:feedback.k_r]
    candidates = None
    if index.mode == CHARACTER_MODE:
        if mi_table is None or k_cmi is None:
            raise ValueError("character-mode feedback needs mi_table and k_cmi")
        candidates = _char_feedback_candidates(index, top_docs, mi_table, k_cmi)
    if compiled.lattice:
        fb_vector, idf_map = feedback_vector(vector, top_docs, index, feedback,
                                             candidates)
        extra = {t: w for t, w in fb_vector.items() if t not in vector}
        return ranking_for(params, idf_map=idf_map, extra=extra,
                           reference=reference)
    return run_feedback_a(vector, first, index, feedback, params, qstats,
                          cutoff, candidates, category_reference=reference)


def search_system_a(index: Index, topics: Sequence[Topic], qtype: QueryType,
                    config: TokenizerConfig, extraction: ExtractionConfig,
                    params: ScoringParamsA,
                    feedback: FeedbackAParams | None = None,
                    cutoff: int = 1000,
                    mi_table: MiTable | None = None,
                    k_cmi: float | None = None) -> tuple[list[Ranking], list[str]]:
    compiled = [CompiledTopicA(t, qtype, config, extraction, mi_table, k_cmi)
                for t in topics]
    qstats = build_qstats_a(compiled)
    return _usable((item.query_id,
                    search_topic_a(index, item, params, qstats, feedback,
                                   cutoff, mi_table, k_cmi))
                   for item in compiled)


# -- parameter-light pipeline --------------------------------------------------


def search_topic_b(index: Index, query_id: str, bag: Mapping[str, int],
                   feedback: FeedbackBParams | None = None,
                   cutoff: int = 1000,
                   k_q: float = 1000.0) -> Ranking | None:
    first = bm11_retrieval(index, bag, cutoff, query_id, k_q)
    if first is None:
        return None
    pruned, ranking = first
    if feedback is None:
        return ranking
    return run_feedback_b(pruned, ranking, index, feedback, cutoff)


def search_system_b(index: Index, topics: Sequence[Topic], qtype: QueryType,
                    config: TokenizerConfig,
                    feedback: FeedbackBParams | None = None,
                    cutoff: int = 1000,
                    mi_table: MiTable | None = None,
                    k_cmi: float | None = None) -> tuple[list[Ranking], list[str]]:
    k_q = feedback.k_q if feedback is not None else 1000.0

    def search(topic: Topic) -> Ranking | None:
        _, bag = compile_bag(topic, qtype, config, mi_table, k_cmi)
        return search_topic_b(index, topic.query_id, bag, feedback, cutoff, k_q)

    return _usable((topic.query_id, search(topic)) for topic in topics)


def _usable(results: Iterable[tuple[str, Ranking | None]]
            ) -> tuple[list[Ranking], list[str]]:
    """Rankings of the topics that had one, and a warning for each other."""
    rankings = []
    warnings = []
    for query_id, ranking in results:
        if ranking is None:
            warnings.append(f"query {query_id}: no usable terms; skipped")
        else:
            rankings.append(ranking)
    return rankings, warnings


# -- cross-lingual pipeline ----------------------------------------------------


def clir_topic(topic: Topic, qtype: QueryType, config: TokenizerConfig,
               dictionary: BilingualDictionary, target_index: Index,
               source_index: Index | None = None,
               expansion_theta: float | None = None,
               expansion_docs: int = 5,
               expand_all: bool = False,
               passthrough: bool = False,
               feedback: FeedbackBParams | None = None,
               cutoff: int = 1000,
               mi_table: MiTable | None = None,
               k_cmi: float | None = None) -> Ranking | None:
    """Compile -> (expand) -> translate -> retrieve for one topic."""
    sequence, bag = compile_bag(topic, qtype, config, mi_table, k_cmi)
    if source_index is not None and expansion_theta is not None:
        expanded = document_expansion(bag, source_index, expansion_docs,
                                      expansion_theta, expand_all)
        sequence = sequence + [w for w in expanded if w not in bag]
    translated = translate(sequence, dictionary, passthrough)
    if not translated:
        raise EmptyQueryError(
            f"topic {topic.query_id!r}: nothing translatable in the query"
        )
    return search_topic_b(target_index, topic.query_id, Counter(translated),
                          feedback, cutoff)


# -- parameter sweep -------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    p_level: float
    r: int | str        # int or "auto"
    alpha: float | str  # float or "auto"
    ap_rigid: float | None
    ap_relax: float | None


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    averages: dict[str, dict[str, float | None]]

    def format(self) -> str:
        def cell(value):
            return "NA" if value is None else f"{value:.4f}"

        lines = ["p\tR\talpha\tap_rigid\tap_relax"]
        for row in self.rows:
            lines.append(f"{row.p_level}\t{row.r}\t{row.alpha}\t"
                         f"{cell(row.ap_rigid)}\t{cell(row.ap_relax)}")
        for dimension in ("p", "R", "alpha"):
            lines.append(f"# mean ap_relax by {dimension}")
            for value, mean in self.averages[dimension].items():
                lines.append(f"{dimension}={value}\t{cell(mean)}")
        return "\n".join(lines) + "\n"


def sweep_b(index: Index, topics: Sequence[Topic], qtype: QueryType,
            config: TokenizerConfig, qrels: Mapping[str, Mapping[str, int]],
            p_values: Sequence[float], r_values: Sequence,
            alpha_values: Sequence, cutoff: int = 1000,
            mi_table: MiTable | None = None,
            k_cmi: float | None = None) -> SweepReport:
    """Evaluate the feedback grid; initial retrievals are shared across cells."""
    from .evaluation import evaluate_run

    prepared = []
    for topic in topics:
        _, bag = compile_bag(topic, qtype, config, mi_table, k_cmi)
        first = bm11_retrieval(index, bag, cutoff, topic.query_id)
        if first is not None:
            prepared.append((topic.query_id, *first))

    rows = []
    for p_level in p_values:
        for r_value in r_values:
            for alpha_value in alpha_values:
                params = FeedbackBParams(
                    p_level=p_level,
                    r=None if r_value == AUTO else int(r_value),
                    alpha=None if alpha_value == AUTO else float(alpha_value),
                )
                run = {}
                for query_id, bag, first in prepared:
                    ranking = run_feedback_b(bag, first, index, params, cutoff)
                    run[query_id] = list(ranking.doc_ids())
                report = evaluate_run(run, qrels)
                rows.append(SweepRow(p_level, r_value, alpha_value,
                                     report.macro["ap_rigid"],
                                     report.macro["ap_relax"]))

    def group_mean(key):
        groups: dict[str, list[float | None]] = {}
        for row in rows:
            groups.setdefault(str(key(row)), []).append(row.ap_relax)
        means = {}
        for value, aps in groups.items():
            defined = [v for v in aps if v is not None]
            means[value] = sum(defined) / len(defined) if defined else None
        return means

    averages = {
        "p": group_mean(lambda r: r.p_level),
        "R": group_mean(lambda r: r.r),
        "alpha": group_mean(lambda r: r.alpha),
    }
    return SweepReport(tuple(rows), averages)


def run_tag(config: Mapping) -> str:
    """Stable short tag derived from the resolved configuration."""
    payload = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:12]


def format_run(rankings: Iterable[Ranking], tag: str,
               header: Mapping | None = None) -> str:
    """TREC run text, topics ordered by query_id, config echoed as comments."""
    lines = []
    if header:
        for key in sorted(header):
            lines.append(f"# {key} = {header[key]}")
    for ranking in sorted(rankings, key=lambda r: r.query_id):
        for position, (doc_id, score) in enumerate(ranking.items, start=1):
            lines.append(
                f"{ranking.query_id} Q0 {doc_id} {position} {score:.9g} {tag}"
            )
    return "\n".join(lines) + "\n"
