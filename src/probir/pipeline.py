"""End-to-end retrieval pipelines and run-file plumbing.

Every pipeline reads text through the index's ``Analyzer``, the one place
that knows the index's mode: it gives a topic's phrases, the joiner of a
term's words and the feedback candidates of top documents.

The extended-scorer pipeline ranks in up to three passes per topic: a
category-neutral pass, a category-aware pass measured against it, and an
optional feedback pass.  The first two share one set of term sums; only
K_cat differs between them.  Every term strategy, the lattice included,
takes the same three passes, and the feedback pass adds the adopted terms
to the query's.  The parameter-light pipeline is a single BM11 pass
with optional probabilistic feedback.  Cross-lingual search compiles the
query in the source language, optionally document-expands it there, then
translates and retrieves monolingually.

Run files are TREC formatted; header comments echo the resolved
configuration and the tag defaults to a hash of it.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from .clir import BilingualDictionary, document_expansion, translate
from .corpus import (
    CHARACTER_MODE,
    QueryType,
    Topic,
    TokenizerConfig,
    selected_parts,
    split_sentences,
)
from .errors import EmptyQueryError
from .feedback_a import FeedbackAParams, feedback_vector
from .feedback_b import AUTO, FeedbackBParams, PrefixBags, run_feedback_b
from .index import Index
from .scoring import (
    QuerySetStats,
    Ranking,
    ScoringParamsA,
    SystemATables,
    bm11_retrieval,
    build_query_set_stats,
    k_category,  # noqa: F401  (not called; perfbench/tracing.py wraps it here)
    prune_vector,
    rank,
    score_bm11,  # noqa: F401  (not called; perfbench/tracing.py wraps it here)
    score_system_a,  # noqa: F401  (not called; perfbench/tracing.py wraps it here)
    system_a_lookup,
    system_a_sums,
)
from .segmentation import MiTable, segment
from .term_extraction import (
    LATTICE,
    ExtractionConfig,
    all_term_patterns,
    check_lattice_phrase,
    extract_terms,
    lattice_best_path,  # noqa: F401  (not called; perfbench/tracing.py wraps it here)
    lattice_best_score,
    split_phrases,
)


class Analyzer:
    """How text becomes one index's words: its tokenizer and, in character
    mode, the MI table and threshold k_cmi that segment each sentence; a memo
    keeps each document's segmented words for the index it last served."""

    def __init__(self, config: TokenizerConfig, mi_table: MiTable | None = None,
                 k_cmi: float | None = None):
        self.config = config
        self.character = config.mode == CHARACTER_MODE
        if self.character and (mi_table is None or k_cmi is None):
            raise ValueError("character mode needs mi_table and k_cmi")
        self.mi_table = mi_table
        self.k_cmi = k_cmi
        self.joiner = "" if self.character else " "
        self._memo_index: Index | None = None
        self._doc_words: dict[str, frozenset[str]] = {}

    def phrases(self, topic: Topic, qtype: QueryType) -> list[list[str]]:
        """Query text as phrases: token runs, or segmented words per sentence."""
        phrases: list[list[str]] = []
        for part in selected_parts(topic, qtype):
            if not self.character:
                phrases.extend(split_phrases(part, self.config))
                continue
            for sentence in split_sentences(part, self.config):
                words = segment(sentence, self.mi_table, self.k_cmi)
                if words:
                    phrases.append(words)
        return phrases

    def feedback_candidates(self, index: Index, top_docs: Sequence[str]
                            ) -> set[str] | None:
        """Feedback candidates: the segmented words of the top documents'
        stored texts in character mode, None (the index's words) in token mode."""
        if not self.character:
            return None
        if index is not self._memo_index:
            self._memo_index, self._doc_words = index, {}
        words: set[str] = set()
        for doc_id in top_docs:
            found = self._doc_words.get(doc_id)
            if found is None:
                found = self._doc_words[doc_id] = frozenset(
                    word for text in index.doc_text(doc_id)
                    for word in segment(text, self.mi_table, self.k_cmi))
            words.update(found)
        return words


def compile_bag(topic: Topic, qtype: QueryType,
                analyzer: Analyzer) -> tuple[list[str], Counter]:
    """Query as an ordered word list plus its count bag: the topic's
    phrases, flattened."""
    sequence = [word for phrase in analyzer.phrases(topic, qtype)
                for word in phrase]
    return sequence, Counter(sequence)


# -- extended-scorer pipeline -------------------------------------------------


class CompiledTopicA:
    """Everything the extended scorer needs for one topic."""

    def __init__(self, topic: Topic, qtype: QueryType, analyzer: Analyzer,
                 extraction: ExtractionConfig):
        self.query_id = topic.query_id
        joiner = self.joiner = analyzer.joiner
        self.max_span = extraction.max_span
        self.lattice = extraction.strategy == LATTICE
        self.phrases = analyzer.phrases(topic, qtype)

        def terms(phrases):
            if self.lattice:
                # Path terms come from all contiguous patterns; the same set
                # carries query-frequency statistics and feedback reweighting.
                return all_term_patterns(phrases, extraction.max_span, joiner)
            return extract_terms(phrases, extraction, joiner)

        self.vector = terms(self.phrases)
        self.title_terms = set(terms(analyzer.phrases(topic, QueryType.VERY_SHORT)))


def _lattice_sums(tables: SystemATables, compiled: CompiledTopicA, idf_map,
                  extra_terms: Mapping[str, tuple[float, int]]
                  ) -> dict[str, float]:
    """doc_id -> Σ over phrases of the best lattice path's score, plus the
    extra terms: the lattice's ``system_a_sums``, for every document some
    span or extra term reaches.

    A path term's contribution (weight 1, the query's tf_q or 1) is
    computed once for every span the DP can ask for, as
    ``system_a_sums`` of the one-term vector into a fresh accumulator: its
    doc -> addend map.  Each phrase's spans are joined once into rows of
    those maps, and ``lattice_best_score`` runs the score-only DP over the
    rows for the documents holding some span of the phrase.  For every
    other document all of the phrase's contributions are 0.0, and so is
    its path score.  A phrase the lattice refuses raises even when no
    document holds a span.
    """
    vector = compiled.vector
    contributions: dict[str, dict[str, float]] = {}
    path_sums: dict[str, float] = {}
    for phrase in compiled.phrases:
        check_lattice_phrase(phrase, compiled.max_span)
        hits: set[str] = set()
        rows = []
        for i in range(1, len(phrase) + 1):
            row = []
            for j in range(i):
                term = compiled.joiner.join(phrase[j:i])
                addends = contributions.get(term)
                if addends is None:
                    entry = vector.get(term)
                    tf_q = entry.tf_q if entry is not None else 1
                    addends = contributions[term] = system_a_sums(
                        tables, {term: (1.0, tf_q)}, idf_map)
                hits.update(addends)
                row.append(addends)
            rows.append(row)
        docs = list(hits)
        for doc_id, path_score in zip(docs, lattice_best_score(rows, docs)):
            path_sums[doc_id] = path_sums.get(doc_id, 0.0) + path_score
    return system_a_sums(tables, extra_terms, idf_map, acc=path_sums)


def build_qstats_a(compiled: Sequence[CompiledTopicA]) -> QuerySetStats:
    return build_query_set_stats(
        [(set(c.vector), c.title_terms) for c in compiled]
    )


def search_topic_a(analyzer: Analyzer, compiled: CompiledTopicA,
                   tables: SystemATables,
                   feedback: FeedbackAParams | None = None,
                   cutoff: int = 1000) -> Ranking | None:
    """Rank one topic over ``tables``' index with its params and query-set
    statistics; None when no query term survives pruning, whatever the term
    strategy.

    The category pass measures K_cat against the neutral pass's ranking;
    the feedback pass measures it against the ranking feedback starts from,
    the category pass's when the category factor is on.  The feedback pass
    is the same scorer over the query's terms (the lattice's paths, or the
    flat vector) plus the adopted terms, with the modulated IDFs.

    ``analyzer`` is the index's, and gives the feedback candidates."""
    index = tables.index
    vector = prune_vector(index, compiled.vector)
    if not vector:
        return None

    def sums_for(idf_map, extra):
        if compiled.lattice:
            return _lattice_sums(tables, compiled, idf_map, extra)
        return system_a_sums(tables, vector | extra, idf_map)

    def ranking_for(sums, reference):
        return rank(index, system_a_lookup(tables, sums, reference), cutoff,
                    compiled.query_id)

    # The term sums do not depend on K_cat: both passes rank the same sums.
    sums = sums_for(None, {})
    first = ranking_for(sums, None)
    reference = None  # what K_cat is measured against; None while it is off
    if tables.params.use_category:
        reference = first = ranking_for(sums, first)
    if feedback is None:
        return first

    fb_vector, idf_map = feedback_vector(
        vector, PrefixBags(index, first), feedback, tables.tails,
        analyzer.feedback_candidates(index, first.doc_ids()[:feedback.k_r]))
    # The query terms come first in fb_vector, then the sorted adopted ones,
    # so ``vector | adopted`` is fb_vector, in its order.
    adopted = {t: w for t, w in fb_vector.items() if t not in vector}
    return ranking_for(sums_for(idf_map, adopted), reference)


def search_system_a(index: Index, topics: Sequence[Topic], qtype: QueryType,
                    analyzer: Analyzer, extraction: ExtractionConfig,
                    params: ScoringParamsA,
                    feedback: FeedbackAParams | None = None,
                    cutoff: int = 1000) -> tuple[list[Ranking], list[str]]:
    compiled = [CompiledTopicA(t, qtype, analyzer, extraction) for t in topics]
    tables = SystemATables(index, params, build_qstats_a(compiled))
    return _usable(compiled, lambda item: search_topic_a(analyzer, item, tables,
                                                         feedback, cutoff))


# -- parameter-light pipeline --------------------------------------------------


def search_topic_b(index: Index, query_id: str, bag: Mapping[str, int],
                   feedback: FeedbackBParams | None = None,
                   cutoff: int = 1000) -> Ranking | None:
    first = bm11_retrieval(index, bag, cutoff, query_id)
    if first is None:
        return None
    pruned, ranking = first
    if feedback is None:
        return ranking
    return run_feedback_b(pruned, PrefixBags(index, ranking), feedback, cutoff)


def search_system_b(index: Index, topics: Sequence[Topic], qtype: QueryType,
                    analyzer: Analyzer,
                    feedback: FeedbackBParams | None = None,
                    cutoff: int = 1000) -> tuple[list[Ranking], list[str]]:
    def search(topic: Topic) -> Ranking | None:
        _, bag = compile_bag(topic, qtype, analyzer)
        return search_topic_b(index, topic.query_id, bag, feedback, cutoff)

    return _usable(topics, search)


def _usable(topics: Iterable, search: Callable[..., object]
            ) -> tuple[list, list[str]]:
    """Each topic's ``search(topic)``, in topic order: the results (a
    ranking, or a sweep's first retrieval) of the topics that had one, and
    a warning for each other, whether it gave None or its query came out
    empty (``EmptyQueryError``).  A topic is anything with a ``query_id``."""
    rankings = []
    warnings = []
    for topic in topics:
        try:
            ranking = search(topic)
        except EmptyQueryError as exc:
            warnings.append(str(exc))
            continue
        if ranking is None:
            warnings.append(f"query {topic.query_id}: no usable terms; skipped")
        else:
            rankings.append(ranking)
    return rankings, warnings


# -- cross-lingual pipeline ----------------------------------------------------


def clir_topic(topic: Topic, qtype: QueryType, analyzer: Analyzer,
               dictionary: BilingualDictionary, target_index: Index,
               source_index: Index | None = None,
               expansion_docs: int = 5,
               expand_all: bool = False,
               passthrough: bool = False,
               feedback: FeedbackBParams | None = None,
               cutoff: int = 1000) -> Ranking | None:
    """Compile with the source language's analyzer -> expand, when there
    is a ``source_index`` -> translate -> retrieve, for one topic."""
    sequence, bag = compile_bag(topic, qtype, analyzer)
    if source_index is not None:
        expanded = document_expansion(bag, source_index, expansion_docs,
                                      expand_all=expand_all)
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
    """The grid's rows and means (what ``format`` writes), and a warning
    for each topic that no cell ranks or evaluates."""

    rows: tuple[SweepRow, ...]
    averages: dict[str, dict[str, float | None]]
    warnings: tuple[str, ...] = ()

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


def feedback_b_params(p_level: float, r: int | str, alpha: float | str,
                      **settings) -> FeedbackBParams:
    """System B's feedback params of one sweep grid cell or search: an R
    or alpha is ``AUTO`` (chosen per topic) or a number, and ``settings``
    are other fields.  Raises ValueError for a setting out of range."""
    return FeedbackBParams(p_level=p_level, r=None if r == AUTO else int(r),
                           alpha=None if alpha == AUTO else float(alpha),
                           **settings)


def sweep_b(index: Index, topics: Sequence[Topic], qtype: QueryType,
            analyzer: Analyzer, qrels: Mapping[str, Mapping[str, int]],
            p_values: Sequence[float], r_values: Sequence,
            alpha_values: Sequence, cutoff: int = 1000) -> SweepReport:
    """Evaluate the feedback grid.

    Each topic's first retrieval and its prefix bags (with their relevance
    values, which depend on neither θ, α nor R) are shared by every cell.
    Every cell ranks the same topics, so the topics left out, unranked or
    unjudged, are the same in each and warned of once."""
    from .evaluation import evaluate_run, macro_mean

    def prepare(topic: Topic) -> tuple[dict[str, int], PrefixBags] | None:
        _, bag = compile_bag(topic, qtype, analyzer)
        first = bm11_retrieval(index, bag, cutoff, topic.query_id)
        if first is None:
            return None
        pruned, ranking = first
        return pruned, PrefixBags(index, ranking)

    prepared, warnings = _usable(topics, prepare)
    unjudged: tuple[str, ...] = ()
    rows = []
    for p_level, r_value, alpha_value in product(p_values, r_values,
                                                 alpha_values):
        params = feedback_b_params(p_level, r_value, alpha_value)
        run = {}
        for bag, prefixes in prepared:
            ranking = run_feedback_b(bag, prefixes, params, cutoff)
            run[ranking.query_id] = list(ranking.doc_ids())
        report = evaluate_run(run, qrels)
        unjudged = report.warnings
        rows.append(SweepRow(p_level, r_value, alpha_value,
                             report.macro["ap_rigid"],
                             report.macro["ap_relax"]))

    def group_mean(key):
        groups: dict[str, list[float | None]] = {}
        for row in rows:
            groups.setdefault(str(key(row)), []).append(row.ap_relax)
        return {value: macro_mean(aps) for value, aps in groups.items()}

    averages = {
        "p": group_mean(lambda r: r.p_level),
        "R": group_mean(lambda r: r.r),
        "alpha": group_mean(lambda r: r.alpha),
    }
    return SweepReport(tuple(rows), averages, (*warnings, *unjudged))


def run_tag(config: Mapping) -> str:
    """Stable short tag derived from the resolved configuration."""
    payload = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:12]


def format_run(rankings: Iterable[Ranking], tag: str,
               header: Mapping | None = None) -> str:
    """TREC run text, topics ordered by query_id, config echoed as comments.

    A non-finite score raises ValueError: no option should let one through,
    and a run file holding one is not a ranking."""
    lines = []
    if header:
        for key in sorted(header):
            lines.append(f"# {key} = {header[key]}")
    for ranking in sorted(rankings, key=lambda r: r.query_id):
        for position, (doc_id, score) in enumerate(ranking.items, start=1):
            if not math.isfinite(score):
                raise ValueError(f"query {ranking.query_id}: document {doc_id} "
                                 f"has a non-finite score ({score})")
            lines.append(
                f"{ranking.query_id} Q0 {doc_id} {position} {score:.9g} {tag}"
            )
    return "\n".join(lines) + "\n"
