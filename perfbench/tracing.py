"""Spans and counters installed on probir from outside the program.

Each module binds the names it imported (``pipeline``, ``feedback_a``,
``feedback_b`` and ``clir`` each have their own ``rank``), so wrappers are
installed where the callers look the names up, and on the ``Index`` class
for its methods.  Calls made for every document (``doc_tf``,
``first_position``, ``k_category``, ``lattice_best_path``, the scorer handed
to ``rank``) only bump a counter; ``term_stats`` also adds up its inclusive
time, without a span.  Everything else opens a span.  Spans stay in memory
and are reduced to self times when the run ends.

A name that a later version of probir no longer has is skipped and listed
in ``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

SPAN, COUNT, TIMED_COUNT, RANK, CANDIDATE = (
    "span", "count", "timed_count", "rank", "candidate")


def _added_words(args, kwargs, result):
    return {"clir.expanded_words": len(result) - len(args[0])}


def _translated(args, kwargs, result):
    return {"clir.tokens_in": len(args[0]), "clir.tokens_out": len(result)}


def _selected(args, kwargs, result):
    return {"feedback_b.words_tested": len(args[0]),
            "feedback_b.words_selected": len(result)}


# (module[:class], attribute, kind, name, observe)
# observe(args, kwargs, result) -> {counter: amount} for value counters.
PATCHES = [
    ("probir.cli", "load_documents", SPAN, "corpus.load_documents", None),
    ("probir.cli", "load_topics", SPAN, "corpus.load_topics", None),
    ("probir.cli", "build_index", SPAN, "index.build", None),
    ("probir.index:Index", "save", SPAN, "index.save", None),
    ("probir.cli", "_save_tokenizer", SPAN, "index.save", None),
    ("probir.cli", "_save_mi", SPAN, "index.save", None),
    ("probir.cli", "load_index", SPAN, "index.load", None),
    ("probir.cli", "_load_tokenizer", SPAN, "index.load", None),
    ("probir.cli", "_load_mi", SPAN, "index.load", None),
    ("probir.index:Index", "doc_tf", COUNT, "index.doc_tf", None),
    ("probir.index:Index", "term_stats", TIMED_COUNT, "index.term_stats", None),
    ("probir.index:Index", "first_position", COUNT, "index.first_position", None),
    ("probir.cli", "build_mi_table", SPAN, "segmentation.build_mi_table", None),
    ("probir.cli", "calibrate_kcmi", SPAN, "segmentation.calibrate_kcmi", None),
    ("probir.pipeline", "segment", SPAN, "segmentation.segment", None),
    ("probir.pipeline", "extract_terms", SPAN, "term_extraction.extract", None),
    ("probir.pipeline", "all_term_patterns", SPAN, "term_extraction.extract", None),
    ("probir.pipeline", "lattice_best_path", COUNT,
     "term_extraction.lattice_best_path", None),
    ("probir.pipeline", "rank", RANK, "pipeline", None),
    ("probir.feedback_a", "rank", RANK, "feedback", None),
    ("probir.feedback_b", "rank", RANK, "feedback", None),
    ("probir.clir", "rank", RANK, "clir", None),
    ("probir.pipeline", "score_bm11", COUNT, "scoring.score_bm11", None),
    ("probir.feedback_b", "score_bm11", COUNT, "scoring.score_bm11", None),
    ("probir.clir", "score_bm11", COUNT, "scoring.score_bm11", None),
    ("probir.pipeline", "score_system_a", COUNT, "scoring.score_system_a", None),
    ("probir.feedback_a", "score_system_a", COUNT, "scoring.score_system_a", None),
    ("probir.scoring", "k_category", COUNT, "scoring.k_category", None),
    ("probir.pipeline", "k_category", COUNT, "scoring.k_category", None),
    ("probir.feedback_b", "auto_r", SPAN, "feedback_b.auto_r",
     lambda a, k, r: {"feedback_b.chosen_r": r}),
    ("probir.feedback_b", "selected_vocabulary_size", COUNT,
     "feedback_b.vocab_size", None),
    ("probir.feedback_b", "feedback_weights", SPAN, "feedback_b.feedback_weights",
     lambda a, k, r: {"feedback_b.expanded_query_words": len(r)}),
    ("probir.feedback_b", "select_terms", COUNT, "feedback_b.select_terms", _selected),
    ("probir.feedback_a", "feedback_vector", SPAN, "feedback_a.feedback_vector", None),
    ("probir.pipeline", "feedback_vector", SPAN, "feedback_a.feedback_vector", None),
    ("probir.feedback_a", "expansion_terms", SPAN, "feedback_a.expansion_terms",
     lambda a, k, r: {"feedback_a.adopted": len(r)}),
    ("probir.feedback_a", "weighted_doc_count", CANDIDATE,
     "feedback_a.candidates_tested", None),
    ("probir.pipeline", "document_expansion", SPAN, "clir.document_expansion",
     _added_words),
    ("probir.pipeline", "translate", SPAN, "clir.translate", _translated),
    ("probir.cli", "load_dictionary", SPAN, "clir.load_dictionary", None),
    ("probir.pipeline:CompiledTopicA", "__init__", SPAN, "pipeline.compile", None),
    ("probir.pipeline", "compile_bag", SPAN, "pipeline.compile", None),
    ("probir.cli", "format_run", SPAN, "pipeline.format_run", None),
    ("probir.cli", "parse_run_file", SPAN, "evaluation.parse_run_file", None),
    ("probir.cli", "evaluate_run", SPAN, "evaluation.evaluate_run", None),
    ("probir.cli", "cmd_search", SPAN, "cli.cmd_search", None),
]


class Patches:
    """Attributes replaced on probir's modules and classes, with their
    originals, so that ``restore`` puts everything back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def __bool__(self) -> bool:
        return bool(self._saved)

    def replace(self, owner_path: str, attr: str, wrap, *extra) -> bool:
        """Replace ``attr`` of ``module[:class]`` by
        ``wrap(original, *extra)``; False when probir has no such name."""
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return False
        setattr(owner, attr, wrap(original, *extra))
        self._saved.append((owner, attr, original))
        return True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# Label of the n-th rank call that pipeline makes within one topic.
PIPELINE_PASSES = ("pass1", "pass_category")


def self_times(spans) -> dict[tuple[str, str], float]:
    """(phase, name) -> summed self time, where a span's self time is its
    duration minus the durations of its direct children.

    ``spans`` holds [name, start, end, parent index or None, phase] records.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, phase in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[tuple[str, str], float] = defaultdict(float)
    for i, (name, start, end, parent, phase) in enumerate(spans):
        totals[(phase, name)] += (end - start) - child_time[i]
    return dict(totals)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.phase = "setup"
        self.pipeline_ranks = 0
        self.missing: list[str] = []
        self.patches = Patches()

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.phase])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    @property
    def active(self) -> bool:
        return bool(self.patches)

    def begin_topic(self) -> None:
        self.pipeline_ranks = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, observe):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if observe is not None:
                counts.update(observe(args, kwargs, result))
            return result
        return wrapper

    def _candidate(self, fn, name, observe):
        """Counts only the calls made while testing expansion candidates."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.current() == "feedback_a.expansion_terms":
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count(self, fn, name, observe):
        counts = self.counts
        key = name + ".calls"
        if observe is not None:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                counts.update(observe(args, kwargs, result))
                return result
            return wrapper

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed_count(self, fn, name, observe):
        counts = self.counts
        times = self.times
        clock = self.clock
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += clock() - start
        return wrapper

    def _rank(self, fn, caller, observe):
        counts = self.counts

        def wrapper(index, scorer, *args, **kwargs):
            if caller == "pipeline":
                n = self.pipeline_ranks
                self.pipeline_ranks += 1
                label = PIPELINE_PASSES[n] if n < len(PIPELINE_PASSES) else "fb_pass"
            elif caller == "clir":
                label = "expand_pass"
            else:
                label = "fb_pass"
            counts["scoring.rank.calls"] += 1
            if callable(scorer):
                inner = scorer

                def scorer(doc_id):
                    counts["scoring.rank.docs_scored"] += 1
                    return inner(doc_id)
            span = self.enter("scoring.rank." + label)
            try:
                return fn(index, scorer, *args, **kwargs)
            finally:
                self.exit(span)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        factories = {SPAN: self._span, COUNT: self._count, TIMED_COUNT: self._timed_count,
                     RANK: self._rank, CANDIDATE: self._candidate}
        for owner_path, attr, kind, name, observe in PATCHES:
            if (not self.patches.replace(owner_path, attr, factories[kind], name, observe)
                    and f"{owner_path}.{attr}" not in self.missing):
                self.missing.append(f"{owner_path}.{attr}")

    def uninstall(self) -> None:
        self.patches.restore()


# -- per-layer metrics -------------------------------------------------------

SPAN_METRICS = (
    "corpus.load_documents", "corpus.load_topics",
    "index.build", "index.save", "index.load",
    "segmentation.build_mi_table", "segmentation.calibrate_kcmi",
    "segmentation.segment", "term_extraction.extract",
    "scoring.rank.pass1", "scoring.rank.pass_category",
    "scoring.rank.fb_pass", "scoring.rank.expand_pass",
    "feedback_b.auto_r", "feedback_b.feedback_weights",
    "feedback_a.feedback_vector", "feedback_a.expansion_terms",
    "clir.document_expansion", "clir.translate", "clir.load_dictionary",
    "pipeline.compile", "pipeline.format_run",
    "evaluation.parse_run_file", "evaluation.evaluate_run",
)

COUNT_METRICS = (
    "index.doc_tf.calls", "index.term_stats.calls", "index.first_position.calls",
    "segmentation.segment.calls", "term_extraction.lattice_best_path.calls",
    "scoring.rank.calls", "scoring.rank.docs_scored",
    "scoring.score_bm11.calls", "scoring.score_system_a.calls",
    "scoring.k_category.calls", "feedback_b.vocab_size.calls",
    "feedback_a.candidates_tested",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, phase_reps: dict[str, int],
                  round_counts: list[Counter],
                  round_times: list[Counter]) -> dict[str, float]:
    """Per-layer metrics: span self times and ``term_stats`` time averaged
    per repetition of the phase they ran in (one index build, one search
    round, one evaluation); counts and ratios from the first search round."""
    selfs = self_times(tracer.spans)

    def per_rep(span_name):
        return sum(t / phase_reps[phase] for (phase, span), t in selfs.items()
                   if span == span_name)

    out: dict[str, float] = {name + "_s": per_rep(name) for name in SPAN_METRICS}
    out["cli.search_overhead_s"] = per_rep("cli.cmd_search")
    out["index.term_stats_s"] = (sum(t["index.term_stats"] for t in round_times)
                                 / len(round_times))
    counts = round_counts[0]
    for name in COUNT_METRICS:
        out[name] = float(counts[name])
    out["feedback_b.chosen_r_mean"] = _ratio(counts["feedback_b.chosen_r"],
                                             counts["feedback_b.auto_r.calls"])
    out["feedback_b.expanded_query_words_mean"] = _ratio(
        counts["feedback_b.expanded_query_words"],
        counts["feedback_b.feedback_weights.calls"])
    out["feedback_b.select_ratio"] = _ratio(counts["feedback_b.words_selected"],
                                            counts["feedback_b.words_tested"])
    out["feedback_a.adopt_ratio"] = _ratio(counts["feedback_a.adopted"],
                                           counts["feedback_a.candidates_tested"])
    out["clir.expanded_words_mean"] = _ratio(counts["clir.expanded_words"],
                                             counts["clir.document_expansion.calls"])
    out["clir.translated_ratio"] = _ratio(counts["clir.tokens_out"],
                                          counts["clir.tokens_in"])
    return out
