"""Ranking quality measures against graded judgments.

Average precision is non-interpolated and normalized by the total number of
relevant documents, retrieved or not; R-precision is precision at the rank
equal to that total.  Grades map to binary relevance through two thresholds:
rigid (grade >= 2 by default) and relax (grade >= 1).  Queries with no
relevant documents under a mode are reported as undefined and left out of
that mode's macro average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ParseError

RIGID_GRADE = 2
RELAX_GRADE = 1

NA = "NA"  # report marker for undefined per-query values


def load_qrels(path) -> dict[str, dict[str, int]]:
    """Parse `query_id 0 doc_id grade` lines into query -> doc -> grade."""
    qrels: dict[str, dict[str, int]] = {}
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 4:
                raise ParseError(str(path), line_no,
                                 "expected: query_id 0 doc_id grade")
            query_id, _, doc_id, raw_grade = fields
            try:
                grade = int(raw_grade)
            except ValueError:
                raise ParseError(str(path), line_no,
                                 f"bad grade {raw_grade!r}") from None
            if grade < 0:
                raise ParseError(str(path), line_no, "grade must be >= 0")
            qrels.setdefault(query_id, {})[doc_id] = grade
    return qrels


def relevant_docs(grades: Mapping[str, int], min_grade: int) -> set[str]:
    return {doc_id for doc_id, grade in grades.items() if grade >= min_grade}


def average_precision(ranked_docs: Sequence[str], relevant: set[str]) -> float | None:
    """Mean of precision at each relevant rank over ALL relevant docs;
    None when the query has no relevant docs (undefined)."""
    if not relevant:
        return None
    hits = 0
    total = 0.0
    for position, doc_id in enumerate(ranked_docs, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / position
    return total / len(relevant)


def r_precision(ranked_docs: Sequence[str], relevant: set[str]) -> float | None:
    if not relevant:
        return None
    r = len(relevant)
    hits = sum(1 for doc_id in ranked_docs[:r] if doc_id in relevant)
    return hits / r


def parse_run_file(path) -> dict[str, list[str]]:
    """TREC run lines -> query -> doc ids in rank order; comments skipped.

    A repeated (query, doc) pair or a score that is not finite is an error,
    since either would be counted into the measures as if it were valid."""
    runs: dict[str, list[tuple[int, str]]] = {}
    seen: set[tuple[str, str]] = set()
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.startswith("#") or not line.strip():
                continue
            fields = line.split()
            if len(fields) != 6:
                raise ParseError(str(path), line_no,
                                 "expected: query_id Q0 doc_id rank score tag")
            query_id, _, doc_id, raw_rank, raw_score, _ = fields
            try:
                rank_pos = int(raw_rank)
                score = float(raw_score)
            except ValueError:
                raise ParseError(str(path), line_no,
                                 "rank must be int, score numeric") from None
            if not math.isfinite(score):
                raise ParseError(str(path), line_no,
                                 f"score {raw_score!r} is not finite")
            if (query_id, doc_id) in seen:
                raise ParseError(str(path), line_no,
                                 f"doc {doc_id!r} repeated for query {query_id!r}")
            seen.add((query_id, doc_id))
            runs.setdefault(query_id, []).append((rank_pos, doc_id))
    return {
        query_id: [doc_id for _, doc_id in sorted(entries, key=lambda e: e[0])]
        for query_id, entries in runs.items()
    }


@dataclass(frozen=True)
class QueryResult:
    query_id: str
    ap_rigid: float | None
    ap_relax: float | None
    rp_rigid: float | None
    rp_relax: float | None


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[QueryResult, ...]
    macro: dict[str, float | None]
    warnings: tuple[str, ...]

    def format(self) -> str:
        def cell(value):
            return NA if value is None else f"{value:.4f}"

        lines = ["query_id\tap_rigid\tap_relax\trp_rigid\trp_relax"]
        for row in self.rows:
            lines.append("\t".join([row.query_id, cell(row.ap_rigid),
                                    cell(row.ap_relax), cell(row.rp_rigid),
                                    cell(row.rp_relax)]))
        lines.append("\t".join(["MACRO", cell(self.macro["ap_rigid"]),
                                cell(self.macro["ap_relax"]),
                                cell(self.macro["rp_rigid"]),
                                cell(self.macro["rp_relax"])]))
        return "\n".join(lines) + "\n"


def _macro(values: list[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    return sum(defined) / len(defined)


def evaluate_run(run: Mapping[str, Sequence[str]],
                 qrels: Mapping[str, Mapping[str, int]],
                 rigid_grade: int = RIGID_GRADE,
                 relax_grade: int = RELAX_GRADE) -> EvalReport:
    """Score every run query that has judgments; macro averages skip
    undefined (no-relevant) queries per mode."""
    rows = []
    warnings = []
    for query_id in sorted(run):
        if query_id not in qrels:
            warnings.append(f"query {query_id} has no judgments; skipped")
            continue
        ranked = run[query_id]
        grades = qrels[query_id]
        rigid = relevant_docs(grades, rigid_grade)
        relax = relevant_docs(grades, relax_grade)
        rows.append(QueryResult(
            query_id,
            average_precision(ranked, rigid),
            average_precision(ranked, relax),
            r_precision(ranked, rigid),
            r_precision(ranked, relax),
        ))
    macro = {
        "ap_rigid": _macro([row.ap_rigid for row in rows]),
        "ap_relax": _macro([row.ap_relax for row in rows]),
        "rp_rigid": _macro([row.rp_rigid for row in rows]),
        "rp_relax": _macro([row.rp_relax for row in rows]),
    }
    return EvalReport(tuple(rows), macro, tuple(warnings))
