"""Correctness gate and summary statistics.

Rankings must have finite scores, no repeated document and the
(score desc, doc_id asc) order.  Run files are reduced to their ranking
lines before hashing: the `#` header and the tag column echo the resolved
configuration, which a change may extend without changing any ranking.
"""

from __future__ import annotations

import hashlib
import math
import statistics

# topic_ms_tail is the highest percentile with this many samples beyond it.
MIN_BEYOND = 10


def ranking_problem(ranking) -> str | None:
    """Why a ranking breaks the rules, or None when it is sound.

    ``ranking`` is anything with ``query_id`` and ``items``, a sequence of
    (doc_id, score) pairs, best first.
    """
    if ranking is None:
        return "no ranking (query skipped)"
    seen = set()
    previous = None
    for position, (doc_id, score) in enumerate(ranking.items, start=1):
        if not isinstance(score, (int, float)) or not math.isfinite(score):
            return f"rank {position}: score {score!r} is not finite"
        if doc_id in seen:
            return f"rank {position}: document {doc_id!r} appears twice"
        seen.add(doc_id)
        key = (-score, doc_id)
        if previous is not None and key < previous:
            return f"rank {position}: {doc_id!r} is out of (score desc, doc_id asc) order"
        previous = key
    return None


def run_file_digest(text: str) -> tuple[str, list[str]]:
    """SHA-256 of the ranking lines (query, doc, rank, score) and the
    problems found in them: bad lines, non-finite scores, repeated
    documents, ranks that do not count up from 1."""
    problems = []
    lines = []
    last_rank: dict[str, int] = {}
    seen = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 6:
            problems.append(f"line {line_no}: expected 6 fields")
            continue
        query_id, _, doc_id, raw_rank, raw_score, _ = fields
        try:
            rank = int(raw_rank)
            score = float(raw_score)
        except ValueError:
            problems.append(f"line {line_no}: bad rank or score")
            continue
        if not math.isfinite(score):
            problems.append(f"line {line_no}: score {raw_score} is not finite")
        if (query_id, doc_id) in seen:
            problems.append(f"line {line_no}: {query_id} {doc_id} repeated")
        seen.add((query_id, doc_id))
        if rank != last_rank.get(query_id, 0) + 1:
            problems.append(f"line {line_no}: rank {rank} out of sequence")
        last_rank[query_id] = rank
        lines.append(" ".join((query_id, doc_id, raw_rank, raw_score)))
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()
    return digest, problems


def nearest_rank(sorted_values, pct: float):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest whole
    percentile from 99 down to 50 that leaves at least ``MIN_BEYOND``
    samples above its nearest rank.  With fewer than 2·MIN_BEYOND samples
    no percentile qualifies, and the median is returned with its actual
    count beyond."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 49, -1):
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= MIN_BEYOND:
            return float(pct), nearest_rank(ordered, pct), beyond
    return 50.0, nearest_rank(ordered, 50), n - max(1, math.ceil(n / 2))


def throughput(rounds, key="search_s") -> float:
    """Topics completed over the time of the search phases of all rounds,
    at reference speed (``search_s``) or wall-clock (``search_wall_s``)."""
    return sum(r["topics"] for r in rounds) / sum(r[key] for r in rounds)


def summarise(raw: dict) -> tuple[dict, list[str]]:
    """End-to-end metric values from one workload run's raw measurements,
    plus lines of context to print beside them."""
    topics = raw["topic_s"]
    rounds = raw["rounds"]
    pct, tail, beyond = tail_percentile(topics)
    metrics = {
        "setup_s": (statistics.median(raw["setup_s"])
                    + statistics.median(r["load_s"] for r in rounds)),
        "topics_per_s": throughput(rounds),
        "topic_ms_p50": statistics.median(topics) * 1000.0,
        "topic_ms_tail": tail * 1000.0,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "index_bytes_per_input_byte": raw["index_bytes"] / raw["input_bytes"],
        "map_relax": raw["map_relax"],
    }
    walls = raw["topic_wall_s"]
    wall_setup = (statistics.median(raw["setup_wall_s"])
                  + statistics.median(r["load_wall_s"] for r in rounds))
    context = [
        f"corpus: {raw['n_docs']} documents, {raw['input_bytes']} input bytes; "
        f"{rounds[0]['topics']} topics per round, {len(rounds)} rounds",
        f"topic_ms_tail is p{pct:g} of {len(topics)} topic timings, "
        f"{beyond} beyond it",
        f"setup: {len(raw['setup_s'])} set-ups, {len(rounds)} loads",
        f"times are at reference speed; reference loop median "
        f"{raw['reference_s'] * 1000.0:.4g} ms; wall-clock: setup_s "
        f"{wall_setup:.6g} s, topics_per_s {throughput(rounds, 'search_wall_s'):.6g} "
        f"topics/s, topic_ms_p50 {statistics.median(walls) * 1000.0:.6g} ms, "
        f"topic_ms_tail {tail_percentile(walls)[1] * 1000.0:.6g} ms",
    ]
    return metrics, context
