import math
from types import SimpleNamespace

import pytest

from perfbench.checks import (
    ranking_problem,
    run_file_digest,
    tail_percentile,
)


def ranking(*items):
    return SimpleNamespace(query_id="q1", items=tuple(items))


# -- topic_ms_tail percentile rule ---------------------------------------------


@pytest.mark.parametrize("n, pct, beyond", [
    (1000, 99, 10),   # 1000 - 990
    (200, 95, 10),    # p96 leaves only 8
    (101, 90, 10),    # ceil(90.9) = 91
    (100, 90, 10),
    (99, 89, 10),     # ceil(88.11) = 89
    (20, 50, 10),     # the smallest n with a qualifying percentile
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    values = [float(i) for i in range(1, n + 1)]
    got_pct, value, got_beyond = tail_percentile(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == values[n - beyond - 1]
    assert n - sum(1 for v in values if v <= value) == beyond


@pytest.mark.parametrize("n, beyond", [(19, 9), (2, 1), (1, 0)])
def test_tail_below_twenty_samples_falls_back_to_median(n, beyond):
    values = list(range(n, 0, -1))  # order of arrival does not matter
    pct, value, got_beyond = tail_percentile(values)
    assert pct == 50
    assert got_beyond == beyond
    assert value == sorted(values)[math.ceil(n / 2) - 1]


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail_percentile([])


# -- ranking gate ---------------------------------------------------------------------


def test_sound_ranking_passes():
    assert ranking_problem(ranking(("d2", 3.0), ("d1", 1.0), ("d3", 1.0), ("d0", 0.0))) is None


@pytest.mark.parametrize("items, fragment", [
    ((("d1", float("nan")),), "not finite"),
    ((("d1", 2.0), ("d2", float("inf"))), "not finite"),
    ((("d1", 2.0), ("d1", 1.0)), "twice"),
    ((("d1", 1.0), ("d2", 2.0)), "order"),
    ((("d2", 1.0), ("d1", 1.0)), "order"),  # ties go to the smaller doc_id
])
def test_bad_rankings_are_rejected(items, fragment):
    assert fragment in ranking_problem(ranking(*items))


def test_missing_ranking_is_a_failure():
    assert ranking_problem(None) is not None


# -- run-file digest -------------------------------------------------------------------


RUN = """# index = idx
# topics = t.jsonl
q1 Q0 d2 1 3 tagA
q1 Q0 d1 2 1 tagA
q2 Q0 d9 1 0.5 tagA
"""


def test_digest_ignores_header_and_tag():
    other = RUN.replace("idx", "elsewhere").replace("tagA", "tagB") + "# extra = 1\n"
    assert run_file_digest(RUN) == run_file_digest(other)
    assert run_file_digest(RUN)[1] == []


def test_digest_changes_with_a_score():
    assert run_file_digest(RUN)[0] != run_file_digest(RUN.replace(" 3 ", " 3.5 "))[0]


@pytest.mark.parametrize("line, fragment", [
    ("q1 Q0 d7 3 nan tagA", "not finite"),
    ("q1 Q0 d2 3 0.1 tagA", "repeated"),
    ("q1 Q0 d7 4 0.1 tagA", "out of sequence"),
    ("q1 Q0 d7 3 0.1", "6 fields"),
])
def test_digest_reports_bad_lines(line, fragment):
    text = RUN.replace("q2 Q0", line + "\nq2 Q0")
    _, problems = run_file_digest(text)
    assert len(problems) == 1 and fragment in problems[0]
