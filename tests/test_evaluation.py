import random

import pytest

from probir.cli import main
from probir.errors import ParseError
from probir.evaluation import (
    NA,
    average_precision,
    evaluate_run,
    load_qrels,
    parse_run_file,
    r_precision,
    relevant_docs,
)


def brute_force_ap(ranked, relevant):
    """Rescan the prefix at every relevant rank; denominator = all relevant."""
    if not relevant:
        return None
    total = 0.0
    for pos in range(1, len(ranked) + 1):
        if ranked[pos - 1] in relevant:
            in_prefix = sum(1 for d in ranked[:pos] if d in relevant)
            total += in_prefix / pos
    return total / len(relevant)


class TestAveragePrecision:
    def test_hand_case(self):
        got = average_precision(["a", "x", "b", "y"], {"a", "b"})
        assert got == pytest.approx((1 + 2 / 3) / 2, abs=1e-12)

    def test_perfect_ranking(self):
        assert average_precision(["a", "b", "x"], {"a", "b"}) == 1.0

    def test_nothing_retrieved(self):
        assert average_precision(["x", "y"], {"a"}) == 0.0

    def test_no_relevant_is_undefined(self):
        assert average_precision(["x"], set()) is None

    def test_unretrieved_relevant_counts_in_denominator(self):
        # one hit at rank 1, but two relevant exist
        assert average_precision(["a"], {"a", "b"}) == 0.5

    def test_matches_brute_force_on_random_rankings(self):
        rng = random.Random(1849)
        docs = [f"d{i}" for i in range(30)]
        for _ in range(50):
            ranked = rng.sample(docs, rng.randint(1, 30))
            relevant = set(rng.sample(docs, rng.randint(1, 10)))
            got = average_precision(ranked, relevant)
            want = brute_force_ap(ranked, relevant)
            assert got == want  # identical float path expected
            assert 0.0 <= got <= 1.0

    def test_upward_swap_of_relevant_doc_improves(self):
        rng = random.Random(2061)
        docs = [f"d{i}" for i in range(12)]
        for _ in range(30):
            ranked = rng.sample(docs, 12)
            relevant = set(rng.sample(docs, 4))
            # find a relevant doc directly below a nonrelevant one
            for i in range(1, 12):
                if ranked[i] in relevant and ranked[i - 1] not in relevant:
                    swapped = ranked[:]
                    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                    assert (average_precision(swapped, relevant)
                            > average_precision(ranked, relevant))
                    break


class TestRPrecision:
    def test_half(self):
        assert r_precision(["a", "x", "b"], {"a", "b"}) == 0.5

    def test_r_beyond_ranking_length(self):
        assert r_precision(["a"], {"a", "b", "c"}) == pytest.approx(1 / 3, abs=1e-12)

    def test_perfect_prefix(self):
        assert r_precision(["b", "a", "x"], {"a", "b"}) == 1.0

    def test_undefined(self):
        assert r_precision(["a"], set()) is None


class TestRelevantDocs:
    def test_threshold_modes_nest(self):
        grades = {"a": 3, "b": 2, "c": 1, "d": 0}
        rigid = relevant_docs(grades, 2)
        relax = relevant_docs(grades, 1)
        assert rigid == {"a", "b"}
        assert relax == {"a", "b", "c"}
        assert rigid <= relax


class TestLoaders:
    def test_qrels_round_trip(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\nq1 0 d2 0\nq2 0 d1 1\n\n")
        qrels = load_qrels(path)
        assert qrels == {"q1": {"d1": 2, "d2": 0}, "q2": {"d1": 1}}

    def test_qrels_bad_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\nq1 d1 2\n")
        with pytest.raises(ParseError) as err:
            load_qrels(path)
        assert ":2:" in str(err.value)

    def test_qrels_bad_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 high\n")
        with pytest.raises(ParseError):
            load_qrels(path)
        path.write_text("q1 0 d1 -1\n")
        with pytest.raises(ParseError):
            load_qrels(path)

    def test_qrels_repeated_judgment(self, tmp_path, capsys):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 2\nq2 0 d1 1\nq1 0 d1 0\n")
        with pytest.raises(ParseError) as err:
            load_qrels(path)
        assert f"{path}:3:" in str(err.value)
        run = tmp_path / "run.txt"
        run.write_text("q1 Q0 d1 1 1 t\n")
        assert main(["eval", "--run", str(run), "--qrels", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: doc 'd1' judged")

    def test_run_file_sorted_by_rank_field(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(
            "# comment line\n"
            "q1 Q0 d2 2 0.5 tag\n"
            "q1 Q0 d1 1 0.9 tag\n"
            "q2 Q0 d3 1 0.7 tag\n"
        )
        run = parse_run_file(path)
        assert run == {"q1": ["d1", "d2"], "q2": ["d3"]}

    def test_run_file_field_count(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 0.9\n")
        with pytest.raises(ParseError) as err:
            parse_run_file(path)
        assert ":1:" in str(err.value)

    @pytest.mark.parametrize("lines,line_no", [
        ("q1 Q0 d1 1 nan t\nq1 Q0 d1 2 1 t\n", 1),
        ("q1 Q0 d1 1 inf t\n", 1),
        ("q1 Q0 d1 1 -inf t\n", 1),
        ("q1 Q0 d1 1 0.9 t\nq2 Q0 d1 1 0.9 t\nq1 Q0 d1 2 0.5 t\n", 3),
        # a rank below 1, or repeated within a query, would reorder the run
        ("q1 Q0 d1 1 0.9 t\nq1 Q0 d2 0 0.5 t\n", 2),
        ("q1 Q0 d1 1 0.9 t\nq1 Q0 d2 -5 0.5 t\n", 2),
        ("q1 Q0 d3 1 0.1 t\nq2 Q0 d3 1 0.9 t\nq1 Q0 d1 1 0.5 t\n", 3),
    ])
    def test_run_file_rejects_non_finite_and_repeated(self, tmp_path, lines,
                                                      line_no):
        path = tmp_path / "run.txt"
        path.write_text(lines)
        with pytest.raises(ParseError) as err:
            parse_run_file(path)
        assert f":{line_no}:" in str(err.value)

    @pytest.mark.parametrize("lines,line_no", [
        ("q1 Q0 d1 1 nan t\nq1 Q0 d1 2 1 t\n", 1),
        ("q1 Q0 d1 1 1 t\nq1 Q0 d1 2 1 t\n", 2),
    ])
    def test_eval_exits_2_instead_of_ap_above_one(self, tmp_path, capsys,
                                                  lines, line_no):
        (tmp_path / "qrels.txt").write_text("q1 0 d1 1\n")
        (tmp_path / "run.txt").write_text(lines)
        code = main(["eval", "--run", str(tmp_path / "run.txt"),
                     "--qrels", str(tmp_path / "qrels.txt")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert f":{line_no}:" in captured.err
        assert "ap_relax" not in captured.out


class TestEvaluateRun:
    def test_macro_average(self):
        run = {"q1": ["a"], "q2": ["a", "x", "b", "y"]}
        qrels = {
            "q1": {"a": 2},
            "q2": {"a": 2, "b": 2},
        }
        report = evaluate_run(run, qrels)
        by_id = {row.query_id: row for row in report.rows}
        assert by_id["q1"].ap_rigid == 1.0
        assert by_id["q2"].ap_rigid == pytest.approx((1 + 2 / 3) / 2, abs=1e-12)
        assert report.macro["ap_rigid"] == pytest.approx(
            (1.0 + (1 + 2 / 3) / 2) / 2, abs=1e-12)

    def test_simple_macro_mean(self):
        # per-query APs 0.5 and 1.0 average to 0.75
        run = {"q1": ["x", "a"], "q2": ["a"]}
        qrels = {"q1": {"a": 2}, "q2": {"a": 2}}
        report = evaluate_run(run, qrels)
        assert report.macro["ap_rigid"] == pytest.approx(0.75, abs=1e-12)

    def test_rigid_undefined_but_relax_defined(self):
        run = {"q1": ["a", "b"]}
        qrels = {"q1": {"a": 1}}  # partially relevant only
        report = evaluate_run(run, qrels)
        row = report.rows[0]
        assert row.ap_rigid is None
        assert row.ap_relax == 1.0
        assert report.macro["ap_rigid"] is None
        assert report.macro["ap_relax"] == 1.0

    def test_unjudged_query_warns_and_skips(self):
        run = {"q1": ["a"], "q9": ["a"]}
        qrels = {"q1": {"a": 2}}
        report = evaluate_run(run, qrels)
        assert len(report.rows) == 1
        assert any("q9" in w for w in report.warnings)

    def test_zero_overlap(self):
        report = evaluate_run({"q5": ["a"]}, {"q1": {"a": 2}})
        assert report.rows == ()
        assert len(report.warnings) == 1
        assert report.macro["ap_rigid"] is None

    def test_report_format(self):
        run = {"q1": ["a", "b"]}
        qrels = {"q1": {"a": 1}}
        text = evaluate_run(run, qrels).format()
        lines = text.strip().split("\n")
        assert lines[0] == "query_id\tap_rigid\tap_relax\trp_rigid\trp_relax"
        assert lines[1].split("\t") == ["q1", NA, "1.0000", NA, "1.0000"]
        assert lines[2].startswith("MACRO\t")

    def test_custom_grade_thresholds(self):
        run = {"q1": ["a", "b"]}
        qrels = {"q1": {"a": 3, "b": 1}}
        strict = evaluate_run(run, qrels, rigid_grade=3, relax_grade=3)
        assert strict.rows[0].ap_rigid == 1.0
        assert strict.rows[0].ap_relax == 1.0
