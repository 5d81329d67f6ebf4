"""End-to-end command surface tests driving cli.main in tmp directories."""

import io
import json

import pytest

from probir.cli import main, parse_config_file, SEARCH_DEFAULTS
from probir.errors import ParseError
from probir.evaluation import parse_run_file

DOCS = [
    {"doc_id": "d1", "title": "solar power", "body": "solar panels convert light", "category": "energy"},
    {"doc_id": "d2", "title": "wind power", "body": "wind turbines convert motion", "category": "energy"},
    {"doc_id": "d3", "title": "coal plant", "body": "burning coal makes smoke and power", "category": "energy"},
    {"doc_id": "d4", "title": "pasta recipe", "body": "boil water and add salt", "category": "food"},
    {"doc_id": "d5", "title": "bread recipe", "body": "flour water yeast and salt", "category": "food"},
    {"doc_id": "d6", "title": "solar eclipse", "body": "the moon blocks the light", "category": "science"},
]

TOPICS = [
    {"query_id": "q1", "title": "solar light", "description": "sources of solar light"},
    {"query_id": "q2", "title": "salt water", "description": "recipes using salt and water"},
]


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")


@pytest.fixture
def workspace(tmp_path):
    write_jsonl(tmp_path / "docs.jsonl", DOCS)
    write_jsonl(tmp_path / "topics.jsonl", TOPICS)
    (tmp_path / "qrels.txt").write_text(
        "q1 0 d1 2\nq1 0 d6 1\nq2 0 d4 2\nq2 0 d5 1\n", encoding="utf-8")
    return tmp_path


def build(tmp_path, *extra):
    code = main(["index", "--docs", str(tmp_path / "docs.jsonl"),
                 "--out", str(tmp_path / "idx"), *extra])
    assert code == 0
    return tmp_path / "idx"


def search(tmp_path, out_name, *flags):
    out = tmp_path / out_name
    code = main(["search", "--index", str(tmp_path / "idx"),
                 "--topics", str(tmp_path / "topics.jsonl"),
                 "--out", str(out), *flags])
    assert code == 0
    return out


class TestIndexCommand:
    def test_writes_index_files(self, workspace, capsys):
        out = build(workspace)
        for name in ("documents.json", "postings.json", "meta.json",
                     "tokenizer.json"):
            assert (out / name).exists()
        assert not (out / "mi.json").exists()
        message = capsys.readouterr().out
        assert "indexed 6 documents (token mode)" in message

    def test_character_mode_adds_statistics(self, workspace, capsys):
        out = workspace / "cidx"
        code = main(["index", "--docs", str(workspace / "docs.jsonl"),
                     "--out", str(out), "--mode", "character"])
        assert code == 0
        assert (out / "mi.json").exists()
        payload = json.loads((out / "mi.json").read_text(encoding="utf-8"))
        assert "k_cmi" in payload

    def test_stopwords_affect_tokenizer(self, workspace):
        (workspace / "stop.txt").write_text("the\nand\n", encoding="utf-8")
        out = build(workspace, "--stopwords", str(workspace / "stop.txt"))
        payload = json.loads((out / "tokenizer.json").read_text(encoding="utf-8"))
        assert payload["stopwords"] == ["and", "the"]

    def test_missing_docs_file_exits_2(self, workspace, capsys):
        code = main(["index", "--docs", str(workspace / "nope.jsonl"),
                     "--out", str(workspace / "idx")])
        assert code == 2
        assert "error: no such file:" in capsys.readouterr().err


class TestSearchCommand:
    def test_run_file_layout(self, workspace):
        build(workspace)
        out = search(workspace, "run.txt")
        lines = out.read_text(encoding="utf-8").splitlines()
        header = [l for l in lines if l.startswith("# ")]
        rows = [l for l in lines if not l.startswith("#")]
        assert any(l.startswith("# system = ") for l in header)
        assert any(l.startswith("# cutoff = ") for l in header)
        for row in rows:
            fields = row.split()
            assert len(fields) == 6
            assert fields[1] == "Q0"
        tags = {row.split()[5] for row in rows}
        assert len(tags) == 1
        run = parse_run_file(out)
        assert set(run) == {"q1", "q2"}

    def test_repeated_runs_byte_identical(self, workspace):
        build(workspace)
        a = search(workspace, "a.txt")
        b = search(workspace, "b.txt")
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_tag_is_used(self, workspace):
        build(workspace)
        out = search(workspace, "run.txt", "--tag", "mytag")
        rows = [l for l in out.read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")]
        assert all(row.split()[5] == "mytag" for row in rows)

    def test_stdout_when_no_out(self, workspace, capsys):
        build(workspace)
        code = main(["search", "--index", str(workspace / "idx"),
                     "--topics", str(workspace / "topics.jsonl")])
        assert code == 0
        assert "q1 Q0 " in capsys.readouterr().out

    def test_config_file_overrides_default(self, workspace):
        build(workspace)
        (workspace / "probir.conf").write_text("cutoff = 1\n", encoding="utf-8")
        out = search(workspace, "run.txt",
                     "--config", str(workspace / "probir.conf"))
        run = parse_run_file(out)
        assert all(len(docs) == 1 for docs in run.values())

    def test_flag_overrides_config_file(self, workspace):
        build(workspace)
        (workspace / "probir.conf").write_text("cutoff = 1\n", encoding="utf-8")
        out = search(workspace, "run.txt",
                     "--config", str(workspace / "probir.conf"),
                     "--cutoff", "2")
        run = parse_run_file(out)
        assert any(len(docs) == 2 for docs in run.values())

    def test_unknown_config_key_exits_2(self, workspace, capsys):
        build(workspace)
        (workspace / "bad.conf").write_text("cutofff = 1\n", encoding="utf-8")
        code = main(["search", "--index", str(workspace / "idx"),
                     "--topics", str(workspace / "topics.jsonl"),
                     "--config", str(workspace / "bad.conf")])
        assert code == 2
        assert "unknown option" in capsys.readouterr().err

    def test_system_a_and_feedback_paths(self, workspace):
        build(workspace)
        flat = search(workspace, "a.txt", "--system", "a", "--qtype",
                      "very_short")
        assert parse_run_file(flat)
        fed = search(workspace, "b.txt", "--feedback", "--R", "2",
                     "--alpha", "1.0")
        header = fed.read_text(encoding="utf-8")
        assert "# feedback = True" in header

    def test_negative_alpha_ranks_zero_scores_above_negative_ones(self, workspace):
        # A negative α makes feedback scores negative; documents no query
        # word reaches score 0 and must rank above them, in doc_id order.
        build(workspace)
        out = search(workspace, "run.txt", "--system", "b", "--feedback",
                     "--alpha", "-100", "--R", "2", "--cutoff", "6")
        rows = [line.split() for line in out.read_text(encoding="utf-8").splitlines()
                if not line.startswith("#")]
        ranked = {}
        for query_id, _, doc_id, _, score, _ in rows:
            ranked.setdefault(query_id, []).append((doc_id, score))
        assert ranked == {
            "q1": [("d2", "0"), ("d3", "0"), ("d4", "0"), ("d5", "0"),
                   ("d6", "-105.997731"), ("d1", "-133.112404")],
            "q2": [("d1", "0"), ("d2", "0"), ("d6", "0"),
                   ("d3", "-31.9314993"), ("d4", "-141.149336"),
                   ("d5", "-141.149336")],
        }

    def test_unusable_topic_warns_in_header_and_stderr(self, workspace, capsys):
        write_jsonl(workspace / "topics.jsonl", TOPICS + [
            {"query_id": "q9", "title": "zzz qqq", "description": "zzz qqq"}])
        build(workspace)
        out = search(workspace, "run.txt")
        text = out.read_text(encoding="utf-8")
        assert "# warning_0 = query q9: no usable terms; skipped" in text
        assert "q9 Q0" not in text
        assert "warning: query q9" in capsys.readouterr().err

    def test_missing_index_exits_2(self, workspace, capsys):
        code = main(["search", "--index", str(workspace / "missing"),
                     "--topics", str(workspace / "topics.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar,text", [
        ("tokenizer.json", '{"mode": "token", "stemming": false}'),
        ("tokenizer.json", "{not json"),
        ("tokenizer.json", '{"mode": "token", "stemming": "no", "stopwords": []}'),
        ("tokenizer.json", '{"mode": "token", "stemming": false, "stopwords": "the"}'),
        ("mi.json", '{"unigrams": {}}'),
        ("mi.json", '{"unigrams": {}, "bigrams": {}, "total_unigrams": 0, '
                    '"total_bigrams": 0, "k_cmi": "x"}'),
    ])
    def test_malformed_sidecar_exits_2(self, workspace, capsys, sidecar, text):
        index = build(workspace)
        (index / sidecar).write_text(text, encoding="utf-8")
        code = main(["search", "--index", str(index),
                     "--topics", str(workspace / "topics.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert sidecar in err

    def test_tokenizer_mode_must_match_index(self, workspace, capsys):
        index = build(workspace)
        payload = json.loads((index / "tokenizer.json").read_text(encoding="utf-8"))
        payload["mode"] = "character"
        (index / "tokenizer.json").write_text(json.dumps(payload), encoding="utf-8")
        code = main(["search", "--index", str(index),
                     "--topics", str(workspace / "topics.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "index mode is 'token'" in err
        assert "mi_table" not in err

    def test_jobs_option_is_gone(self, workspace, capsys):
        build(workspace)
        with pytest.raises(SystemExit) as exc:
            main(["search", "--index", str(workspace / "idx"),
                  "--topics", str(workspace / "topics.jsonl"), "--jobs", "2"])
        assert exc.value.code == 2
        (workspace / "jobs.conf").write_text("jobs = 2\n", encoding="utf-8")
        code = main(["search", "--index", str(workspace / "idx"),
                     "--topics", str(workspace / "topics.jsonl"),
                     "--config", str(workspace / "jobs.conf")])
        assert code == 2
        assert "unknown option 'jobs'" in capsys.readouterr().err


class TestTranslationFlow:
    PAIRS = [
        {"id": "1", "source": ["sonne"], "target": ["solar"]},
        {"id": "2", "source": ["licht"], "target": ["light"]},
        {"id": "3", "source": ["wasser"], "target": ["water"]},
    ]

    def test_build_dict_then_translate(self, workspace, capsys, monkeypatch):
        write_jsonl(workspace / "pairs.jsonl", self.PAIRS)
        code = main(["build-dict", "--pairs", str(workspace / "pairs.jsonl"),
                     "--out", str(workspace / "dict.tsv")])
        assert code == 0
        assert "3 source phrases" in capsys.readouterr().out

        monkeypatch.setattr("sys.stdin", io.StringIO("sonne licht\nunbekannt\n"))
        code = main(["translate", "--dict", str(workspace / "dict.tsv")])
        assert code == 0
        assert capsys.readouterr().out == "solar light\n\n"

    def test_translate_passthrough(self, workspace, capsys, monkeypatch):
        write_jsonl(workspace / "pairs.jsonl", self.PAIRS)
        main(["build-dict", "--pairs", str(workspace / "pairs.jsonl"),
              "--out", str(workspace / "dict.tsv")])
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("sonne unbekannt\n"))
        code = main(["translate", "--dict", str(workspace / "dict.tsv"),
                     "--passthrough"])
        assert code == 0
        assert capsys.readouterr().out == "solar unbekannt\n"

    def test_cross_lingual_search(self, workspace):
        write_jsonl(workspace / "pairs.jsonl", self.PAIRS)
        main(["build-dict", "--pairs", str(workspace / "pairs.jsonl"),
              "--out", str(workspace / "dict.tsv")])
        write_jsonl(workspace / "topics.jsonl", [
            {"query_id": "q1", "title": "sonne licht",
             "description": "sonne licht"}])
        build(workspace)
        out = search(workspace, "run.txt",
                     "--translate", str(workspace / "dict.tsv"))
        run = parse_run_file(out)
        assert "d1" in run["q1"]

    def test_translation_unknown_to_target_warns(self, workspace, capsys):
        write_jsonl(workspace / "pairs.jsonl",
                    self.PAIRS + [{"id": "4", "source": ["mond"],
                                   "target": ["lunar"]}])
        main(["build-dict", "--pairs", str(workspace / "pairs.jsonl"),
              "--out", str(workspace / "dict.tsv")])
        write_jsonl(workspace / "topics.jsonl", [
            {"query_id": "q1", "title": "sonne", "description": "sonne"},
            {"query_id": "q2", "title": "mond", "description": "mond"}])
        build(workspace)
        out = search(workspace, "run.txt",
                     "--translate", str(workspace / "dict.tsv"))
        text = out.read_text(encoding="utf-8")
        assert "# warning_0 = query q2: no usable terms; skipped" in text
        assert "warning: query q2: no usable terms" in capsys.readouterr().err

    def test_bad_pairs_line_exits_2(self, workspace, capsys):
        (workspace / "pairs.jsonl").write_text("{oops\n", encoding="utf-8")
        code = main(["build-dict", "--pairs", str(workspace / "pairs.jsonl"),
                     "--out", str(workspace / "dict.tsv")])
        assert code == 2
        assert "bad JSON" in capsys.readouterr().err


class TestSegmentCommand:
    def test_forced_threshold_splits_everything(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("abcd\nef\n"))
        code = main(["segment", "--k-cmi", "inf"])
        assert code == 0
        assert capsys.readouterr().out == "a b c d\ne f\n"

    def test_calibration_reports_threshold(self, capsys, monkeypatch):
        lines = "\n".join(["abab"] * 6 + ["cdcd"] * 6) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code = main(["segment", "--ratio", "1:1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "# calibrated k_cmi = " in captured.err
        out_lines = captured.out.splitlines()
        assert len(out_lines) == 12
        for original, segmented in zip(["abab"] * 6 + ["cdcd"] * 6, out_lines):
            assert segmented.replace(" ", "") == original

    def test_stats_file(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("solarpower\n"))
        code = main(["segment", "--stats", str(workspace / "docs.jsonl"),
                     "--k-cmi", "inf"])
        assert code == 0
        assert capsys.readouterr().out == "s o l a r p o w e r\n"


class TestEvalCommand:
    def test_scores_run_against_qrels(self, workspace, capsys):
        build(workspace)
        out = search(workspace, "run.txt", "--qtype", "very_short")
        capsys.readouterr()
        code = main(["eval", "--run", str(out),
                     "--qrels", str(workspace / "qrels.txt")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "query_id\tap_rigid\tap_relax\trp_rigid\trp_relax"
        assert lines[-1].startswith("MACRO\t")
        assert {l.split("\t")[0] for l in lines[1:-1]} == {"q1", "q2"}

    def test_custom_grades(self, workspace, capsys):
        build(workspace)
        out = search(workspace, "run.txt")
        capsys.readouterr()
        code = main(["eval", "--run", str(out),
                     "--qrels", str(workspace / "qrels.txt"),
                     "--rigid-grade", "1", "--relax-grade", "1"])
        assert code == 0
        for line in capsys.readouterr().out.splitlines()[1:]:
            cells = line.split("\t")
            assert cells[1] == cells[2]

    def test_missing_qrels_exits_2(self, workspace, capsys):
        (workspace / "run.txt").write_text("q1 Q0 d1 1 1.0 t\n", encoding="utf-8")
        code = main(["eval", "--run", str(workspace / "run.txt"),
                     "--qrels", str(workspace / "nope.txt")])
        assert code == 2
        assert "error: no such file:" in capsys.readouterr().err


class TestSweepCommand:
    def test_grid_rows_and_sections(self, workspace):
        build(workspace)
        out = workspace / "sweep.tsv"
        code = main(["sweep", "--index", str(workspace / "idx"),
                     "--topics", str(workspace / "topics.jsonl"),
                     "--qrels", str(workspace / "qrels.txt"),
                     "--out", str(out),
                     "--p", "0.10", "--R", "1,2", "--alpha", "1.0,auto"])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p\tR\talpha\tap_rigid\tap_relax"
        data = [l for l in lines if l and not l.startswith(("p\t", "#"))
                and "=" not in l]
        assert len(data) == 1 * 2 * 2
        assert "# mean ap_relax by alpha" in lines


class TestConfigParsing:
    def test_types_follow_defaults(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text(
            "# comment\n"
            "\n"
            "cutoff = 50\n"
            "k-down = 0.3\n"
            "feedback = yes\n"
            "location = off\n"
            "theta = 1.5\n"
            "terms = lattice\n",
            encoding="utf-8")
        values = parse_config_file(conf, SEARCH_DEFAULTS)
        assert values == {"cutoff": 50, "k_down": 0.3, "feedback": True,
                          "location": False, "theta": 1.5, "terms": "lattice"}

    def test_bad_boolean_rejected(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("feedback = maybe\n", encoding="utf-8")
        with pytest.raises(ParseError, match="bad boolean"):
            parse_config_file(conf, SEARCH_DEFAULTS)

    def test_missing_equals_rejected(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("cutoff 50\n", encoding="utf-8")
        with pytest.raises(ParseError, match="expected key = value"):
            parse_config_file(conf, SEARCH_DEFAULTS)
