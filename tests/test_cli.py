"""End-to-end command surface tests driving cli.main in tmp directories."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from probir.cli import (
    SEARCH_OPTIONS,
    SWEEP_OPTIONS,
    _open_index,
    build_parser,
    main,
    parse_config_file,
)
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


def rewrite_documents(index, payload):
    """Store ``payload`` as the index's documents.json, with its checksum."""
    data = json.dumps(payload).encode("utf-8")
    (index / "documents.json").write_bytes(data)
    meta = json.loads((index / "meta.json").read_text(encoding="utf-8"))
    meta["checksums"]["documents.json"] = hashlib.sha256(data).hexdigest()
    (index / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


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
        names = {path.name for path in out.iterdir()}
        assert names == {"documents.json", "meta.json", "tokenizer.json"}
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

    def test_uppercase_stopword_exits_2_naming_the_line(self, workspace, capsys):
        # token mode lowercases before the stopword check: "The" would
        # leave every "the" in place
        stop = workspace / "stop.txt"
        stop.write_text("and\nThe\n", encoding="utf-8")
        assert main(["index", "--docs", str(workspace / "docs.jsonl"),
                     "--out", str(workspace / "idx"), "--stopwords", str(stop)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stop}:2: stopword 'The' has an uppercase")
        assert "Traceback" not in err
        assert not (workspace / "idx").exists()

    @pytest.mark.parametrize("setting", [["--stopwords", "stop.txt"], ["--stem"]])
    def test_character_mode_refuses_stopwords_and_stemming(self, workspace,
                                                           capsys, setting):
        # nothing in character mode applies either, so an index must not
        # record one
        (workspace / "stop.txt").write_text("The\nand\n", encoding="utf-8")
        setting = [str(workspace / arg) if arg.endswith(".txt") else arg
                   for arg in setting]
        assert main(["index", "--docs", str(workspace / "docs.jsonl"),
                     "--out", str(workspace / "idx"), "--mode", "character",
                     *setting]) == 2
        err = capsys.readouterr().err
        assert err == "error: character mode applies no stopwords and no stemming\n"
        assert not (workspace / "idx").exists()

    @pytest.mark.parametrize("key,value", [("stopwords", ["ab"]), ("stemming", True)])
    def test_character_tokenizer_json_with_stopwords_or_stemming_exits_2(
            self, workspace, capsys, key, value):
        index = build(workspace, "--mode", "character")
        path = index / "tokenizer.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["search", "--index", str(index), "--system", "a",
                     "--topics", str(workspace / "topics.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed sidecar")
        assert "character mode applies no stopwords" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry,problem", [
        ("new york", "holds whitespace"),
        ("'tis", "begins or ends with an apostrophe"),
        ("rock'n'", "begins or ends with an apostrophe"),
    ])
    def test_stopword_token_mode_cannot_match_exits_2_naming_the_line(
            self, workspace, capsys, entry, problem):
        # token mode strips a word's apostrophes and never builds a word
        # holding whitespace, so the entry would leave its words in place
        stop = workspace / "stop.txt"
        stop.write_text(f"and\n{entry}\n", encoding="utf-8")
        assert main(["index", "--docs", str(workspace / "docs.jsonl"),
                     "--out", str(workspace / "idx"), "--stopwords", str(stop)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stop}:2: stopword {entry!r} {problem}")
        assert "Traceback" not in err
        assert not (workspace / "idx").exists()

    def test_list_category_exits_2_naming_the_line(self, workspace, capsys):
        write_jsonl(workspace / "bad.jsonl", [
            DOCS[0],
            {"doc_id": "d9", "title": "alpha", "body": "beta", "category": ["x"]},
        ])
        code = main(["index", "--docs", str(workspace / "bad.jsonl"),
                     "--out", str(workspace / "idx")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bad.jsonl:2: category must be a string or null" in err

    def test_id_with_whitespace_exits_2(self, workspace, capsys):
        # a run line "q 1 Q0 d 1 ..." would have seven fields
        write_jsonl(workspace / "bad.jsonl", [DOCS[0], {**DOCS[1], "doc_id": "d 1"}])
        code = main(["index", "--docs", str(workspace / "bad.jsonl"),
                     "--out", str(workspace / "idx")])
        assert code == 2
        assert ("error: " + str(workspace / "bad.jsonl")
                + ":2: doc_id 'd 1' contains whitespace") in capsys.readouterr().err
        build(workspace)
        write_jsonl(workspace / "bad_topics.jsonl", [{"query_id": "q 1",
                                                      "title": "alpha"}])
        code = main(["search", "--index", str(workspace / "idx"),
                     "--topics", str(workspace / "bad_topics.jsonl")])
        assert code == 2
        assert ":1: query_id 'q 1' contains whitespace" in capsys.readouterr().err

    def test_missing_docs_file_exits_2(self, workspace, capsys):
        code = main(["index", "--docs", str(workspace / "nope.jsonl"),
                     "--out", str(workspace / "idx")])
        assert code == 2
        assert "error: no such file:" in capsys.readouterr().err

    def test_failed_character_index_writes_nothing(self, workspace, capsys):
        # one-character sentences give the threshold no fragment to calibrate on
        write_jsonl(workspace / "short.jsonl",
                    [{"doc_id": "d1", "title": "", "body": "a. b. c"}])
        code = main(["index", "--docs", str(workspace / "short.jsonl"),
                     "--out", str(workspace / "idx"), "--mode", "character"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (workspace / "idx").exists()

    @pytest.mark.parametrize("mode,title,body", [
        ("token", "2001", "42 17, 3.14"), ("character", "...", "!? --")])
    def test_collection_with_no_unit_exits_2_and_writes_nothing(
            self, workspace, capsys, mode, title, body):
        # an average length of 0 would divide System A's length bonus by 0
        write_jsonl(workspace / "void.jsonl",
                    [{"doc_id": "d1", "title": title, "body": body},
                     {"doc_id": "d2", "title": body, "body": title}])
        code = main(["index", "--docs", str(workspace / "void.jsonl"),
                     "--out", str(workspace / "idx"), "--mode", mode])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: nothing to index: no document holds a unit\n")
        assert not (workspace / "idx").exists()

    @pytest.mark.parametrize("ratio", ["nan:1", "1:nan", "inf:1", "1:inf"])
    def test_non_finite_ratio_exits_2(self, workspace, capsys, monkeypatch,
                                      ratio):
        # a NaN target share keeps calibration's first candidate, a
        # threshold below every PMI that splits nothing
        code = exit_code(["index", "--docs", str(workspace / "docs.jsonl"),
                          "--out", str(workspace / "idx"), "--mode", "character",
                          "--ratio", ratio])
        assert code == 2
        assert (f"error: argument --ratio: bad ratio {ratio!r}"
                in capsys.readouterr().err)
        assert not (workspace / "idx").exists()
        monkeypatch.setattr("sys.stdin", io.StringIO("abab\ncdcd\n"))
        assert exit_code(["segment", "--ratio", ratio]) == 2
        assert (f"error: argument --ratio: bad ratio {ratio!r}"
                in capsys.readouterr().err)

    def test_opened_index_takes_the_stored_k_cmi_unless_one_is_given(
            self, workspace):
        char_dir = build(workspace, "--mode", "character")
        stored = json.loads((char_dir / "mi.json").read_text(encoding="utf-8"))
        index, analyzer = _open_index(char_dir, None)
        assert (analyzer.config.mode, index.mode, index.n_docs) == (
            "character", "character", 6)
        assert (analyzer.mi_table.unigrams, analyzer.k_cmi) == (
            stored["unigrams"], stored["k_cmi"])
        given = _open_index(char_dir, -1.5)[1]
        assert (given.mi_table, given.k_cmi) == (analyzer.mi_table, -1.5)
        token_dir = workspace / "tok"
        assert main(["index", "--docs", str(workspace / "docs.jsonl"),
                     "--out", str(token_dir)]) == 0
        for k_cmi in (None, 0.5):
            analyzer = _open_index(token_dir, k_cmi)[1]
            assert (analyzer.joiner, analyzer.mi_table, analyzer.k_cmi) == (
                " ", None, k_cmi)


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

    @pytest.mark.parametrize("flags,message", [
        (["--system", "b", "--feedback", "--alpha", "inf"], "alpha must be finite"),
        (["--system", "b", "--feedback", "--alpha=-inf"], "alpha must be finite"),
        (["--system", "b", "--feedback", "--alpha", "nan"], "alpha must be finite"),
        (["--system", "b", "--feedback", "--theta", "nan"], "theta must be a number"),
        (["--system", "a", "--kt", "nan"], "k_t must be positive"),
        # an infinite k_t makes every TF factor 0.0, and an infinite k_loc1
        # makes scores inf or nan
        (["--system", "a", "--kt", "inf"], "k_t must be finite"),
        (["--system", "a", "--kloc1", "inf"], "k_loc1 must be finite"),
        (["--system", "a", "--kcat", "nan", "--category"], "k_cat must be finite"),
        (["--system", "a", "--kcat", "inf", "--category"], "k_cat must be finite"),
        (["--system", "a", "--kq=-1"], "k_q_a must be positive"),
        (["--system", "a", "--kq", "0"], "k_q_a must be positive"),
        (["--system", "a", "--kloc1", "nan"], "k_loc1 must be >= 1"),
        (["--system", "a", "--feedback", "--kaf", "nan"], "k_af must be finite"),
    ])
    def test_non_finite_or_out_of_range_option_exits_2(self, workspace, capsys,
                                                        flags, message):
        build(workspace)
        out = workspace / "run.txt"
        code = main(["search", "--index", str(workspace / "idx"),
                     "--topics", str(workspace / "topics.jsonl"),
                     "--out", str(out), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_finite_score_exits_2(self, workspace, capsys, monkeypatch):
        # format_run is the last line of defence should a scorer ever
        # produce a non-finite score
        from probir import cli
        from probir.scoring import Ranking

        build(workspace)
        monkeypatch.setattr(cli, "search_system_b", lambda *args: (
            [Ranking("q1", (("d1", float("inf")), ("d2", 1.0)))], []))
        out = workspace / "run.txt"
        code = main(["search", "--index", str(workspace / "idx"),
                     "--topics", str(workspace / "topics.jsonl"),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: query q1: document d1 has a non-finite score (inf)\n")
        assert not out.exists()

    @pytest.mark.parametrize("engine, flags", [
        ("search_system_b", []),
        ("search_system_a", ["--system", "a"]),
    ])
    def test_collector_is_off_while_ranking_only(self, workspace, capsys,
                                                 monkeypatch, engine, flags):
        import gc

        from probir import cli
        from probir.scoring import Ranking

        build(workspace)
        seen = []

        def ranks(*args):
            seen.append(gc.isenabled())
            return [Ranking("q1", (("d1", 1.0),))], []

        def fails(*args):
            seen.append(gc.isenabled())
            raise ValueError("scorer failed")

        argv = ["search", "--index", str(workspace / "idx"),
                "--topics", str(workspace / "topics.jsonl"),
                "--out", str(workspace / "run.txt"), *flags]
        enabled = gc.isenabled()
        try:
            gc.enable()
            monkeypatch.setattr(cli, engine, ranks)
            assert main(argv) == 0
            monkeypatch.setattr(cli, engine, fails)
            assert main(argv) == 2
            assert seen == [False, False] and gc.isenabled()
            # a collector the caller turned off stays off
            gc.disable()
            monkeypatch.setattr(cli, engine, ranks)
            assert main(argv) == 0
            assert seen == [False, False, False] and not gc.isenabled()
        finally:
            (gc.enable if enabled else gc.disable)()
        assert capsys.readouterr().err == "error: scorer failed\n"

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
        ("tokenizer.json", '{"mode": "token", "stemming": false, "stopwords": ["The"]}'),
        ("mi.json", '{"unigrams": {}}'),
        ("mi.json", '{"unigrams": {}, "bigrams": {}, "total_unigrams": 0, '
                    '"total_bigrams": 0, "k_cmi": "x"}'),
        ("mi.json", '{"unigrams": [1, 2], "bigrams": {}, "total_unigrams": 0, '
                    '"total_bigrams": 0, "k_cmi": 0}'),
        ("mi.json", '{"unigrams": {"a": "3"}, "bigrams": {}, '
                    '"total_unigrams": 3, "total_bigrams": 0, "k_cmi": 0}'),
        ("mi.json", '{"unigrams": {}, "bigrams": {"ab": -1}, '
                    '"total_unigrams": 0, "total_bigrams": 0, "k_cmi": 0}'),
        ("mi.json", '{"unigrams": {}, "bigrams": {}, "total_unigrams": "5", '
                    '"total_bigrams": 0, "k_cmi": 0}'),
        ("mi.json", '{"unigrams": {}, "bigrams": {}, "total_unigrams": 0, '
                    '"total_bigrams": null, "k_cmi": 0}'),
        ("mi.json", '{"unigrams": {}, "bigrams": {}, "total_unigrams": 0.5, '
                    '"total_bigrams": 0, "k_cmi": 0}'),
        ("mi.json", '{"unigrams": {}, "bigrams": {}, "total_unigrams": true, '
                    '"total_bigrams": 0, "k_cmi": 0}'),
    ])
    def test_malformed_sidecar_exits_2(self, workspace, capsys, sidecar, text):
        # mi.json belongs to a character index
        index = build(workspace, *["--mode", "character"] * (sidecar == "mi.json"))
        (index / sidecar).write_text(text, encoding="utf-8")
        code = main(["search", "--index", str(index),
                     "--topics", str(workspace / "topics.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert sidecar in err

    def test_character_index_without_mi_json_exits_2(self, workspace, capsys):
        index = build(workspace, "--mode", "character")
        (index / "mi.json").unlink()
        code = main(["search", "--index", str(index),
                     "--topics", str(workspace / "topics.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mi.json: missing" in err

    def test_stream_of_the_wrong_type_exits_2(self, workspace, capsys):
        index = build(workspace)
        payload = json.loads((index / "documents.json").read_text(encoding="utf-8"))
        payload["docs"][0]["body"] = "solar panels"
        rewrite_documents(index, payload)
        code = main(["search", "--index", str(index),
                     "--topics", str(workspace / "topics.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "must be lists in token mode" in err

    @pytest.mark.parametrize("token", [7, ["coal"]], ids=["integer", "nested-list"])
    def test_token_that_is_not_a_string_exits_2_naming_the_document(
            self, workspace, capsys, token):
        index = build(workspace)
        payload = json.loads((index / "documents.json").read_text(encoding="utf-8"))
        payload["docs"][2]["body"] = ["burning", token, "smoke"]
        rewrite_documents(index, payload)
        code = main(["search", "--index", str(index),
                     "--topics", str(workspace / "topics.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "document 'd3': a token is not a string" in err

    @pytest.mark.parametrize("token", ["", "solar panels"],
                             ids=["empty", "whitespace"])
    def test_token_that_is_empty_or_holds_whitespace_exits_2(
            self, workspace, capsys, token):
        index = build(workspace)
        payload = json.loads((index / "documents.json").read_text(encoding="utf-8"))
        payload["docs"][0]["body"] = ["beta", token]
        rewrite_documents(index, payload)
        code = main(["search", "--index", str(index),
                     "--topics", str(workspace / "topics.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"document 'd1': unit {token!r} is empty or holds whitespace" in err

    def test_stored_collection_with_no_unit_exits_2(self, workspace, capsys):
        index = build(workspace)
        payload = json.loads((index / "documents.json").read_text(encoding="utf-8"))
        for record in payload["docs"]:
            record["title"] = record["body"] = []
        rewrite_documents(index, payload)
        code = main(["search", "--index", str(index), "--system", "a",
                     "--topics", str(workspace / "topics.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "no document holds a unit" in err

    @pytest.mark.parametrize("command", ["search", "sweep"])
    def test_query_id_beginning_with_hash_exits_2_naming_the_line(
            self, workspace, capsys, command):
        # eval would skip the topic's run lines as comments
        build(workspace)
        write_jsonl(workspace / "hash.jsonl", [TOPICS[0], {**TOPICS[1], "query_id": "#7"}])
        argv = [command, "--index", str(workspace / "idx"),
                "--topics", str(workspace / "hash.jsonl"),
                "--out", str(workspace / "run.txt")]
        if command == "sweep":
            argv += ["--qrels", str(workspace / "qrels.txt")]
        assert main(argv) == 2
        assert (f"error: {workspace / 'hash.jsonl'}:2: query_id '#7' begins with '#'"
                in capsys.readouterr().err)
        assert not (workspace / "run.txt").exists()

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

    def test_skipped_topics_warn_in_topic_order(self, workspace, capsys):
        """An untranslatable query and one the target index does not know
        are each skipped with a warning, in topic order."""
        write_jsonl(workspace / "pairs.jsonl",
                    self.PAIRS + [{"id": "4", "source": ["mond"],
                                   "target": ["lunar"]}])
        main(["build-dict", "--pairs", str(workspace / "pairs.jsonl"),
              "--out", str(workspace / "dict.tsv")])
        write_jsonl(workspace / "topics.jsonl", [
            {"query_id": "q1", "title": "mond", "description": "mond"},
            {"query_id": "q2", "title": "sonne", "description": "sonne"},
            {"query_id": "q3", "title": "nichts", "description": "nichts"}])
        build(workspace)
        out = search(workspace, "run.txt",
                     "--translate", str(workspace / "dict.tsv"))
        text = out.read_text(encoding="utf-8")
        assert "# warning_0 = query q1: no usable terms; skipped" in text
        assert ("# warning_1 = topic 'q3': nothing translatable in the query"
                in text)
        assert set(parse_run_file(out)) == {"q2"}
        assert capsys.readouterr().err.splitlines()[-2:] == [
            "warning: query q1: no usable terms; skipped",
            "warning: topic 'q3': nothing translatable in the query"]

    def test_k_cmi_segments_the_query_of_a_character_source_index(
            self, workspace):
        """With --expand-source, the query is segmented in the source
        index's mode: --k-cmi=inf splits every two-character fragment,
        --k-cmi=-inf keeps it, and the dictionary translates the two ways
        apart."""
        write_jsonl(workspace / "src.jsonl", [
            {"doc_id": f"s{i:02d}", "title": "", "body": body}
            for i, body in enumerate(["東京大学", "東京都", "京都大学",
                                      "大阪大学", "東京", "東北大学"] * 3)])
        assert main(["index", "--docs", str(workspace / "src.jsonl"),
                     "--out", str(workspace / "src_idx"),
                     "--mode", "character"]) == 0
        write_jsonl(workspace / "pairs.jsonl", [
            {"id": "1", "source": ["東京"], "target": ["solar"]},
            {"id": "2", "source": ["東"], "target": ["salt"]},
            {"id": "3", "source": ["京"], "target": ["water"]}])
        assert main(["build-dict", "--pairs", str(workspace / "pairs.jsonl"),
                     "--out", str(workspace / "dict.tsv")]) == 0
        write_jsonl(workspace / "topics.jsonl", [
            {"query_id": "q1", "title": "東京", "description": "東京"}])
        build(workspace)

        def top_doc(k_cmi):
            out = search(workspace, f"run{k_cmi}.txt",
                         "--translate", str(workspace / "dict.tsv"),
                         "--expand-source", str(workspace / "src_idx"),
                         "--expand-docs", "0", f"--k-cmi={k_cmi}")
            return parse_run_file(out)["q1"][0]

        assert top_doc("-inf") == "d1"  # 東京: solar
        assert top_doc("inf") in ("d4", "d5")  # 東 京: salt water

    def test_bad_pairs_line_exits_2(self, workspace, capsys):
        (workspace / "pairs.jsonl").write_text("{oops\n", encoding="utf-8")
        code = main(["build-dict", "--pairs", str(workspace / "pairs.jsonl"),
                     "--out", str(workspace / "dict.tsv")])
        assert code == 2
        assert "pairs.jsonl:1: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("line,reason", [
        ("[1, 2]", "record is not an object"),
        ('{"source": 5, "target": ["x"]}', "source must be a list of strings"),
        # a string would be split into its characters
        ('{"source": "ab c", "target": ["x"]}', "source must be a list of strings"),
        ('{"source": ["a"], "target": [1]}', "target must be a list of strings"),
    ])
    def test_malformed_pair_exits_2(self, workspace, capsys, line, reason):
        pairs = workspace / "pairs.jsonl"
        pairs.write_text(json.dumps(self.PAIRS[0]) + "\n" + line + "\n",
                         encoding="utf-8")
        code = main(["build-dict", "--pairs", str(pairs),
                     "--out", str(workspace / "dict.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"pairs.jsonl:2: {reason}" in err
        assert not (workspace / "dict.tsv").exists()


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

    @pytest.mark.parametrize("k_cmi", [[], ["--k-cmi", "0"]])
    def test_stats_file_without_characters_is_refused(self, tmp_path, capsys,
                                                      monkeypatch, k_cmi):
        """``index --mode character`` refuses this collection too: no
        statistics, so no threshold and no segmentation."""
        stats = tmp_path / "punct.jsonl"
        write_jsonl(stats, [{"doc_id": "d1", "title": "...", "body": "!?"}])
        monkeypatch.setattr("sys.stdin", io.StringIO("abcd\n"))
        assert main(["segment", "--stats", str(stats), *k_cmi]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "no document holds a character" in captured.err


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


class TestPathErrors:
    # a path that is not a readable file: "{ws}" is the workspace, and
    # "adir" a directory in it
    @pytest.mark.parametrize("argv,culprit,error", [
        (["search", "--index", "{ws}/idx", "--topics", "{ws}/adir"],
         "{ws}/adir", errno.EISDIR),
        (["search", "--index", "{ws}/idx", "--topics", "{ws}/topics.jsonl",
          "--config", "{ws}/adir"], "{ws}/adir", errno.EISDIR),
        (["search", "--index", "{ws}/idx", "--topics", "{ws}/topics.jsonl",
          "--out", "{ws}/adir"], "{ws}/adir", errno.EISDIR),
        (["eval", "--run", "{ws}/adir", "--qrels", "{ws}/qrels.txt"],
         "{ws}/adir", errno.EISDIR),
        (["index", "--docs", "{ws}/docs.jsonl", "--out", "{ws}/idx2",
          "--stopwords", "{ws}/adir"], "{ws}/adir", errno.EISDIR),
        (["index", "--docs", "{ws}/docs.jsonl", "--out", "{ws}/docs.jsonl/x"],
         "{ws}/docs.jsonl/x", errno.ENOTDIR),
    ], ids=["search-topics", "search-config", "search-out", "eval-run",
            "index-stopwords", "index-out"])
    def test_exits_2_naming_the_path(self, workspace, capsys, argv, culprit,
                                     error):
        build(workspace)
        (workspace / "adir").mkdir()
        capsys.readouterr()
        assert main([arg.format(ws=workspace) for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: {culprit.format(ws=workspace)}: {os.strerror(error)}\n")

    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("out,message", [
        ("adir", "error: {out}: " + os.strerror(errno.EISDIR)),
        ("missing/run.txt", "error: no such file: {out}"),
        ("docs.jsonl/run.txt", "error: {out}: " + os.strerror(errno.ENOTDIR)),
    ], ids=["directory", "missing-directory", "file-as-directory"])
    def test_unwritable_out_exits_2_before_the_index_loads(
            self, workspace, capsys, monkeypatch, command, out, message):
        from probir import cli

        build(workspace)
        (workspace / "adir").mkdir()
        capsys.readouterr()
        monkeypatch.setattr(cli, "load_index", lambda *args: pytest.fail(
            "the index was loaded"))
        out = str(workspace / out)
        argv = [command, "--index", str(workspace / "idx"),
                "--topics", str(workspace / "topics.jsonl"), "--out", out]
        if command == "sweep":
            argv += ["--qrels", str(workspace / "qrels.txt")]
        assert main(argv) == 2
        assert capsys.readouterr().err == message.format(out=out) + "\n"
        assert not (workspace / "missing").exists()


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

    def test_collector_is_off_while_sweeping(self, workspace, monkeypatch):
        import gc

        from probir import cli

        build(workspace)
        seen = []
        real = cli.sweep_b

        def sweep(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(cli, "sweep_b", sweep)
        code = main(["sweep", "--index", str(workspace / "idx"),
                     "--topics", str(workspace / "topics.jsonl"),
                     "--qrels", str(workspace / "qrels.txt"),
                     "--out", str(workspace / "sweep.tsv"),
                     "--p", "0.10", "--R", "1", "--alpha", "1.0"])
        assert code == 0
        assert seen == [False] and gc.isenabled()


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
        values = parse_config_file(conf, SEARCH_OPTIONS)
        assert values == {"cutoff": 50, "k_down": 0.3, "feedback": True,
                          "location": False, "theta": 1.5, "terms": "lattice"}

    def test_values_are_typed_by_their_row(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("k_nq = t\nr = 3\nalpha = auto\n", encoding="utf-8")
        assert parse_config_file(conf, SEARCH_OPTIONS) == {
            "k_nq": "t", "r": 3, "alpha": "auto"}
        conf.write_text("k-nq = 1\nr = auto\nalpha = 1\n", encoding="utf-8")
        assert parse_config_file(conf, SEARCH_OPTIONS) == {
            "k_nq": 1, "r": "auto", "alpha": 1.0}
        conf.write_text("p = 0.1,0.05\nr = 1,auto\n", encoding="utf-8")
        assert parse_config_file(conf, SWEEP_OPTIONS) == {
            "p": (0.1, 0.05), "r": (1, "auto")}

    @pytest.mark.parametrize("line,message", [
        ("terms = bogus", "terms: expected one of all, down, lattice, shortest"),
        ("system = c", "system: expected one of a, b"),
        ("cutoff = 1.5", "cutoff: expected int"),
        ("k_cmi = nan", "k_cmi: must be a number"),
        ("expand-docs = -1", "expand_docs: must be >= 0"),
    ])
    def test_bad_value_names_file_line_and_key(self, tmp_path, line, message):
        conf = tmp_path / "c.conf"
        conf.write_text(f"# comment\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"c.conf:2: {message}"):
            parse_config_file(conf, SEARCH_OPTIONS)

    def test_bad_boolean_rejected(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("feedback = maybe\n", encoding="utf-8")
        with pytest.raises(ParseError, match="bad boolean"):
            parse_config_file(conf, SEARCH_OPTIONS)

    def test_missing_equals_rejected(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("cutoff 50\n", encoding="utf-8")
        with pytest.raises(ParseError, match="expected key = value"):
            parse_config_file(conf, SEARCH_OPTIONS)


def exit_code(argv) -> int:
    """main's exit code; argparse refuses a flag by raising SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# The search and sweep flags as they were spelled before the option table:
# flag -> (dest, default, as the text a user would type; a boolean switch's
# default is the value itself and None means "not set").
EARLIER_SEARCH_FLAGS = {
    "--system": ("system", "b"), "--qtype": ("qtype", "short"),
    "--terms": ("terms", "shortest"), "--k-down": ("k_down", "0.2"),
    "--max-span": ("max_span", "6"), "--cutoff": ("cutoff", "1000"),
    "--tag": ("tag", None), "--feedback": ("feedback", False),
    "--kt": ("k_t", "1.0"), "--kq": ("k_q", "inf"), "--knq": ("k_nq", "0"),
    "--kloc1": ("k_loc1", "1.2"), "--kloc2": ("k_loc2", "0.1"),
    "--kcat": ("k_cat", "0.1"), "--location": ("location", True),
    "--category": ("category", True), "--length-bonus": ("length_bonus", True),
    "--query-rarity": ("query_rarity", True), "--kr": ("kr", "5"),
    "--kaf": ("kaf", "0.7"), "--kp": ("kp", "0.9"), "--kafw": ("kafw", "0.5"),
    "--kp-literal": ("kp_literal", False), "--p": ("p", "0.10"),
    "--theta": ("theta", None), "--R": ("r", "auto"),
    "--alpha": ("alpha", "auto"), "--r-cap": ("r_cap", "20"),
    "--translate": ("translate", None),
    "--expand-source": ("expand_source", None),
    "--expand-docs": ("expand_docs", "5"), "--expand-all": ("expand_all", False),
    "--passthrough": ("passthrough", False), "--k-cmi": ("k_cmi", None),
}
EARLIER_SWEEP_FLAGS = {
    "--qtype": ("qtype", "short"), "--cutoff": ("cutoff", "1000"),
    "--p": ("p", "0.10,0.05,0.01"), "--R": ("r", "1,3,5,7,10,15,auto"),
    "--alpha": ("alpha", "0.5,1.0,1.5,auto"), "--k-cmi": ("k_cmi", None),
}


TRANSLATE_WITH_A = "translate runs System B; it cannot be combined with system a"


class TestOptionTable:
    @pytest.mark.parametrize("command,options,earlier,required", [
        ("search", SEARCH_OPTIONS, EARLIER_SEARCH_FLAGS, []),
        ("sweep", SWEEP_OPTIONS, EARLIER_SWEEP_FLAGS, ["--qrels", "q"]),
    ])
    def test_every_earlier_flag_keeps_its_spelling_and_default(
            self, command, options, earlier, required):
        parser = build_parser()
        base = [command, "--index", "i", "--topics", "t", *required]
        assert {option.flag for option in options} == set(earlier)
        assert len({option.key for option in options}) == len(options)
        unset = parser.parse_args(base)
        for option in options:
            dest, default = earlier[option.flag]
            assert option.key == dest
            assert not hasattr(unset, dest)  # the table's default applies
            if isinstance(default, bool):
                assert option.default is default
                assert getattr(parser.parse_args([*base, option.flag]), dest) is True
                if default:
                    negated = option.flag.replace("--", "--no-", 1)
                    assert getattr(parser.parse_args([*base, negated]),
                                   dest) is False
            elif default is None:
                assert option.default is None
            else:
                assert option.default == option.parse(default)
                parsed = parser.parse_args([*base, f"{option.flag}={default}"])
                assert getattr(parsed, dest) == option.default

    def test_header_echoes_only_the_options_the_system_reads(self, workspace):
        build(workspace)
        plain = search(workspace, "b.txt", "--system", "b")
        ignored = search(workspace, "b_kt.txt", "--system", "b", "--kt", "2",
                         "--kloc1", "3")
        assert plain.read_bytes() == ignored.read_bytes()
        b_keys = {line.split()[1] for line in plain.read_text().splitlines()
                  if line.startswith("# ")}
        a_run = search(workspace, "a.txt", "--system", "a")
        a_keys = {line.split()[1] for line in a_run.read_text().splitlines()
                  if line.startswith("# ")}
        assert {"k_t", "terms", "kr"} <= a_keys
        assert not {"k_t", "terms", "kr"} & b_keys
        assert {"alpha", "r", "r_cap"} <= b_keys
        assert not {"alpha", "r", "r_cap"} & a_keys
        assert {"system", "qtype", "cutoff", "feedback"} <= a_keys & b_keys
        assert "tag" not in a_keys | b_keys
        # unset options are left out
        assert not {"theta", "translate", "expand_source", "k_cmi"} & (a_keys | b_keys)
        # only a translate run reads the cross-lingual rows
        write_jsonl(workspace / "pairs.jsonl", [
            {"id": "1", "source": ["solar"], "target": ["solar"]},
            {"id": "2", "source": ["salt"], "target": ["salt"]}])
        main(["build-dict", "--pairs", str(workspace / "pairs.jsonl"),
              "--out", str(workspace / "dict.tsv")])
        t_run = search(workspace, "t.txt", "--translate", str(workspace / "dict.tsv"))
        t_keys = {line.split()[1] for line in t_run.read_text().splitlines()
                  if line.startswith("# ")}
        clir = {"expand_docs", "expand_all", "passthrough"}
        assert not clir & (a_keys | b_keys)
        assert clir | {"translate"} | b_keys <= t_keys

    @pytest.mark.parametrize("system", ["a", "b"])
    def test_header_option_lines_read_back_as_a_config_file(self, workspace,
                                                            system):
        build(workspace)
        run = search(workspace, "run.txt", "--system", system)
        keys = {option.key for option in SEARCH_OPTIONS}
        lines = [line[2:] for line in run.read_text().splitlines()
                 if line.startswith("# ") and line.split()[1] in keys]
        assert lines
        (workspace / "header.conf").write_text("\n".join(lines) + "\n")
        again = search(workspace, "again.txt", "--config",
                       str(workspace / "header.conf"))
        assert again.read_bytes() == run.read_bytes()

    def _search_exit(self, workspace, capsys, *flags, index="idx"):
        out = workspace / "run.txt"
        code = exit_code(["search", "--index", str(workspace / index),
                          "--topics", str(workspace / "topics.jsonl"),
                          "--out", str(out), *flags])
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("conf,flags,message", [
        ("terms = bogus\n", [], "bad.conf:1: terms: expected one of"),
        ("system = c\n", [], "bad.conf:1: system: expected one of a, b"),
        ("tag = my run\n", [], "bad.conf:1: tag: must be one word"),
        ("system = a\ntranslate = dict.tsv\n", [], TRANSLATE_WITH_A),
        ("", ["--system", "a", "--translate", "dict.tsv"], TRANSLATE_WITH_A),
    ])
    def test_bad_value_exits_2(self, workspace, capsys, conf, flags, message):
        build(workspace)
        (workspace / "bad.conf").write_text(conf, encoding="utf-8")
        code, err = self._search_exit(workspace, capsys, "--config",
                                      str(workspace / "bad.conf"), *flags)
        assert code == 2
        assert err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize("flags,message", [
        (["--expand-source", "idx"], "expand_source is read only with translate"),
        (["--expand-source", "idx", "--expand-all"],
         "expand_source is read only with translate"),
        (["--passthrough"], "passthrough is read only with translate"),
        (["--expand-all"], "expand_all is read only with expand_source"),
        (["--translate", "dict.tsv", "--expand-all"],
         "expand_all is read only with expand_source"),
    ])
    def test_clir_option_no_path_reads_exits_2(self, workspace, capsys, flags,
                                                message):
        """An expansion or pass-through option that no code path would read
        is refused rather than echoed in the header and hashed into the tag."""
        build(workspace)
        flags = [str(workspace / arg) if arg in ("idx", "dict.tsv") else arg
                 for arg in flags]
        code, err = self._search_exit(workspace, capsys, "--system", "b", *flags)
        assert code == 2
        assert err == f"error: {message}, which is not set\n"

    @pytest.mark.parametrize("command", ["search", "sweep"])
    @pytest.mark.parametrize("as_flag", [True, False])
    def test_k_cmi_without_a_character_index_exits_2(self, workspace, capsys,
                                                     command, as_flag):
        """A token index segments nothing, so a k_cmi, as a flag or a config
        line, is refused rather than echoed in the header and hashed into
        the tag."""
        build(workspace)
        (workspace / "k.conf").write_text("k_cmi = 0.5\n", encoding="utf-8")
        given = (["--k-cmi", "0.5"] if as_flag
                 else ["--config", str(workspace / "k.conf")])
        out = workspace / "out.txt"
        argv = [command, "--index", str(workspace / "idx"),
                "--topics", str(workspace / "topics.jsonl"),
                "--out", str(out), *given]
        if command == "sweep":
            argv += ["--qrels", str(workspace / "qrels.txt")]
        assert exit_code(argv) == 2
        assert capsys.readouterr().err == (
            "error: k_cmi is read only by a character-mode index, and no "
            "index opened is one\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--k-cmi", "nan"], "argument --k-cmi: must be a number, got 'nan'"),
        (["--expand-docs=-1"], "argument --expand-docs: must be >= 0, got '-1'"),
        (["--cutoff", "0"], "argument --cutoff: must be >= 1, got '0'"),
    ])
    def test_out_of_range_flag_exits_2(self, workspace, capsys, flags, message):
        build(workspace, "--mode", "character")
        code, err = self._search_exit(workspace, capsys, "--system", "a", *flags)
        assert code == 2
        assert f"error: {message}" in err

    def test_sweep_and_segment_refuse_nan_k_cmi(self, workspace, capsys,
                                                 monkeypatch):
        build(workspace, "--mode", "character")
        code = exit_code(["sweep", "--index", str(workspace / "idx"),
                          "--topics", str(workspace / "topics.jsonl"),
                          "--qrels", str(workspace / "qrels.txt"),
                          "--k-cmi", "nan"])
        assert code == 2
        assert "error: argument --k-cmi: must be a number" in capsys.readouterr().err
        monkeypatch.setattr("sys.stdin", io.StringIO("abcd\n"))
        assert exit_code(["segment", "--k-cmi", "nan"]) == 2
        assert "error: argument --k-cmi: must be a number" in capsys.readouterr().err

    def test_nan_k_cmi_in_mi_json_exits_2(self, workspace, capsys):
        index = build(workspace, "--mode", "character")
        payload = json.loads((index / "mi.json").read_text(encoding="utf-8"))
        payload["k_cmi"] = math.nan
        (index / "mi.json").write_text(json.dumps(payload), encoding="utf-8")
        code, err = self._search_exit(workspace, capsys, "--system", "a")
        assert code == 2
        assert err.startswith("error: ")
        assert "mi.json" in err and "k_cmi must be finite" in err


def _numeric(option) -> bool:
    try:
        return type(option.parse("1")) in (int, float)
    except argparse.ArgumentTypeError:
        return False


NUMERIC_OPTIONS = [option for option in SEARCH_OPTIONS if _numeric(option)]
EDGE_TEXTS = ["nan", "inf", "-inf", "0", "-1", "1000000000"]


@st.composite
def numeric_settings(draw):
    """Some numeric rows, each at an edge value or its default, each given
    as a flag or as a config-file line."""
    chosen = draw(st.lists(st.sampled_from(NUMERIC_OPTIONS), min_size=1,
                           max_size=5, unique_by=lambda option: option.key))
    settings_ = []
    for option in chosen:
        texts = EDGE_TEXTS + ([str(option.default)]
                              if option.default is not None else [])
        settings_.append((option, draw(st.sampled_from(texts)),
                          draw(st.booleans())))
    return settings_


@pytest.fixture(scope="module")
def indexes(tmp_path_factory):
    root = tmp_path_factory.mktemp("indexes")
    write_jsonl(root / "docs.jsonl", DOCS)
    write_jsonl(root / "topics.jsonl", TOPICS)
    for name, mode in (("tok", "token"), ("char", "character")):
        assert main(["index", "--docs", str(root / "docs.jsonl"),
                     "--out", str(root / name), "--mode", mode]) == 0
    return root


def _search_edges(root, system, feedback, index_name, chosen) -> int:
    """Run search with ``chosen`` (option, text, as_flag) settings; check
    that it exits 0 with finite scores or 2 with an error line and no run
    file, and return the exit code."""
    out = root / "run.txt"
    conf = root / "edge.conf"
    for path in (out, conf):
        if path.exists():
            path.unlink()
    argv = ["search", "--index", str(root / index_name),
            "--topics", str(root / "topics.jsonl"), "--out", str(out),
            "--system", system]
    if feedback:
        argv.append("--feedback")
    lines = []
    for option, text, as_flag in chosen:
        if as_flag:
            argv.append(f"{option.flag}={text}")
        else:
            lines.append(f"{option.key} = {text}\n")
    if lines:
        conf.write_text("".join(lines), encoding="utf-8")
        argv += ["--config", str(conf)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = exit_code(argv)
    if code == 0:
        scores = [float(line.split()[4])
                  for line in out.read_text(encoding="utf-8").splitlines()
                  if not line.startswith("#")]
        assert scores and all(math.isfinite(score) for score in scores), argv
    else:
        assert code == 2, argv
        assert any(line.startswith("error:") or ": error: " in line
                   for line in err.getvalue().splitlines()), argv
        assert not out.exists(), argv
    return code


def test_each_numeric_option_at_each_edge_value(indexes):
    # One row at a time, under both systems with feedback on, as a flag and
    # as a config line: both spellings must end the same way.
    for option in NUMERIC_OPTIONS:
        index_name = "char" if option.key == "k_cmi" else "tok"
        for text in EDGE_TEXTS:
            for system in ("a", "b"):
                codes = {_search_edges(indexes, system, True, index_name,
                                       [(option, text, as_flag)])
                         for as_flag in (True, False)}
                assert len(codes) == 1, (option.key, text, system)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(system=st.sampled_from(["a", "b"]), feedback=st.booleans(),
       index_name=st.sampled_from(["tok", "char"]), chosen=numeric_settings())
def test_numeric_options_exit_0_with_finite_scores_or_2_with_error(
        indexes, system, feedback, index_name, chosen):
    _search_edges(indexes, system, feedback, index_name, chosen)
