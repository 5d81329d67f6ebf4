import pytest

from perfbench import gen
from perfbench.workload import WORKLOADS


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(tmp_path, workload):
    names = gen.write_inputs(workload, 7, tmp_path / "a")
    gen.write_inputs(workload, 7, tmp_path / "b")
    gen.write_inputs(workload, 8, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert sorted(first) == sorted(names)
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


@pytest.mark.parametrize("make", [gen.token_corpus, gen.char_corpus])
def test_qrels_are_graded_and_cover_every_topic(make):
    corpus = make(5)
    doc_ids = [d["doc_id"] for d in corpus.docs]
    assert len(doc_ids) == len(set(doc_ids))
    assert sorted(corpus.qrels) == sorted(t["query_id"] for t in corpus.topics)
    for grades in corpus.qrels.values():
        assert set(grades.values()) <= {0, 1, 2}
        assert 2 in grades.values() and 1 in grades.values() and 0 in grades.values()
        assert set(grades) <= set(doc_ids)


def test_clir_twin_keeps_doc_ids_and_pairs_translate():
    corpus = gen.token_corpus(5, n_docs=700)
    twin = gen.clir_twin(5, corpus)
    assert [d["doc_id"] for d in twin.docs] == [d["doc_id"] for d in corpus.docs]
    source_words = set(corpus.vocab)
    for record in twin.pairs:
        assert set(record["source"]) <= source_words
        assert len(record["source"]) == len(record["target"])
        assert not source_words & set(record["target"])
