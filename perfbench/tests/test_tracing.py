import probir.cli
import probir.index
import probir.pipeline
import pytest

from perfbench import gen, tracing
from perfbench.tracing import Tracer, self_times
from perfbench.workload import TopicTimer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    a = tracer.enter("a")            # a: 0..10
    clock.now = 1
    b = tracer.enter("b")            # b: 1..4, child of a
    clock.now = 2
    c = tracer.enter("c")            # c: 2..3, child of b
    clock.now = 3
    tracer.exit(c)
    clock.now = 4
    tracer.exit(b)
    clock.now = 5
    d = tracer.enter("b")            # a second b: 5..9
    clock.now = 9
    tracer.exit(d)
    clock.now = 10
    tracer.exit(a)
    tracer.phase = "eval"
    e = tracer.enter("a")            # same name, other phase: 10..12
    clock.now = 12
    tracer.exit(e)

    assert self_times(tracer.spans) == {
        ("setup", "a"): 10 - 3 - 4,
        ("setup", "b"): (3 - 1) + 4,
        ("setup", "c"): 1,
        ("eval", "a"): 2,
    }


def test_install_skips_missing_names_and_uninstall_restores(monkeypatch):
    monkeypatch.setattr(tracing, "PATCHES", tracing.PATCHES + [
        ("probir.pipeline", "no_such_function", tracing.SPAN, "x", None),
        ("probir.index:NoSuchClass", "save", tracing.SPAN, "x", None),
    ])
    originals = (probir.pipeline.rank, probir.index.Index.doc_tf, probir.cli.load_index)
    tracer = Tracer()
    tracer.install()
    assert probir.pipeline.rank is not originals[0]
    assert tracer.missing == ["probir.pipeline.no_such_function",
                              "probir.index:NoSuchClass.save"]
    tracer.uninstall()
    assert (probir.pipeline.rank, probir.index.Index.doc_tf,
            probir.cli.load_index) == originals


def _traced_search(argv):
    tracer = Tracer()
    timer = TopicTimer(tracer)
    timer.install()
    tracer.install()
    try:
        assert probir.cli.main(argv) == 0
    finally:
        tracer.uninstall()
        timer.uninstall()
    assert timer.failed == 0
    assert len(timer.scaled) == len(timer.samples) > 0
    return tracer


@pytest.fixture
def small_token_index(tmp_path, monkeypatch):
    corpus = gen.token_corpus(3, n_docs=120, n_topics=4, vocab_size=2000)
    gen.write_jsonl(tmp_path / "docs.jsonl", corpus.docs)
    gen.write_jsonl(tmp_path / "topics.jsonl", corpus.topics)
    monkeypatch.chdir(tmp_path)
    assert probir.cli.main(["index", "--docs", "docs.jsonl", "--out", "idx"]) == 0
    return tmp_path


def test_rank_passes_are_labelled_by_caller(small_token_index, capsys):
    argv = ["search", "--index", "idx", "--topics", "topics.jsonl", "--system", "a",
            "--feedback", "--cutoff", "50", "--out", "run.txt"]
    tracer = _traced_search(argv)
    names = [span[0] for span in tracer.spans if span[0].startswith("scoring.rank.")]
    # System A with category on and feedback: neutral, category, feedback pass.
    assert names == ["scoring.rank.pass1", "scoring.rank.pass_category",
                     "scoring.rank.fb_pass"] * 4
    assert tracer.counts["scoring.rank.calls"] == 12
    assert tracer.counts["scoring.rank.docs_scored"] == 12 * 120


def test_counts_repeat_exactly(small_token_index):
    argv = ["search", "--index", "idx", "--topics", "topics.jsonl", "--system", "b",
            "--feedback", "--cutoff", "50", "--out", "run.txt"]
    first = _traced_search(argv).counts
    second = _traced_search(argv).counts
    assert first == second
    assert first["index.doc_tf.calls"] > 0
    assert first["feedback_b.auto_r.calls"] == 4
