"""One workload run, in a child process of its own.

    python -m perfbench.workload '<json spec>'

runs from a directory that holds the generated inputs and writes
``result.json`` there.  It goes through probir's public entry point,
``probir.cli.main``: ``index`` (and ``build-dict``) several times for the
set-up, then ``search`` in rounds, one topic after another from a single
client, until the search phase has run for the given seconds, then
``eval``.  ``search`` runs serially (``--jobs`` left at its default of 1),
so one thread does the work.

A round's set-up share is the time from the start of ``search`` to the
start of its first topic: loading the index, sidecars, dictionary and
topics, and for System A compiling the topic batch.  Its search phase runs
from the first topic until ``search`` has written the run file.  Topics are
timed around the per-topic public calls ``pipeline.search_topic_a``,
``pipeline.search_topic_b`` and ``pipeline.clir_topic``, patched where
their callers look them up.

Every set-up repetition, load, topic and search phase is timed at
wall-clock and also rescaled to a reference processor speed by the short
loop in ``speed.py``, which runs before and after it.  The scaled times make
the metrics; the wall-clock ones are printed beside them.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from .checks import ranking_problem, run_file_digest, throughput
from .gen import CHAR_FILES, CLIR_FILES, TOKEN_FILES
from .speed import ReferenceClock
from .tracing import Patches, Tracer, layer_metrics

SETUP_REPS = 20
MIN_ROUNDS = 2
CUTOFF = "100"

TOKEN_DOCS, TOKEN_TOPICS, TOKEN_QRELS = TOKEN_FILES
CHAR_DOCS, CHAR_TOPICS, CHAR_QRELS = CHAR_FILES
CLIR_DOCS, CLIR_PAIRS = CLIR_FILES

# setup: CLI commands that build what search reads.  outputs/inputs: what
# index_bytes_per_input_byte divides.
WORKLOADS = {
    "tok-b": {
        "setup": [["index", "--docs", TOKEN_DOCS, "--out", "idx_tok"]],
        "search": ["--index", "idx_tok", "--topics", TOKEN_TOPICS,
                   "--system", "b", "--feedback"],
        "qrels": TOKEN_QRELS,
        "outputs": ["idx_tok"],
        "inputs": [TOKEN_DOCS],
    },
    "tok-a": {
        "setup": [["index", "--docs", TOKEN_DOCS, "--out", "idx_tok"]],
        "search": ["--index", "idx_tok", "--topics", TOKEN_TOPICS,
                   "--system", "a", "--terms", "shortest", "--category",
                   "--feedback"],
        "qrels": TOKEN_QRELS,
        "outputs": ["idx_tok"],
        "inputs": [TOKEN_DOCS],
    },
    "char-a": {
        "setup": [["index", "--docs", CHAR_DOCS, "--out", "idx_char",
                   "--mode", "character"]],
        "search": ["--index", "idx_char", "--topics", CHAR_TOPICS,
                   "--system", "a", "--terms", "lattice", "--feedback"],
        "qrels": CHAR_QRELS,
        "outputs": ["idx_char"],
        "inputs": [CHAR_DOCS],
    },
    "clir-b": {
        "setup": [["index", "--docs", TOKEN_DOCS, "--out", "idx_tok"],
                  ["index", "--docs", CLIR_DOCS, "--out", "idx_clir"],
                  ["build-dict", "--pairs", CLIR_PAIRS, "--out", "dict.tsv"]],
        "search": ["--index", "idx_clir", "--topics", TOKEN_TOPICS,
                   "--system", "b", "--translate", "dict.tsv",
                   "--expand-source", "idx_tok"],
        "qrels": TOKEN_QRELS,
        "outputs": ["idx_tok", "idx_clir", "dict.tsv"],
        "inputs": [TOKEN_DOCS, CLIR_DOCS, CLIR_PAIRS],
    },
}

# Per-topic public calls; clir_topic calls search_topic_b, so only the
# outermost call of a topic is timed.
TOPIC_CALLS = [("probir.pipeline", "search_topic_a"),
               ("probir.pipeline", "search_topic_b"),
               ("probir.cli", "clir_topic")]


class TopicTimer:
    """Times each topic, at wall-clock and at reference speed, and checks
    the ranking it returns.  The reference loop runs before a round's first
    topic and after every topic."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.depth = 0
        self.clock = ReferenceClock()
        self.samples: list[float] = []
        self.scaled: list[float] = []
        self.last_ref = 0.0
        self.first_ref: float | None = None
        self.ref_in_phase = 0.0
        self.problems: list[str] = []
        self.first_start: float | None = None
        self.attempted = 0
        self.failed = 0
        self.patches = Patches()

    def begin_round(self) -> None:
        self.first_start = None
        self.first_ref = None
        self.ref_in_phase = 0.0

    def _wrap(self, fn):
        clock = self.clock

        def wrapper(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth = 1
            if self.first_start is None:
                before = self.first_ref = clock.sample()
            else:
                before = self.last_ref
            tracer = self.tracer
            span = None
            if tracer is not None and tracer.active:
                tracer.begin_topic()
                span = tracer.enter("pipeline.topic")
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed += 1
                raise
            finally:
                end = time.perf_counter()
                self.depth = 0
                if span is not None:
                    tracer.exit(span)
                if self.first_start is None:
                    self.first_start = start
            after = self.last_ref = clock.sample()
            self.ref_in_phase += after
            self.samples.append(end - start)
            self.scaled.append(clock.scale(end - start, before, after))
            problem = ranking_problem(result)
            if problem is not None:
                self.failed += 1
                self.problems.append(problem)
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attr in TOPIC_CALLS:
            if not self.patches.replace(module_name, attr, self._wrap):
                raise RuntimeError(f"probir has no per-topic call {module_name}.{attr}")

    def uninstall(self) -> None:
        self.patches.restore()


def _cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one probir command."""
    from probir.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = main(argv)
    return code, sink.getvalue()


def _size(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def run(spec: dict) -> dict:
    work = WORKLOADS[spec["workload"]]
    seconds = float(spec["seconds"])
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
    timer = TopicTimer(tracer)
    timer.install()
    commands = 0

    def command(argv) -> str:
        nonlocal commands
        commands += 1
        code, stdout = _cli(argv)
        if code != 0:
            raise RuntimeError(f"probir {' '.join(argv)} exited with {code}")
        return stdout

    # -- set-up ------------------------------------------------------------
    if tracer is not None:
        tracer.install()
    clock = timer.clock
    setup_s = []
    setup_wall_s = []
    for _ in range(SETUP_REPS):
        for output in work["outputs"]:
            path = Path(output)
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        before = clock.sample()
        start = time.perf_counter()
        for argv in work["setup"]:
            command(argv)
        wall = time.perf_counter() - start
        setup_wall_s.append(wall)
        setup_s.append(clock.scale(wall, before, clock.sample()))
    if tracer is not None:
        tracer.uninstall()

    # -- search rounds -----------------------------------------------------
    # With tracing, rounds alternate untraced and traced; the difference in
    # throughput between the two kinds is the tracing overhead, and both
    # kinds count towards the time budget.
    search_argv = ["search", *work["search"], "--cutoff", CUTOFF, "--out", "run.txt"]
    min_rounds = MIN_ROUNDS if tracer is None else 1
    rounds = []
    untraced = []
    digests = set()
    run_problems: list[str] = []
    bad_run_files = 0
    round_counts: list[Counter] = []
    round_times: list[Counter] = []
    while True:
        traced = tracer is not None and len(untraced) > len(rounds)
        if traced:
            tracer.phase = "search"
            tracer.counts.clear()
            tracer.times.clear()
            tracer.install()
        timer.begin_round()
        before = len(timer.samples)
        round_ref = clock.sample()
        start = time.perf_counter()
        command(search_argv)
        end = time.perf_counter()
        end_ref = clock.sample()
        if traced:
            tracer.uninstall()
            round_counts.append(Counter(tracer.counts))
            round_times.append(Counter(tracer.times))
        if timer.first_start is None:
            raise RuntimeError("search ran no topic through a timed per-topic call")
        # Wall times leave out the reference loop's own runs.  The part of
        # the search phase outside the topics is scaled by the loop's runs
        # after the last topic and after search returned.
        load_wall = timer.first_start - start - timer.first_ref
        search_wall = end - timer.first_start - timer.ref_in_phase
        topic_wall = sum(timer.samples[before:])
        result = {"topics": len(timer.samples) - before,
                  "load_wall_s": load_wall,
                  "load_s": clock.scale(load_wall, round_ref, timer.first_ref),
                  "search_wall_s": search_wall,
                  "search_s": (sum(timer.scaled[before:])
                               + clock.scale(search_wall - topic_wall,
                                             timer.last_ref, end_ref))}
        digest, problems = run_file_digest(Path("run.txt").read_text(encoding="utf-8"))
        digests.add(digest)
        run_problems.extend(problems)
        bad_run_files += bool(problems)
        if tracer is not None and not traced:
            untraced.append(result)
            continue
        rounds.append(result)
        # Stop at the round boundary nearest to the time budget.
        done = rounds + untraced
        spent = sum(r["search_wall_s"] for r in done)
        if len(rounds) >= min_rounds and spent + spent / len(done) / 2 >= seconds:
            break

    # -- evaluation ----------------------------------------------------------
    if tracer is not None:
        tracer.phase = "eval"
        tracer.install()
    report = command(["eval", "--run", "run.txt", "--qrels", work["qrels"]])
    if tracer is not None:
        tracer.uninstall()
    macro = [line for line in report.splitlines() if line.startswith("MACRO")]
    map_relax = float(macro[0].split("\t")[2])

    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "rounds": rounds,
        "topic_s": timer.scaled if tracer is None else [],
        "topic_wall_s": timer.samples if tracer is None else [],
        "reference_s": statistics.median(clock.samples),
        "digests": sorted(digests),
        "problems": (timer.problems + run_problems)[:20],
        "attempted": timer.attempted + commands,
        "failed": timer.failed + bad_run_files,
        "map_relax": map_relax,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "index_bytes": sum(_size(Path(p)) for p in work["outputs"]),
        "input_bytes": sum(_size(Path(p)) for p in work["inputs"]),
        "n_docs": Path(work["inputs"][0]).read_text(encoding="utf-8").count("\n"),
    }
    if tracer is not None:
        reps = {"setup": SETUP_REPS, "search": len(rounds), "eval": 1}
        layer = layer_metrics(tracer, reps, round_counts, round_times)
        layer["index.bytes"] = float(out["index_bytes"])
        layer["trace.topics_per_s"] = throughput(rounds)
        layer["trace.overhead_topics_per_s"] = throughput(untraced) - throughput(rounds)
        out["layer"] = layer
        out["missing"] = tracer.missing
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(argv[0])
    result = run(spec)
    Path("result.json").write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
