"""Command-line interface.

Subcommands: index, search, sweep, segment, build-dict, translate, eval.
Search and sweep options come from one table of rows (key, flag, default,
parser); flags override `key = value` config-file values, which override the
defaults.  A run file's `#` header echoes the set options its system reads,
and its tag is hashed from them, so a run is reproducible from its own
header: its option lines, less the `# `, are a config file.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .clir import (
    KeywordPairRecord,
    build_dictionary,
    load_dictionary,
    translate as translate_tokens,
)
from .corpus import (
    CHARACTER_MODE,
    TOKEN_MODE,
    QueryType,
    TokenizerConfig,
    _read_jsonl,
    is_run_id,
    load_documents,
    load_stopwords,
    load_topics,
    split_sentences,
)
from .errors import IndexLoadError, ParseError, ProbirError
from .evaluation import evaluate_run, load_qrels, parse_run_file
from .feedback_a import FeedbackAParams
from .feedback_b import AUTO, FeedbackBParams
from .index import Index, build_index, load_index
from .pipeline import (
    Analyzer,
    _usable,
    clir_topic,
    format_run,
    run_tag,
    search_system_a,
    search_system_b,
    sweep_b,
)
from .scoring import RARITY_ALL, RARITY_OFF, RARITY_TITLE, ScoringParamsA
from .segmentation import (
    MiTable,
    RatioTarget,
    build_mi_table,
    calibrate_kcmi,
    collection_sentences,
    segment,
)
from .term_extraction import (
    ALL_PATTERNS,
    DOWN_WEIGHT,
    LATTICE,
    SHORTEST,
    ExtractionConfig,
)

TERM_STRATEGIES = {
    "shortest": SHORTEST,
    "all": ALL_PATTERNS,
    "lattice": LATTICE,
    "down": DOWN_WEIGHT,
}

_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}


def _boolean(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(f"bad boolean {text!r}") from None


def _choice(*texts: str, values=None):
    """Parser of an option with a fixed set of values, keyed by their text;
    a value is its own text unless ``values`` gives it."""
    values = values or {text: text for text in texts}

    def parse(text: str):
        if text not in values:
            raise argparse.ArgumentTypeError(
                f"expected one of {', '.join(values)}, got {text!r}")
        return values[text]
    parse.choices = list(values.values())
    return parse


def _parsed(kind, holds=None, rule=""):
    """Parser of one ``kind`` value; ``holds`` is the row's own range."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__}, got {text!r}") from None
        if holds is not None and not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


def _or_auto(parse):
    return lambda text: AUTO if text == AUTO else parse(text)


def _grid(parse):
    """Parser of a comma-separated sweep list."""
    return lambda text: tuple(parse(item) for item in text.split(","))


_FLOAT = _parsed(float)
_INT = _parsed(int)
_K_CMI = _parsed(float, lambda x: not math.isnan(x), "a number")


class Option(NamedTuple):
    """One `search` or `sweep` option: config key (and argparse dest), flag,
    default, the parser of a flag's or a config value's text, and the
    systems that read it ("a", "b", "ab", or "t": only `translate` runs)."""

    key: str
    flag: str
    default: object
    parse: Callable[[str], object]
    systems: str = "ab"


# Ranges live in ScoringParamsA, FeedbackAParams, FeedbackBParams and
# ExtractionConfig; a row checks one only for a value none of them owns.
SEARCH_OPTIONS = (
    Option("system", "--system", "b", _choice("a", "b")),
    Option("qtype", "--qtype", "short", _choice(*(q.value for q in QueryType))),
    Option("terms", "--terms", "shortest",
           _choice(*sorted(TERM_STRATEGIES)), "a"),
    Option("k_down", "--k-down", 0.2, _FLOAT, "a"),
    Option("max_span", "--max-span", 6, _INT, "a"),
    Option("cutoff", "--cutoff", 1000, _parsed(int, lambda n: n >= 1, ">= 1")),
    # names the run in its tag column, so one word; no system reads it, so
    # the header leaves it out
    Option("tag", "--tag", None,
           _parsed(str, is_run_id, "one word"), ""),
    Option("feedback", "--feedback", False, _boolean),
    # extended scorer
    Option("k_t", "--kt", 1.0, _FLOAT, "a"),
    Option("k_q", "--kq", math.inf, _FLOAT, "a"),
    Option("k_nq", "--knq", RARITY_OFF,
           _choice(values={"0": RARITY_OFF, "1": RARITY_ALL,
                           RARITY_TITLE: RARITY_TITLE}), "a"),
    Option("k_loc1", "--kloc1", 1.2, _FLOAT, "a"),
    Option("k_loc2", "--kloc2", 0.1, _FLOAT, "a"),
    Option("k_cat", "--kcat", 0.1, _FLOAT, "a"),
    Option("location", "--location", True, _boolean, "a"),
    Option("category", "--category", True, _boolean, "a"),
    Option("length_bonus", "--length-bonus", True, _boolean, "a"),
    Option("query_rarity", "--query-rarity", True, _boolean, "a"),
    # feedback, extended scorer
    Option("kr", "--kr", 5, _INT, "a"),
    Option("kaf", "--kaf", 0.7, _FLOAT, "a"),
    Option("kp", "--kp", 0.9, _FLOAT, "a"),
    Option("kafw", "--kafw", 0.5, _FLOAT, "a"),
    Option("kp_literal", "--kp-literal", False, _boolean, "a"),
    # feedback, parameter-light scorer
    Option("p", "--p", 0.10, _FLOAT, "b"),
    Option("theta", "--theta", None, _FLOAT, "b"),
    Option("r", "--R", AUTO, _or_auto(_INT), "b"),
    Option("alpha", "--alpha", AUTO, _or_auto(_FLOAT), "b"),
    Option("r_cap", "--r-cap", 20, _INT, "b"),
    # cross-lingual
    Option("translate", "--translate", None, str, "t"),
    Option("expand_source", "--expand-source", None, str, "t"),
    Option("expand_docs", "--expand-docs", 5,
           _parsed(int, lambda n: n >= 0, ">= 0"), "t"),
    Option("expand_all", "--expand-all", False, _boolean, "t"),
    Option("passthrough", "--passthrough", False, _boolean, "t"),
    # character mode; None takes the index's calibrated threshold
    Option("k_cmi", "--k-cmi", None, _K_CMI),
)

SWEEP_OPTIONS = tuple(option for option in SEARCH_OPTIONS
                      if option.key in ("qtype", "cutoff", "k_cmi")) + (
    Option("p", "--p", (0.10, 0.05, 0.01), _grid(_FLOAT), "b"),
    Option("r", "--R", (1, 3, 5, 7, 10, 15, AUTO), _grid(_or_auto(_INT)), "b"),
    Option("alpha", "--alpha", (0.5, 1.0, 1.5, AUTO), _grid(_or_auto(_FLOAT)),
           "b"),
)


def parse_config_file(path, options) -> dict:
    """`key = value` lines, each value read by the parser of its option."""
    by_key = {option.key: option for option in options}
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(path, line_no, "expected key = value")
            key, _, raw = stripped.partition("=")
            key = key.strip().replace("-", "_")
            if key not in by_key:
                raise ParseError(path, line_no, f"unknown option {key!r}")
            try:
                values[key] = by_key[key].parse(raw.strip())
            except argparse.ArgumentTypeError as exc:
                raise ParseError(path, line_no, f"{key}: {exc}") from None
    return values


def resolve_config(args: argparse.Namespace, options) -> dict:
    """Flags override the config file, which overrides the defaults."""
    cfg = {option.key: option.default for option in options}
    if args.config:
        cfg.update(parse_config_file(args.config, options))
    cfg.update((option.key, getattr(args, option.key))
               for option in options if hasattr(args, option.key))
    return cfg


def _add_options(parser: argparse.ArgumentParser, options) -> None:
    parser.add_argument("--config")
    for option in options:
        if option.parse is _boolean:
            kind = {"action": (argparse.BooleanOptionalAction if option.default
                               else "store_true")}
        else:
            kind = {"type": option.parse,
                    "choices": getattr(option.parse, "choices", None)}
        parser.add_argument(option.flag, dest=option.key,
                            default=argparse.SUPPRESS, **kind)


def _tokenizer_path(index_dir) -> Path:
    return Path(index_dir) / "tokenizer.json"


def _mi_path(index_dir) -> Path:
    return Path(index_dir) / "mi.json"


def _save_tokenizer(index_dir, config: TokenizerConfig):
    payload = {
        "mode": config.mode,
        "stemming": config.stemming,
        "stopwords": sorted(config.stopwords),
    }
    _tokenizer_path(index_dir).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


@contextmanager
def _sidecar(path: Path):
    """Report bad JSON or a missing key in a sidecar as an IndexLoadError
    naming the file."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:
        raise IndexLoadError(f"{path}: malformed sidecar ({exc!r})") from exc


@contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off.  Ranking makes
    no reference cycles, so a collection during it frees nothing, and a
    full one walks every entry of the loaded indexes: it lands in whichever
    topic allocates past the collector's threshold and adds that walk to
    the topic's time.  Reference counting frees as before; the collector
    resumes when the block ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_tokenizer(index_dir) -> TokenizerConfig:
    path = _tokenizer_path(index_dir)
    with _sidecar(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        mode, stopwords, stemming = (payload["mode"], payload["stopwords"],
                                     payload["stemming"])
        if not (isinstance(mode, str) and isinstance(stemming, bool)
                and isinstance(stopwords, list)
                and all(isinstance(word, str) for word in stopwords)):
            raise TypeError("mode must be a string, stemming a boolean and "
                            "stopwords a list of strings")
        return TokenizerConfig(mode=mode, stopwords=frozenset(stopwords),
                               stemming=stemming)


def _save_mi(index_dir, table: MiTable, k_cmi: float):
    payload = {
        "unigrams": table.unigrams,
        "bigrams": table.bigrams,
        "total_unigrams": table.total_unigrams,
        "total_bigrams": table.total_bigrams,
        "k_cmi": k_cmi,
    }
    _mi_path(index_dir).write_text(
        json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _load_mi(index_dir) -> tuple[MiTable, float] | tuple[None, None]:
    path = _mi_path(index_dir)
    if not path.exists():
        return None, None
    with _sidecar(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        maps = (payload["unigrams"], payload["bigrams"])
        totals = (payload["total_unigrams"], payload["total_bigrams"])
        if not (all(isinstance(counts, dict) for counts in maps) and all(
                type(n) is int and n >= 0
                for n in (*maps[0].values(), *maps[1].values(), *totals))):
            raise TypeError("unigrams and bigrams must be objects of counts, "
                            "and every count an integer >= 0")
        table = MiTable(*maps, *totals)
        k_cmi = float(payload["k_cmi"])
        if not math.isfinite(k_cmi):
            raise ValueError(f"k_cmi must be finite, got {k_cmi}")
        return table, k_cmi


def _open_index(index_dir, k_cmi: float | None) -> tuple[Index, Analyzer]:
    """An index with its analyzer: its tokenizer and MI table, and
    ``k_cmi``, or the stored threshold when that is None."""
    tok_config = _load_tokenizer(index_dir)
    index = load_index(index_dir, tok_config.mode)
    mi_table, stored_kcmi = _load_mi(index_dir)
    if tok_config.mode == CHARACTER_MODE and mi_table is None:
        raise IndexLoadError(f"{_mi_path(index_dir)}: missing; a character "
                             "index needs its MI table")
    return index, Analyzer(tok_config, mi_table,
                           stored_kcmi if k_cmi is None else k_cmi)


def _check_out(out: str | None) -> None:
    """Refuse an ``--out`` that cannot be written, before any work is done:
    a directory, or a path whose directory is missing or is a file.  It
    raises the OSError that the write would, and creates nothing."""
    if not out:  # written to standard output
        return
    path = Path(out)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), out)


def _parse_ratio(text: str) -> RatioTarget:
    try:
        a, b = text.split(":")
        return RatioTarget(float(a), float(b))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(f"bad ratio {text!r}, expected a:b")


# -- subcommands -----------------------------------------------------------------


def cmd_index(args) -> int:
    stopwords = (load_stopwords(args.stopwords, args.mode) if args.stopwords
                 else frozenset())
    config = TokenizerConfig(mode=args.mode, stopwords=stopwords,
                             stemming=args.stem)
    collection = load_documents(args.docs)
    index = build_index(collection, config)
    # the MI table and threshold come before the first write, so a corpus
    # whose threshold cannot be calibrated leaves no directory behind
    mi = None
    if args.mode == CHARACTER_MODE:
        sentences = collection_sentences(collection, config)
        table = build_mi_table(sentences)
        mi = table, calibrate_kcmi(sentences, table, args.ratio)
    index.save(args.out)
    _save_tokenizer(args.out, config)
    if mi is not None:
        _save_mi(args.out, *mi)
    print(f"indexed {index.n_docs} documents ({index.mode} mode) -> {args.out}")
    return 0


def _scoring_params(cfg: dict) -> ScoringParamsA:
    return ScoringParamsA(
        k_t=cfg["k_t"], k_q_a=cfg["k_q"], k_nq=cfg["k_nq"],
        k_loc1=cfg["k_loc1"], k_loc2=cfg["k_loc2"], k_cat=cfg["k_cat"],
        use_location=cfg["location"], use_category=cfg["category"],
        use_length_bonus=cfg["length_bonus"], use_query_rarity=cfg["query_rarity"],
    )


def _feedback_b_params(cfg: dict) -> FeedbackBParams:
    return FeedbackBParams(
        p_level=cfg["p"], theta=cfg["theta"],
        r=None if cfg["r"] == AUTO else cfg["r"],
        alpha=None if cfg["alpha"] == AUTO else cfg["alpha"],
        r_cap=cfg["r_cap"],
    )


def cmd_search(args) -> int:
    cfg = resolve_config(args, SEARCH_OPTIONS)
    if cfg["translate"] and cfg["system"] == "a":
        raise ValueError("translate runs System B; it cannot be combined "
                         "with system a")
    for key, needs in (("expand_source", "translate"), ("passthrough", "translate"),
                       ("expand_all", "expand_source")):  # unread without the other
        if cfg[key] and not cfg[needs]:
            raise ValueError(f"{key} is read only with {needs}, which is not set")
    _check_out(args.out)
    index, analyzer = _open_index(args.index, cfg["k_cmi"])
    topics = load_topics(args.topics)
    qtype = QueryType(cfg["qtype"])
    cutoff = cfg["cutoff"]

    if cfg["translate"]:
        dictionary = load_dictionary(cfg["translate"])
        feedback = _feedback_b_params(cfg) if cfg["feedback"] else None
        source_index, source = None, analyzer
        if cfg["expand_source"]:
            source_index, source = _open_index(cfg["expand_source"],
                                               cfg["k_cmi"])

        # clir_topic is looked up in this module at each call: perfbench's
        # topic timer wraps cli.clir_topic to time the whole topic
        run = partial(_usable, topics, lambda topic: clir_topic(
            topic, qtype, source, dictionary, index,
            source_index=source_index, expansion_docs=cfg["expand_docs"],
            expand_all=cfg["expand_all"], passthrough=cfg["passthrough"],
            feedback=feedback, cutoff=cutoff))
    elif cfg["system"] == "a":
        extraction = ExtractionConfig(TERM_STRATEGIES[cfg["terms"]],
                                      cfg["k_down"], cfg["max_span"])
        feedback = (FeedbackAParams(cfg["kr"], cfg["kaf"], cfg["kp"],
                                    cfg["kafw"], cfg["kp_literal"])
                    if cfg["feedback"] else None)
        run = partial(search_system_a, index, topics, qtype, analyzer,
                      extraction, _scoring_params(cfg), feedback, cutoff)
    else:
        feedback = _feedback_b_params(cfg) if cfg["feedback"] else None
        run = partial(search_system_b, index, topics, qtype, analyzer,
                      feedback, cutoff)
    with _collector_paused():
        rankings, warnings = run()

    # an unset option (None) is left out, so the header reads back as a
    # config file
    reads = {cfg["system"], "t"} if cfg["translate"] else {cfg["system"]}
    echo = {option.key: cfg[option.key] for option in SEARCH_OPTIONS
            if reads & set(option.systems) and cfg[option.key] is not None}
    echo["index"] = str(args.index)
    echo["topics"] = str(args.topics)
    tag = cfg["tag"] or run_tag(echo)
    header = dict(echo)
    for i, message in enumerate(warnings):
        header[f"warning_{i}"] = message
    text = format_run(rankings, tag, header)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    cfg = resolve_config(args, SWEEP_OPTIONS)
    _check_out(args.out)
    index, analyzer = _open_index(args.index, cfg["k_cmi"])
    topics = load_topics(args.topics)
    qrels = load_qrels(args.qrels)
    with _collector_paused():
        report = sweep_b(index, topics, QueryType(cfg["qtype"]), analyzer,
                         qrels, cfg["p"], cfg["r"], cfg["alpha"], cfg["cutoff"])
    text = report.format()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_segment(args) -> int:
    config = TokenizerConfig(mode=CHARACTER_MODE)
    lines = [line.rstrip("\n") for line in sys.stdin]
    runs_per_line = [split_sentences(line, config) for line in lines]
    sample = [run for runs in runs_per_line for run in runs]
    if args.stats:
        table = build_mi_table(collection_sentences(load_documents(args.stats),
                                                    config))
    else:
        table = build_mi_table(sample)
    if args.k_cmi is not None:
        k_cmi = args.k_cmi
    else:
        k_cmi = calibrate_kcmi(sample, table, args.ratio)
        print(f"# calibrated k_cmi = {k_cmi:.6f}", file=sys.stderr)
    for runs in runs_per_line:
        words = []
        for run in runs:
            words.extend(segment(run, table, k_cmi))
        print(" ".join(words))
    return 0


def cmd_build_dict(args) -> int:
    records = []
    for line_no, payload in _read_jsonl(args.pairs):
        keywords = []
        for key in ("source", "target"):
            words = payload.get(key, [])
            if not (isinstance(words, list)
                    and all(isinstance(word, str) for word in words)):
                raise ParseError(args.pairs, line_no,
                                 f"{key} must be a list of strings")
            keywords.append(tuple(words))
        records.append(KeywordPairRecord(str(payload.get("id", line_no)),
                                         *keywords))
    dictionary = build_dictionary(records)
    dictionary.save(args.out)
    print(f"{len(dictionary)} source phrases -> {args.out}")
    return 0


def cmd_translate(args) -> int:
    dictionary = load_dictionary(args.dict)
    for line in sys.stdin:
        tokens = line.split()
        print(" ".join(translate_tokens(tokens, dictionary, args.passthrough)))
    return 0


def cmd_eval(args) -> int:
    run = parse_run_file(args.run)
    qrels = load_qrels(args.qrels)
    report = evaluate_run(run, qrels, args.rigid_grade, args.relax_grade)
    sys.stdout.write(report.format())
    for message in report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probir",
        description="Probabilistic retrieval engines with feedback, "
                    "segmentation, and cross-lingual search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and persist an index")
    p_index.add_argument("--docs", required=True)
    p_index.add_argument("--out", required=True)
    p_index.add_argument("--mode", choices=[TOKEN_MODE, CHARACTER_MODE],
                         default=TOKEN_MODE)
    p_index.add_argument("--stopwords")
    p_index.add_argument("--stem", action="store_true")
    p_index.add_argument("--ratio", type=_parse_ratio, default=RatioTarget())
    p_index.set_defaults(func=cmd_index)

    p_search = sub.add_parser("search", help="retrieve and write a run file")
    p_search.add_argument("--index", required=True)
    p_search.add_argument("--topics", required=True)
    p_search.add_argument("--out")
    _add_options(p_search, SEARCH_OPTIONS)
    p_search.set_defaults(func=cmd_search)

    p_sweep = sub.add_parser("sweep", help="evaluate a feedback parameter grid")
    p_sweep.add_argument("--index", required=True)
    p_sweep.add_argument("--topics", required=True)
    p_sweep.add_argument("--qrels", required=True)
    p_sweep.add_argument("--out")
    _add_options(p_sweep, SWEEP_OPTIONS)
    p_sweep.set_defaults(func=cmd_sweep)

    p_segment = sub.add_parser(
        "segment", help="segment sentences from stdin, one per line")
    p_segment.add_argument("--stats", help="corpus JSONL for the statistics")
    p_segment.add_argument("--ratio", type=_parse_ratio, default=RatioTarget())
    p_segment.add_argument("--k-cmi", dest="k_cmi", type=_K_CMI)
    p_segment.set_defaults(func=cmd_segment)

    p_dict = sub.add_parser("build-dict", help="build a dictionary from keyword pairs")
    p_dict.add_argument("--pairs", required=True)
    p_dict.add_argument("--out", required=True)
    p_dict.set_defaults(func=cmd_build_dict)

    p_translate = sub.add_parser("translate", help="translate stdin token lines")
    p_translate.add_argument("--dict", required=True)
    p_translate.add_argument("--passthrough", action="store_true")
    p_translate.set_defaults(func=cmd_translate)

    p_eval = sub.add_parser("eval", help="score a run file against judgments")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--qrels", required=True)
    p_eval.add_argument("--rigid-grade", dest="rigid_grade", type=int, default=2)
    p_eval.add_argument("--relax-grade", dest="relax_grade", type=int, default=1)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory, a file in the way, no permission
        reason = exc if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        print(f"error: {reason}", file=sys.stderr)
        return 2
    except (ProbirError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
