"""Command-line interface.

Subcommands: index, search, sweep, segment, build-dict, translate, eval.
Search and sweep read an optional `key = value` config file; explicit
command-line flags override file values, which override built-in defaults.
Run files carry the resolved configuration as `#` header comments and a tag
hashed from it, so a run is reproducible from its own header.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

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
    load_documents,
    load_stopwords,
    load_topics,
    split_sentences,
)
from .errors import EmptyQueryError, IndexLoadError, ParseError, ProbirError
from .evaluation import evaluate_run, load_qrels, parse_run_file
from .feedback_a import FeedbackAParams
from .feedback_b import AUTO, THETA_BY_P, FeedbackBParams
from .index import build_index, load_index
from .pipeline import (
    clir_topic,
    format_run,
    run_tag,
    search_system_a,
    search_system_b,
    sweep_b,
)
from .scoring import RARITY_TITLE, ScoringParamsA
from .segmentation import (
    MiTable,
    RatioTarget,
    build_mi_table,
    build_mi_table_from_sentences,
    calibrate_kcmi,
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

SEARCH_DEFAULTS = {
    "system": "b",
    "qtype": "short",
    "terms": "shortest",
    "k_down": 0.2,
    "max_span": 6,
    "cutoff": 1000,
    "tag": None,
    "feedback": False,
    # extended-scorer knobs
    "k_t": 1.0,
    "k_q": float("inf"),
    "k_nq": "0",
    "k_loc1": 1.2,
    "k_loc2": 0.1,
    "k_cat": 0.1,
    "location": True,
    "category": True,
    "length_bonus": True,
    "query_rarity": True,
    # feedback (extended scorer)
    "kr": 5,
    "kaf": 0.7,
    "kp": 0.9,
    "kafw": 0.5,
    "kp_literal": False,
    # feedback (parameter-light scorer)
    "p": 0.10,
    "theta": None,
    "r": "auto",
    "alpha": "auto",
    "r_cap": 20,
    # cross-lingual
    "translate": None,
    "expand_source": None,
    "expand_docs": 5,
    "expand_all": False,
    "passthrough": False,
    # character mode
    "k_cmi": None,
}

SWEEP_DEFAULTS = {
    "qtype": "short",
    "cutoff": 1000,
    "p": "0.10,0.05,0.01",
    "r": "1,3,5,7,10,15,auto",
    "alpha": "0.5,1.0,1.5,auto",
    "k_cmi": None,
}

# Types for config keys whose default is None.
_NONE_TYPES = {"tag": str, "theta": float, "translate": str,
               "expand_source": str, "k_cmi": float}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_config_file(path, defaults: dict) -> dict:
    """`key = value` lines; keys must exist in the command's defaults."""
    values = {}
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(str(path), line_no, "expected key = value")
            key, _, raw = stripped.partition("=")
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            if key not in defaults:
                raise ParseError(str(path), line_no, f"unknown option {key!r}")
            default = defaults[key]
            if isinstance(default, bool):
                low = raw.lower()
                if low in _TRUE:
                    values[key] = True
                elif low in _FALSE:
                    values[key] = False
                else:
                    raise ParseError(str(path), line_no, f"bad boolean {raw!r}")
            elif isinstance(default, int):
                values[key] = int(raw)
            elif isinstance(default, float):
                values[key] = float(raw)
            elif default is None and key in _NONE_TYPES:
                values[key] = _NONE_TYPES[key](raw)
            else:
                values[key] = raw
    return values


def resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    ns = dict(vars(args))
    config_path = ns.pop("config", None)
    if config_path:
        cfg.update(parse_config_file(config_path, defaults))
    cfg.update({k: v for k, v in ns.items() if k in defaults})
    return cfg


def _sup(parser, *names, **kw):
    kw.setdefault("default", argparse.SUPPRESS)
    parser.add_argument(*names, **kw)


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
        table = MiTable(payload["unigrams"], payload["bigrams"],
                        payload["total_unigrams"], payload["total_bigrams"])
        return table, float(payload["k_cmi"])


def _parse_ratio(text: str) -> RatioTarget:
    try:
        a, b = text.split(":")
        return RatioTarget(float(a), float(b))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(f"bad ratio {text!r}, expected a:b")


# -- subcommands -----------------------------------------------------------------


def cmd_index(args) -> int:
    stopwords = load_stopwords(args.stopwords) if args.stopwords else frozenset()
    config = TokenizerConfig(mode=args.mode, stopwords=stopwords,
                             stemming=args.stem)
    collection = load_documents(args.docs)
    index = build_index(collection, config)
    index.save(args.out)
    _save_tokenizer(args.out, config)
    if args.mode == CHARACTER_MODE:
        table = build_mi_table(collection)
        sentences = []
        for doc in collection:
            sentences.extend(split_sentences(doc.title))
            sentences.extend(split_sentences(doc.body))
        k_cmi = calibrate_kcmi(sentences, table, args.ratio)
        _save_mi(args.out, table, k_cmi)
    print(f"indexed {index.n_docs} documents ({index.mode} mode) -> {args.out}")
    return 0


def _scoring_params(cfg: dict) -> ScoringParamsA:
    k_nq = cfg["k_nq"]
    k_nq = RARITY_TITLE if k_nq == RARITY_TITLE else int(k_nq)
    return ScoringParamsA(
        k_t=cfg["k_t"], k_q_a=cfg["k_q"], k_nq=k_nq,
        k_loc1=cfg["k_loc1"], k_loc2=cfg["k_loc2"], k_cat=cfg["k_cat"],
        use_location=cfg["location"], use_category=cfg["category"],
        use_length_bonus=cfg["length_bonus"], use_query_rarity=cfg["query_rarity"],
    )


def _feedback_b_params(cfg: dict) -> FeedbackBParams:
    return FeedbackBParams(
        p_level=cfg["p"], theta=cfg["theta"],
        r=None if cfg["r"] == AUTO else int(cfg["r"]),
        alpha=None if cfg["alpha"] == AUTO else float(cfg["alpha"]),
        r_cap=cfg["r_cap"],
    )


def cmd_search(args) -> int:
    cfg = resolve_config(args, SEARCH_DEFAULTS)
    tok_config = _load_tokenizer(args.index)
    index = load_index(args.index, tok_config.mode)
    mi_table, stored_kcmi = _load_mi(args.index)
    k_cmi = cfg["k_cmi"] if cfg["k_cmi"] is not None else stored_kcmi
    topics = load_topics(args.topics)
    qtype = QueryType(cfg["qtype"])
    cutoff = cfg["cutoff"]
    warnings: list[str] = []

    if cfg["translate"]:
        dictionary = load_dictionary(cfg["translate"])
        feedback = _feedback_b_params(cfg) if cfg["feedback"] else None
        source_index = None
        source_tok = tok_config
        source_mi, source_kcmi = mi_table, k_cmi
        if cfg["expand_source"]:
            source_tok = _load_tokenizer(cfg["expand_source"])
            source_index = load_index(cfg["expand_source"], source_tok.mode)
            source_mi, source_kcmi = _load_mi(cfg["expand_source"])
        theta = THETA_BY_P[0.10] if source_index is not None else None

        rankings = []
        for topic in topics:
            try:
                ranking = clir_topic(
                    topic, qtype, source_tok, dictionary, index,
                    source_index=source_index, expansion_theta=theta,
                    expansion_docs=cfg["expand_docs"],
                    expand_all=cfg["expand_all"],
                    passthrough=cfg["passthrough"], feedback=feedback,
                    cutoff=cutoff, mi_table=source_mi, k_cmi=source_kcmi,
                )
            except EmptyQueryError as exc:
                warnings.append(str(exc))
                continue
            if ranking is None:
                warnings.append(f"query {topic.query_id}: no usable terms; skipped")
            else:
                rankings.append(ranking)
    elif cfg["system"] == "a":
        extraction = ExtractionConfig(TERM_STRATEGIES[cfg["terms"]],
                                      cfg["k_down"], cfg["max_span"])
        feedback = (FeedbackAParams(cfg["kr"], cfg["kaf"], cfg["kp"],
                                    cfg["kafw"], cfg["kp_literal"])
                    if cfg["feedback"] else None)
        rankings, warnings = search_system_a(
            index, topics, qtype, tok_config, extraction,
            _scoring_params(cfg), feedback, cutoff, mi_table, k_cmi,
        )
    else:
        feedback = _feedback_b_params(cfg) if cfg["feedback"] else None
        rankings, warnings = search_system_b(
            index, topics, qtype, tok_config, feedback, cutoff,
            mi_table, k_cmi,
        )

    echo = {k: cfg[k] for k in sorted(cfg) if k != "tag"}
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
    cfg = resolve_config(args, SWEEP_DEFAULTS)
    tok_config = _load_tokenizer(args.index)
    index = load_index(args.index, tok_config.mode)
    mi_table, k_cmi = _load_mi(args.index)
    if cfg["k_cmi"] is not None:
        k_cmi = cfg["k_cmi"]
    topics = load_topics(args.topics)
    qrels = load_qrels(args.qrels)
    p_values = [float(v) for v in str(cfg["p"]).split(",")]
    r_values = [v if v == AUTO else int(v) for v in str(cfg["r"]).split(",")]
    alpha_values = [v if v == AUTO else float(v)
                    for v in str(cfg["alpha"]).split(",")]
    report = sweep_b(index, topics, QueryType(cfg["qtype"]), tok_config, qrels,
                     p_values, r_values, alpha_values, cfg["cutoff"],
                     mi_table, k_cmi)
    text = report.format()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_segment(args) -> int:
    lines = [line.rstrip("\n") for line in sys.stdin]
    runs_per_line = [split_sentences(line) for line in lines]
    if args.stats:
        table = build_mi_table(load_documents(args.stats))
    else:
        table = build_mi_table_from_sentences(
            [run for runs in runs_per_line for run in runs]
        )
    if args.k_cmi is not None:
        k_cmi = args.k_cmi
    else:
        sample = [run for runs in runs_per_line for run in runs]
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
    path = Path(args.pairs)
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(path), line_no, f"bad JSON: {exc.msg}") from exc
            records.append(KeywordPairRecord(
                record_id=str(payload.get("id", line_no)),
                source_keywords=tuple(payload.get("source", ())),
                target_keywords=tuple(payload.get("target", ())),
            ))
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
    p_search.add_argument("--config")
    _sup(p_search, "--system", choices=["a", "b"])
    _sup(p_search, "--qtype", choices=[q.value for q in QueryType])
    _sup(p_search, "--terms", choices=sorted(TERM_STRATEGIES))
    _sup(p_search, "--k-down", dest="k_down", type=float)
    _sup(p_search, "--max-span", dest="max_span", type=int)
    _sup(p_search, "--cutoff", type=int)
    _sup(p_search, "--tag")
    _sup(p_search, "--feedback", action="store_true")
    _sup(p_search, "--kt", dest="k_t", type=float)
    _sup(p_search, "--kq", dest="k_q", type=float)
    _sup(p_search, "--knq", dest="k_nq", choices=["0", "1", RARITY_TITLE])
    _sup(p_search, "--kloc1", dest="k_loc1", type=float)
    _sup(p_search, "--kloc2", dest="k_loc2", type=float)
    _sup(p_search, "--kcat", dest="k_cat", type=float)
    _sup(p_search, "--location", action=argparse.BooleanOptionalAction)
    _sup(p_search, "--category", action=argparse.BooleanOptionalAction)
    _sup(p_search, "--length-bonus", dest="length_bonus",
         action=argparse.BooleanOptionalAction)
    _sup(p_search, "--query-rarity", dest="query_rarity",
         action=argparse.BooleanOptionalAction)
    _sup(p_search, "--kr", type=int)
    _sup(p_search, "--kaf", type=float)
    _sup(p_search, "--kp", type=float)
    _sup(p_search, "--kafw", type=float)
    _sup(p_search, "--kp-literal", dest="kp_literal", action="store_true")
    _sup(p_search, "--p", type=float)
    _sup(p_search, "--theta", type=float)
    _sup(p_search, "--R", dest="r")
    _sup(p_search, "--alpha")
    _sup(p_search, "--r-cap", dest="r_cap", type=int)
    _sup(p_search, "--translate")
    _sup(p_search, "--expand-source", dest="expand_source")
    _sup(p_search, "--expand-docs", dest="expand_docs", type=int)
    _sup(p_search, "--expand-all", dest="expand_all", action="store_true")
    _sup(p_search, "--passthrough", action="store_true")
    _sup(p_search, "--k-cmi", dest="k_cmi", type=float)
    p_search.set_defaults(func=cmd_search)

    p_sweep = sub.add_parser("sweep", help="evaluate a feedback parameter grid")
    p_sweep.add_argument("--index", required=True)
    p_sweep.add_argument("--topics", required=True)
    p_sweep.add_argument("--qrels", required=True)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--config")
    _sup(p_sweep, "--qtype", choices=[q.value for q in QueryType])
    _sup(p_sweep, "--cutoff", type=int)
    _sup(p_sweep, "--p")
    _sup(p_sweep, "--R", dest="r")
    _sup(p_sweep, "--alpha")
    _sup(p_sweep, "--k-cmi", dest="k_cmi", type=float)
    p_sweep.set_defaults(func=cmd_sweep)

    p_segment = sub.add_parser(
        "segment", help="segment sentences from stdin, one per line")
    p_segment.add_argument("--stats", help="corpus JSONL for the statistics")
    p_segment.add_argument("--ratio", type=_parse_ratio, default=RatioTarget())
    p_segment.add_argument("--k-cmi", dest="k_cmi", type=float)
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
    except (ProbirError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
