"""Seeded input generators: token and character corpora, topics, graded
qrels, a target-language twin of the token corpus and its keyword pairs.

Every generator draws from its own ``random.Random`` seeded with a string
made of the generator name and the seed, so one seed gives byte-identical
files and generators do not disturb each other's streams.  The vocabularies,
the character lexicon and the topic statements are the same for every seed;
the seed draws the documents, judgments and keyword pairs.  A query's words
decide most of its cost (a character query holding one very frequent
character costs up to eight times the cheapest), so with 24 or 40 topics a
seed that drew other queries would change the work in a run by up to a
tenth; with the queries fixed, seeds differ by a few per cent.

Relevance is planted with noise so that ranking quality sits well inside
(0, 1): relevant documents use the topic's whole word set while the query
shows only part of it, some relevant documents are thin on topic words, and
judged non-relevant distractors carry query words too.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

CONSONANTS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"


# Token corpus.  Planted documents per topic, as (min, max) counts of
# grade 2, grade 1 and judged distractors.
TOKEN_CATEGORIES = 10
TOKEN_TOPIC_WORDS = 10
TOKEN_QUERY_TOPIC_WORDS = 4
TOKEN_QUERY_NOISE_WORDS = 2
TOKEN_BODY_LEN = (50, 110)
TOKEN_TITLE_LEN = (4, 7)
TOKEN_PLANTED = ((2, 4), (3, 6), (3, 6))

# Character corpus.
CHAR_N_DOCS = 180
CHAR_N_THEMES = 24
CHAR_QUERIES_PER_THEME = 3
CHAR_CODE_POINTS = 600
CHAR_COMMON_CHARS = 60
CHAR_COMMON_WORDS = 200
CHAR_LEXICON = 2500
CHAR_CATEGORIES = 6
CHAR_TOPIC_WORDS = 8
CHAR_QUERY_TOPIC_WORDS = 4
CHAR_BODY_SENTENCES = (2, 3)
CHAR_SENTENCE_WORDS = (3, 7)
CHAR_PLANTED = ((2, 2), (2, 2), (2, 2))


class Zipf:
    """Draws items with probability proportional to 1 / rank."""

    def __init__(self, items):
        self.items = list(items)
        self.cum = list(itertools.accumulate(
            1.0 / rank for rank in range(1, len(self.items) + 1)))

    def draw(self, rng: random.Random) -> str:
        x = rng.random() * self.cum[-1]
        return self.items[bisect.bisect_right(self.cum, x)]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def make_words(rng: random.Random, n: int, prefix="") -> list[str]:
    """n distinct pronounceable lowercase words of two to four syllables, in
    random order."""
    words: set[str] = set()
    while len(words) < n:
        k = rng.randint(2, 4)
        words.add(prefix + "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS)
                                   for _ in range(k)))
    out = sorted(words)
    rng.shuffle(out)
    return out


def write_jsonl(path: Path, records) -> None:
    text = "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n"
                   for r in records)
    path.write_bytes(text.encode("utf-8"))


def write_qrels(path: Path, qrels: dict[str, dict[str, int]]) -> None:
    lines = [f"{qid} 0 {doc_id} {grade}\n"
             for qid in sorted(qrels) for doc_id, grade in sorted(qrels[qid].items())]
    path.write_text("".join(lines), encoding="utf-8")


def _plan_documents(rng: random.Random, n_docs: int, n_topics: int,
                    planted) -> list[tuple[str, int | None]]:
    """(kind, topic) for each document in file order; kind is "rel2",
    "rel1", "distract" or "bg" (background, topic None)."""
    kinds: list[tuple[str, int | None]] = []
    for t in range(n_topics):
        for kind, counts in zip(("rel2", "rel1", "distract"), planted):
            kinds += [(kind, t)] * rng.randint(*counts)
    if len(kinds) > n_docs:
        raise ValueError(f"{n_docs} documents cannot hold {len(kinds)} planted ones")
    kinds += [("bg", None)] * (n_docs - len(kinds))
    rng.shuffle(kinds)
    return kinds


def _topic_share(kind: str, rng: random.Random) -> float:
    """Fraction of body words drawn from the topic's word set."""
    if kind == "rel2":
        return rng.uniform(0.10, 0.18)
    if kind == "rel1":
        return rng.uniform(0.03, 0.08)
    if kind == "distract":
        return rng.uniform(0.03, 0.07)
    return 0.0


def _grade(kind: str) -> int | None:
    return {"rel2": 2, "rel1": 1, "distract": 0}.get(kind)


def _category(rng: random.Random, kind: str, t: int | None, topic_cat, categories) -> str:
    """Planted documents mostly carry their topic's category."""
    if t is not None and rng.random() < {"rel2": 0.8, "rel1": 0.6}.get(kind, 0.3):
        return topic_cat[t]
    return rng.choice(categories)


# -- token corpus ----------------------------------------------------------------


@dataclass
class TokenCorpus:
    docs: list[dict]
    topics: list[dict]
    qrels: dict[str, dict[str, int]]
    vocab: list[str]


def token_corpus(seed: int, n_docs: int = 800, n_topics: int = 40,
                 vocab_size: int = 4000) -> TokenCorpus:
    vocab = make_words(_rng("token-vocabulary", 0), vocab_size)
    rng = _rng("token", seed)
    background = Zipf(vocab)
    categories = [f"cat{i:02d}" for i in range(TOKEN_CATEGORIES)]
    # Topic words come from the middle of the frequency ranks: frequent enough
    # to recur, rare enough to carry weight.  Topics share no topic word.
    band = vocab[150:150 + n_topics * TOKEN_TOPIC_WORDS]
    topic_words = [band[i * TOKEN_TOPIC_WORDS:(i + 1) * TOKEN_TOPIC_WORDS]
                   for i in range(n_topics)]
    topic_cat = [rng.choice(categories) for _ in range(n_topics)]

    plan = _plan_documents(rng, n_docs, n_topics, TOKEN_PLANTED)
    docs = []
    qrels: dict[str, dict[str, int]] = {}
    for i, (kind, t) in enumerate(plan):
        doc_id = f"D{i:05d}"
        share = _topic_share(kind, rng)
        words = topic_words[t] if t is not None else ()
        if kind == "distract":
            # A distractor repeats a few topic words only.
            words = rng.sample(words, 3)

        def draw():
            if words and rng.random() < share:
                return rng.choice(words)
            return background.draw(rng)

        body = [draw() for _ in range(rng.randint(*TOKEN_BODY_LEN))]
        title = [background.draw(rng) for _ in range(rng.randint(*TOKEN_TITLE_LEN))]
        if kind == "rel2":
            title[:2] = rng.sample(words, 2)
        elif kind == "rel1" and rng.random() < 0.5:
            title[0] = rng.choice(words)
        category = _category(rng, kind, t, topic_cat, categories)
        docs.append({"doc_id": doc_id, "title": " ".join(title),
                     "body": _sentences(rng, body), "category": category})
        grade = _grade(kind)
        if grade is not None:
            qrels.setdefault(f"Q{t:03d}", {})[doc_id] = grade

    topics = []
    rng = _rng("token-topics", 0)
    for t in range(n_topics):
        shown = rng.sample(topic_words[t], TOKEN_QUERY_TOPIC_WORDS)
        noise = [vocab[rng.randrange(50, 1500)] for _ in range(TOKEN_QUERY_NOISE_WORDS)]
        description = shown + noise
        rng.shuffle(description)
        topics.append({"query_id": f"Q{t:03d}", "title": " ".join(shown[:2]),
                       "description": " ".join(description) + "."})
    return TokenCorpus(docs, topics, qrels, vocab)


def _sentences(rng: random.Random, words: list[str]) -> str:
    """Join words into sentences of 6..14 words, ending each with a full stop."""
    out = []
    i = 0
    while i < len(words):
        n = rng.randint(6, 14)
        out.append(" ".join(words[i:i + n]) + ".")
        i += n
    return " ".join(out)


# -- cross-lingual twin ------------------------------------------------------------


@dataclass
class ClirInputs:
    docs: list[dict]
    pairs: list[dict]


def clir_twin(seed: int, corpus: TokenCorpus) -> ClirInputs:
    """Target-language twin of a token corpus with the same doc ids, plus
    keyword-pair records from which build-dict recovers the word mapping.

    Each source word has one target word.  Documents are translated word by
    word, but one word in ten is replaced by a random target word, and one
    source word in eight never appears in a keyword pair, so the dictionary
    leaves it untranslated and expansion has something to recover.
    """
    vocab = corpus.vocab
    targets = make_words(_rng("clir-vocabulary", 0), len(vocab), prefix="x")
    rng = _rng("clir", seed)
    mapping = dict(zip(vocab, targets))

    def tr(text: str) -> str:
        out = []
        for sentence in text.split("."):
            words = sentence.split()
            if words:
                out.append(" ".join(mapping[w] if rng.random() >= 0.1
                                    else rng.choice(targets) for w in words) + ".")
        return " ".join(out)

    docs = [{"doc_id": d["doc_id"], "title": tr(d["title"]).rstrip("."),
             "body": tr(d["body"]), "category": d["category"]} for d in corpus.docs]

    known = [w for w in vocab if rng.random() >= 0.125]
    pairs = []
    # Every known word shows up in three records of three words each, so its
    # own target co-occurs three times and any other target at most twice.
    for rep in range(3):
        order = known[:]
        rng.shuffle(order)
        for i in range(0, len(order), 3):
            group = order[i:i + 3]
            pairs.append({"id": f"R{rep}-{i // 3:05d}", "source": group,
                          "target": [mapping[w] for w in group]})
    return ClirInputs(docs, pairs)


# -- character corpus --------------------------------------------------------------


@dataclass
class CharCorpus:
    docs: list[dict]
    topics: list[dict]
    qrels: dict[str, dict[str, int]]


CJK_BASE = 0x4E00
CJK_SPAN = 0x9FA5 - 0x4E00


def char_corpus(seed: int) -> CharCorpus:
    """CJK corpus written with a seeded lexicon of one- to four-character
    words; sentences are unsegmented runs ended by full-width punctuation."""
    rng = _rng("char-lexicon", 0)
    chars = [chr(CJK_BASE + k) for k in rng.sample(range(CJK_SPAN), CHAR_CODE_POINTS)]
    # Like function characters in real text, the most frequent words are
    # written with a small character set of their own, so a query's content
    # characters are never among the most frequent ones.
    common_chars, content_chars = chars[:CHAR_COMMON_CHARS], chars[CHAR_COMMON_CHARS:]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < CHAR_LEXICON:
        common = len(words) < CHAR_COMMON_WORDS
        pool = common_chars if common else content_chars
        weights = (30, 70, 0, 0) if common else (10, 55, 25, 10)
        length = rng.choices((1, 2, 3, 4), weights=weights)[0]
        word = "".join(rng.choice(pool) for _ in range(length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    background = Zipf(words)
    rng = _rng("char", seed)
    common_pairs = [w for w in words[:CHAR_COMMON_WORDS] if len(w) == 2]
    multi = [w for w in words[CHAR_COMMON_WORDS + 100:] if len(w) == 2]
    topic_words = [multi[i * CHAR_TOPIC_WORDS:(i + 1) * CHAR_TOPIC_WORDS]
                   for i in range(CHAR_N_THEMES)]
    categories = [f"cat{i:02d}" for i in range(CHAR_CATEGORIES)]
    topic_cat = [rng.choice(categories) for _ in range(CHAR_N_THEMES)]

    plan = _plan_documents(rng, CHAR_N_DOCS, CHAR_N_THEMES, CHAR_PLANTED)
    docs = []
    qrels: dict[str, dict[str, int]] = {}
    for i, (kind, t) in enumerate(plan):
        doc_id = f"C{i:05d}"
        share = _topic_share(kind, rng) * 2  # CJK sentences are shorter
        pool = topic_words[t] if t is not None else ()
        if kind == "distract":
            pool = rng.sample(pool, 3)

        def draw():
            if pool and rng.random() < share:
                return rng.choice(pool)
            return background.draw(rng)

        def sentence(n):
            return "".join(draw() for _ in range(n))

        title = sentence(rng.randint(2, 4))
        if kind == "rel2":
            title = rng.choice(pool) + title
        body = "".join(
            sentence(rng.randint(*CHAR_SENTENCE_WORDS)) + rng.choice("，。")
            for _ in range(rng.randint(*CHAR_BODY_SENTENCES)))
        category = _category(rng, kind, t, topic_cat, categories)
        docs.append({"doc_id": doc_id, "title": title, "body": body,
                     "category": category})
        grade = _grade(kind)
        if grade is not None:
            for v in range(CHAR_QUERIES_PER_THEME):
                qrels.setdefault(f"K{t:03d}{'abc'[v]}", {})[doc_id] = grade

    topics = []
    rng = _rng("char-topics", 0)
    for t in range(CHAR_N_THEMES):
        for v in range(CHAR_QUERIES_PER_THEME):
            shown = rng.sample(topic_words[t], CHAR_QUERY_TOPIC_WORDS)
            noise = [rng.choice(common_pairs[20:40])]
            description = shown + noise
            rng.shuffle(description)
            topics.append({"query_id": f"K{t:03d}{'abc'[v]}", "title": shown[0],
                           "description": "".join(description) + "。"})
    return CharCorpus(docs, topics, qrels)


# -- files ---------------------------------------------------------------------------


TOKEN_FILES = ("tok_docs.jsonl", "tok_topics.jsonl", "tok_qrels.txt")
CHAR_FILES = ("char_docs.jsonl", "char_topics.jsonl", "char_qrels.txt")
CLIR_FILES = ("clir_docs.jsonl", "clir_pairs.jsonl")


def write_inputs(workload: str, seed: int, out: Path) -> list[str]:
    """Write the files a workload needs into ``out``; returns their names."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "char-a":
        corpus = char_corpus(seed)
        write_jsonl(out / CHAR_FILES[0], corpus.docs)
        write_jsonl(out / CHAR_FILES[1], corpus.topics)
        write_qrels(out / CHAR_FILES[2], corpus.qrels)
        return list(CHAR_FILES)
    corpus = token_corpus(seed)
    write_jsonl(out / TOKEN_FILES[0], corpus.docs)
    write_jsonl(out / TOKEN_FILES[1], corpus.topics)
    write_qrels(out / TOKEN_FILES[2], corpus.qrels)
    if workload != "clir-b":
        return list(TOKEN_FILES)
    twin = clir_twin(seed, corpus)
    write_jsonl(out / CLIR_FILES[0], twin.docs)
    write_jsonl(out / CLIR_FILES[1], twin.pairs)
    return list(TOKEN_FILES + CLIR_FILES)
