"""Shared corpus builders for the test suite.

Test modules import them from here rather than from ``conftest``, a module
name that every directory of tests may have.
"""

import hashlib
import json
import random
import string

from probir.corpus import Document, TokenizerConfig
from probir.feedback_b import PrefixBags
from probir.index import build_index
from probir.scoring import Ranking


# the rows of the ``toy_index`` and ``char_index`` fixtures
TOY_ROWS = [
    ("d1", "enterprise amalgamation", "the enterprise amalgamation was materialized", "business"),
    ("d2", "weather report", "rain and wind with enterprise mentioned", "news"),
    ("d3", "board meeting", "amalgamation plans for the enterprise board", "business"),
    ("d4", "cooking pasta", "boil water add salt", "life"),
]
CHAR_ROWS = [
    ("c1", "abcd", "abab cdcd. abcd efef"),
    ("c2", "efgh", "efef ghgh, efgh abab"),
    ("c3", "xyzw", "xyxy zwzw. xyzw abab"),
]


def make_collection(rows):
    """rows: (doc_id, title, body) or (doc_id, title, body, category)."""
    return [Document(*row) for row in rows]


def make_index(rows, mode="token", **config_kwargs):
    config = TokenizerConfig(mode=mode, **config_kwargs)
    return build_index(make_collection(rows), config)


def random_token_rows(rng: random.Random, n_docs, vocab, max_len=30,
                      categories=None):
    """Synthetic docs over a fixed vocabulary, optionally categorized."""
    rows = []
    for i in range(n_docs):
        title = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
        body = " ".join(rng.choices(vocab, k=rng.randint(1, max_len)))
        if categories:
            rows.append((f"d{i:03d}", title, body, rng.choice(categories)))
        else:
            rows.append((f"d{i:03d}", title, body))
    return rows


def random_vocab(rng: random.Random, size):
    words = set()
    while len(words) < size:
        words.add("".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 8))))
    return sorted(words)


def top_view(index, doc_ids):
    """The top-document view of a ranking of ``doc_ids``, in that order."""
    return PrefixBags(index, Ranking("q", tuple((d, 1.0) for d in doc_ids)))


def top_bag(index, doc_ids):
    """The bag of all of ``doc_ids``, from their top-document view."""
    return top_view(index, doc_ids).bag(len(doc_ids))


def write_older_version(path, version):
    """Rewrite a saved token index in the shape ``version`` wrote: each
    title and body a list of units, with postings.json beside them at
    version 1."""
    payload = json.loads((path / "documents.json").read_text(encoding="utf-8"))
    for record in payload["docs"]:
        record["title"] = record["title"].split()
        record["body"] = record["body"].split()
    data = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    (path / "documents.json").write_bytes(data)
    meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
    meta["version"] = version
    meta["checksums"]["documents.json"] = hashlib.sha256(data).hexdigest()
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n",
                                    encoding="utf-8")
    if version == 1:
        (path / "postings.json").write_text('{"terms": {}}', encoding="utf-8")
