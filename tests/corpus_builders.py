"""Shared corpus builders for the test suite.

Test modules import them from here rather than from ``conftest``, a module
name that every directory of tests may have.
"""

import random
import string

from probir.corpus import Document, DocumentCollection, TokenizerConfig
from probir.feedback_b import PrefixBags
from probir.index import build_index
from probir.scoring import Ranking


def make_collection(rows):
    """rows: (doc_id, title, body) or (doc_id, title, body, category)."""
    docs = []
    for row in rows:
        doc_id, title, body = row[:3]
        category = row[3] if len(row) > 3 else None
        docs.append(Document(doc_id, title, body, category))
    return DocumentCollection(docs)


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
