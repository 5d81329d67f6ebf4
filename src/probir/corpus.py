"""Document/topic ingestion, tokenization, and query construction.

Documents and topics arrive as JSONL (one record per line, UTF-8).
Tokenization runs in one of two modes:

* ``token``     -- lowercased word tokens, content-filtered, stopword-filtered,
                   optionally stemmed.  For segmented-script collections.
* ``character`` -- the character sequence with whitespace/punctuation removed.
                   For unsegmented-script collections; the stopword list then
                   applies to extracted *terms*, never to single characters.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .errors import DuplicateDocIdError, ParseError

TOKEN_MODE = "token"
CHARACTER_MODE = "character"

_WORD_RE = re.compile(r"[\w']+", re.UNICODE)


@dataclass(frozen=True)
class Document:
    """One retrievable unit: an id, a title, a body, optional metadata."""

    doc_id: str
    title: str
    body: str
    category: str | None = None

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")
        if not (self.title or self.body):
            raise ValueError(f"document {self.doc_id!r}: title and body are both empty")


@dataclass(frozen=True)
class Topic:
    """A search topic with typed parts; ``field`` is carried but never searched."""

    query_id: str
    title: str
    description: str = ""
    narrative: str = ""
    concepts: str = ""
    field: str = ""

    def __post_init__(self):
        if not self.query_id:
            raise ValueError("query_id must be non-empty")
        if not self.title:
            raise ValueError(f"topic {self.query_id!r}: title is empty")


class QueryType(str, Enum):
    """Which topic parts feed retrieval."""

    VERY_SHORT = "very_short"  # title only
    SHORT = "short"            # description only
    LONG = "long"              # every part except `field`


def _is_content_word(token: str) -> bool:
    """Default content filter: drop tokens with no letter (numbers, punctuation)."""
    return any(ch.isalpha() for ch in token)


def default_stem(token: str) -> str:
    """Small suffix-stripping rule set; replaceable via TokenizerConfig.stemmer."""
    if len(token) > 4 and token.endswith("sses"):
        return token[:-2]
    if len(token) > 3 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 5 and token.endswith("ing"):
        return token[:-3]
    if len(token) > 4 and token.endswith("ed"):
        return token[:-2]
    if (
        len(token) > 3
        and token.endswith("s")
        and not token.endswith(("ss", "us", "is"))
    ):
        return token[:-1]
    return token


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenization contract shared by indexing and query processing.

    ``stemmer`` may be a callable or a plain lookup table; it is consulted only
    when ``stemming`` is on.  ``keep_token`` decides which word tokens are
    content words (token mode only).
    """

    mode: str = TOKEN_MODE
    stopwords: frozenset[str] = field(default_factory=frozenset)
    stemming: bool = False
    stemmer: Callable[[str], str] | Mapping[str, str] | None = None
    keep_token: Callable[[str], bool] | None = None

    def __post_init__(self):
        if self.mode not in (TOKEN_MODE, CHARACTER_MODE):
            raise ValueError(f"unknown tokenizer mode {self.mode!r}")

    def stem(self, token: str) -> str:
        if not self.stemming:
            return token
        if self.stemmer is None:
            return default_stem(token)
        if callable(self.stemmer):
            return self.stemmer(token)
        return self.stemmer.get(token, token)

    def is_stopword(self, term: str) -> bool:
        return term in self.stopwords


def _keep_character(ch: str) -> bool:
    if ch.isspace():
        return False
    return unicodedata.category(ch)[0] not in ("P", "Z", "C")


def tokenize(text: str, config: TokenizerConfig) -> list[str]:
    """Tokenize ``text`` under ``config``; empty input yields an empty list.

    Token mode lowercases, keeps content words, drops stopwords (matched on
    the surface form), then stems.  Character mode strips whitespace and
    punctuation and returns the remaining characters in order.
    """
    if not text:
        return []
    if config.mode == CHARACTER_MODE:
        return [ch for ch in text if _keep_character(ch)]
    keep = config.keep_token or _is_content_word
    out = []
    for raw in _WORD_RE.findall(text.lower()):
        token = raw.strip("'")
        if not token or not keep(token):
            continue
        if config.is_stopword(token):
            continue
        out.append(config.stem(token))
    return out


def split_sentences(text: str) -> list[str]:
    """Split text into runs of content characters.

    Boundaries fall at punctuation, whitespace, and control characters, so no
    adjacent-character pair ever spans a visible separator.
    """
    runs: list[str] = []
    current: list[str] = []
    for ch in text:
        if _keep_character(ch):
            current.append(ch)
        elif current:
            runs.append("".join(current))
            current = []
    if current:
        runs.append("".join(current))
    return runs


class DocumentCollection:
    """Documents in file order with unique ids."""

    def __init__(self, documents: Iterable[Document] = ()):
        self._docs: list[Document] = []
        self._by_id: dict[str, Document] = {}
        for doc in documents:
            self.add(doc)

    def add(self, doc: Document):
        if doc.doc_id in self._by_id:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        self._docs.append(doc)
        self._by_id[doc.doc_id] = doc

    def __len__(self):
        return len(self._docs)

    def __iter__(self):
        return iter(self._docs)

    def __getitem__(self, doc_id: str) -> Document:
        return self._by_id[doc_id]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id


def _read_jsonl(path) -> Iterable[tuple[int, dict]]:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise ParseError(path, line_no, "record is not an object")
            yield line_no, record


def load_documents(path) -> DocumentCollection:
    """Load a JSONL document file; duplicate doc_ids are rejected by line."""
    collection = DocumentCollection()
    for line_no, record in _read_jsonl(path):
        try:
            doc = Document(
                doc_id=str(record["doc_id"]),
                title=str(record.get("title", "") or ""),
                body=str(record.get("body", "") or ""),
                category=record.get("category"),
            )
        except KeyError as exc:
            raise ParseError(path, line_no, f"missing field {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        if doc.doc_id in collection:
            raise DuplicateDocIdError(path, line_no, f"duplicate doc_id {doc.doc_id!r}")
        collection.add(doc)
    return collection


def load_topics(path) -> list[Topic]:
    """Load a JSONL topic file in file order."""
    topics = []
    seen = set()
    for line_no, record in _read_jsonl(path):
        try:
            topic = Topic(
                query_id=str(record["query_id"]),
                title=str(record.get("title", "") or ""),
                description=str(record.get("description", "") or ""),
                narrative=str(record.get("narrative", "") or ""),
                concepts=str(record.get("concepts", "") or ""),
                field=str(record.get("field", "") or ""),
            )
        except KeyError as exc:
            raise ParseError(path, line_no, f"missing field {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        if topic.query_id in seen:
            raise DuplicateDocIdError(
                path, line_no, f"duplicate query_id {topic.query_id!r}"
            )
        seen.add(topic.query_id)
        topics.append(topic)
    return topics


def load_stopwords(path) -> frozenset[str]:
    """Stopword file: UTF-8 plain text, one token per line, blank lines ignored."""
    words = set()
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if word:
                words.add(word)
    return frozenset(words)


def selected_parts(topic: Topic, qtype: QueryType) -> list[str]:
    if qtype == QueryType.VERY_SHORT:
        parts = [topic.title]
    elif qtype == QueryType.SHORT:
        parts = [topic.description]
    else:
        parts = [topic.title, topic.description, topic.narrative, topic.concepts]
    return [p for p in parts if p and p.strip()]
