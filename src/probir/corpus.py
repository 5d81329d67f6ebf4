"""Document/topic ingestion, tokenization, and query construction.

Documents and topics arrive as JSONL (one record per line, UTF-8) and
load through one loop into plain lists of frozen ``Document`` and ``Topic``
records in file order.  Each record is checked once, where it is built:
a bad field, or an id already seen in the file, is an error naming its
line.  Tokenization runs in one of two modes:

* ``token``     -- lowercased word tokens, content-filtered, stopword-filtered,
                   optionally stemmed.  For segmented-script collections.
* ``character`` -- the character sequence with whitespace/punctuation removed.
                   For unsegmented-script collections; no stopwords, no stemming.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from .errors import DuplicateDocIdError, ParseError

TOKEN_MODE = "token"
CHARACTER_MODE = "character"

_WORD_RE = re.compile(r"[\w']+", re.UNICODE)


def is_run_id(text: str) -> bool:
    """Whether ``text`` can be one field of a whitespace-separated run or
    qrels line: non-empty, with no whitespace."""
    return text.split() == [text]


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
        if not is_run_id(self.doc_id):
            raise ValueError(f"doc_id {self.doc_id!r} contains whitespace")
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
        if not is_run_id(self.query_id):
            raise ValueError(f"query_id {self.query_id!r} contains whitespace")
        if self.query_id.startswith("#"):  # a run line so begun is a comment
            raise ValueError(f"query_id {self.query_id!r} begins with '#'")
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
    """Small suffix-stripping rule set, applied when stemming is on."""
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


class _Memo(dict):
    """key -> ``rule(key)``, the rule run once per distinct key.  It reads
    like a plain dict, so ``map`` and ``str.translate`` can look keys up
    in it."""

    def __init__(self, rule: Callable):
        super().__init__()
        self.rule = rule

    def __missing__(self, key):
        value = self[key] = self.rule(key)
        return value


def _word_form(stopwords: frozenset[str], stemming: bool, raw: str) -> str | None:
    """The token a ``_WORD_RE`` match of lowercased text becomes, or None
    when it is dropped: apostrophes stripped, content words kept, stopwords
    (matched on the surface form) dropped, then stemmed."""
    token = raw.strip("'")
    if not token or not _is_content_word(token) or token in stopwords:
        return None
    return default_stem(token) if stemming else token


def _character_form(codepoint: int) -> str:
    """A character's entry in a ``str.translate`` table: a space when
    character mode drops it (whitespace, punctuation, separators, control
    characters), else itself."""
    ch = chr(codepoint)
    if ch.isspace() or unicodedata.category(ch)[0] in ("P", "Z", "C"):
        return " "
    return ch


def _stopword_problem(word: str, mode: str) -> str | None:
    """Why a stopword entry can never match in ``mode``, or None.  Token
    mode lowercases text, splits it into words that hold no whitespace and
    strips each word's apostrophes before the stopword check, so an entry
    with an uppercase letter, with whitespace, or that begins or ends with
    an apostrophe would leave its word in place; character mode does none
    of these."""
    if mode != TOKEN_MODE:
        return None
    if word != word.lower():
        return (f"stopword {word!r} has an uppercase letter; token mode "
                "lowercases text before the stopword check, so it would "
                f"never match (write {word.lower()!r})")
    if any(ch.isspace() for ch in word):
        return (f"stopword {word!r} holds whitespace; token mode checks one "
                "word at a time, so it would never match (list each word "
                "on its own line)")
    stripped = word.strip("'")
    if word != stripped:
        return (f"stopword {word!r} begins or ends with an apostrophe; token "
                "mode strips a word's apostrophes before the stopword check, "
                f"so it would never match (write {stripped!r})")
    return None


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenization contract shared by indexing and query processing; every
    field is stored in an index's ``tokenizer.json``.  Its rules' memos
    (see ``tokenize``) take no part in equality, hashing or ``repr``."""

    mode: str = TOKEN_MODE
    stopwords: frozenset[str] = field(default_factory=frozenset)
    stemming: bool = False
    _forms: _Memo = field(init=False, repr=False, compare=False)
    _characters: _Memo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in (TOKEN_MODE, CHARACTER_MODE):
            raise ValueError(f"unknown tokenizer mode {self.mode!r}")
        if self.mode == CHARACTER_MODE and (self.stopwords or self.stemming):
            raise ValueError("character mode applies no stopwords and no stemming")
        for word in sorted(self.stopwords):
            problem = _stopword_problem(word, self.mode)
            if problem is not None:
                raise ValueError(problem)
        object.__setattr__(self, "_forms", _Memo(
            partial(_word_form, self.stopwords, self.stemming)))
        object.__setattr__(self, "_characters", _Memo(_character_form))

    def word_forms(self, lowered: str) -> list[str | None]:
        """The token form of each word of already lowercased text, in order,
        None where a word is dropped."""
        return list(map(self._forms.__getitem__, _WORD_RE.findall(lowered)))


def tokenize(text: str, config: TokenizerConfig) -> list[str]:
    """Tokenize ``text`` under ``config``; empty input yields an empty list.

    Token mode lowercases, keeps content words, drops stopwords (matched on
    the surface form), then stems.  Character mode strips whitespace and
    punctuation and returns the remaining characters in order.

    Each rule runs once per distinct word or character: the config keeps a
    word's form (None when dropped) and a character's keep-or-drop the
    first time it meets them.  The memos live exactly as long as the
    config, and the CLI makes a new config in every command, so one
    command's set-up pays for every distinct word it reads and none that
    an earlier command read.
    """
    if not text:
        return []
    if config.mode == CHARACTER_MODE:
        return list(text.translate(config._characters).replace(" ", ""))
    # a form is never empty, so falsy means dropped
    return list(filter(None, config.word_forms(text.lower())))


def split_sentences(text: str, config: TokenizerConfig) -> list[str]:
    """Split text into runs of the characters ``tokenize`` keeps in
    character mode, deciding each distinct character once in ``config``.

    Boundaries fall at punctuation, whitespace, and control characters, so no
    adjacent-character pair ever spans a visible separator.
    """
    # every dropped character becomes a space, and no kept one is whitespace
    return text.translate(config._characters).split()


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


def _text(path, line_no: int, record: dict, key: str, absent: str | None
          ) -> str | None:
    """A record's optional text field: its string, or ``absent`` when it is
    absent or null; any other value is refused, naming the line."""
    value = record.get(key)
    if value is not None and not isinstance(value, str):
        raise ParseError(path, line_no, f"{key} must be a string or null")
    return absent if value is None else value


def _id(path, line_no: int, record: dict, key: str) -> str:
    """A record's id: a string as it is, or an integer's digits; a missing
    id or one of any other type is refused, naming the line."""
    if key not in record:
        raise ParseError(path, line_no, f"missing field {key!r}")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError(path, line_no, f"{key} must be a string or an integer")
    return str(value)


def _load_records(path, kind: Callable, id_key: str,
                  texts: dict[str, str | None]) -> list:
    """``kind(id, *texts)`` of every record of a JSONL file, in file order;
    ``texts`` maps each text field to its value when absent or null.  The
    record's ValueError becomes a ParseError naming the line, and a
    repeated id a DuplicateDocIdError naming the line."""
    items = {}
    for line_no, record in _read_jsonl(path):
        item_id = _id(path, line_no, record, id_key)
        try:
            item = kind(item_id, *(_text(path, line_no, record, key, absent)
                                   for key, absent in texts.items()))
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        if item_id in items:
            raise DuplicateDocIdError(path, line_no,
                                      f"duplicate {id_key} {item_id!r}")
        items[item_id] = item
    return list(items.values())


def load_documents(path) -> list[Document]:
    """Load a JSONL document file in file order."""
    return _load_records(path, Document, "doc_id",
                         {"title": "", "body": "", "category": None})


def load_topics(path) -> list[Topic]:
    """Load a JSONL topic file in file order."""
    return _load_records(path, Topic, "query_id", dict.fromkeys(
        ("title", "description", "narrative", "concepts", "field"), ""))


def load_stopwords(path, mode: str) -> frozenset[str]:
    """Stopword file: UTF-8 plain text, one token per line, blank lines
    ignored.  An entry that can never match in ``mode`` (see
    ``_stopword_problem``) is an error naming its line."""
    words = set()
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            word = line.strip()
            if not word:
                continue
            problem = _stopword_problem(word, mode)
            if problem is not None:
                raise ParseError(path, line_no, problem)
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
