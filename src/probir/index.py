"""Searchable statistics store over a document collection.

One layout serves both tokenizer modes.  Every document keeps its analysed
title and body *streams*: a tuple of word tokens in token mode, a string of
characters in character mode.  A *unit* is one element of a stream.  A
*term* is a run of consecutive units ("enterprise amalgamation" is two
token units, "東京" two character units).  One term → doc → tf table, the
postings, is the index's only count table, and every tf is read from it:
no document keeps a bag (``doc_terms`` counts one for
``feedback_b.PrefixBags``).

Occurrences are counted non-overlapping, in the title and the body
separately (a match never spans the two), and body positions are 1-based.

A document's length is its count of units, title and body together.  The
index keeps every length in one doc_id -> length map, ``lengths``, built
once with the index, in collection order: ``doc_len`` and ``total_len``
read it, System B's ranking reads it once per posting, and System A's
tables read it once per run.  What a scorer derives from a length with its
own parameters (System A's k_t norm, the length bonus) stays with the
scorer's run.

``postings`` gives a term's doc -> tf, so that a scorer walks the documents
a term occurs in rather than asking about every (term, document) pair;
``doc_tf`` and ``term_stats`` read the same map.  The units' postings are
counted from the streams in one pass: ``load_index`` counts them before it
returns, so no search pays for them inside a topic, and an index from
``build_index`` counts them on its first lookup, so ``probir index`` counts
nothing it does not write.  A term of several units is counted once, on
first use, by scanning the streams of the documents that hold all of its
units, and joins the table.  The table holds counts only.

No document keeps first positions, since only System A's location factor
reads them, and the posting table keeps none either.  ``first_position``
scans a document's streams; ``first_position_maps`` builds every
document's unit -> first position map in one pass, for the
``SystemATables`` of a run with location on, which scans with
``first_position`` for a longer term.  No unit is empty or holds
whitespace (``load_index`` refuses one), so no unit equals a longer term.

An Index does not change once built, apart from what it counts on first
use, and is safe to share across readers: a table or map is stored only
once complete, and counting it twice gives the same result.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import (
    CHARACTER_MODE,
    TOKEN_MODE,
    DocumentCollection,
    TokenizerConfig,
    is_run_id,
    tokenize,
)
from .errors import DocumentNotFoundError, EmptyCollectionError, IndexLoadError

FORMAT_NAME = "probir-index"
FORMAT_VERSION = 2
DOCUMENTS_FILE = "documents.json"

# Sentinel returned by first_position for a term that occurs in the title.
IN_TITLE = "title"

TERM_SEP = " "  # joins multi-word terms in token mode


@dataclass(frozen=True)
class TermStats:
    """Document frequency and total occurrence count of one term."""

    df: int
    collection_tf: int


def count_nonoverlapping(starts: Iterable[int], width: int) -> int:
    """Greedy left-to-right count of non-overlapping matches from sorted starts."""
    count = 0
    next_free = 0
    for p in starts:
        if p >= next_free:
            count += 1
            next_free = p + width
    return count


def _sequence_starts(haystack: Sequence[str], needle: Sequence[str]
                     ) -> Iterator[int]:
    """1-based start positions of a unit run inside a stream (a tuple of
    tokens or a string of characters), in order and lazily: a reader that
    wants the first stops the scan there."""
    n, m = len(haystack), len(needle)
    if m == 0 or m > n:
        return
    first = needle[0]
    stop = n - m + 1  # one past the last start that fits
    i = -1
    while True:
        try:
            i = haystack.index(first, i + 1, stop)
        except ValueError:
            return
        if haystack[i : i + m] == needle:
            yield i + 1


class _Doc:
    """One document's streams and category.  It keeps no counts, which the
    index's postings hold, no length, which the index's length map holds,
    and no first positions, which ``first_position_maps`` builds for a run
    that reads them."""

    __slots__ = ("title", "body", "category")

    def __init__(self, title, body, category):
        self.title = title
        self.body = body
        self.category = category


class Index:
    """Statistics store that does not change once built; see the module
    docstring.

    Use :func:`build_index`, :func:`load_index` to obtain one.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self._docs: dict[str, _Doc] = {}  # in collection order
        # term -> {doc_id: tf}: the units, then each longer term counted
        self._postings: dict[str, dict[str, int]] | None = None
        # doc_id -> length (title + body units), in collection order
        self.lengths: dict[str, int] = {}
        self.n_docs = 0
        self.total_len = 0
        self.avg_len = 0.0
        self._category_counts: Counter = Counter()
        # built on first use and kept
        self._term_stats: dict[str, TermStats] = {}

    # -- construction ----------------------------------------------------

    def _stream(self, units: Iterable[str]) -> tuple[str, ...] | str:
        """A field's stream: a string of characters, or a tuple of tokens."""
        return "".join(units) if self.mode == CHARACTER_MODE else tuple(units)

    def _add_doc(self, doc_id, title, body, category):
        self._docs[doc_id] = _Doc(self._stream(title), self._stream(body),
                                  category)

    def _count_postings(self) -> dict[str, dict[str, int]]:
        """Count the units' postings from the streams in one pass and keep
        them.  Each unit's map lists its documents in collection order, and
        the units come in order of first occurrence; a longer term joins the
        table later (``postings``).  Raises TypeError naming the document
        whose stream holds a unit that is not a string, and ValueError
        naming the one whose stream holds a unit that is empty or holds
        whitespace."""
        table: dict[str, dict[str, int]] = {}
        get = table.get
        for doc_id, entry in self._docs.items():
            try:
                for stream in (entry.title, entry.body):
                    for unit in stream:
                        posting = get(unit)
                        if posting is None:
                            # checked once per distinct unit: an unhashable
                            # unit fails at get, and no other type equals a str
                            if type(unit) is not str:
                                raise TypeError
                            if unit.split() != [unit]:
                                raise ValueError(
                                    f"document {doc_id!r}: unit {unit!r} is "
                                    "empty or holds whitespace")
                            table[unit] = {doc_id: 1}
                        else:
                            posting[doc_id] = posting.get(doc_id, 0) + 1
            except TypeError:
                raise TypeError(f"document {doc_id!r}: a token is not a "
                                "string") from None
        self._postings = table  # stored only once complete
        return table

    def _table(self) -> dict[str, dict[str, int]]:
        table = self._postings
        return self._count_postings() if table is None else table

    def _finalize(self):
        self.n_docs = len(self._docs)
        self.lengths = {doc_id: len(entry.title) + len(entry.body)
                        for doc_id, entry in self._docs.items()}
        self.total_len = sum(self.lengths.values())
        self.avg_len = self.total_len / self.n_docs if self.n_docs else 0.0
        self._category_counts = Counter(
            e.category for e in self._docs.values() if e.category is not None
        )

    # -- lookups ----------------------------------------------------------

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def __len__(self) -> int:
        return self.n_docs

    def _entry(self, doc_id):
        try:
            return self._docs[doc_id]
        except KeyError:
            raise DocumentNotFoundError(f"unknown doc_id {doc_id!r}") from None

    def doc_len(self, doc_id: str) -> int:
        self._entry(doc_id)
        return self.lengths[doc_id]

    def doc_category(self, doc_id: str) -> str | None:
        return self._entry(doc_id).category

    def doc_terms(self, doc_id: str) -> Counter:
        """Unit bag of one document (token or character counts), in
        first-occurrence order, title then body; counted on each call."""
        entry = self._entry(doc_id)
        return Counter(entry.title + entry.body)

    def doc_text(self, doc_id: str) -> tuple[str, str]:
        """Filtered (title, body) character streams; character mode only."""
        if self.mode != CHARACTER_MODE:
            raise ValueError("doc_text is only available on character-mode indexes")
        entry = self._entry(doc_id)
        return entry.title, entry.body

    def category_counts(self) -> Mapping[str, int]:
        return self._category_counts

    # -- term statistics --------------------------------------------------

    def _units(self, term: str) -> tuple[str, ...] | str:
        """The units of a term, comparable with a slice of a stream."""
        return term if self.mode == CHARACTER_MODE else tuple(term.split(TERM_SEP))

    def doc_tf(self, doc_id: str, term: str) -> int:
        """Occurrences of ``term`` in one document (title + body), read from
        the posting table, which ``postings`` adds a longer term to.

        A posting holds known documents only, so the doc id is checked
        (DocumentNotFoundError) only where the read misses, and before a
        longer term is counted."""
        # the table is read inline, not through _table: this runs once
        # per posting of a ranking pass
        table = self._postings
        if table is None:
            table = self._count_postings()
        posting = table.get(term)
        if posting is None:
            self._entry(doc_id)
            return self.postings(term).get(doc_id, 0)
        tf = posting.get(doc_id)
        if tf is None:
            self._entry(doc_id)
            return 0
        return tf

    def postings(self, term: str) -> Mapping[str, int]:
        """doc_id -> tf of every document the term occurs in; empty for an
        unseen term.  The posting table's map is taken first; a longer
        term absent from it is counted once, over the documents that hold
        every one of its units, and its map joins the table.  Callers must
        not mutate it."""
        table = self._table()
        posting = table.get(term)
        if posting is not None:
            return posting
        units = self._units(term)
        width = len(units)
        if width < 2:  # a single unit no document holds, or the empty term
            return {}
        posting = {}
        maps = [table.get(unit) for unit in set(units)]
        if None not in maps:
            maps.sort(key=len)
            docs = set(maps[0])
            for m in maps[1:]:
                docs &= m.keys()
            for doc_id in docs:
                entry = self._docs[doc_id]
                title_starts = _sequence_starts(entry.title, units)
                body_starts = _sequence_starts(entry.body, units)
                tf = (count_nonoverlapping(title_starts, width)
                      + count_nonoverlapping(body_starts, width))
                if tf:
                    posting[doc_id] = tf
        table[term] = posting  # stored only once complete
        return posting

    def term_stats(self, term: str) -> TermStats:
        """df and collection frequency, from ``postings``; unseen terms
        yield (0, 0).  Computed once per term."""
        stats = self._term_stats.get(term)
        if stats is None:
            posting = self.postings(term)
            stats = self._term_stats[term] = TermStats(len(posting),
                                                       sum(posting.values()))
        return stats

    def df(self, term: str) -> int:
        return self.term_stats(term).df

    def first_position(self, doc_id: str, term: str):
        """IN_TITLE if the term appears in the title, else the first body
        position (1-based), else None.  It scans the document's streams up
        to the first start only, and is the one place a longer term's first
        position comes from; a unit's is also in ``first_position_maps``."""
        entry = self._entry(doc_id)
        units = self._units(term)
        if next(_sequence_starts(entry.title, units), None) is not None:
            return IN_TITLE
        return next(_sequence_starts(entry.body, units), None)

    def first_position_maps(self) -> dict[str, dict]:
        """doc_id -> {unit: its ``first_position`` in the document}, for
        every document: built on each call, for the run that reads them
        (``SystemATables`` with location on)."""
        maps = {}
        for doc_id, entry in self._docs.items():
            # the earliest body write wins, and the title's writes come last
            first = maps[doc_id] = dict(zip(reversed(entry.body),
                                            range(len(entry.body), 0, -1)))
            first.update(dict.fromkeys(entry.title, IN_TITLE))
        return maps

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Write the index as a directory: meta.json + documents.json.

        documents.json holds every document's streams; the postings are
        counted from them on load.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        docs = [
            {"doc_id": doc_id, "category": entry.category,
             "title": entry.title, "body": entry.body}
            for doc_id, entry in self._docs.items()
        ]
        data = json.dumps({"docs": docs}, sort_keys=True,
                          ensure_ascii=False).encode("utf-8")
        (path / DOCUMENTS_FILE).write_bytes(data)
        meta = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "mode": self.mode,
            "n_docs": self.n_docs,
            "avg_len": self.avg_len,
            "checksums": {DOCUMENTS_FILE: hashlib.sha256(data).hexdigest()},
        }
        (path / "meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


def build_index(collection: DocumentCollection, config: TokenizerConfig) -> Index:
    """Index every document in the collection under the config's mode.  The
    postings are counted on the index's first lookup."""
    if len(collection) == 0:
        raise EmptyCollectionError("cannot index an empty collection")
    index = Index(config.mode)
    for doc in collection:
        index._add_doc(doc.doc_id, tokenize(doc.title, config),
                       tokenize(doc.body, config), doc.category)
    index._finalize()
    return index


def _load_json(path: Path, name: str, expected_checksum: str | None):
    file_path = path / name
    if not file_path.exists():
        raise IndexLoadError(f"{file_path}: missing index file")
    data = file_path.read_bytes()
    if expected_checksum is not None:
        digest = hashlib.sha256(data).hexdigest()
        if digest != expected_checksum:
            raise IndexLoadError(f"{file_path}: checksum mismatch (corrupted file)")
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexLoadError(f"{file_path}: unreadable JSON ({exc})") from exc


def _load_meta(path: Path, expected_mode: str | None) -> dict:
    meta = _load_json(path, "meta.json", None)
    if not isinstance(meta, dict) or meta.get("format") != FORMAT_NAME:
        raise IndexLoadError(f"{path}: not a {FORMAT_NAME} directory")
    if meta.get("version") != FORMAT_VERSION:
        raise IndexLoadError(
            f"{path}: unsupported index version {meta.get('version')!r} "
            f"(expected {FORMAT_VERSION}); re-run `probir index` to rebuild it"
        )
    mode = meta.get("mode")
    if mode not in (TOKEN_MODE, CHARACTER_MODE):
        raise IndexLoadError(f"{path}: unknown index mode {mode!r}")
    if expected_mode is not None and mode != expected_mode:
        raise IndexLoadError(
            f"{path}: index mode is {mode!r} but the pipeline expects {expected_mode!r}"
        )
    checksums = meta.get("checksums")
    if not isinstance(checksums, dict) or not isinstance(checksums.get(DOCUMENTS_FILE), str):
        raise IndexLoadError(f"{path}: meta.json has no checksum for {DOCUMENTS_FILE}")
    return meta


def load_index(path, expected_mode: str | None = None) -> Index:
    """Load a saved index; verifies version, checksum, mode and the type of
    every stored field, that no unit is empty or holds whitespace, and
    counts the postings before it returns."""
    path = Path(path)
    meta = _load_meta(path, expected_mode)
    documents = _load_json(path, DOCUMENTS_FILE, meta["checksums"][DOCUMENTS_FILE])
    index = Index(meta["mode"])
    stream_type, kind = (str, "strings") if index.mode == CHARACTER_MODE else (list, "lists")
    try:
        for record in documents["docs"]:
            doc_id, category = record["doc_id"], record["category"]
            title, body = record["title"], record["body"]
            if not isinstance(doc_id, str) or not is_run_id(doc_id) or doc_id in index:
                raise IndexLoadError(f"{path}: bad or repeated doc_id {doc_id!r}")
            if category is not None and not isinstance(category, str):
                raise IndexLoadError(f"{path}: document {doc_id!r}: category is not a string")
            if not (isinstance(title, stream_type) and isinstance(body, stream_type)):
                raise IndexLoadError(
                    f"{path}: document {doc_id!r}: title and body must be "
                    f"{kind} in {index.mode} mode"
                )
            index._add_doc(doc_id, title, body, category)
    except (KeyError, TypeError) as exc:
        raise IndexLoadError(f"{path}: malformed index payload ({exc!r})") from exc
    try:
        index._count_postings()
    except (TypeError, ValueError) as exc:
        raise IndexLoadError(f"{path}: malformed index payload: {exc}") from None
    index._finalize()
    if index.n_docs == 0 or index.n_docs != meta.get("n_docs"):
        raise IndexLoadError(
            f"{path}: document count {index.n_docs} does not match metadata"
        )
    return index
