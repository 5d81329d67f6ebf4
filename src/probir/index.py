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

``Index(mode, docs)``, the one constructor, builds each per-document
table once, as a doc_id-keyed column in collection order: the streams,
``lengths`` (units, title and body together) and ``categories`` (None for
none), with the category counts, ``avg_len`` and ``doc_ids()``.  It
refuses a repeated doc_id, which would merge two documents' columns, and
a collection in which no document holds a unit, so no index is
half-built or has an ``avg_len`` of 0.  System B's ranking reads
``lengths`` once per posting, System A reads both columns directly, and
what a scorer derives from a length (the k_t norm, the length bonus)
stays with its run.

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
scans a document's streams; the ``SystemATables`` of a run with location
on read every document's streams once (``streams``) for the units' first
positions, and scan with ``first_position`` for a longer term.  Saved,
each title and body is one string, its units joined by ``TERM_SEP`` in
token mode and by nothing in character mode, and ``load_index`` refuses
one that does not round-trip (split at whitespace and joined so, it is
unchanged).  So no unit is empty or holds whitespace, and none equals a
longer term.

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
    Document,
    TokenizerConfig,
    is_run_id,
    tokenize,
)
from .errors import DocumentNotFoundError, EmptyCollectionError, IndexLoadError

FORMAT_NAME = "probir-index"
FORMAT_VERSION = 3
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


class Index:
    """Statistics store that does not change once built, from (doc_id,
    title units, body units, category) records in collection order; see
    the module docstring.  Raises ValueError naming a repeated doc_id, and
    EmptyCollectionError when no document holds a unit."""

    def __init__(self, mode: str,
                 docs: Iterable[tuple[str, Iterable[str], Iterable[str], str | None]]):
        self.mode = mode
        stream = "".join if mode == CHARACTER_MODE else tuple
        # doc_id -> (title stream, body stream), in collection order
        self._streams: dict[str, tuple[Sequence[str], Sequence[str]]] = {}
        # doc_id -> category (None for a document without one)
        self.categories: dict[str, str | None] = {}
        # doc_id -> length (title + body units)
        self.lengths: dict[str, int] = {}
        for doc_id, title, body, category in docs:
            if doc_id in self._streams:
                raise ValueError(f"repeated doc_id {doc_id!r}")
            title, body = self._streams[doc_id] = stream(title), stream(body)
            self.categories[doc_id] = category
            self.lengths[doc_id] = len(title) + len(body)
        self.n_docs = len(self._streams)
        self.total_len = sum(self.lengths.values())
        if not self.total_len:
            raise EmptyCollectionError("nothing to index: no document holds a unit")
        self.avg_len = self.total_len / self.n_docs
        self._category_counts = Counter(
            category for category in self.categories.values() if category is not None)
        self._doc_ids = tuple(self._streams)
        # term -> {doc_id: tf}: the units, then each longer term counted;
        # None until first use (``_table``)
        self._postings: dict[str, dict[str, int]] | None = None
        self._term_stats: dict[str, TermStats] = {}

    def _table(self) -> dict[str, dict[str, int]]:
        """The posting table, counted from the streams in one pass on first
        use and kept.  Each unit's map lists its documents in collection
        order, and the units come in order of first occurrence; a longer
        term joins the table later (``postings``)."""
        if self._postings is not None:
            return self._postings
        table: dict[str, dict[str, int]] = {}
        get = table.get
        for doc_id, streams in self._streams.items():
            for stream in streams:
                for unit in stream:
                    posting = get(unit)
                    if posting is None:
                        table[unit] = {doc_id: 1}
                    else:
                        posting[doc_id] = posting.get(doc_id, 0) + 1
        self._postings = table  # stored only once complete
        return table

    # -- lookups ----------------------------------------------------------

    def doc_ids(self) -> tuple[str, ...]:
        return self._doc_ids

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._streams

    def __len__(self) -> int:
        return self.n_docs

    def _entry(self, doc_id):
        """A document's (title, body) streams."""
        try:
            return self._streams[doc_id]
        except KeyError:
            raise DocumentNotFoundError(f"unknown doc_id {doc_id!r}") from None

    def doc_len(self, doc_id: str) -> int:
        self._entry(doc_id)
        return self.lengths[doc_id]

    def doc_category(self, doc_id: str) -> str | None:
        self._entry(doc_id)
        return self.categories[doc_id]

    def doc_terms(self, doc_id: str) -> Counter:
        """Unit bag of one document (token or character counts), in
        first-occurrence order, title then body; counted on each call."""
        title, body = self._entry(doc_id)
        return Counter(title + body)

    def streams(self) -> Iterator[tuple[str, Sequence[str], Sequence[str]]]:
        """(doc_id, title stream, body stream) of every document, in
        collection order."""
        for doc_id, (title, body) in self._streams.items():
            yield doc_id, title, body

    def doc_text(self, doc_id: str) -> tuple[str, str]:
        """Filtered (title, body) character streams; character mode only."""
        if self.mode != CHARACTER_MODE:
            raise ValueError("doc_text is only available on character-mode indexes")
        return self._entry(doc_id)

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
            table = self._table()
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
                title, body = self._streams[doc_id]
                title_starts = _sequence_starts(title, units)
                body_starts = _sequence_starts(body, units)
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
        position comes from; ``SystemATables`` reads a unit's off the
        ``streams``."""
        title, body = self._entry(doc_id)
        units = self._units(term)
        if next(_sequence_starts(title, units), None) is not None:
            return IN_TITLE
        return next(_sequence_starts(body, units), None)

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Write the index as a directory: meta.json + documents.json.

        documents.json holds each title and body as one string; the
        postings are counted from them on load.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        sep = TERM_SEP if self.mode == TOKEN_MODE else ""
        docs = [
            {"doc_id": doc_id, "category": self.categories[doc_id],
             "title": sep.join(title), "body": sep.join(body)}
            for doc_id, (title, body) in self._streams.items()
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


def build_index(docs: Iterable[Document], config: TokenizerConfig) -> Index:
    """Index every document, in order, under the config's mode; ``Index``
    refuses a repeated doc_id and a collection in which no document holds
    a unit.  The postings are counted on the index's first lookup."""
    return Index(config.mode, ((doc.doc_id, tokenize(doc.title, config),
                                tokenize(doc.body, config), doc.category)
                               for doc in docs))


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
    """Load a saved index; verifies version, checksum, mode, every doc_id
    and category, that each title and body is a string that round-trips,
    that no doc_id repeats and that some unit is stored, and counts the
    postings before it returns.  Equal token units share one object."""
    path = Path(path)
    meta = _load_meta(path, expected_mode)
    documents = _load_json(path, DOCUMENTS_FILE, meta["checksums"][DOCUMENTS_FILE])
    mode = meta["mode"]
    sep = TERM_SEP if mode == TOKEN_MODE else ""
    shared = {}.setdefault
    records = []
    try:
        for record in documents["docs"]:
            doc_id, category = record["doc_id"], record["category"]
            if not (isinstance(doc_id, str) and is_run_id(doc_id)):
                raise IndexLoadError(f"{path}: doc_id {doc_id!r} is not a "
                                     "non-empty string without whitespace")
            if category is not None and not isinstance(category, str):
                raise IndexLoadError(f"{path}: document {doc_id!r}: category is not a string")
            streams = []
            for name in ("title", "body"):
                field = record[name]
                if not isinstance(field, str):
                    raise IndexLoadError(
                        f"{path}: document {doc_id!r}: {name} is not a string")
                units = field.split()
                if sep.join(units) != field:
                    raise IndexLoadError(
                        f"{path}: document {doc_id!r}: {name} changes when split "
                        f"at whitespace and joined by {sep!r}")
                streams.append(tuple(map(shared, units, units)) if sep else field)
            records.append((doc_id, *streams, category))
    except (KeyError, TypeError) as exc:
        raise IndexLoadError(f"{path}: malformed index payload ({exc!r})") from exc
    try:
        index = Index(mode, records)
        index._table()
    except (EmptyCollectionError, ValueError) as exc:
        raise IndexLoadError(f"{path}: malformed index payload: {exc}") from None
    if index.n_docs != meta.get("n_docs"):
        raise IndexLoadError(
            f"{path}: document count {index.n_docs} does not match metadata"
        )
    return index
