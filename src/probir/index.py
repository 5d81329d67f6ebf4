"""Searchable statistics store over a document collection.

Two variants share one interface:

* token mode      -- classic inverted index over word tokens; multi-word terms
                     ("enterprise amalgamation") are counted as adjacent-token
                     sequences.
* character mode  -- positional unigram/bigram index over the title and body
                     character streams; any substring's frequency is recovered
                     by positional intersection of its constituent bigrams.

Occurrences are counted non-overlapping, positions are 1-based, and title
occurrences are kept separate from body positions.  An Index is immutable
once built and safe to share across readers.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import CHARACTER_MODE, TOKEN_MODE, DocumentCollection, TokenizerConfig, tokenize
from .errors import DocumentNotFoundError, EmptyCollectionError, IndexLoadError

FORMAT_NAME = "probir-index"
FORMAT_VERSION = 1

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


def _sequence_starts(haystack: tuple[str, ...], needle: tuple[str, ...]) -> list[int]:
    """1-based start positions of a token sequence inside a token tuple."""
    n, m = len(haystack), len(needle)
    if m == 0 or m > n:
        return []
    first = needle[0]
    return [
        i + 1
        for i in range(n - m + 1)
        if haystack[i] == first and haystack[i : i + m] == needle
    ]


class _TokenDoc:
    __slots__ = ("title_tokens", "body_tokens", "category", "tf", "title_set",
                 "_first_body", "length")

    def __init__(self, title_tokens, body_tokens, category):
        self.title_tokens = tuple(title_tokens)
        self.body_tokens = tuple(body_tokens)
        self.category = category
        self.length = len(self.title_tokens) + len(self.body_tokens)
        self.tf = Counter(self.title_tokens)
        self.tf.update(self.body_tokens)
        self.title_set = frozenset(self.title_tokens)
        self._first_body = {}
        for pos, tok in enumerate(self.body_tokens, start=1):
            self._first_body.setdefault(tok, pos)

    def first_body_position(self, token):
        return self._first_body.get(token)


class _CharDoc:
    __slots__ = ("title", "body", "category", "tf", "length")

    def __init__(self, title, body, category):
        self.title = title
        self.body = body
        self.category = category
        self.tf = Counter(title)
        self.tf.update(body)
        self.length = len(title) + len(body)


def _gram_positions(text: str) -> dict[str, list[int]]:
    """1-based positions of every unigram and bigram in ``text``."""
    grams: dict[str, list[int]] = {}
    for i, ch in enumerate(text):
        grams.setdefault(ch, []).append(i + 1)
    for i in range(len(text) - 1):
        grams.setdefault(text[i : i + 2], []).append(i + 1)
    return grams


class Index:
    """Immutable statistics store; see module docstring.

    Use :func:`build_index`, :func:`load_index` to obtain one.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self._docs: dict[str, _TokenDoc | _CharDoc] = {}
        self._order: list[str] = []
        # token mode: term -> {doc_id: tf}
        self._postings: dict[str, dict[str, int]] = {}
        # character mode: field -> gram -> {doc_id: [positions]}
        self._grams: dict[str, dict[str, dict[str, list[int]]]] = {
            "title": {},
            "body": {},
        }
        self.n_docs = 0
        self.total_len = 0
        self.avg_len = 0.0
        self._category_counts: Counter = Counter()
        self._term_stats: dict[str, TermStats] = {}

    # -- construction ----------------------------------------------------

    def _add_token_doc(self, doc_id, title_tokens, body_tokens, category):
        entry = _TokenDoc(title_tokens, body_tokens, category)
        self._docs[doc_id] = entry
        self._order.append(doc_id)
        for term, tf in entry.tf.items():
            self._postings.setdefault(term, {})[doc_id] = tf

    def _add_char_doc(self, doc_id, title, body, category):
        entry = _CharDoc(title, body, category)
        self._docs[doc_id] = entry
        self._order.append(doc_id)
        for field, text in (("title", title), ("body", body)):
            table = self._grams[field]
            for gram, positions in _gram_positions(text).items():
                table.setdefault(gram, {})[doc_id] = positions

    def _finalize(self):
        self.n_docs = len(self._order)
        self.total_len = sum(e.length for e in self._docs.values())
        self.avg_len = self.total_len / self.n_docs if self.n_docs else 0.0
        self._category_counts = Counter(
            e.category for e in self._docs.values() if e.category is not None
        )

    # -- lookups ----------------------------------------------------------

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(self._order)

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
        return self._entry(doc_id).length

    def doc_category(self, doc_id: str) -> str | None:
        return self._entry(doc_id).category

    def doc_terms(self, doc_id: str) -> Mapping[str, int]:
        """Word bag of one document (token counts, or character counts)."""
        return self._entry(doc_id).tf

    def doc_text(self, doc_id: str) -> tuple[str, str]:
        """Filtered (title, body) character streams; character mode only."""
        if self.mode != CHARACTER_MODE:
            raise ValueError("doc_text is only available on character-mode indexes")
        entry = self._entry(doc_id)
        return entry.title, entry.body

    def category_counts(self) -> Mapping[str, int]:
        return self._category_counts

    # -- term statistics --------------------------------------------------

    def doc_tf(self, doc_id: str, term: str) -> int:
        """Occurrences of ``term`` in one document (title + body)."""
        entry = self._entry(doc_id)
        if self.mode == TOKEN_MODE:
            if TERM_SEP in term:
                seq = tuple(term.split(TERM_SEP))
                return count_nonoverlapping(
                    _sequence_starts(entry.title_tokens, seq), len(seq)
                ) + count_nonoverlapping(_sequence_starts(entry.body_tokens, seq), len(seq))
            return entry.tf.get(term, 0)
        return sum(
            count_nonoverlapping(self._char_starts(field, doc_id, term), len(term))
            for field in ("title", "body")
        )

    def _char_starts(self, field: str, doc_id: str, term: str) -> list[int]:
        """Match start positions by positional intersection of constituent grams."""
        if not term:
            return []
        table = self._grams[field]
        if len(term) == 1:
            return table.get(term, {}).get(doc_id, [])
        first = table.get(term[0:2], {}).get(doc_id)
        if not first:
            return []
        offsets = []
        for i in range(1, len(term) - 1):
            positions = table.get(term[i : i + 2], {}).get(doc_id)
            if not positions:
                return []
            offsets.append((i, set(positions)))
        return [p for p in first if all(p + i in posset for i, posset in offsets)]

    def candidate_docs(self, term: str) -> set[str]:
        """Documents holding every unit of ``term``: a superset of the docs
        where it occurs, whose tf ``doc_tf`` then counts.  The empty term
        has none."""
        if not term:
            return set()
        if self.mode == TOKEN_MODE:
            tokens = term.split(TERM_SEP) if TERM_SEP in term else [term]
            maps = [self._postings.get(tok) for tok in tokens]
            if any(m is None for m in maps):
                return set()
            maps.sort(key=len)
            docs = set(maps[0])
            for m in maps[1:]:
                docs &= m.keys()
            return docs
        candidates: set[str] = set()
        for field in ("title", "body"):
            table = self._grams[field]
            grams = [term] if len(term) == 1 else [term[i : i + 2] for i in range(len(term) - 1)]
            maps = [table.get(g) for g in grams]
            if any(m is None for m in maps):
                continue
            maps.sort(key=len)
            docs = set(maps[0])
            for m in maps[1:]:
                docs &= m.keys()
            candidates |= docs
        return candidates

    def term_stats(self, term: str) -> TermStats:
        """df and collection frequency; unseen terms yield (0, 0).  Computed
        once per term, since the index does not change after it is built."""
        stats = self._term_stats.get(term)
        if stats is None:
            stats = self._term_stats[term] = self._compute_term_stats(term)
        return stats

    def _compute_term_stats(self, term: str) -> TermStats:
        if self.mode == TOKEN_MODE and TERM_SEP not in term:
            posting = self._postings.get(term)
            if not posting:
                return TermStats(0, 0)
            return TermStats(len(posting), sum(posting.values()))
        df = 0
        collection_tf = 0
        for doc_id in self.candidate_docs(term):
            tf = self.doc_tf(doc_id, term)
            if tf:
                df += 1
                collection_tf += tf
        return TermStats(df, collection_tf)

    def df(self, term: str) -> int:
        return self.term_stats(term).df

    def first_position(self, doc_id: str, term: str):
        """IN_TITLE if the term appears in the title, else the first body
        position (1-based), else None."""
        entry = self._entry(doc_id)
        if self.mode == TOKEN_MODE:
            if TERM_SEP in term:
                seq = tuple(term.split(TERM_SEP))
                if _sequence_starts(entry.title_tokens, seq):
                    return IN_TITLE
                starts = _sequence_starts(entry.body_tokens, seq)
                return starts[0] if starts else None
            if term in entry.title_set:
                return IN_TITLE
            return entry.first_body_position(term)
        if self._char_starts("title", doc_id, term):
            return IN_TITLE
        starts = self._char_starts("body", doc_id, term)
        return starts[0] if starts else None

    # -- persistence -------------------------------------------------------

    def _documents_payload(self) -> dict:
        docs = []
        for doc_id in self._order:
            entry = self._docs[doc_id]
            record = {"doc_id": doc_id, "category": entry.category}
            if self.mode == TOKEN_MODE:
                record["title_tokens"] = list(entry.title_tokens)
                record["body_tokens"] = list(entry.body_tokens)
            else:
                record["title"] = entry.title
                record["body"] = entry.body
            docs.append(record)
        return {"docs": docs}

    def _postings_payload(self) -> dict:
        if self.mode == TOKEN_MODE:
            return {"terms": self._postings}
        return {"grams": self._grams}

    def save(self, path) -> None:
        """Write the index as a directory: meta.json + documents.json + postings.json."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        checksums = {}
        for name, payload in (
            ("documents.json", self._documents_payload()),
            ("postings.json", self._postings_payload()),
        ):
            data = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
            (path / name).write_bytes(data)
            checksums[name] = hashlib.sha256(data).hexdigest()
        meta = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "mode": self.mode,
            "n_docs": self.n_docs,
            "avg_len": self.avg_len,
            "checksums": checksums,
        }
        (path / "meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


def build_index(collection: DocumentCollection, config: TokenizerConfig) -> Index:
    """Index every document in the collection under the config's mode."""
    if len(collection) == 0:
        raise EmptyCollectionError("cannot index an empty collection")
    index = Index(config.mode)
    for doc in collection:
        if config.mode == TOKEN_MODE:
            index._add_token_doc(
                doc.doc_id,
                tokenize(doc.title, config),
                tokenize(doc.body, config),
                doc.category,
            )
        else:
            index._add_char_doc(
                doc.doc_id,
                "".join(tokenize(doc.title, config)),
                "".join(tokenize(doc.body, config)),
                doc.category,
            )
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


def load_index(path, expected_mode: str | None = None) -> Index:
    """Load a saved index; verifies version, checksums, and (optionally) mode."""
    path = Path(path)
    meta = _load_json(path, "meta.json", None)
    if meta.get("format") != FORMAT_NAME:
        raise IndexLoadError(f"{path}: not a {FORMAT_NAME} directory")
    if meta.get("version") != FORMAT_VERSION:
        raise IndexLoadError(
            f"{path}: unsupported index version {meta.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    mode = meta.get("mode")
    if mode not in (TOKEN_MODE, CHARACTER_MODE):
        raise IndexLoadError(f"{path}: unknown index mode {mode!r}")
    if expected_mode is not None and mode != expected_mode:
        raise IndexLoadError(
            f"{path}: index mode is {mode!r} but the pipeline expects {expected_mode!r}"
        )
    checksums = meta.get("checksums", {})
    documents = _load_json(path, "documents.json", checksums.get("documents.json"))
    postings = _load_json(path, "postings.json", checksums.get("postings.json"))

    index = Index(mode)
    try:
        for record in documents["docs"]:
            if mode == TOKEN_MODE:
                entry = _TokenDoc(
                    record["title_tokens"], record["body_tokens"], record["category"]
                )
            else:
                entry = _CharDoc(record["title"], record["body"], record["category"])
            index._docs[record["doc_id"]] = entry
            index._order.append(record["doc_id"])
        if mode == TOKEN_MODE:
            index._postings = {
                term: dict(docs) for term, docs in postings["terms"].items()
            }
        else:
            index._grams = {
                field: {
                    gram: {doc: list(map(int, pos)) for doc, pos in docs.items()}
                    for gram, docs in table.items()
                }
                for field, table in postings["grams"].items()
            }
    except (KeyError, TypeError) as exc:
        raise IndexLoadError(f"{path}: malformed index payload ({exc!r})") from exc
    index._finalize()
    if index.n_docs != meta.get("n_docs"):
        raise IndexLoadError(
            f"{path}: document count {index.n_docs} does not match metadata"
        )
    return index
