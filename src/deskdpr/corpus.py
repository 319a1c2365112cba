"""Document cleaning, fixed-size word chunking, and the passage store.

The store is a ``binfile`` artifact, like the BM25 index, the dense index
and the model; only the raw corpus it is cut from is JSON Lines.

Whitespace is what ``str.split`` splits on, which is ``str.isspace`` and
equals ``re``'s ``\\s``; every module uses this one rule.  A "word" is a
maximal run of non-whitespace characters.  Documents are split into
disjoint blocks of ``chunk_size`` words; every chunk except possibly the
last one is full, and joining the chunks in order reproduces the
document's word sequence exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import binfile
from .errors import DuplicateId, EmptyDocument, ParseError, expect, reading
from .manifest import sha256_file

DEFAULT_CHUNK_SIZE = 100
SEPARATOR_TOKEN = "[SEP]"

# a store the program wrote before this format is JSON Lines, refused by its magic
FORMAT = binfile.Format("passage store", b"PSGS", 1, "QQ")

# C0 control characters and DEL, which survive a plain-text dump, become spaces
_CONTROL = dict.fromkeys([*range(0x20), 0x7F], " ")
# the fields of a corpus line, all strings, each with its label in messages
_DOCUMENT_FIELDS = tuple((key, repr(key)) for key in ("doc_id", "title", "body"))


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    body: str


@dataclass(frozen=True, slots=True)
class Passage:
    passage_id: str
    doc_id: str
    title: str
    text: str
    chunk_index: int

    @staticmethod
    def make_id(doc_id: str, chunk_index: int) -> str:
        return f"{doc_id}#{chunk_index}"

    @staticmethod
    def split_id(passage_id: str) -> tuple[str, int]:
        """Recover (doc_id, chunk_index) from a passage id."""
        doc_id, _, idx = passage_id.rpartition("#")
        return doc_id, int(idx)


class PassageStore:
    """Immutable ordered collection of passages with id -> ordinal lookup.

    Ordinals are dense 0..M-1, follow insertion order, and are stable
    across save/load.
    """

    def __init__(
        self,
        passages: Iterable[Passage],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        corpus_checksum: str = "",
    ):
        self.passages: list[Passage] = list(passages)
        self.chunk_size = chunk_size
        self.corpus_checksum = corpus_checksum
        self._ordinal: dict[str, int] = {}
        for i, p in enumerate(self.passages):
            if p.passage_id in self._ordinal:
                raise DuplicateId(f"duplicate passage_id {p.passage_id!r}")
            self._ordinal[p.passage_id] = i

    def __len__(self) -> int:
        return len(self.passages)

    def __iter__(self) -> Iterator[Passage]:
        return iter(self.passages)

    def __getitem__(self, ordinal: int) -> Passage:
        return self.passages[ordinal]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PassageStore):
            return NotImplemented
        return (
            self.passages == other.passages
            and self.chunk_size == other.chunk_size
            and self.corpus_checksum == other.corpus_checksum
        )

    def get(self, passage_id: str) -> Passage:
        return self.passages[self._ordinal[passage_id]]

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._ordinal


def clean_document(raw: str, title: str, doc_id: str) -> Document:
    """Normalize a raw text body into a single-spaced plain-text document.

    Control characters become spaces, and the words that ``str.split``
    finds are joined by one space: runs of whitespace (``str.isspace``,
    which equals ``re``'s ``\\s``) collapse and the ends are trimmed.
    Raises EmptyDocument if nothing remains.
    """
    body = " ".join(raw.translate(_CONTROL).split())
    if not body:
        raise EmptyDocument(f"document {doc_id!r} is empty after cleaning")
    return Document(doc_id=doc_id, title=title, body=body)


def chunk_document(doc: Document, chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[Passage]:
    """Split a document into disjoint passages of chunk_size words.

    Every passage except possibly the last has exactly chunk_size words;
    the final short remainder is kept as its own passage.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    words = doc.body.split()
    if not words:
        raise ValueError(f"document {doc.doc_id!r} has an empty body")
    passages = []
    for chunk_index, start in enumerate(range(0, len(words), chunk_size)):
        text = " ".join(words[start : start + chunk_size])
        passages.append(
            Passage(
                passage_id=Passage.make_id(doc.doc_id, chunk_index),
                doc_id=doc.doc_id,
                title=doc.title,
                text=text,
                chunk_index=chunk_index,
            )
        )
    return passages


def render_encoder_input(p: Passage) -> str:
    """Text form fed to the passage encoder: title, ``SEPARATOR_TOKEN``, passage text."""
    return f"{p.title} {SEPARATOR_TOKEN} {p.text}"


def build_store(
    documents: Iterable[Document],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    corpus_checksum: str = "",
) -> PassageStore:
    """Chunk every document and assemble the passage store in input order."""
    passages: list[Passage] = []
    for doc in documents:
        passages.extend(chunk_document(doc, chunk_size))
    return PassageStore(passages, chunk_size=chunk_size, corpus_checksum=corpus_checksum)


@dataclass
class IngestStats:
    documents: int = 0
    passages: int = 0
    dropped_empty: int = 0


def read_corpus_jsonl(path: str | Path) -> list[dict]:
    """Read a raw corpus file: one JSON object per line with string doc_id/title/body."""
    rows = []
    with reading(path) as r, open(path, encoding="utf-8") as f:
        for r.at, line in enumerate(f, start=1):
            if not line.strip():
                continue
            row = json.loads(line)
            for key, label in _DOCUMENT_FIELDS:
                expect(row[key], str, label)
            rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no documents found")
    return rows


def ingest_corpus(path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE) -> tuple[PassageStore, IngestStats]:
    """Read, clean, and chunk a raw corpus file into a passage store.

    Documents that are empty after cleaning are skipped and counted.
    """
    stats = IngestStats()
    docs: list[Document] = []
    for row in read_corpus_jsonl(path):
        try:
            docs.append(clean_document(row["body"], row["title"], row["doc_id"]))
        except EmptyDocument:
            stats.dropped_empty += 1
            continue
    store = build_store(docs, chunk_size=chunk_size, corpus_checksum=sha256_file(path))
    stats.documents = len(docs)
    stats.passages = len(store)
    return store, stats


def save_store(store: PassageStore, path: str | Path) -> None:
    """``FORMAT``: u64 passage count and chunk_size; the corpus checksum as a
    one-string table; string tables of the passage ids, doc ids, titles and
    texts, in the order ``Passage`` declares them; then int64 chunk indexes."""
    passages = store.passages

    def parts() -> Iterator:  # one table at a time: each is made once the one before it is written
        yield binfile.strings([store.corpus_checksum])
        for key in ("passage_id", "doc_id", "title", "text"):
            yield binfile.strings(getattr(p, key) for p in passages)
        yield np.array([p.chunk_index for p in passages], dtype="<i8")

    binfile.write(path, FORMAT, (len(passages), store.chunk_size), parts())


def load_store(path: str | Path) -> PassageStore:
    """Load a passage store; the inverse of save_store.

    Raises ParseError naming the file on a malformed, truncated or foreign
    file, UnsupportedVersion on another version, and DuplicateId on
    repeated passage ids.
    """
    with binfile.Reader(path, FORMAT) as r:
        n, chunk_size = r.header
        (corpus_checksum,) = r.strings(1, "corpus checksum")
        columns = [r.strings(n, what) for what in ("passage ids", "doc ids", "titles", "texts")]
        columns.append(r.array("<i8", n, "chunk indexes").tolist())
    try:
        return PassageStore(map(Passage, *columns), chunk_size=chunk_size, corpus_checksum=corpus_checksum)
    except DuplicateId as exc:
        raise DuplicateId(f"{path}: {exc}") from None
