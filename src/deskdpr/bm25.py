"""Okapi BM25 over an in-memory inverted index, plus hard-negative mining.

Scoring uses the non-negative IDF variant ln((N - df + 0.5)/(df + 0.5) + 1)
with k1=1.2, b=0.75 defaults.  No stemming, no stopword removal.
"""

from __future__ import annotations

import gc
import json
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import Passage, PassageStore
from .errors import EmptyCorpus, ParseError, UnsupportedVersion, reading
from .questions import Question, answer_exclusion_strings, contains_answer
from .results import RetrievalResult, hits_from_ranking

INDEX_FORMAT = "deskdpr-bm25"
INDEX_VERSION = 1

# Unicode alphanumeric runs; underscore counts as punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


class InvertedIndex:
    """Postings (token -> sorted (ordinal, tf) pairs) plus length statistics."""

    def __init__(
        self,
        postings: dict[str, list[tuple[int, int]]],
        doc_lengths: list[int],
        passage_ids: list[str],
        params: Bm25Params = Bm25Params(),
    ):
        if len(passage_ids) != len(doc_lengths):
            raise ValueError(
                f"{len(passage_ids)} passage ids for {len(doc_lengths)} doc lengths"
            )
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.passage_ids = passage_ids
        self.n_passages = len(doc_lengths)
        self.avg_doc_length = sum(doc_lengths) / self.n_passages if doc_lengths else 0.0
        self.params = params
        self._idf = {
            token: math.log((self.n_passages - len(plist) + 0.5) / (len(plist) + 0.5) + 1.0)
            for token, plist in postings.items()
        }

    def idf(self, token: str) -> float:
        return self._idf.get(token, 0.0)

    def term_frequency(self, token: str, passage_ordinal: int) -> int:
        plist = self.postings.get(token)
        if not plist:
            return 0
        i = bisect_left(plist, (passage_ordinal,))
        if i < len(plist) and plist[i][0] == passage_ordinal:
            return plist[i][1]
        return 0


def build_index(store: PassageStore, params: Bm25Params = Bm25Params()) -> InvertedIndex:
    """Tokenize every passage text and build the inverted index."""
    if len(store) == 0:
        raise EmptyCorpus("cannot build a BM25 index over an empty store")
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    passage_ids: list[str] = []
    for ordinal, passage in enumerate(store):
        tokens = tokenize(passage.text)
        doc_lengths.append(len(tokens))
        passage_ids.append(passage.passage_id)
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        for t, tf in counts.items():
            postings.setdefault(t, []).append((ordinal, tf))
    return InvertedIndex(postings, doc_lengths, passage_ids, params)


def _tf_part(tf: int, doc_length: int, avg_doc_length: float, params: Bm25Params) -> float:
    norm = 1.0 - params.b + params.b * doc_length / avg_doc_length
    return tf * (params.k1 + 1.0) / (tf + params.k1 * norm)


def bm25_score(index: InvertedIndex, query_tokens: Sequence[str], passage_ordinal: int) -> float:
    """BM25 score of one passage for a tokenized query.

    Each occurrence of a token in the query contributes; tokens absent
    from the passage contribute zero.
    """
    if passage_ordinal >= index.n_passages:
        raise IndexError(f"passage ordinal {passage_ordinal} out of range")
    dl = index.doc_lengths[passage_ordinal]
    score = 0.0
    for token in query_tokens:
        tf = index.term_frequency(token, passage_ordinal)
        if tf == 0:
            continue
        score += index.idf(token) * _tf_part(tf, dl, index.avg_doc_length, index.params)
    return score


def bm25_top_k(index: InvertedIndex, query: str, k: int) -> RetrievalResult:
    """Top-k passages by BM25, term-at-a-time accumulation over postings.

    Only passages with score > 0 are returned; ties break toward the
    lower passage ordinal.  The per-passage accumulation order equals the
    query-token order, so scores match bm25_score exactly.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    acc: dict[int, float] = {}
    for token in tokenize(query):
        plist = index.postings.get(token)
        if not plist:
            continue
        idf = index.idf(token)
        for ordinal, tf in plist:
            part = idf * _tf_part(tf, index.doc_lengths[ordinal], index.avg_doc_length, index.params)
            acc[ordinal] = acc.get(ordinal, 0.0) + part
    scored = sorted(
        ((ordinal, score) for ordinal, score in acc.items() if score > 0.0),
        key=lambda item: (-item[1], item[0]),
    )[:k]
    return hits_from_ranking([(index.passage_ids[ordinal], score) for ordinal, score in scored])


def mine_hard_negatives(
    index: InvertedIndex,
    store: PassageStore,
    question: Question,
    top_n: int = 100,
    n: int = 1,
    exclude_ids: Sequence[str] = (),
) -> list[Passage]:
    """Up to n highest-BM25 passages that do not contain the answer.

    Candidates come from the top_n BM25 pool for the question text; a
    candidate is rejected if its text contains any exclusion string
    (answers for factoid questions, gold snippets for yes/no) by
    ``contains_answer``, or if its id is explicitly excluded (e.g. the
    known positive).
    """
    excluded = set(exclude_ids)
    needles = answer_exclusion_strings(question)
    mined: list[Passage] = []
    for hit in bm25_top_k(index, question.text, top_n):
        passage = store.get(hit.passage_id)
        if passage.passage_id in excluded:
            continue
        if contains_answer(passage.text, needles):
            continue
        mined.append(passage)
        if len(mined) == n:
            break
    return mined


def save_bm25_index(index: InvertedIndex, path: str | Path) -> None:
    """Persist the index as JSONL: header, doc lengths, one posting per line."""
    with open(path, "w", encoding="utf-8") as f:
        header = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "n_passages": index.n_passages,
            "n_tokens": len(index.postings),
            "k1": index.params.k1,
            "b": index.params.b,
        }
        f.write(json.dumps(header) + "\n")
        f.write(json.dumps({"doc_lengths": index.doc_lengths}) + "\n")
        f.write(json.dumps({"passage_ids": index.passage_ids}, ensure_ascii=False) + "\n")
        for token in sorted(index.postings):
            f.write(json.dumps({"t": token, "p": index.postings[token]}, ensure_ascii=False) + "\n")


def load_bm25_index(path: str | Path) -> InvertedIndex:
    """Load a BM25 index saved by save_bm25_index."""
    with reading(path) as r, open(path, encoding="utf-8") as f:
        r.at = 1
        header = json.loads(f.readline())
        if header.get("format") != INDEX_FORMAT:
            raise ParseError(f"{path}: not a BM25 index file")
        if header.get("version") != INDEX_VERSION:
            raise UnsupportedVersion(
                f"{path}: index version {header.get('version')!r}, this build reads {INDEX_VERSION}"
            )
        params = Bm25Params(k1=header["k1"], b=header["b"])
        r.at = 2
        doc_lengths = json.loads(f.readline())["doc_lengths"]
        r.at = 3
        passage_ids = json.loads(f.readline())["passage_ids"]
        postings: dict[str, list[tuple[int, int]]] = {}
        # Millions of posting tuples and no cycles among them: with the
        # cyclic GC on, its repeated full scans make the parse superlinear.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for r.at, line in enumerate(f, start=4):
                if not line.strip():
                    continue
                row = json.loads(line)
                postings[row["t"]] = [(int(o), int(tf)) for o, tf in row["p"]]
        finally:
            if gc_was_enabled:
                gc.enable()
        r.at = None  # what follows concerns the file as a whole
        if len(postings) != header.get("n_tokens"):
            raise ParseError(
                f"{path}: truncated index: header says {header.get('n_tokens')} tokens, "
                f"found {len(postings)}"
            )
        return InvertedIndex(postings, doc_lengths, passage_ids, params)
