"""Okapi BM25 over an in-memory inverted index, plus hard-negative mining.

Scoring uses the non-negative IDF variant ln((N - df + 0.5)/(df + 0.5) + 1)
with k1=1.2, b=0.75 defaults.  No stemming, no stopword removal.  The
postings are flat numpy arrays holding each posting's precomputed score
contribution, so a query is one gather-and-add per query token into a
float64 accumulator, bit-identical to scoring passage by passage.
"""

from __future__ import annotations

import gc
import json
import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Passage, PassageStore
from .errors import EmptyCorpus, ParseError, UnsupportedVersion, expect, reading
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
        if not 0 <= self.k1 < math.inf:
            raise ValueError(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


class InvertedIndex:
    """Okapi BM25 postings in flat numpy arrays, plus length statistics.

    Token ``t`` has id ``i = token_ids[t]`` and owns positions
    ``offsets[i]:offsets[i + 1]`` of three parallel arrays: ``ordinals``
    (int64, strictly increasing), ``tfs`` (int64, >= 1) and
    ``contributions`` (float64, ``idf(t) * _tf_part(tf, dl, avg, params)``
    per posting).  The contributions are computed once, here, with the
    same float64 operations in the same order as ``bm25_score``, so a query
    only gathers and adds them and gets the same score bits.
    """

    def __init__(
        self,
        tokens: Sequence[str],
        offsets: np.ndarray,
        ordinals: np.ndarray,
        tfs: np.ndarray,
        doc_lengths: list[int],
        passage_ids: list[str],
        params: Bm25Params = Bm25Params(),
    ):
        if len(passage_ids) != len(doc_lengths):
            raise ValueError(
                f"{len(passage_ids)} passage ids for {len(doc_lengths)} doc lengths"
            )
        self.token_ids = {token: i for i, token in enumerate(tokens)}
        if len(self.token_ids) != len(tokens):
            raise ValueError("a token has more than one posting list")
        self.offsets, self.ordinals, self.tfs = offsets, ordinals, tfs
        self.doc_lengths = doc_lengths
        self.passage_ids = passage_ids
        self.n_passages = len(doc_lengths)
        self.avg_doc_length = sum(doc_lengths) / self.n_passages if doc_lengths else 0.0
        self.params = params
        dfs = np.diff(offsets).tolist()
        # math.log, not np.log: numpy's vectorized log may differ by an ulp
        self._idf = [math.log((self.n_passages - df + 0.5) / (df + 0.5) + 1.0) for df in dfs]
        lengths = np.asarray(doc_lengths, dtype=np.int64)[ordinals]
        self.contributions = _tf_part(tfs, lengths, self.avg_doc_length, params)
        del lengths
        self.contributions *= np.repeat(self._idf, dfs)  # idf * tf part, as bm25_score multiplies

    def _span(self, token: str) -> slice:
        i = self.token_ids.get(token)
        return slice(0, 0) if i is None else slice(self.offsets[i], self.offsets[i + 1])

    def idf(self, token: str) -> float:
        i = self.token_ids.get(token)
        return 0.0 if i is None else self._idf[i]

    def posting_list(self, token: str) -> list[tuple[int, int]]:
        """The token's (ordinal, tf) pairs in ordinal order; [] for an unknown token."""
        span = self._span(token)
        return list(zip(self.ordinals[span].tolist(), self.tfs[span].tolist()))

    def term_frequency(self, token: str, passage_ordinal: int) -> int:
        span = self._span(token)
        ordinals = self.ordinals[span]
        j = int(np.searchsorted(ordinals, passage_ordinal))
        if j < len(ordinals) and ordinals[j] == passage_ordinal:
            return int(self.tfs[span][j])
        return 0


def build_index(store: PassageStore, params: Bm25Params = Bm25Params()) -> InvertedIndex:
    """Tokenize every passage text and build the inverted index."""
    if len(store) == 0:
        raise EmptyCorpus("cannot build a BM25 index over an empty store")
    # A token's id is its first-seen order: a missing key gets len(token_ids).
    token_ids: defaultdict[str, int] = defaultdict()
    token_ids.default_factory = token_ids.__len__
    # Every token occurrence's id, passage after passage.  The list holds the
    # dict's own int objects, so it costs one pointer per occurrence.
    occurrences: list[int] = []
    doc_lengths: list[int] = []
    passage_ids: list[str] = []
    for passage in store:
        tokens = tokenize(passage.text)
        occurrences.extend(map(token_ids.__getitem__, tokens))
        doc_lengths.append(len(tokens))
        passage_ids.append(passage.passage_id)
    n = len(store)
    keys = np.fromiter(occurrences, dtype=np.int64, count=len(occurrences))
    del occurrences
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int64), doc_lengths)
    # One key per (token, passage): sorted, they group the postings by token
    # with ordinals increasing, and their counts are the tfs.
    keys, tfs = np.unique(keys, return_counts=True)
    token_of, ordinals = np.divmod(keys, n)
    del keys
    offsets = np.zeros(len(token_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(token_of, minlength=len(token_ids)), out=offsets[1:])
    del token_of  # before the contributions take their memory
    return InvertedIndex(list(token_ids), offsets, ordinals, tfs, doc_lengths, passage_ids, params)


def _tf_part(tf, doc_length, avg_doc_length: float, params: Bm25Params):
    """BM25's tf part for ints or, elementwise with the same roundings, int64 arrays."""
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
    lower passage ordinal.  Each query token, repeats included and in
    query order, adds its contributions into one float64 accumulator.  A
    token adds to a passage at most once and the first add onto 0.0 is
    exact, so scores match bm25_score bit for bit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    acc = np.zeros(index.n_passages)
    for token in tokenize(query):
        span = index._span(token)
        acc[index.ordinals[span]] += index.contributions[span]
    # every contribution is > 0, so the touched passages are exactly these
    candidates = np.flatnonzero(acc > 0.0)
    if len(candidates) > k:
        kth = np.partition(acc[candidates], len(candidates) - k)[len(candidates) - k]
        candidates = candidates[acc[candidates] >= kth]
    scores = acc[candidates]
    ranked = np.lexsort((candidates, -scores))[:k]
    ids = index.passage_ids
    return hits_from_ranking(
        [(ids[o], s) for o, s in zip(candidates[ranked].tolist(), scores[ranked].tolist())]
    )


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
    known positive).  ``n = 0`` mines nothing; ``n < 0`` is a ValueError.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    mined: list[Passage] = []
    if n == 0:
        return mined
    excluded = set(exclude_ids)
    needles = answer_exclusion_strings(question)
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
            "n_tokens": len(index.token_ids),
            "k1": index.params.k1,
            "b": index.params.b,
        }
        f.write(json.dumps(header) + "\n")
        f.write(json.dumps({"doc_lengths": index.doc_lengths}) + "\n")
        f.write(json.dumps({"passage_ids": index.passage_ids}, ensure_ascii=False) + "\n")
        for token in sorted(index.token_ids):
            # json.dumps({"t": token, "p": index.posting_list(token)}) to the
            # byte, without first making a tuple per posting
            span = index._span(token)
            postings = zip(index.ordinals[span].tolist(), index.tfs[span].tolist())
            pairs = ", ".join(map("[%d, %d]".__mod__, postings))
            f.write(f'{{"t": {json.dumps(token, ensure_ascii=False)}, "p": [{pairs}]}}\n')


def load_bm25_index(path: str | Path) -> InvertedIndex:
    """Load a BM25 index saved by save_bm25_index.

    Every value is checked, since a query indexes arrays with it: integer
    ordinals in ``[0, n_passages)`` rising strictly within each posting
    list, integer tfs >= 1, non-negative integer doc lengths, and one doc
    length and one passage id per passage.
    """
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
        n = expect(header["n_passages"], int, "n_passages")
        r.at = 2
        doc_lengths = expect(json.loads(f.readline())["doc_lengths"], list, "doc_lengths")
        if not _all_ints(doc_lengths) or min(doc_lengths, default=0) < 0:
            raise ValueError("doc_lengths must be non-negative integers")
        if len(doc_lengths) != n:
            raise ValueError(f"{len(doc_lengths)} doc lengths for n_passages {n}")
        r.at = 3
        passage_ids = expect(json.loads(f.readline())["passage_ids"], list, "passage_ids")
        if len(passage_ids) != n:
            raise ValueError(f"{len(passage_ids)} passage ids for n_passages {n}")
        tokens: list[str] = []
        lines: list[int] = []  # the line of each token's posting list
        offsets = [0]
        pairs = array("q")  # ordinal, tf, ordinal, tf, ...
        # json.loads makes one list per posting pair, and a long posting list
        # keeps thousands of them alive at once.  With the cyclic GC on, they
        # survive its young passes and set off full passes over the whole
        # heap, which cost about a third of the parse in a process holding a
        # store, so the GC waits until the postings are read.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for r.at, line in enumerate(f, start=4):
                if not line.strip():
                    continue
                row = json.loads(line)
                plist = row["p"]
                tokens.append(expect(row["t"], str, "token"))
                # array("q") refuses all but ints (floats, strings, null, arrays)
                # and ints beyond int64; it would take JSON's true and false as 1
                # and 0, so a line holding either word has its types checked.
                pairs.fromlist(list(chain.from_iterable(plist)))
                if set(map(len, plist)) != {2} or (
                    ("true" in line or "false" in line) and not _all_ints(chain.from_iterable(plist))
                ):
                    raise ValueError("'p' must be a non-empty list of [ordinal, tf] integer pairs")
                lines.append(r.at)
                offsets.append(len(pairs) // 2)
        finally:
            if gc_was_enabled:
                gc.enable()
        r.at = None  # what follows concerns the file as a whole
        if len(tokens) != header.get("n_tokens"):
            raise ParseError(
                f"{path}: truncated index: header says {header.get('n_tokens')} tokens, "
                f"found {len(tokens)}"
            )
        flat = np.frombuffer(pairs, dtype=np.int64).reshape(-1, 2)
        ordinals, tfs = flat[:, 0].copy(), flat[:, 1].copy()
        del flat, pairs
        offsets = np.array(offsets, dtype=np.int64)
        rising = np.empty(len(ordinals), dtype=bool)
        rising[1:] = ordinals[1:] > ordinals[:-1]
        rising[offsets[:-1]] = True  # a list's first posting follows no other
        valid = rising & (ordinals >= 0) & (ordinals < n) & (tfs >= 1)
        if not valid.all():
            bad = int(np.argmin(valid))
            r.at = lines[int(np.searchsorted(offsets, bad, side="right")) - 1]
            raise ValueError(
                f"posting [{ordinals[bad]}, {tfs[bad]}]: ordinals must rise strictly "
                f"within [0, {n}) and tfs be >= 1"
            )
        return InvertedIndex(tokens, offsets, ordinals, tfs, doc_lengths, passage_ids, params)


def _all_ints(values) -> bool:
    """Whether every value is an int (a bool is not)."""
    return set(map(type, values)) <= {int}
