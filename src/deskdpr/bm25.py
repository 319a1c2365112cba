"""Okapi BM25 over an in-memory inverted index, plus hard-negative mining.

Scoring uses the non-negative IDF variant ln((N - df + 0.5)/(df + 0.5) + 1)
with the constants ``K1`` = 1.2 and ``B`` = 0.75.  No stemming, no stopword
removal.  The postings are flat numpy arrays of int32 passage ordinals and
of tfs in the narrowest type that holds the longest doc length, by
``np.min_scalar_type``: uint8 while every passage has under 256 tokens.
``bm25.bin`` keeps int32 tfs.  A query scores the postings of its own
tokens from their tfs and adds them into a float64 accumulator,
bit-identical to scoring passage by passage.  An index holds fewer than
2^31 passages.

Building an index counts the (token, passage) pairs of runs of whole
passages, about ``BLOCK_POSTINGS`` occurrences each, by ``count_pairs``, the
sort-and-count step the featurizer shares.  It walks the runs twice, for
the dfs and to place the postings, so beside the index it holds one int32
token id an occurrence, and nothing as long as the occurrences in int64.
Loading reads, checks and narrows the tfs, and saving widens them, in
blocks of ``BLOCK_POSTINGS``.  No step holds a scratch array as long as the
postings beside the arrays the index keeps.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import binfile
from .corpus import Passage, PassageStore
from .errors import EmptyCorpus
from .questions import Question, answer_exclusion_strings, contains_answer
from .results import RetrievalResult, hits_from_ranking

# version 1 was JSON Lines, version 2 held int64 ordinals and tfs, version 3 also k1 and b
FORMAT = binfile.Format("BM25 index", b"BM25", 4, "QQQ")
K1, B = 1.2, 0.75
# the dtype of ordinals in memory and on disk, and of tfs on disk
POSTING_DTYPE = np.dtype("<i4")
# postings a load checks, or occurrences a build counts, at once: 128 KiB a float64 array, and under
# 1 MiB of a build's scratch.  Blocks of 512 KiB arrays, freed below longer-lived ones in the brk heap,
# left holes there of a few MiB.
BLOCK_POSTINGS = 1 << 14


def _blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most ``BLOCK_POSTINGS`` positions, covering ``range(n)``."""
    return (slice(lo, min(lo + BLOCK_POSTINGS, n)) for lo in range(0, n, BLOCK_POSTINGS))


class _Separators(dict):
    """``str.translate`` table, filled on first sight: an alphanumeric code
    point maps to itself, any other (underscore too) to a space; no
    alphanumeric code point is whitespace, so ``split`` cuts only there."""

    def __missing__(self, c: int) -> int:
        self[c] = kept = c if chr(c).isalnum() else 32
        return kept


_SEPARATORS = _Separators()


def tokenize(text: str) -> list[str]:
    """The Unicode alphanumeric runs of the lowered text."""
    return text.lower().translate(_SEPARATORS).split()


def token_ids(texts: Iterable[str]) -> tuple[list[str], np.ndarray, list[int]]:
    """The vocabulary in first-seen order, every token occurrence's id in an
    int32 array (4 bytes an occurrence), text after text, and each text's
    token count."""
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__  # a new token's id is len(ids)
    occurrences = array("i")  # 4 bytes an occurrence, handed to numpy without a copy
    lengths: list[int] = []
    for text in texts:
        tokens = tokenize(text)
        occurrences.fromlist(list(map(ids.__getitem__, tokens)))  # faster than extend's item-by-item growth
        lengths.append(len(tokens))
    ids.default_factory = None  # the factory is bound to ids: break the cycle so ids is freed on return
    return list(ids), np.frombuffer(occurrences, dtype=np.int32), lengths


def _check_passage_count(n: int) -> None:
    """Refuse a passage count whose ordinals do not fit ``POSTING_DTYPE``."""
    if n > np.iinfo(POSTING_DTYPE).max:
        raise ValueError(f"{n} passages: a BM25 index holds fewer than 2^31")


class InvertedIndex:
    """Okapi BM25 postings in flat numpy arrays, plus length statistics.

    Token ``t`` has id ``i = token_ids[t]`` and owns positions
    ``offsets[i]:offsets[i + 1]`` (int64) of two parallel arrays: ``ordinals``
    (int32, strictly increasing) and ``tfs`` (>= 1; ``np.min_scalar_type``
    of the longest doc length when built or loaded).  ``terms`` scores
    a token's postings when a query reads them, from each token's idf and
    each passage's ``K1 * _norm(dl, avg)``.
    """

    def __init__(
        self,
        tokens: Sequence[str],
        offsets: np.ndarray,
        ordinals: np.ndarray,
        tfs: np.ndarray,
        doc_lengths: list[int],
        passage_ids: list[str],
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
        dfs = np.diff(offsets).tolist()
        # math.log, not np.log: numpy's vectorized log may differ by an ulp
        self._idf = np.array([math.log((self.n_passages - df + 0.5) / (df + 0.5) + 1.0) for df in dfs])
        with np.errstate(invalid="ignore"):  # 0/0 when no passage has a token, and then no posting reads it
            self._k1_norm = K1 * _norm(np.asarray(doc_lengths, dtype=np.int64), self.avg_doc_length)

    def _span(self, token: str) -> slice:
        i = self.token_ids.get(token)
        return slice(0, 0) if i is None else slice(self.offsets[i], self.offsets[i + 1])

    def terms(self, token: str) -> tuple[np.ndarray, np.ndarray]:
        """The token's postings: ordinals and BM25 terms, by ``_tf_part``'s float64 operations, then the idf."""
        span = self._span(token)
        ordinals = self.ordinals[span].astype(np.intp)  # numpy's fast path in take and add.at
        terms = self.tfs[span].astype(np.float64)
        denominator = self._k1_norm.take(ordinals)
        denominator += terms
        terms *= K1 + 1.0
        terms /= denominator
        terms *= self.idf(token)
        return ordinals, terms

    def idf(self, token: str) -> float:
        i = self.token_ids.get(token)
        return 0.0 if i is None else float(self._idf[i])

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


def _runs(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in the sorted ``values``, then ``len(values)``."""
    starts = np.ones(len(values) + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:-1])
    return starts.nonzero()[0]


def count_pairs(groups: np.ndarray, members: np.ndarray, n_groups: int, n_members: int) -> tuple[np.ndarray, ...]:
    """Count each distinct pair of ``groups[i] < n_groups`` and ``members[i] < n_members``.

    Each pair is one key ``group << bits | member``, int32 if every key
    fits (a sort of int32 keys takes about half the time of int64), else
    int64.  Sorted, the keys run group by group and, within a group, member
    by member, so a run of equal keys is one pair and its length the pair's
    count.  Returns each pair's group (rising, in the keys' dtype), then its
    member and count as int32.  The scratch arrays are the keys, one bool a
    key and a few arrays of one value a pair.
    """
    bits = (n_members - 1).bit_length()
    keys = groups.astype(np.int32 if n_groups << bits <= 1 << 31 else np.int64)
    keys <<= bits
    keys |= members
    keys.sort()
    runs = _runs(keys)
    groups = keys[runs[:-1]]
    members = (groups & ((1 << bits) - 1)).astype(np.int32)
    groups >>= bits
    return groups, members, (runs[1:] - runs[:-1]).astype(np.int32)


def _block_postings(ids: np.ndarray, n_tokens: int, ends: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The postings of runs of whole passages, in order, by ``count_pairs``:
    passage p's occurrences are ``ids[ends[p]:ends[p + 1]]``, and a run holds
    at most ``BLOCK_POSTINGS`` of them unless it is one longer passage.  For
    each run: its tokens (rising), their dfs in it, then each posting's ordinal and tf, token by token."""
    lo, n = 0, len(ends) - 1
    while lo < n:
        hi = max(int(np.searchsorted(ends, ends[lo] + BLOCK_POSTINGS, side="right")) - 1, lo + 1)
        passages = np.repeat(np.arange(hi - lo, dtype=np.int32), np.diff(ends[lo : hi + 1]))
        tokens, ordinals, tfs = count_pairs(ids[ends[lo] : ends[hi]], passages, n_tokens, hi - lo)
        runs = _runs(tokens)
        ordinals += lo
        yield tokens[runs[:-1]], np.diff(runs), ordinals, tfs
        lo = hi


def build_index(store: PassageStore) -> InvertedIndex:
    """Tokenize every passage text and build the inverted index in two passes
    over ``_block_postings``, in passage order.  Pass 1 adds each
    block's postings into their tokens' dfs, which give ``offsets``.  Pass 2
    counts each block again and places each token's postings after those
    earlier blocks placed, so every posting list rises by ordinal.  Beside
    the index, the build holds one int32 id an occurrence and one block's
    scratch: nothing as long as the occurrences in int64."""
    n = len(store)
    if n == 0:
        raise EmptyCorpus("cannot build a BM25 index over an empty store")
    _check_passage_count(n)
    vocabulary, ids, doc_lengths = token_ids(p.text for p in store)
    ends = np.zeros(n + 1, dtype=np.int64)  # passage p's occurrences are ends[p]:ends[p + 1]
    np.cumsum(doc_lengths, out=ends[1:])
    offsets = np.zeros(len(vocabulary) + 1, dtype=np.int64)
    for tokens, dfs, _, _ in _block_postings(ids, len(vocabulary), ends):
        offsets[tokens + 1] += dfs  # each token's df, one after its own position, sums to its offset
    np.cumsum(offsets, out=offsets)
    ordinals = np.empty(offsets[-1], dtype=POSTING_DTYPE)
    tfs = np.empty(offsets[-1], dtype=np.min_scalar_type(max(doc_lengths)))
    placed = offsets[:-1].copy()  # where each token's next posting goes
    for tokens, dfs, block_ordinals, block_tfs in _block_postings(ids, len(vocabulary), ends):
        # a token's k-th posting in the block goes to placed + k; its first is at cumsum(dfs) - dfs
        at = np.repeat(placed[tokens] + dfs - np.cumsum(dfs), dfs)
        at += np.arange(len(block_ordinals))
        ordinals[at] = block_ordinals
        tfs[at] = block_tfs
        placed[tokens] += dfs
    del ids, ends, placed  # freed before the index's arrays of one value a passage
    passage_ids = [p.passage_id for p in store]
    return InvertedIndex(vocabulary, offsets, ordinals, tfs, doc_lengths, passage_ids)


def _norm(doc_length, avg_doc_length: float):
    """BM25's length normalization for an int or, elementwise with the same roundings, an int64 array."""
    return 1.0 - B + B * doc_length / avg_doc_length


def _tf_part(tf: int, doc_length: int, avg_doc_length: float) -> float:
    """BM25's tf part of one posting; ``InvertedIndex`` does the same operations over arrays."""
    return tf * (K1 + 1.0) / (tf + K1 * _norm(doc_length, avg_doc_length))


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
        score += index.idf(token) * _tf_part(tf, dl, index.avg_doc_length)
    return score


def bm25_top_k(index: InvertedIndex, query: str, k: int) -> RetrievalResult:
    """Top-k passages by BM25, term-at-a-time accumulation over postings.

    Only passages with score > 0 are returned; ties break toward the
    lower passage ordinal.  Each query token, repeats included and in
    query order, adds its ``terms`` into one float64 accumulator.  A
    token adds to a passage at most once and the first add onto 0.0 is
    exact, so scores match bm25_score bit for bit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    acc = np.zeros(index.n_passages)
    for token in tokenize(query):
        np.add.at(acc, *index.terms(token))
    # every term is > 0, so the touched passages are exactly these
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
    """``FORMAT`` (version 4): u64 n_passages, n_tokens and n_postings; the
    tokens in id order, the passage ids; then int64 doc lengths and offsets,
    then int32 ordinals and tfs.  The tfs are widened to int32 a block of
    ``BLOCK_POSTINGS`` at a time, as ``binfile.write`` takes each part."""
    header = (index.n_passages, len(index.token_ids), len(index.ordinals))

    def parts() -> Iterator:
        yield binfile.strings(index.token_ids)
        yield binfile.strings(index.passage_ids)
        for a in (index.doc_lengths, index.offsets):
            yield np.ascontiguousarray(a, dtype="<i8")
        yield np.ascontiguousarray(index.ordinals, dtype=POSTING_DTYPE)
        for block in _blocks(len(index.tfs)):
            yield index.tfs[block].astype(POSTING_DTYPE)

    binfile.write(path, FORMAT, header, parts())


def load_bm25_index(path: str | Path) -> InvertedIndex:
    """Load a BM25 index saved by save_bm25_index.

    Every value is checked, since a query indexes arrays with it: fewer
    than 2^31 passages, every token owns at least one posting, ordinals lie
    in ``[0, n_passages)`` and rise strictly within each posting list, tfs
    are >= 1, and each doc length is the sum of its passage's tfs.  The tfs
    are read a block of ``BLOCK_POSTINGS`` at a time, checked and summed as
    the file's int32 values, and only then stored in ``np.min_scalar_type``
    of the longest doc length.  A tf too large for that dtype exceeds its
    passage's doc length, so the sums refuse it, and every message quotes
    the file.
    """
    with binfile.Reader(path, FORMAT) as r:
        n, n_tokens, n_postings = r.header
        _check_passage_count(n)
        tokens = r.strings(n_tokens, "tokens")
        passage_ids = r.strings(n, "passage ids")
        doc_lengths = r.array("<i8", n, "doc lengths")
        offsets = r.array("<i8", n_tokens + 1, "offsets")
        ordinals = r.array(POSTING_DTYPE, n_postings, "ordinals")
        r.need(n_postings * POSTING_DTYPE.itemsize, "tfs")
        if offsets[0] != 0 or offsets[-1] != n_postings or (offsets[1:] <= offsets[:-1]).any():
            raise ValueError(f"offsets must rise strictly from 0 to n_postings {n_postings}")
        tfs = np.empty(n_postings, dtype=np.min_scalar_type(doc_lengths.max(initial=0)))
        sums = np.zeros(n, dtype=np.int64)
        for block in _blocks(n_postings):
            block_tfs = r.array(POSTING_DTYPE, block.stop - block.start, "tfs")
            bad = _first_bad_posting(offsets, ordinals, block_tfs, block, n)
            if bad is not None:
                r.at = ("token", repr(tokens[int(np.searchsorted(offsets, bad, side="right")) - 1]))
                raise ValueError(
                    f"posting [{ordinals[bad]}, {block_tfs[bad - block.start]}]: ordinals must rise strictly "
                    f"within [0, {n}) and tfs be >= 1"
                )
            block_tfs = block_tfs.astype(np.int64)  # the int32 block is freed before add.at's own scratch
            np.add.at(sums, ordinals[block], block_tfs)  # int64 on both sides: numpy's fast path
            tfs[block] = block_tfs
        if (sums != doc_lengths).any():
            bad = int(np.argmax(sums != doc_lengths))
            r.at = ("passage", repr(passage_ids[bad]))
            raise ValueError(f"doc length {doc_lengths[bad]}, but its postings' tfs sum to {sums[bad]}")
        return InvertedIndex(tokens, offsets, ordinals, tfs, doc_lengths.tolist(), passage_ids)


def _first_bad_posting(offsets: np.ndarray, ordinals: np.ndarray, tfs: np.ndarray, block: slice, n: int) -> int | None:
    """The first posting in ``block`` whose ordinal does not rise strictly
    within its list or lie in ``[0, n)``, or whose tf, in the block's
    ``tfs``, is below 1; None if every one is valid."""
    lo, hi = max(block.start - 1, 0), block.stop  # from the previous block's last posting on
    valid = np.concatenate(([True], ordinals[lo + 1 : hi] > ordinals[lo : hi - 1]))
    # a list's first posting follows no other
    valid[offsets[np.searchsorted(offsets, lo) : np.searchsorted(offsets, hi)] - lo] = True
    valid = valid[block.start - lo :]
    valid &= (ordinals[block] >= 0) & (ordinals[block] < n) & (tfs >= 1)
    return None if valid.all() else block.start + int(np.argmin(valid))
