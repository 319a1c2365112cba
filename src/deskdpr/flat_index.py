"""Exact dot-product search over float32 passage embeddings.

A row's score is ``(vectors[i] * q).sum()`` with the row widened to
float64: elementwise multiply, then numpy's pairwise sum.  Results are
ordered by score, highest first, and ties break toward the lower row
ordinal.  ``search_naive`` evaluates that definition row by row and is
kept as the reference the fast kernel is tested against.

``search`` returns exactly the same hits, score bits and ranks at the
speed of a float32 matrix-vector product.  It

1. scores every row approximately with float32 products of
   ``SEARCH_BLOCK_ROWS`` rows each, and shortlists every row whose approximate
   score is within a rigorous rounding bound of the k-th best;
2. rescores only the shortlist with the defining float64 expression;
3. orders the rescored rows by (score descending, ordinal ascending).

The bound is Higham's gamma_n analysis of a dot product summed in any
order, so it holds for whatever order the BLAS adds in.  It scales with
the largest entry of the rows, found block by block during the same
scan, so an index edited between calls stays exact.  A query whose
float32 cast, approximate scores or bound is not finite has every row
rescored.  ``search_many`` runs ``search`` for each row of a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import binfile
from .corpus import PassageStore, render_encoder_input
from .encoder import EncoderModel, encode_passages
from .errors import DimensionError, DuplicateId, EmptyCorpus
from .results import RetrievalResult, hits_from_ranking

FORMAT = binfile.Format("dense index", b"DRIX", 1, "IQ")
# passages encoded at once; at d=128, one batch's scratch arrays add about 7 MiB to the rows themselves
BUILD_BATCH_ROWS = 1024
# rows scored by one float32 product in search, and rescored at once
SEARCH_BLOCK_ROWS = 4096


@dataclass
class FlatIndex:
    """ids[i] labels row i of vectors (float32, shape (M, d), every entry finite)."""

    d: int
    ids: list[str]
    vectors: np.ndarray

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape != (len(self.ids), self.d):
            raise DimensionError(
                f"vectors shape {self.vectors.shape} does not match "
                f"{len(self.ids)} ids of dimension {self.d}"
            )
        if self.vectors.dtype != np.float32:
            raise DimensionError(f"vectors must be float32, got {self.vectors.dtype}")
        # NaN propagates through min and max, so two reductions find any non-finite entry
        if self.vectors.size and not np.isfinite([self.vectors.min(), self.vectors.max()]).all():
            row = int(np.flatnonzero(~np.isfinite(self.vectors).all(axis=1))[0])
            raise ValueError(f"passage vectors must be finite in float32; row {row} ({self.ids[row]!r}) is not")
        seen: set[str] = set()
        for pid in self.ids:
            if pid in seen:
                raise DuplicateId(f"duplicate passage id in index: {pid!r}")
            seen.add(pid)

    def __len__(self) -> int:
        return len(self.ids)


def build_index(model: EncoderModel, store: PassageStore) -> FlatIndex:
    """Encode every passage (title [SEP] text) into one float32 matrix, batch by batch.

    Raises ``ValueError`` when a row overflows float32.
    """
    if len(store) == 0:
        raise EmptyCorpus("cannot build a dense index over an empty store")
    ids = [p.passage_id for p in store]
    vectors = np.empty((len(store), model.d), dtype=np.float32)
    with np.errstate(over="ignore"):  # FlatIndex refuses rows that overflow float32
        for lo in range(0, len(store), BUILD_BATCH_ROWS):
            texts = [render_encoder_input(p) for p in store.passages[lo : lo + BUILD_BATCH_ROWS]]
            vectors[lo : lo + BUILD_BATCH_ROWS] = encode_passages(model, texts)  # rounds as astype does
    return FlatIndex(d=model.d, ids=ids, vectors=vectors)


# Unit roundoffs of float32 and float64.
_U32 = 2.0**-24
_U64 = 2.0**-53


def _check_query(index: FlatIndex, q_emb: np.ndarray, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(q_emb)
    if q.ndim != 1 or q.shape[0] != index.d:
        raise DimensionError(f"query shape {q.shape} does not match index dimension {index.d}")
    return q.astype(np.float64)


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * u / (1.0 - n * u) if n * u < 1.0 else math.inf


def _approximation_bound(d: int, row_max: float, q_l1: float) -> float:
    """A bound on |exact score - float32 product score| over rows whose
    entries are all at most ``row_max`` in magnitude.

    With S = sum_j |v_j q_j| <= row_max * ||q||_1, the float64 rescore is
    within gamma_{d+1}(u64) S of v.q, casting q to float32 moves v.q by
    at most u32 S, and the float32 product is within
    gamma_{d+1}(u32) (1 + u32) S of v.fl32(q).  Underflow, even where
    subnormals are flushed to zero, adds at most
    2^-125 (||q||_1 + d (row_max + 1)).  The result is doubled to cover
    the rounding of this computation and of the threshold built from it.
    """
    relative = _gamma(d + 1, _U64) + _U32 + _gamma(d + 1, _U32) * (1.0 + _U32)
    return 2.0 * (relative * row_max * q_l1 + 2.0**-125 * (q_l1 + d * (row_max + 1.0)))


def _shortlist(approx: np.ndarray, bound: float, k: int) -> np.ndarray:
    """Ordinals of the rows that may be in the top k.

    ``approx`` holds the rows' approximate scores and ``bound`` the
    query's rounding bound.  A row more than twice the bound below the
    k-th best approximate score is beaten, in exact score, by k rows, so
    it is not in the top k.  If a score or the bound is not finite,
    every row is kept.
    """
    m = len(approx)
    if m <= k:
        return np.arange(m)
    threshold = float(np.partition(approx, m - k)[m - k]) - 2.0 * bound
    if not (math.isfinite(threshold) and np.isfinite(approx).all()):
        return np.arange(m)
    # the comparison runs in float32: round the threshold down, never up
    threshold32 = np.float32(threshold)
    if float(threshold32) > threshold:
        threshold32 = np.nextafter(threshold32, np.float32(-np.inf))
    return np.flatnonzero(approx >= threshold32)


def _ranked(index: FlatIndex, rows: np.ndarray, q: np.ndarray, k: int) -> RetrievalResult:
    """The top k of ``rows`` by the defining expression, rescored
    ``SEARCH_BLOCK_ROWS`` rows at a time, ties toward the lower ordinal."""
    step = SEARCH_BLOCK_ROWS
    scores = np.concatenate([(index.vectors[rows[lo : lo + step]] * q).sum(axis=1) for lo in range(0, len(rows), step)])
    top = np.lexsort((rows, -scores))[:k]
    return hits_from_ranking([(index.ids[rows[j]], float(scores[j])) for j in top])


def search(index: FlatIndex, q_emb: np.ndarray, k: int) -> RetrievalResult:
    """Top-k rows by dot product for one query.

    Equals ``search_naive(index, q_emb, k)`` in ids, score bits and
    ranks.  Each float32 product scores ``SEARCH_BLOCK_ROWS`` rows.
    """
    q = _check_query(index, q_emb, k)
    m = len(index)
    if m == 0:
        return RetrievalResult(hits=[])
    approx = np.empty(m, dtype=np.float32)
    block_max = np.empty(-(-m // SEARCH_BLOCK_ROWS))
    with np.errstate(over="ignore", invalid="ignore"):
        q32 = q.astype(np.float32)
        for i, lo in enumerate(range(0, m, SEARCH_BLOCK_ROWS)):
            block = index.vectors[lo : lo + SEARCH_BLOCK_ROWS]
            np.matmul(block, q32, out=approx[lo : lo + SEARCH_BLOCK_ROWS])
            block_max[i] = max(block.max(), -block.min())
        bound = _approximation_bound(index.d, float(block_max.max()), float(np.abs(q).sum()))
        return _ranked(index, _shortlist(approx, bound, k), q, k)


def search_many(index: FlatIndex, queries: np.ndarray, k: int) -> list[RetrievalResult]:
    """``search`` for each row of ``queries`` (n, d)."""
    queries = np.asarray(queries)
    if queries.ndim != 2 or queries.shape[1] != index.d:
        raise DimensionError(f"queries shape {queries.shape} does not match index dimension {index.d}")
    return [search(index, q, k) for q in queries]


def search_naive(index: FlatIndex, q_emb: np.ndarray, k: int) -> RetrievalResult:
    """Reference scan: score every row on its own, sort the lot."""
    q = _check_query(index, q_emb, k)
    scores = np.array([(index.vectors[i] * q).sum() for i in range(len(index))])
    ordinals = np.arange(len(index))
    top = np.lexsort((ordinals, -scores))[:k]
    return hits_from_ranking([(index.ids[i], float(scores[i])) for i in top])


def save_index(index: FlatIndex, path: str | Path) -> None:
    """``FORMAT``: u32 d and u64 M, the ids, then the vectors as float32
    little-endian row-major."""
    vectors = np.ascontiguousarray(index.vectors, dtype="<f4")
    binfile.write(path, FORMAT, (index.d, len(index)), (binfile.strings(index.ids), vectors))


def load_index(path: str | Path) -> FlatIndex:
    """Read an index written by save_index."""
    with binfile.Reader(path, FORMAT) as r:
        d, m = r.header
        ids = r.strings(m, "id table")
        vectors = r.array("<f4", m * d, "vectors").reshape(m, d).copy()
        # FlatIndex refuses non-finite vectors, which a valid checksum does not rule out
        return FlatIndex(d=d, ids=ids, vectors=vectors)
