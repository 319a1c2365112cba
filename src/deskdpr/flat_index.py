"""Exact dot-product search over float32 passage embeddings.

A row's score is ``(vectors[i] * q).sum()`` with the row widened to
float64: elementwise multiply, then numpy's pairwise sum.  Results are
ordered by score, highest first, and ties break toward the lower row
ordinal.  ``search_naive`` evaluates that definition row by row and is
kept as the reference the fast kernel is tested against.

``search`` returns exactly the same hits, score bits and ranks at the
speed of a float32 matrix-vector product.  It

1. scores every row approximately with float32 products of
   ``block_rows`` rows each, and shortlists every row whose approximate
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
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import PassageStore, render_encoder_input
from .encoder import EncoderModel, encode_passages
from .errors import CorruptIndex, DimensionError, DuplicateId, EmptyCorpus, UnsupportedVersion, reading
from .results import RetrievalResult, hits_from_ranking

INDEX_MAGIC = b"DRIX"
INDEX_VERSION = 1
# passages encoded at once; over 50k passages this adds 33 MiB to peak RSS, where one batch adds 278 MiB
BUILD_BATCH_ROWS = 1024


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
    """Encode every passage (title [SEP] text) and stack as float32 rows.

    Raises ``ValueError`` when a row overflows float32.
    """
    if len(store) == 0:
        raise EmptyCorpus("cannot build a dense index over an empty store")
    texts = [render_encoder_input(p) for p in store]
    ids = [p.passage_id for p in store]
    rows = []
    with np.errstate(over="ignore"):  # FlatIndex refuses rows that overflow float32
        for lo in range(0, len(texts), BUILD_BATCH_ROWS):
            rows.append(encode_passages(model, texts[lo : lo + BUILD_BATCH_ROWS]).astype(np.float32))
    return FlatIndex(d=model.d, ids=ids, vectors=np.vstack(rows))


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


def _ranked(index: FlatIndex, rows: np.ndarray, q: np.ndarray, k: int, block_rows: int) -> RetrievalResult:
    """The top k of ``rows`` by the defining expression, rescored
    ``block_rows`` rows at a time, ties toward the lower ordinal."""
    scores = np.concatenate(
        [(index.vectors[rows[lo : lo + block_rows]] * q).sum(axis=1) for lo in range(0, len(rows), block_rows)]
    )
    top = np.lexsort((rows, -scores))[:k]
    return hits_from_ranking([(index.ids[rows[j]], float(scores[j])) for j in top])


def search(index: FlatIndex, q_emb: np.ndarray, k: int, block_rows: int = 4096) -> RetrievalResult:
    """Top-k rows by dot product for one query.

    Equals ``search_naive(index, q_emb, k)`` in ids, score bits and
    ranks.  Each float32 product scores ``block_rows`` rows.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    q = _check_query(index, q_emb, k)
    m = len(index)
    if m == 0:
        return RetrievalResult(hits=[])
    approx = np.empty(m, dtype=np.float32)
    block_max = np.empty(-(-m // block_rows))
    with np.errstate(over="ignore", invalid="ignore"):
        q32 = q.astype(np.float32)
        for i, lo in enumerate(range(0, m, block_rows)):
            block = index.vectors[lo : lo + block_rows]
            np.matmul(block, q32, out=approx[lo : lo + block_rows])
            block_max[i] = max(block.max(), -block.min())
        bound = _approximation_bound(index.d, float(block_max.max()), float(np.abs(q).sum()))
        return _ranked(index, _shortlist(approx, bound, k), q, k, block_rows)


def search_many(
    index: FlatIndex, queries: np.ndarray, k: int, block_rows: int = 4096
) -> list[RetrievalResult]:
    """``search`` for each row of ``queries`` (n, d)."""
    queries = np.asarray(queries)
    if queries.ndim != 2 or queries.shape[1] != index.d:
        raise DimensionError(f"queries shape {queries.shape} does not match index dimension {index.d}")
    return [search(index, q, k, block_rows) for q in queries]


def search_naive(index: FlatIndex, q_emb: np.ndarray, k: int) -> RetrievalResult:
    """Reference scan: score every row on its own, sort the lot."""
    q = _check_query(index, q_emb, k)
    scores = np.array([(index.vectors[i] * q).sum() for i in range(len(index))])
    ordinals = np.arange(len(index))
    top = np.lexsort((ordinals, -scores))[:k]
    return hits_from_ranking([(index.ids[i], float(scores[i])) for i in top])


def save_index(index: FlatIndex, path: str | Path) -> None:
    """Binary layout: magic, u32 version, u32 d, u64 M, ids as u32
    length-prefixed UTF-8, vectors float32 little-endian row-major, then
    a u32 CRC-32 of everything before it."""
    parts = [INDEX_MAGIC, struct.pack("<IIQ", INDEX_VERSION, index.d, len(index))]
    for pid in index.ids:
        encoded = pid.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
    parts.append(np.ascontiguousarray(index.vectors, dtype="<f4").tobytes())
    payload = b"".join(parts)
    with open(path, "wb") as f:
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload)))


def load_index(path: str | Path) -> FlatIndex:
    """Read an index written by save_index, verifying the checksum."""
    raw = Path(path).read_bytes()
    if len(raw) < 20:
        raise CorruptIndex(f"{path}: too short to be an index file")
    if raw[:4] != INDEX_MAGIC:
        raise CorruptIndex(f"{path}: bad magic {raw[:4]!r}, expected {INDEX_MAGIC!r}")
    stored_crc = struct.unpack("<I", raw[-4:])[0]
    payload = raw[:-4]
    if zlib.crc32(payload) != stored_crc:
        raise CorruptIndex(f"{path}: checksum mismatch, file is damaged")
    version, d, m = struct.unpack("<IIQ", payload[4:20])
    if version != INDEX_VERSION:
        raise UnsupportedVersion(f"{path}: index version {version}, this build reads {INDEX_VERSION}")
    offset = 20
    ids: list[str] = []
    for _ in range(m):
        if offset + 4 > len(payload):
            raise CorruptIndex(f"{path}: truncated id table")
        (id_len,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        if offset + id_len > len(payload):
            raise CorruptIndex(f"{path}: truncated id table")
        ids.append(payload[offset : offset + id_len].decode("utf-8"))
        offset += id_len
    vector_bytes = m * d * 4
    if len(payload) - offset != vector_bytes:
        raise CorruptIndex(
            f"{path}: expected {vector_bytes} bytes of vectors, found {len(payload) - offset}"
        )
    vectors = np.frombuffer(payload, dtype="<f4", count=m * d, offset=offset).reshape(m, d).copy()
    with reading(path):  # a file with a valid checksum can still hold non-finite vectors
        return FlatIndex(d=d, ids=ids, vectors=vectors)
