"""Hashed bag-of-words dual encoder.

Texts become L2-normalized token-count vectors in a fixed hashed
vocabulary (blake2b bucketing, stable across processes).  Two linear
maps, one for questions and one for passages, project those sparse
features to dense d-dimensional embeddings compared by dot product.

The towers are Fortran-ordered float32, the precision ``model.bin``
holds, whether ``init_model`` drew them or ``load_model`` read them.
They project to float64 embeddings: a batch widens, exactly, only the
tower rows its features use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from . import binfile
from .bm25 import count_keys, token_ids
from .errors import DimensionError

# version 2 is version 1 with the CRC-32 trailer
FORMAT = binfile.Format("model", b"DPRM", 2, "II")

DEFAULT_DIM = 128
DEFAULT_HASH_DIM = 16384
# tower rows drawn, saved or loaded at once: 8 float64 draws of a column fill a 64-byte cache line
BLOCK_ROWS = 8
# embedding columns one sparse product computes; each product walks every
# feature again, so 8 columns took 1.5x the time of a whole gather at d=128
PROJECT_COLUMNS = 32


def hash_token(token: str, hash_dim: int) -> int:
    """Stable bucket for a token: blake2b, 8-byte digest, mod hash_dim."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % hash_dim


def featurize(text: str, hash_dim: int = DEFAULT_HASH_DIM) -> sparse.csr_array:
    """One L2-normalized hashed count row (shape (1, hash_dim)).

    Empty or non-alphanumeric text maps to the zero vector.
    """
    return featurize_texts([text], hash_dim)


def featurize_texts(texts: Sequence[str], hash_dim: int = DEFAULT_HASH_DIM) -> sparse.csr_array:
    """Stacked hashed-count rows, one per text, each L2-normalized."""
    if hash_dim < 1:
        raise ValueError(f"hash_dim must be >= 1, got {hash_dim}")
    vocabulary, ids, lengths = token_ids(texts)
    buckets = np.array([hash_token(token, hash_dim) for token in vocabulary], dtype=np.int64)
    keys = np.repeat(np.arange(0, len(lengths) * hash_dim, hash_dim, dtype=np.int64), lengths)
    keys += buckets[ids]
    indptr, indices, counts = count_keys(keys, hash_dim, len(lengths))
    data = counts.astype(np.float64)
    # the counts are integers, so every sum of squares is exact
    rows = np.repeat(np.arange(len(lengths)), np.diff(indptr))
    data /= np.sqrt(np.bincount(rows, weights=data * data))[rows]
    return sparse.csr_array((data, indices, indptr), shape=(len(lengths), hash_dim))


@dataclass
class EncoderModel:
    """Two projection matrices over the shared hashed feature space.

    Each tower has the logical shape (d, hash_dim) and is stored
    Fortran-ordered, so ``w.T`` is a C-contiguous (hash_dim, d) array:
    projections (``features @ w.T``) and gradients read and write it
    without copying.  Construction converts C-ordered towers; a C-ordered
    array assigned afterwards still computes the same numbers, only
    slower.  A full model's towers are float32 (``init_model``,
    ``load_model``); ``train`` steps a float64 model of the active rows.
    Any other dtype is a ``DimensionError``.
    """

    d: int
    hash_dim: int
    w_q: np.ndarray
    w_p: np.ndarray

    def __post_init__(self):
        for name, w in (("w_q", self.w_q), ("w_p", self.w_p)):
            if w.shape != (self.d, self.hash_dim):
                raise DimensionError(
                    f"{name} has shape {w.shape}, expected ({self.d}, {self.hash_dim})"
                )
            if w.dtype not in (np.float32, np.float64):
                raise DimensionError(f"{name} has dtype {w.dtype}, expected float32 or float64")
        self.w_q = np.asfortranarray(self.w_q)
        self.w_p = np.asfortranarray(self.w_p)


def init_model(d: int = DEFAULT_DIM, hash_dim: int = DEFAULT_HASH_DIM, seed: int = 0) -> EncoderModel:
    """Uniform(-1/sqrt(hash_dim), 1/sqrt(hash_dim)) init, question tower
    first, each float64 draw rounded to the float32 towers."""
    if d < 1 or hash_dim < 1:
        raise ValueError(f"d and hash_dim must be >= 1, got d={d}, hash_dim={hash_dim}")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(hash_dim)
    # consecutive draws continue one stream, so drawing BLOCK_ROWS rows at a
    # time straight into the Fortran-ordered towers rounds one draw per tower
    w_q, w_p = (np.empty((d, hash_dim), np.float32, order="F") for _ in range(2))
    for w in (w_q, w_p):
        for lo in range(0, d, BLOCK_ROWS):
            w[lo : lo + BLOCK_ROWS] = rng.uniform(-bound, bound, size=(min(BLOCK_ROWS, d - lo), hash_dim))
    return EncoderModel(d=d, hash_dim=hash_dim, w_q=w_q, w_p=w_p)


def compact_columns(features: sparse.csr_array) -> tuple[np.ndarray, sparse.csr_array]:
    """(rows, compact): the sorted columns that ``features`` uses, and
    ``features`` with each column renumbered to its position in ``rows``.

    Renumbering keeps each row's entries in order, so ``compact @ m[rows]``
    adds the same terms in the same order as ``features @ m``: the same bits.
    """
    used = np.zeros(features.shape[1], dtype=bool)
    used[features.indices] = True
    rows = np.flatnonzero(used)
    columns = np.cumsum(used)[features.indices] - 1
    return rows, sparse.csr_array((features.data, columns, features.indptr), shape=(features.shape[0], len(rows)))


def _project(features: sparse.csr_array, w: np.ndarray) -> np.ndarray:
    """``features @ w.T`` in float64; row results are independent of batch composition.

    Only the buckets the features use are widened (``compact_columns``),
    for ``PROJECT_COLUMNS`` embedding columns at a time: beside the result
    a batch holds one such block, and each column has the bits of the
    float64 widening's.
    """
    rows, compact = compact_columns(features)
    out = np.empty((features.shape[0], w.shape[0]))
    for lo in range(0, w.shape[0], PROJECT_COLUMNS):
        block = w.T[rows, lo : lo + PROJECT_COLUMNS]
        out[:, lo : lo + PROJECT_COLUMNS] = compact @ block.astype(np.float64, copy=False)
    return out


def encode_questions(model: EncoderModel, texts: Sequence[str]) -> np.ndarray:
    return _project(featurize_texts(texts, model.hash_dim), model.w_q)


def encode_passages(model: EncoderModel, texts: Sequence[str]) -> np.ndarray:
    return _project(featurize_texts(texts, model.hash_dim), model.w_p)


def encode_question(model: EncoderModel, text: str) -> np.ndarray:
    return encode_questions(model, [text])[0]


def save_model(model: EncoderModel, path: str | Path) -> None:
    """``FORMAT``: u32 d and u32 hash_dim, then both (d, hash_dim) matrices
    as float32 little-endian row-major (question tower first), whatever
    the towers' memory order.  The towers are converted ``BLOCK_ROWS``
    rows at a time, so no whole-tower copy is made."""
    blocks = (
        np.ascontiguousarray(w[lo : lo + BLOCK_ROWS], dtype="<f4")
        for w in (model.w_q, model.w_p)
        for lo in range(0, model.d, BLOCK_ROWS)
    )
    binfile.write(path, FORMAT, (model.d, model.hash_dim), blocks)


def load_model(path: str | Path) -> EncoderModel:
    """Read a model written by save_model.  The towers come back as the
    file's float32 values, Fortran-ordered and writeable, each read
    ``BLOCK_ROWS`` rows at a time as ``save_model`` writes it."""
    with binfile.Reader(path, FORMAT) as r:
        d, hash_dim = r.header
        r.need(2 * d * hash_dim * 4, "towers")
        towers = [np.empty((d, hash_dim), np.float32, order="F") for _ in range(2)]
        for w in towers:
            for lo in range(0, d, BLOCK_ROWS):
                block = w[lo : lo + BLOCK_ROWS]
                block[...] = r.array("<f4", block.size, "towers").reshape(block.shape)
        return EncoderModel(d, hash_dim, *towers)
