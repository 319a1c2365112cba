"""Dual-encoder training with in-batch negatives.

Each batch of B instances scores every question against B + H candidate
passages (the B positives plus every hard negative in the batch, in that
order); question i's positive sits at column i.  The loss is the mean
softmax negative log-likelihood of the positive column, and gradients
are exact analytic derivatives through both linear towers.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .corpus import render_encoder_input
from .dataset import DatasetSplit, TrainingInstance
from .encoder import EncoderModel, featurize_texts
from .flat_index import FlatIndex, search_many

log = logging.getLogger(__name__)

OPTIMIZERS = ("adam", "sgd")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    epochs: int = 8
    learning_rate: float = 1e-2
    seed: int = 0
    d: int = 128
    hash_dim: int = 16384
    optimizer: str = "adam"

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        # train leaves a row with zero gradients untouched, which equals
        # updating it only when lr * +0.0 is +0.0: lr finite and not signed
        if not math.isfinite(self.learning_rate) or math.copysign(1.0, self.learning_rate) < 0:
            raise ValueError(f"learning_rate must be finite and >= 0 (not -0.0), got {self.learning_rate}")
        if self.d < 1 or self.hash_dim < 1:
            raise ValueError(f"d and hash_dim must be >= 1, got d={self.d}, hash_dim={self.hash_dim}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")


@dataclass(frozen=True)
class BatchLossReport:
    loss: float
    per_question_loss: tuple[float, ...]
    positive_ranks: tuple[int, ...]


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max shift."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def nll_loss(sim_positive: float, sim_negatives: Sequence[float]) -> float:
    """Softmax NLL of the positive among positive + negatives.

    logsumexp([sim_positive, *sim_negatives]) - sim_positive, with the
    max subtracted before exponentiation so large similarities never
    overflow.
    """
    scores = np.array([sim_positive, *sim_negatives], dtype=np.float64)
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()) - sim_positive)


def _candidate_texts(instances: Sequence[TrainingInstance]) -> list[str]:
    """Encoder inputs of a batch's candidates: every positive, then every hard negative."""
    texts = [render_encoder_input(inst.positive) for inst in instances]
    texts += [render_encoder_input(neg) for inst in instances for neg in inst.hard_negatives]
    return texts


class FeatureTable:
    """Hashed features of the question and candidate texts of some instances.

    Each distinct text is featurized once, by one ``featurize_texts``
    call; a batch of those instances slices its rows from the table.
    Feature rows do not depend on the batch they sit in, so a sliced
    batch equals one featurized on its own.

    ``rows_q`` and ``rows_p`` are the active rows: the sorted hash
    buckets that occur in some question and in some candidate text.
    They are the only rows of ``w_q.T`` and ``w_p.T`` to which a batch
    of these instances can give a nonzero gradient.
    """

    def __init__(self, instances: Sequence[TrainingInstance], hash_dim: int):
        rows: dict[str, int] = {}
        for inst in instances:
            rows.setdefault(inst.question.text, len(rows))
        for text in _candidate_texts(instances):
            rows.setdefault(text, len(rows))
        self._rows = rows
        self._features = featurize_texts(list(rows), hash_dim)
        x, y = self.batch(instances)
        self.rows_q = np.unique(x.indices)
        self.rows_p = np.unique(y.indices)

    def batch(self, instances: Sequence[TrainingInstance]):
        """(question features (B, H), candidate features (C, H)) of a batch."""
        x = self._features[[self._rows[inst.question.text] for inst in instances]]
        y = self._features[[self._rows[text] for text in _candidate_texts(instances)]]
        return x, y


def _batch_matrices(model: EncoderModel, instances: Sequence[TrainingInstance], features: FeatureTable):
    """Feature and embedding matrices for one batch.

    Returns (X, Y, Q, P, S): question features (B, H), candidate features
    (C, H), question embeddings (B, d), candidate embeddings (C, d), and
    the score matrix S = Q P^T (B, C).  Features come from ``features``,
    a table built over (at least) these instances.
    """
    pids = [inst.positive.passage_id for inst in instances]
    if len(set(pids)) < len(pids):
        log.warning("batch has duplicate positive passages; their in-batch negatives overlap")
    x, y = features.batch(instances)
    q = x @ model.w_q.T
    p = y @ model.w_p.T
    s = q @ p.T
    return x, y, q, p, s


def _report_from_scores(s: np.ndarray) -> BatchLossReport:
    b = s.shape[0]
    rows = np.arange(b)
    positive_scores = s[rows, rows]
    shifted = s - s.max(axis=1, keepdims=True)
    logsumexp = s.max(axis=1) + np.log(np.exp(shifted).sum(axis=1))
    per_question = logsumexp - positive_scores
    ranks = 1 + (s > positive_scores[:, None]).sum(axis=1)
    return BatchLossReport(
        loss=float(per_question.mean()),
        per_question_loss=tuple(float(v) for v in per_question),
        positive_ranks=tuple(int(r) for r in ranks),
    )


def batch_loss(model: EncoderModel, instances: Sequence[TrainingInstance]) -> BatchLossReport:
    """NLL of the positive column for each question, averaged."""
    if len(instances) < 2:
        raise ValueError("in-batch negatives need at least 2 instances per batch")
    return _report_from_scores(_batch_matrices(model, instances, FeatureTable(instances, model.hash_dim))[4])


def _active_columns(features: sparse.csr_array, rows: np.ndarray) -> sparse.csr_array:
    """``features[:, rows]``, for sorted ``rows`` that hold every column in use.

    Renumbering the columns keeps each row's entries in order, so a
    product with the result adds the same terms in the same order as
    one with ``features``.
    """
    columns = np.searchsorted(rows, features.indices)
    return sparse.csr_array((features.data, columns, features.indptr), shape=(features.shape[0], len(rows)))


def batch_gradients(
    model: EncoderModel,
    instances: Sequence[TrainingInstance],
    features: FeatureTable | None = None,
) -> tuple[BatchLossReport, np.ndarray, np.ndarray]:
    """Loss report plus exact gradients of the mean NLL w.r.t. both towers.

    With ``features``, a table built over (at least) these instances, the
    gradients cover the table's active rows only: ``g_wq`` is the
    gradient of ``w_q[:, features.rows_q]``, of shape (d, len(rows_q)),
    and ``g_wp`` that of ``w_p[:, features.rows_p]``; every other
    gradient entry is exactly +0.0.  Without it, they are scattered into
    the towers' full shape (d, hash_dim).  Either way each is
    Fortran-ordered like the towers, a transposed view of a C-ordered
    (rows, d) product.
    """
    if len(instances) < 2:
        raise ValueError("in-batch negatives need at least 2 instances per batch")
    table = FeatureTable(instances, model.hash_dim) if features is None else features
    x, y, q, p, s = _batch_matrices(model, instances, table)
    report = _report_from_scores(s)
    b = s.shape[0]
    g = softmax_rows(s)
    g[np.arange(b), np.arange(b)] -= 1.0
    g /= b
    d_q = g @ p
    d_p = g.T @ q
    g_q = _active_columns(x, table.rows_q).T @ d_q
    g_p = _active_columns(y, table.rows_p).T @ d_p
    if features is None:
        g_q = _scattered(g_q, table.rows_q, model.hash_dim)
        g_p = _scattered(g_p, table.rows_p, model.hash_dim)
    return report, g_q.T, g_p.T


def _scattered(g: np.ndarray, rows: np.ndarray, hash_dim: int) -> np.ndarray:
    """(hash_dim, d) zeros holding the (rows, d) gradient ``g`` at ``rows``."""
    full = np.zeros((hash_dim, g.shape[1]))
    full[rows] = g
    return full


def _row_sets(model: EncoderModel, rows_q: np.ndarray | None, rows_p: np.ndarray | None) -> list[np.ndarray]:
    all_rows = np.arange(model.hash_dim)
    return [all_rows if rows is None else rows for rows in (rows_q, rows_p)]


class SgdOptimizer:
    """Plain SGD, ``w -= lr * g``, over the given rows of each tower.

    ``step``'s gradients are those of ``w_q[:, rows_q]`` and
    ``w_p[:, rows_p]``, as ``batch_gradients`` returns them; ``rows_q``
    and ``rows_p`` are sorted distinct hash buckets, every one by default.
    """

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(
        self,
        model: EncoderModel,
        g_wq: np.ndarray,
        g_wp: np.ndarray,
        rows_q: np.ndarray | None = None,
        rows_p: np.ndarray | None = None,
    ) -> None:
        for w, g, rows in zip((model.w_q, model.w_p), (g_wq, g_wp), _row_sets(model, rows_q, rows_p)):
            w.T[rows] -= self.learning_rate * g.T


class AdamOptimizer:
    """Adam over the given rows of each tower, computed in place.

    ``step`` takes gradients and rows as ``SgdOptimizer.step`` does.  The
    moments cover those rows only, so every step must name the rows of
    the first; another row set raises ``ValueError``.  A row left out has
    the value it would have under Adam over every row whenever its
    gradient has been +0.0 at every step: its moments stay 0 and its
    update is ``lr * 0 / (sqrt(0) + epsilon) = +0.0``, which leaves its
    bits unchanged (-0.0 included) for any ``lr`` that ``TrainConfig``
    accepts: finite, with its sign bit clear.

    Each step evaluates, element by element and in this order,

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p -= lr * (m / bias1) / (sqrt(v / bias2) + epsilon)

    as ``out=`` ufuncs into two scratch blocks reused across steps, over
    one gathered block of ``BLOCK_ROWS`` rows of the towers' (hash_dim, d)
    view at a time so the working set stays in cache.  Every operation
    rounds exactly as the whole-array formula does, so the result is
    bitwise the same.
    """

    BLOCK_ROWS = 512

    def __init__(
        self,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        # the first step's rows, their moments in the (rows, d) layout of
        # w.T[rows], and scratch
        self._rows: list[np.ndarray] | None = None
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(
        self,
        model: EncoderModel,
        g_wq: np.ndarray,
        g_wp: np.ndarray,
        rows_q: np.ndarray | None = None,
        rows_p: np.ndarray | None = None,
    ) -> None:
        row_sets = _row_sets(model, rows_q, rows_p)
        if self._rows is None:
            self._rows = row_sets
            self._m = [np.zeros((len(rows), model.d)) for rows in row_sets]
            self._v = [np.zeros((len(rows), model.d)) for rows in row_sets]
            shape = (min(self.BLOCK_ROWS, max(map(len, row_sets))), model.d)
            self._scratch = (np.empty(shape), np.empty(shape))
        elif not all(np.array_equal(rows, first) for rows, first in zip(row_sets, self._rows)):
            raise ValueError("Adam's moments cover the rows of its first step; this step names other rows")
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for w, g, rows, m, v in zip((model.w_q, model.w_p), (g_wq.T, g_wp.T), row_sets, self._m, self._v):
            for lo in range(0, len(rows), self.BLOCK_ROWS):
                hi = lo + self.BLOCK_ROWS
                p = w.T[rows[lo:hi]]
                self._update(p, g[lo:hi], m[lo:hi], v[lo:hi], bias1, bias2)
                w.T[rows[lo:hi]] = p

    def _update(self, p, g, m, v, bias1: float, bias2: float) -> None:
        a, b = (s[: p.shape[0]] for s in self._scratch)
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=a)
        m += a
        v *= self.beta2
        np.multiply(g, g, out=a)
        np.multiply(1.0 - self.beta2, a, out=a)
        v += a
        np.divide(m, bias1, out=a)
        np.multiply(self.learning_rate, a, out=a)
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += self.epsilon
        a /= b
        p -= a


def make_optimizer(name: str, learning_rate: float):
    if name == "sgd":
        return SgdOptimizer(learning_rate)
    if name == "adam":
        return AdamOptimizer(learning_rate)
    raise ValueError(f"unknown optimizer {name!r}")


class DevPool:
    """A dev split's passage pool and the feature rows dev scoring needs.

    The pool is every distinct passage mentioned by a dev instance
    (positives, hard negatives, random negatives) in first-appearance
    order.  Features do not depend on the weights, so ``train`` builds
    one pool and each epoch only projects it through the current towers.
    """

    def __init__(self, dev_split: DatasetSplit, hash_dim: int):
        pool: list = []
        seen: set[str] = set()
        for inst in dev_split:
            for passage in (inst.positive, *inst.hard_negatives, *inst.random_negatives):
                if passage.passage_id not in seen:
                    seen.add(passage.passage_id)
                    pool.append(passage)
        if not pool:
            raise ValueError("dev split mentions no passages")
        self.ids = [p.passage_id for p in pool]
        self.positives = [inst.positive.passage_id for inst in dev_split]
        self.passage_features = featurize_texts([render_encoder_input(p) for p in pool], hash_dim)
        self.question_features = featurize_texts([inst.question.text for inst in dev_split], hash_dim)


def dev_hit_at_k(
    model: EncoderModel, dev_split: DatasetSplit, k: int = 10, pool: DevPool | None = None
) -> float:
    """hit@k over a dense index built on the dev split's passage pool.

    A question scores a hit when its positive lands in the top k by dot
    product.  ``pool``, built over this split, saves featurizing it again.
    """
    if pool is None:
        pool = DevPool(dev_split, model.hash_dim)
    vectors = (pool.passage_features @ model.w_p.T).astype(np.float32)
    index = FlatIndex(d=model.d, ids=pool.ids, vectors=vectors)
    results = search_many(index, pool.question_features @ model.w_q.T, k)
    hits = sum(positive in result.ids() for positive, result in zip(pool.positives, results))
    return hits / len(pool.positives)


def train(
    model: EncoderModel,
    train_split: DatasetSplit,
    dev_split: DatasetSplit | None,
    cfg: TrainConfig,
) -> tuple[EncoderModel, list[dict]]:
    """Shuffled-batch training; returns the model and one metrics row per epoch.

    Batches are consecutive runs of the per-epoch permutation; a trailing
    single-instance batch is dropped (it has nothing to contrast against).
    The loss in the metrics is measured at the parameters each batch was
    trained on, averaged over questions.

    Gradients and optimizer steps cover only the active rows of the
    training split's ``FeatureTable``: the hash buckets of some training
    question (``w_q``) or some candidate text (``w_p``).  Every other
    row's gradient is exactly +0.0 at every step, so Adam's and SGD's
    updates to it are +0.0 and it keeps its initial bits: the towers
    equal those of training over every row, bit for bit.  Gradients and
    Adam moments take memory in proportion to the active buckets, not
    to ``hash_dim``.
    """
    if len(train_split) < 2:
        raise ValueError("training needs at least 2 instances for in-batch negatives")
    rng = np.random.default_rng(cfg.seed)
    optimizer = make_optimizer(cfg.optimizer, cfg.learning_rate)
    metrics: list[dict] = []
    dropped_batches = 0
    instances = train_split.instances
    # features do not depend on the weights: featurize every text once
    features = FeatureTable(instances, model.hash_dim)
    dev_pool = DevPool(dev_split, model.hash_dim) if dev_split and len(dev_split) else None
    for epoch in range(1, cfg.epochs + 1):
        start = time.perf_counter()
        perm = rng.permutation(len(instances))
        loss_sum = 0.0
        questions_seen = 0
        for lo in range(0, len(perm), cfg.batch_size):
            batch = [instances[i] for i in perm[lo : lo + cfg.batch_size]]
            if len(batch) < 2:
                dropped_batches += 1
                continue
            report, g_wq, g_wp = batch_gradients(model, batch, features)
            optimizer.step(model, g_wq, g_wp, features.rows_q, features.rows_p)
            loss_sum += sum(report.per_question_loss)
            questions_seen += len(batch)
        dev_hit = dev_hit_at_k(model, dev_split, k=10, pool=dev_pool) if dev_pool is not None else None
        metrics.append(
            {
                "epoch": epoch,
                "mean_train_loss": loss_sum / questions_seen,
                "dev_hit_at_10": dev_hit,
                "wall_seconds": time.perf_counter() - start,
            }
        )
    if dropped_batches:
        log.warning("dropped %d single-instance trailing batches", dropped_batches)
    return model, metrics


def save_metrics(metrics: Sequence[dict], path: str | Path) -> None:
    """One JSON object per line, one line per epoch."""
    with open(path, "w", encoding="utf-8") as f:
        for row in metrics:
            f.write(json.dumps(row) + "\n")
