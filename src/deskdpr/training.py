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
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

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
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
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
    """

    def __init__(self, instances: Sequence[TrainingInstance], hash_dim: int):
        rows: dict[str, int] = {}
        for inst in instances:
            rows.setdefault(inst.question.text, len(rows))
        for text in _candidate_texts(instances):
            rows.setdefault(text, len(rows))
        self._rows = rows
        self._features = featurize_texts(list(rows), hash_dim)

    def batch(self, instances: Sequence[TrainingInstance]):
        """(question features (B, H), candidate features (C, H)) of a batch."""
        x = self._features[[self._rows[inst.question.text] for inst in instances]]
        y = self._features[[self._rows[text] for text in _candidate_texts(instances)]]
        return x, y


def _batch_matrices(
    model: EncoderModel,
    instances: Sequence[TrainingInstance],
    features: FeatureTable | None = None,
):
    """Feature and embedding matrices for one batch.

    Returns (X, Y, Q, P, S): question features (B, H), candidate features
    (C, H), question embeddings (B, d), candidate embeddings (C, d), and
    the score matrix S = Q P^T (B, C).  Features come from ``features``
    when given, else from a table of this batch alone.
    """
    pids = [inst.positive.passage_id for inst in instances]
    if len(set(pids)) < len(pids):
        log.warning("batch has duplicate positive passages; their in-batch negatives overlap")
    if features is None:
        features = FeatureTable(instances, model.hash_dim)
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
    return _report_from_scores(_batch_matrices(model, instances)[4])


def batch_gradients(
    model: EncoderModel,
    instances: Sequence[TrainingInstance],
    features: FeatureTable | None = None,
) -> tuple[BatchLossReport, np.ndarray, np.ndarray]:
    """Loss report plus exact gradients of the mean NLL w.r.t. both towers.

    ``features``, a table built over (at least) these instances, saves
    featurizing them again.  Each gradient has the towers' shape
    (d, hash_dim) and layout: Fortran-ordered, a transposed view of the
    C-ordered (hash_dim, d) product.
    """
    if len(instances) < 2:
        raise ValueError("in-batch negatives need at least 2 instances per batch")
    x, y, q, p, s = _batch_matrices(model, instances, features)
    report = _report_from_scores(s)
    b = s.shape[0]
    g = softmax_rows(s)
    g[np.arange(b), np.arange(b)] -= 1.0
    g /= b
    d_q = g @ p
    d_p = g.T @ q
    return report, (x.T @ d_q).T, (y.T @ d_p).T


class SgdOptimizer:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, model: EncoderModel, g_wq: np.ndarray, g_wp: np.ndarray) -> None:
        model.w_q -= self.learning_rate * g_wq
        model.w_p -= self.learning_rate * g_wp


class AdamOptimizer:
    """Dense Adam, computed in place.

    Each step evaluates, element by element and in this order,

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p -= lr * (m / bias1) / (sqrt(v / bias2) + epsilon)

    as ``out=`` ufuncs into two scratch blocks reused across steps, one
    block of ``BLOCK_ROWS`` rows of the towers' (hash_dim, d) view at a
    time so the working set stays in cache.  Every operation rounds
    exactly as the whole-array formula does, so the result is bitwise
    the same.
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
        # moments and scratch, all in the (hash_dim, d) layout of w.T
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, model: EncoderModel, g_wq: np.ndarray, g_wp: np.ndarray) -> None:
        params = [model.w_q.T, model.w_p.T]
        grads = [g_wq.T, g_wp.T]
        if self._m is None:
            self._m = [np.zeros(p.shape) for p in params]
            self._v = [np.zeros(p.shape) for p in params]
            shape = (min(self.BLOCK_ROWS, params[0].shape[0]), params[0].shape[1])
            self._scratch = (np.empty(shape), np.empty(shape))
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            for lo in range(0, p.shape[0], self.BLOCK_ROWS):
                hi = lo + self.BLOCK_ROWS
                self._update(p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], bias1, bias2)

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
            optimizer.step(model, g_wq, g_wp)
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
