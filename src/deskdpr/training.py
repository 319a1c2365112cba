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

from .corpus import Passage, PassageStore, render_encoder_input
from .dataset import DatasetSplit, TrainingInstance
from .encoder import EncoderModel, compact_columns, featurize_texts
from .evaluation import EvalConfig, evaluate
from .flat_index import build_index

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
        if self.d < 1 or not 1 <= self.hash_dim <= 1 << 31:  # featurize_texts' bucket ids are int32
            raise ValueError(f"d must be >= 1 and hash_dim in [1, 2^31], got d={self.d}, hash_dim={self.hash_dim}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")


@dataclass(frozen=True)
class BatchLossReport:
    loss: float
    per_question_loss: tuple[float, ...]


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max shift: the reference for ``batch_gradients``' softmax."""
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

    ``rows`` are the active rows: the sorted hash buckets that occur in
    some question or candidate text, the only rows of ``w_q.T`` and
    ``w_p.T`` to which a batch of these instances can give a nonzero
    gradient.  The table's feature columns are positions in ``rows``
    (``compact_columns``), so its batches multiply the compact towers
    ``w[:, rows]`` and add the same terms in the same order as a product
    over every hash bucket.
    """

    def __init__(self, instances: Sequence[TrainingInstance], hash_dim: int):
        texts: dict[str, int] = {}
        for inst in instances:
            texts.setdefault(inst.question.text, len(texts))
        for text in _candidate_texts(instances):
            texts.setdefault(text, len(texts))
        self._texts = texts
        self.rows, self._features = compact_columns(featurize_texts(list(texts), hash_dim))

    def batch(self, instances: Sequence[TrainingInstance]):
        """(question features (B, len(rows)), candidate features (C, len(rows))) of a batch."""
        x = self._features[[self._texts[inst.question.text] for inst in instances]]
        y = self._features[[self._texts[text] for text in _candidate_texts(instances)]]
        return x, y


def _batch_matrices(model: EncoderModel, instances: Sequence[TrainingInstance], features: FeatureTable | None):
    """Feature and embedding matrices for one batch.

    Returns (X, Y, Q, P, S): question features (B, H), candidate features
    (C, H), question embeddings (B, d), candidate embeddings (C, d), and
    the score matrix S = Q P^T (B, C), where H is ``model.hash_dim``.
    Features come from ``features``, a table built over (at least) these
    instances whose ``rows`` are ``model``'s columns, or, without one,
    are featurized here.
    """
    pids = [inst.positive.passage_id for inst in instances]
    if len(set(pids)) < len(pids):
        log.warning("batch has duplicate positive passages; their in-batch negatives overlap")
    if features is None:
        x = featurize_texts([inst.question.text for inst in instances], model.hash_dim)
        y = featurize_texts(_candidate_texts(instances), model.hash_dim)
    else:
        x, y = features.batch(instances)
    q = x @ model.w_q.T
    p = y @ model.w_p.T
    s = q @ p.T
    return x, y, q, p, s


def _loss_and_softmax(s: np.ndarray) -> tuple[BatchLossReport, np.ndarray]:
    """The loss report of score matrix ``s`` and ``softmax_rows(s)``, from one exp and one row sum."""
    m = s.max(axis=1, keepdims=True)
    e = np.exp(s - m)
    total = e.sum(axis=1, keepdims=True)
    per_question = (m + np.log(total))[:, 0] - np.diagonal(s)
    report = BatchLossReport(loss=float(per_question.mean()), per_question_loss=tuple(float(v) for v in per_question))
    return report, e / total


def batch_loss(model: EncoderModel, instances: Sequence[TrainingInstance]) -> BatchLossReport:
    """NLL of the positive column for each question, averaged."""
    if len(instances) < 2:
        raise ValueError("in-batch negatives need at least 2 instances per batch")
    return _loss_and_softmax(_batch_matrices(model, instances, None)[4])[0]


def batch_gradients(
    model: EncoderModel,
    instances: Sequence[TrainingInstance],
    features: FeatureTable | None = None,
) -> tuple[BatchLossReport, np.ndarray, np.ndarray]:
    """Loss report plus exact gradients of the mean NLL w.r.t. both towers.

    The gradients have the shape of ``model``'s towers, (d, hash_dim),
    and their layout: each is Fortran-ordered, a transposed view of a
    C-ordered (hash_dim, d) product.  A bucket that no text of the batch
    uses on a tower's side gets exactly +0.0 there.  ``features``, a
    table built over (at least) these instances, saves featurizing the
    batch; its columns are the table's ``rows``, so ``model`` is then
    the compact model of those rows that ``train`` steps.
    """
    if len(instances) < 2:
        raise ValueError("in-batch negatives need at least 2 instances per batch")
    x, y, q, p, s = _batch_matrices(model, instances, features)
    report, g = _loss_and_softmax(s)
    b = s.shape[0]
    g[np.arange(b), np.arange(b)] -= 1.0
    g /= b
    return report, (x.T @ (g @ p)).T, (y.T @ (g.T @ q)).T


class SgdOptimizer:
    """Plain SGD, ``w -= lr * g``, on both towers."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, model: EncoderModel, g_wq: np.ndarray, g_wp: np.ndarray) -> None:
        for w, g in zip((model.w_q, model.w_p), (g_wq, g_wp)):
            w -= self.learning_rate * g


class AdamOptimizer:
    """Adam over every row of both towers, computed in place.

    The moments take the shape of the first model stepped, which in
    ``train`` is the compact model of the active rows.  A row whose
    gradient has been +0.0 at every step keeps its bits (-0.0 included):
    its moments stay 0 and its update is
    ``lr * 0 / (sqrt(0) + EPSILON) = +0.0`` for any ``lr`` that
    ``TrainConfig`` accepts: finite, with its sign bit clear.

    Each step evaluates, element by element and in this order,

        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * (g * g)
        p -= lr * (m / bias1) / (sqrt(v / bias2) + EPSILON)

    as ``out=`` ufuncs into two scratch blocks reused across steps, over
    one contiguous block of ``BLOCK_ROWS`` rows of the towers' (hash_dim, d)
    view at a time so the working set stays in cache.  Every operation
    rounds exactly as the whole-array formula does, so the result is
    bitwise the same.
    """

    BLOCK_ROWS = 512
    BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        # moments in the (hash_dim, d) layout of w.T, and scratch
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, model: EncoderModel, g_wq: np.ndarray, g_wp: np.ndarray) -> None:
        if self._m is None:
            self._m = [np.zeros((model.hash_dim, model.d)) for _ in range(2)]
            self._v = [np.zeros((model.hash_dim, model.d)) for _ in range(2)]
            shape = (min(self.BLOCK_ROWS, model.hash_dim), model.d)
            self._scratch = (np.empty(shape), np.empty(shape))
        self.t += 1
        bias1 = 1.0 - self.BETA1**self.t
        bias2 = 1.0 - self.BETA2**self.t
        for w, g, m, v in zip((model.w_q, model.w_p), (g_wq.T, g_wp.T), self._m, self._v):
            for lo in range(0, model.hash_dim, self.BLOCK_ROWS):
                hi = lo + self.BLOCK_ROWS
                self._update(w.T[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], bias1, bias2)

    def _update(self, p, g, m, v, bias1: float, bias2: float) -> None:
        a, b = (s[: p.shape[0]] for s in self._scratch)
        m *= self.BETA1
        np.multiply(1.0 - self.BETA1, g, out=a)
        m += a
        v *= self.BETA2
        np.multiply(g, g, out=a)
        np.multiply(1.0 - self.BETA2, a, out=a)
        v += a
        np.divide(m, bias1, out=a)
        np.multiply(self.learning_rate, a, out=a)
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += self.EPSILON
        a /= b
        p -= a


def make_optimizer(name: str, learning_rate: float):
    if name == "sgd":
        return SgdOptimizer(learning_rate)
    if name == "adam":
        return AdamOptimizer(learning_rate)
    raise ValueError(f"unknown optimizer {name!r}")


def dev_hit_at_k(model: EncoderModel, dev_split: DatasetSplit, k: int = 10) -> float:
    """hit@k of ``evaluate`` over a dense index of the dev split's passage pool.

    The pool is every distinct passage a dev instance mentions, its
    positive and its hard negatives, in first-mention order.  A question
    scores a hit when its positive lands in the top k.  Raises
    ``ValueError`` when a pool passage's embedding overflows float32.
    """
    pool: dict[str, Passage] = {}
    for inst in dev_split:
        for passage in (inst.positive, *inst.hard_negatives):
            pool.setdefault(passage.passage_id, passage)
    store = PassageStore(pool.values())
    report = evaluate(model, build_index(model, store), store, dev_split.instances, EvalConfig(k_values=(k,)))
    return report.per_k[k]["hit_rate"]


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
    trained on, averaged over questions.  With a non-empty ``dev_split``,
    each row also holds ``dev_hit_at_k`` of the epoch's towers, else None.

    Training steps a compact model of the towers' active rows, the
    ``rows`` of the training split's ``FeatureTable``, gathered once
    before the first step and written back into ``model`` at the end of
    every epoch, before dev scoring.  Every other row's gradient would be
    exactly +0.0 at every step, so Adam's and SGD's updates to it would
    be +0.0 and leave its initial bits: the towers equal those of
    training over every row, bit for bit.  Gradients and Adam moments
    take memory in proportion to the active buckets, not to
    ``hash_dim``.  The compact model is float64 whatever ``model``'s
    dtype, so a float32 model (as ``init_model`` and ``load_model`` give)
    steps as its float64 widening does; the write-back rounds the active
    rows to float32, so dev scoring sees the towers ``model.bin`` holds.

    Raises ``ValueError`` naming the epoch when an epoch's mean loss is
    not finite or the trained towers are not finite in float32, as a
    learning rate too large for the data gives; ``model`` is then left
    with the previous epoch's towers.
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
    rows = features.rows
    active = EncoderModel(
        model.d, len(rows), *(w[:, rows].astype(np.float64, copy=False) for w in (model.w_q, model.w_p))
    )
    for epoch in range(1, cfg.epochs + 1):
        start = time.perf_counter()
        perm = rng.permutation(len(instances))
        loss_sum = 0.0
        questions_seen = 0
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports divergence
            for lo in range(0, len(perm), cfg.batch_size):
                batch = [instances[i] for i in perm[lo : lo + cfg.batch_size]]
                if len(batch) < 2:
                    dropped_batches += 1
                    continue
                report, g_wq, g_wp = batch_gradients(active, batch, features)
                optimizer.step(active, g_wq, g_wp)
                loss_sum += sum(report.per_question_loss)
                questions_seen += len(batch)
            # model.bin stores the towers in float32, and dev scoring searches in float32
            towers_finite = all(np.isfinite(w.astype(np.float32)).all() for w in (active.w_q, active.w_p))
        mean_loss = loss_sum / questions_seen
        if not (math.isfinite(mean_loss) and towers_finite):
            raise ValueError(
                f"training diverged in epoch {epoch}: the mean training loss is not finite or the towers "
                f"overflow float32 (learning_rate={cfg.learning_rate!r})"
            )
        model.w_q[:, rows] = active.w_q
        model.w_p[:, rows] = active.w_p
        dev_hit = dev_hit_at_k(model, dev_split) if dev_split else None
        metrics.append(
            {
                "epoch": epoch,
                "mean_train_loss": mean_loss,
                "dev_hit_at_10": dev_hit,
                "wall_seconds": time.perf_counter() - start,
            }
        )
    if dropped_batches:
        log.warning("dropped %d single-instance trailing batches", dropped_batches)
    return model, metrics


def save_metrics(metrics: Sequence[dict], path: str | Path) -> None:
    """One JSON object per line, one line per epoch; a non-finite value raises ``ValueError``."""
    with open(path, "w", encoding="utf-8") as f:
        for row in metrics:
            f.write(json.dumps(row, allow_nan=False) + "\n")
