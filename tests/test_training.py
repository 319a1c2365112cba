import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deskdpr.corpus import render_encoder_input
from deskdpr.dataset import DatasetSplit
from deskdpr import training
from deskdpr.encoder import (
    EncoderModel,
    encode_passages,
    encode_questions,
    featurize_texts,
    init_model,
    load_model,
    save_model,
)
from deskdpr.flat_index import FlatIndex, search
from deskdpr.training import (
    AdamOptimizer,
    FeatureTable,
    SgdOptimizer,
    TrainConfig,
    batch_gradients,
    batch_loss,
    dev_hit_at_k,
    make_optimizer,
    nll_loss,
    save_metrics,
    softmax_rows,
    train,
)

from helpers import factoid, instance, passage, widen

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906
LN16 = 2.772588722239781
LN32 = 3.4657359027997265
# loss of a positive sitting 10 above a single negative
NEAR_ZERO_LOSS = 4.5398899216864646e-05


def uniform_batch(b, n_hard=0):
    """Instances whose questions and candidates all featurize identically."""
    out = []
    for i in range(b):
        hard = tuple(
            passage("same words", pid=f"h{i}x{j}#0", title="t") for j in range(n_hard)
        )
        out.append(
            instance(
                factoid(f"q{i}", "the question", ["x"]),
                passage("same words", pid=f"d{i}#0", title="t"),
                hard=hard,
            )
        )
    return out


def separable_split(n, name="train", hash_dim_hint=512):
    """One marker token per question, present only in its positive."""
    instances = []
    for i in range(n):
        q = factoid(f"q{i}", f"find marker{i}token now", [f"marker{i}token"])
        p = passage(f"marker{i}token data row", pid=f"d{i}#0", title="rec")
        instances.append(instance(q, p))
    return DatasetSplit(name=name, instances=tuple(instances))


class TestNllLoss:
    def test_uniform_candidates(self):
        for n in (1, 3, 15, 31):
            assert nll_loss(0.0, [0.0] * n) == pytest.approx(math.log(n + 1), abs=1e-9)

    def test_frozen_values(self):
        assert nll_loss(0.0, [0.0]) == pytest.approx(LN2, abs=1e-12)
        assert nll_loss(0.0, [0.0] * 3) == pytest.approx(LN4, abs=1e-12)
        assert nll_loss(0.0, [0.0] * 15) == pytest.approx(LN16, abs=1e-12)

    def test_confident_positive(self):
        assert nll_loss(10.0, [0.0]) == pytest.approx(NEAR_ZERO_LOSS, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            scores = rng.normal(scale=5, size=6)
            assert nll_loss(scores[0], scores[1:]) >= 0.0

    def test_vanishes_for_dominant_positive(self):
        assert nll_loss(100.0, [0.0, 0.0]) < 1e-15

    def test_monotone_in_negative_score(self):
        losses = [nll_loss(1.0, [x]) for x in (0.0, 0.5, 1.0, 2.0)]
        assert losses == sorted(losses)
        assert len(set(losses)) == len(losses)

    def test_monotone_in_positive_score(self):
        losses = [nll_loss(x, [1.0]) for x in (0.0, 0.5, 1.0, 2.0)]
        assert losses == sorted(losses, reverse=True)

    def test_shift_invariant(self):
        base = nll_loss(0.7, [0.1, -0.4, 1.2])
        shifted = nll_loss(0.7 + 500, [0.1 + 500, -0.4 + 500, 1.2 + 500])
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_matches_naive_form(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            scores = rng.normal(size=5)
            naive = -math.log(
                math.exp(scores[0]) / sum(math.exp(s) for s in scores)
            )
            assert nll_loss(scores[0], scores[1:]) == pytest.approx(naive, abs=1e-9)

    def test_huge_scores_do_not_overflow(self):
        loss = nll_loss(1000.0, [999.0])
        assert math.isfinite(loss)
        assert loss == pytest.approx(nll_loss(1.0, [0.0]), abs=1e-9)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        s = rng.normal(scale=10, size=(6, 9))
        p = softmax_rows(s)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert (p > 0).all()

    def test_uniform_row(self):
        p = softmax_rows(np.zeros((2, 4)))
        assert np.allclose(p, 0.25, atol=1e-15)

    def test_extreme_values_stay_finite(self):
        p = softmax_rows(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestBatchLoss:
    def test_uniform_two_is_ln2(self):
        model = init_model(d=8, hash_dim=64, seed=0)
        report = batch_loss(model, uniform_batch(2))
        assert report.loss == pytest.approx(LN2, abs=1e-9)

    def test_uniform_two_with_hards_is_ln4(self):
        model = init_model(d=8, hash_dim=64, seed=0)
        report = batch_loss(model, uniform_batch(2, n_hard=1))
        assert report.loss == pytest.approx(LN4, abs=1e-9)

    def test_uniform_sixteen_with_hards_is_ln32(self):
        model = init_model(d=8, hash_dim=64, seed=0)
        report = batch_loss(model, uniform_batch(16, n_hard=1))
        assert report.loss == pytest.approx(LN32, abs=1e-9)

    def test_mean_of_per_question(self):
        model = init_model(d=8, hash_dim=64, seed=1)
        split = separable_split(4)
        report = batch_loss(model, list(split))
        assert report.loss == pytest.approx(
            sum(report.per_question_loss) / 4, abs=1e-12
        )

    def test_candidate_columns_positives_then_hards(self):
        model = init_model(d=8, hash_dim=64, seed=2)
        report = batch_loss(model, uniform_batch(3, n_hard=2))
        # identical candidates: the loss is the log of the column count
        assert report.loss == pytest.approx(math.log(3 + 6), abs=1e-12)

    def test_single_instance_rejected(self):
        model = init_model(d=8, hash_dim=64, seed=0)
        with pytest.raises(ValueError):
            batch_loss(model, uniform_batch(1))
        with pytest.raises(ValueError):
            batch_gradients(model, uniform_batch(1))


class TestGradients:
    def test_zero_weights_give_zero_gradients(self):
        model = EncoderModel(d=4, hash_dim=32, w_q=np.zeros((4, 32)), w_p=np.zeros((4, 32)))
        _, g_wq, g_wp = batch_gradients(model, list(separable_split(3)))
        assert np.count_nonzero(g_wq) == 0
        assert np.count_nonzero(g_wp) == 0

    def test_shapes_and_report(self):
        model = init_model(d=4, hash_dim=32, seed=3)
        instances = list(separable_split(3))
        report, g_wq, g_wp = batch_gradients(model, instances)
        assert g_wq.shape == (4, 32) and g_wp.shape == (4, 32)
        assert report.loss == pytest.approx(batch_loss(model, instances).loss, abs=1e-15)

    def test_one_exp_per_batch_gives_the_oracles_bits(self, monkeypatch):
        model = init_model(d=4, hash_dim=32, seed=3)
        instances = hard_negative_split(3)
        x, y, q, p, s = training._batch_matrices(model, instances, None)
        g = softmax_rows(s)
        g[np.arange(3), np.arange(3)] -= 1.0
        g /= 3
        loss = batch_loss(model, instances)
        exp, shapes = np.exp, []
        monkeypatch.setattr(np, "exp", lambda a: shapes.append(a.shape) or exp(a))
        report, g_wq, g_wp = batch_gradients(model, instances)
        assert shapes == [s.shape]
        assert report == loss
        assert np.array_equal(g_wq, (x.T @ (g @ p)).T)
        assert np.array_equal(g_wp, (y.T @ (g.T @ q)).T)

    def test_finite_differences(self):
        model = widen(init_model(d=4, hash_dim=32, seed=4))
        instances = [
            instance(
                factoid(f"q{i}", f"find marker{i}token now", ["x"]),
                passage(f"marker{i}token data", pid=f"d{i}#0", title="rec"),
                hard=(passage(f"marker{(i + 1) % 3}token decoy", pid=f"h{i}#0", title="rec"),),
            )
            for i in range(3)
        ]
        _, g_wq, g_wp = batch_gradients(model, instances)
        eps = 1e-5
        for tower, grad in (("w_q", g_wq), ("w_p", g_wp)):
            w = getattr(model, tower)
            coords = np.argwhere(np.abs(grad) > 1e-6)
            assert len(coords) > 0
            for i, j in coords[:: max(1, len(coords) // 8)]:
                orig = w[i, j]
                w[i, j] = orig + eps
                up = batch_loss(model, instances).loss
                w[i, j] = orig - eps
                down = batch_loss(model, instances).loss
                w[i, j] = orig
                fd = (up - down) / (2 * eps)
                assert fd == pytest.approx(grad[i, j], rel=1e-5, abs=1e-9)


def hard_negative_split(n):
    """separable_split plus one shared-text hard negative per question."""
    instances = []
    for i in range(n):
        q = factoid(f"q{i}", f"find marker{i}token now", [f"marker{i}token"])
        p = passage(f"marker{i}token data row", pid=f"d{i}#0", title="rec")
        hard = passage(f"marker{(i + 1) % n}token decoy row", pid=f"h{i}#0", title="rec")
        instances.append(instance(q, p, hard=(hard,)))
    return instances


class TestFeatureTable:
    def test_batch_equals_featurizing_the_batch(self):
        instances = hard_negative_split(6)
        table = FeatureTable(instances, 256)
        batch = [instances[4], instances[1], instances[3]]
        x, y = table.batch(batch)
        x_ref = featurize_texts([inst.question.text for inst in batch], 256)
        candidates = [render_encoder_input(inst.positive) for inst in batch]
        candidates += [render_encoder_input(h) for inst in batch for h in inst.hard_negatives]
        y_ref = featurize_texts(candidates, 256)
        # the table's columns are positions in its rows
        for got, ref in ((x, x_ref), (y, y_ref)):
            assert got.shape == (ref.shape[0], len(table.rows))
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(table.rows[got.indices], ref.indices)
            assert np.array_equal(got.data, ref.data)

    def test_each_distinct_text_featurized_once(self, monkeypatch):
        calls = []

        def counting(texts, hash_dim):
            calls.append(list(texts))
            return featurize_texts(texts, hash_dim)

        monkeypatch.setattr("deskdpr.training.featurize_texts", counting)
        instances = hard_negative_split(4)
        table = FeatureTable(instances + instances[:2], 256)
        table.batch(instances[:2])
        table.batch(instances[2:])
        # one call: 4 questions, 4 positives, 4 hard negatives
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) == 12

    def test_cached_gradients_equal_public_path(self):
        # the compact model's gradients are the public full-shape ones on
        # the table's rows, bit for bit, and those are +0.0 elsewhere
        model = init_model(d=8, hash_dim=256, seed=6)
        instances = hard_negative_split(6)
        table = FeatureTable(instances, 256)
        batch = instances[1:5]
        report, g_wq, g_wp = batch_gradients(model, batch)
        cached_report, c_wq, c_wp = batch_gradients(compact(model, table.rows), batch, table)
        assert cached_report == report
        for full, active in ((g_wq, c_wq), (g_wp, c_wp)):
            assert active.shape == (8, len(table.rows))
            assert active.T.flags.c_contiguous
            assert np.array_equal(bits(active), bits(full[:, table.rows]))
            assert np.count_nonzero(bits(np.delete(full, table.rows, axis=1))) == 0

    def test_active_rows_are_the_buckets_of_every_text(self):
        instances = hard_negative_split(5)
        table = FeatureTable(instances, 256)
        questions = featurize_texts([inst.question.text for inst in instances], 256)
        candidates = featurize_texts(
            [render_encoder_input(p) for inst in instances for p in (inst.positive, *inst.hard_negatives)], 256
        )
        q_rows, p_rows = np.unique(questions.indices), np.unique(candidates.indices)
        assert np.array_equal(table.rows, np.union1d(q_rows, p_rows))
        # questions and passages share some buckets but not all
        assert len(np.setdiff1d(q_rows, p_rows)) and len(np.setdiff1d(p_rows, q_rows))
        assert len(table.rows) < 256

    def test_gradients_share_the_tower_layout(self):
        model = init_model(d=8, hash_dim=256, seed=6)
        _, g_wq, g_wp = batch_gradients(model, hard_negative_split(3))
        assert g_wq.shape == g_wp.shape == (8, 256)
        assert g_wq.T.flags.c_contiguous and g_wp.T.flags.c_contiguous


def reference_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step t of the whole-array, out-of-place Adam formula, in place on params, m and v."""
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i *= beta1
        m_i += (1.0 - beta1) * g
        v_i *= beta2
        v_i += (1.0 - beta2) * (g * g)
        p -= lr * (m_i / bias1) / (np.sqrt(v_i / bias2) + eps)


def reference_adam(params, grads_per_step, lr):
    """The whole-array Adam formula the optimizer must match bit for bit."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        reference_adam_step(params, grads, m, v, t, lr)
    return params


def bits(a):
    """An array's float64 bit patterns, so -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


def compact(model, rows):
    """The model of ``rows`` of both towers, as ``train`` gathers it."""
    return EncoderModel(model.d, len(rows), model.w_q[:, rows], model.w_p[:, rows])


class TestOptimizers:
    def test_adam_matches_reference_formula_bitwise(self):
        # hash_dim spans two full row blocks and a partial one
        hash_dim = 2 * AdamOptimizer.BLOCK_ROWS + 77
        model = widen(init_model(d=8, hash_dim=hash_dim, seed=11))
        rng = np.random.default_rng(11)
        steps = [
            (rng.normal(size=(8, hash_dim)), np.asfortranarray(rng.normal(scale=3.0, size=(8, hash_dim))))
            for _ in range(5)
        ]
        expected = reference_adam([model.w_q, model.w_p], steps, lr=0.01)
        opt = AdamOptimizer(learning_rate=0.01)
        for g_wq, g_wp in steps:
            opt.step(model, g_wq, g_wp)
        assert np.array_equal(model.w_q, expected[0])
        assert np.array_equal(model.w_p, expected[1])

    def test_adam_hyperparameters_are_fixed_at_the_usual_defaults(self):
        assert (AdamOptimizer.BETA1, AdamOptimizer.BETA2, AdamOptimizer.EPSILON) == (0.9, 0.999, 1e-8)
        with pytest.raises(TypeError):
            AdamOptimizer(learning_rate=0.01, beta1=0.5)

    def test_sgd_step(self):
        model = init_model(d=2, hash_dim=4, seed=0)
        before_q = model.w_q.copy()
        g_wq = np.full((2, 4), 0.5)
        g_wp = np.zeros((2, 4))
        SgdOptimizer(learning_rate=0.1).step(model, g_wq, g_wp)
        assert np.array_equal(model.w_q, before_q - 0.05)

    def test_zero_learning_rate_preserves_bits(self):
        for name in ("sgd", "adam"):
            model = init_model(d=2, hash_dim=4, seed=1)
            before_q = model.w_q.copy()
            before_p = model.w_p.copy()
            opt = make_optimizer(name, 0.0)
            g = np.full((2, 4), 0.7)
            opt.step(model, g, g.copy())
            opt.step(model, g, g.copy())
            assert np.array_equal(model.w_q, before_q)
            assert np.array_equal(model.w_p, before_p)

    def test_adam_first_step_is_signed_learning_rate(self):
        model = init_model(d=2, hash_dim=4, seed=2)
        before = model.w_q.copy()
        g = np.full((2, 4), 3.0)
        AdamOptimizer(learning_rate=0.01).step(model, g, np.zeros((2, 4)))
        # bias-corrected first step is lr * g / (|g| + eps)
        assert np.allclose(before - model.w_q, 0.01, atol=1e-8)

    def test_adam_state_accumulates(self):
        opt = AdamOptimizer(learning_rate=0.01)
        model = init_model(d=2, hash_dim=4, seed=3)
        g = np.ones((2, 4))
        opt.step(model, g, g.copy())
        opt.step(model, g, g.copy())
        assert opt.t == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", 0.1)


# entries of towers and gradients: exact zeros of both signs come up often
ENTRIES = st.sampled_from([0.0, -0.0]) | st.floats(-8.0, 8.0, width=64)


@st.composite
def compact_case(draw):
    """Towers, sorted active rows, and per-step gradients of those rows.

    Some active rows get a +0.0 gradient at every step on one tower or on
    both, as a bucket that only one side's texts use, or that no batch
    touches, does."""
    d = draw(st.integers(1, 3))
    hash_dim = draw(st.integers(1, 12))
    towers = [draw(arrays(np.float64, (d, hash_dim), elements=ENTRIES)) for _ in range(2)]
    rows = np.array(sorted(draw(st.sets(st.integers(0, hash_dim - 1)))), dtype=np.int64)
    untouched = [draw(arrays(np.bool_, len(rows))) for _ in range(2)]
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        grads = []
        for idle in untouched:
            g = draw(arrays(np.float64, (d, len(rows)), elements=ENTRIES))
            g[:, idle] = 0.0
            grads.append(np.asfortranarray(g))
        steps.append(grads)
    lr = draw(st.just(0.0) | st.floats(0.0, 1.0))
    return towers, rows, steps, lr


def scattered(g, rows, hash_dim):
    """A compact model's gradient as the full-shape one: +0.0 off its rows."""
    full = np.zeros((g.shape[0], hash_dim), order="F")
    full[:, rows] = g
    return full


class TestCompactSteps:
    """Stepping the compact model of the active rows and writing it back
    leaves the towers as stepping every row does."""

    @settings(max_examples=150, deadline=None)
    @given(compact_case(), st.sampled_from(["adam", "sgd"]))
    def test_written_back_equals_full_shape_step_bitwise(self, case, name):
        towers, rows, steps, lr = case
        TrainConfig(learning_rate=lr)  # a rate that training accepts
        d, hash_dim = towers[0].shape
        model = EncoderModel(d=d, hash_dim=hash_dim, w_q=towers[0].copy(), w_p=towers[1].copy())
        full = EncoderModel(d=d, hash_dim=hash_dim, w_q=towers[0].copy(), w_p=towers[1].copy())
        active = compact(model, rows)
        full_steps = [[scattered(g, rows, hash_dim) for g in grads] for grads in steps]
        opt_active, opt_full = make_optimizer(name, lr), make_optimizer(name, lr)
        for grads, full_grads in zip(steps, full_steps):
            opt_active.step(active, *grads)
            opt_full.step(full, *full_grads)
        model.w_q[:, rows] = active.w_q
        model.w_p[:, rows] = active.w_p
        if name == "adam":
            expected = reference_adam(towers, full_steps, lr)
        else:
            expected = [t.copy() for t in towers]
            for full_grads in full_steps:
                for p, g in zip(expected, full_grads):
                    p -= lr * g
        idle = np.setdiff1d(np.arange(hash_dim), rows)
        for i, tower in enumerate(("w_q", "w_p")):
            got = getattr(model, tower)
            assert np.array_equal(bits(got), bits(getattr(full, tower)))
            assert np.array_equal(bits(got), bits(expected[i]))
            # a row outside the active set keeps its bits
            assert np.array_equal(bits(got[:, idle]), bits(towers[i][:, idle]))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.batch_size, cfg.epochs, cfg.learning_rate) == (16, 8, 1e-2)
        assert (cfg.d, cfg.hash_dim, cfg.optimizer, cfg.seed) == (128, 16384, "adam", 0)

    def test_zero_learning_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, -0.0])
    def test_non_finite_or_negative_zero_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=lr)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            TrainConfig(d=0)
        with pytest.raises(ValueError, match="hash_dim in"):
            TrainConfig(hash_dim=2**31 + 1)  # featurize_texts' bucket ids are int32


def per_epoch_dev_hit(model, split, k):
    """Dev hit@k by a reference scan: encode the pool of every distinct
    positive and hard negative, one search per question."""
    pool = {}
    for inst in split:
        for p in (inst.positive, *inst.hard_negatives):
            pool.setdefault(p.passage_id, p)
    vectors = encode_passages(model, [render_encoder_input(p) for p in pool.values()])
    index = FlatIndex(d=model.d, ids=list(pool), vectors=vectors.astype(np.float32))
    q = encode_questions(model, [inst.question.text for inst in split])
    hits = sum(inst.positive.passage_id in search(index, q[i], k).ids() for i, inst in enumerate(split))
    return hits / len(split)


class TestDevHitAtK:
    def identity_setup(self):
        # d == hash_dim with identity towers makes similarities readable:
        # a question hits exactly the passages containing its token
        from test_encoder import distinct_bucket_tokens

        tokens = list(distinct_bucket_tokens(4, 64))
        eye = np.eye(64)
        model = EncoderModel(d=64, hash_dim=64, w_q=eye, w_p=eye.copy())
        return model, tokens

    def test_aligned_split_hits(self):
        model, tokens = self.identity_setup()
        instances = tuple(
            instance(
                factoid(f"q{i}", tokens[i], ["x"]),
                passage(tokens[i], pid=f"d{i}#0", title=tokens[-1]),
            )
            for i in range(3)
        )
        split = DatasetSplit(name="dev", instances=instances)
        assert dev_hit_at_k(model, split, k=1) == 1.0

    def test_misaligned_split_misses(self):
        model, tokens = self.identity_setup()
        # every question points at the other question's passage
        instances = (
            instance(factoid("q0", tokens[0], ["x"]), passage(tokens[1], pid="d1#0", title=tokens[-1])),
            instance(factoid("q1", tokens[1], ["x"]), passage(tokens[0], pid="d0#0", title=tokens[-1])),
        )
        split = DatasetSplit(name="dev", instances=instances)
        assert dev_hit_at_k(model, split, k=1) == 0.0

    def test_k_saturation_always_hits(self):
        model, tokens = self.identity_setup()
        instances = tuple(
            instance(
                factoid(f"q{i}", tokens[i], ["x"]),
                passage(tokens[i], pid=f"d{i}#0", title=tokens[-1]),
            )
            for i in range(2)
        )
        split = DatasetSplit(name="dev", instances=instances)
        assert dev_hit_at_k(model, split, k=10) == 1.0

    def test_passage_shared_by_two_instances_pooled_once(self):
        model, tokens = self.identity_setup()
        positives = [passage(tokens[i], pid=f"d{i}#0", title=tokens[-1]) for i in range(3)]
        # B's hard negative is A's positive, and C's positive is A's too
        instances = (
            instance(factoid("qa", tokens[0], ["x"]), positives[0], hard=[positives[1]]),
            instance(factoid("qb", tokens[1], ["x"]), positives[1], hard=[positives[0], positives[2]]),
            instance(factoid("qc", tokens[2], ["x"]), positives[0]),
        )
        split = DatasetSplit(name="dev", instances=instances)
        for k in (1, 2, 3):
            assert dev_hit_at_k(model, split, k=k) == per_epoch_dev_hit(model, split, k)
        assert dev_hit_at_k(model, split, k=1) == 2 / 3
        assert dev_hit_at_k(model, split, k=3) == 1.0


class TestTrain:
    def run(self, optimizer="adam", epochs=4, lr=1e-2, seed=5, n=8, dev=None, batch_size=4):
        model = init_model(d=16, hash_dim=512, seed=seed)
        cfg = TrainConfig(
            batch_size=batch_size,
            epochs=epochs,
            learning_rate=lr,
            seed=seed,
            d=16,
            hash_dim=512,
            optimizer=optimizer,
        )
        return train(model, separable_split(n), dev, cfg)

    def test_adam_reduces_loss(self):
        _, metrics = self.run(optimizer="adam")
        assert metrics[-1]["mean_train_loss"] < metrics[0]["mean_train_loss"]

    def test_sgd_reduces_loss(self):
        _, metrics = self.run(optimizer="sgd", lr=0.5, epochs=6)
        assert metrics[-1]["mean_train_loss"] < metrics[0]["mean_train_loss"]

    def test_metrics_rows(self):
        _, metrics = self.run(epochs=3)
        assert [m["epoch"] for m in metrics] == [1, 2, 3]
        for row in metrics:
            assert set(row) == {"epoch", "mean_train_loss", "dev_hit_at_10", "wall_seconds"}
            assert row["dev_hit_at_10"] is None
            assert row["wall_seconds"] >= 0.0

    def test_dev_split_reported(self):
        dev = separable_split(3, name="dev")
        _, metrics = self.run(dev=dev, epochs=2)
        for row in metrics:
            assert isinstance(row["dev_hit_at_10"], float)
            assert 0.0 <= row["dev_hit_at_10"] <= 1.0

    def test_zero_learning_rate_freezes_model(self):
        model = init_model(d=16, hash_dim=512, seed=7)
        w_q0 = model.w_q.copy()
        w_p0 = model.w_p.copy()
        cfg = TrainConfig(batch_size=8, epochs=3, learning_rate=0.0, seed=7, d=16, hash_dim=512)
        trained, metrics = train(model, separable_split(8), None, cfg)
        assert np.array_equal(trained.w_q, w_q0)
        assert np.array_equal(trained.w_p, w_p0)
        # whole-split batches see the same candidate set each epoch
        losses = [m["mean_train_loss"] for m in metrics]
        assert max(losses) - min(losses) < 1e-12

    def test_same_seed_reproducible(self):
        trained_a, metrics_a = self.run(seed=9)
        trained_b, metrics_b = self.run(seed=9)
        assert np.array_equal(trained_a.w_q, trained_b.w_q)
        assert np.array_equal(trained_a.w_p, trained_b.w_p)
        for ra, rb in zip(metrics_a, metrics_b):
            assert ra["mean_train_loss"] == rb["mean_train_loss"]
            assert ra["epoch"] == rb["epoch"]

    def test_loaded_model_trains_as_its_float64_widening(self, tmp_path):
        # a loaded model's float32 towers step in float64, as their widening's do
        path = tmp_path / "model.bin"
        save_model(init_model(d=16, hash_dim=512, seed=3), path)
        loaded = load_model(path)
        widened = EncoderModel(16, 512, loaded.w_q.astype(np.float64), loaded.w_p.astype(np.float64))
        cfg = TrainConfig(batch_size=4, epochs=3, learning_rate=0.05, seed=3, d=16, hash_dim=512)
        runs = [train(model, separable_split(8), None, cfg) for model in (loaded, widened)]
        losses = [[row["mean_train_loss"] for row in metrics] for _, metrics in runs]
        assert losses[0] == losses[1]
        assert losses[0][-1] < losses[0][0]
        assert runs[0][0].w_q.dtype == np.float32
        for i, (trained, _) in enumerate(runs):
            save_model(trained, tmp_path / f"trained{i}.bin")
        assert (tmp_path / "trained0.bin").read_bytes() == (tmp_path / "trained1.bin").read_bytes()

    def test_dev_scoring_sees_the_towers_model_bin_stores(self, tmp_path):
        # train steps float64 copies of the active rows, but writes them back
        # into float32 towers before each dev scoring: what model.bin keeps
        dev = separable_split(30, name="dev")
        trained, metrics = self.run(dev=dev, epochs=3, n=10, lr=0.05)
        assert trained.w_q.dtype == trained.w_p.dtype == np.float32
        path = tmp_path / "model.bin"
        save_model(trained, path)
        loaded = load_model(path)
        assert loaded.w_q.tobytes() == trained.w_q.tobytes() and loaded.w_p.tobytes() == trained.w_p.tobytes()
        assert 0.0 < metrics[-1]["dev_hit_at_10"] < 1.0
        assert metrics[-1]["dev_hit_at_10"] == dev_hit_at_k(loaded, dev)

    def test_trained_towers_keep_their_layout(self):
        trained, _ = self.run(epochs=2)
        assert trained.w_q.T.flags.c_contiguous and trained.w_p.T.flags.c_contiguous

    def test_different_seed_changes_weights(self):
        trained_a, _ = self.run(seed=1, epochs=2)
        trained_b, _ = self.run(seed=2, epochs=2)
        assert not np.array_equal(trained_a.w_q, trained_b.w_q)

    def test_trailing_singleton_batch_dropped(self, caplog):
        with caplog.at_level(logging.INFO, logger="deskdpr.training"):
            self.run(n=5, batch_size=2, epochs=1)
        assert any("dropped" in rec.message for rec in caplog.records)

    def test_dev_hit_per_epoch_equals_reference_scan(self, monkeypatch):
        scored, recorded, reference = training.dev_hit_at_k, [], []

        def recording(model, split, k=10):
            recorded.append(scored(model, split, k))
            reference.append(per_epoch_dev_hit(model, split, k))
            return recorded[-1]

        monkeypatch.setattr(training, "dev_hit_at_k", recording)
        dev = separable_split(12, name="dev")
        dev = DatasetSplit(
            name="dev",
            instances=tuple(
                instance(inst.question, inst.positive, hard=[passage(f"noise row {i}", pid=f"n{i}#0")])
                for i, inst in enumerate(dev)
            ),
        )
        _, metrics = self.run(dev=dev, epochs=4, n=10, lr=0.05)
        assert [m["dev_hit_at_10"] for m in metrics] == recorded == reference
        assert len(set(recorded)) > 1  # the values move as the model trains

    @pytest.mark.parametrize("optimizer, lr", [("adam", 0.05), ("sgd", 0.5)])
    def test_towers_equal_a_dense_reference_loop(self, optimizer, lr):
        # hash_dim spans two full Adam row blocks and a partial one
        d, hash_dim = 8, 2 * AdamOptimizer.BLOCK_ROWS + 77
        instances = hard_negative_split(7)
        cfg = TrainConfig(
            batch_size=3, epochs=3, learning_rate=lr, seed=4, d=d, hash_dim=hash_dim, optimizer=optimizer
        )
        split = DatasetSplit(name="train", instances=tuple(instances))
        trained, _ = train(widen(init_model(d=d, hash_dim=hash_dim, seed=4)), split, None, cfg)

        # the reference: full-shape gradients and whole-array updates of every row
        model = widen(init_model(d=d, hash_dim=hash_dim, seed=4))
        initial = (model.w_q.copy(), model.w_p.copy())
        params = [model.w_q, model.w_p]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        rng = np.random.default_rng(cfg.seed)
        t = 0
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(instances))
            for lo in range(0, len(perm), cfg.batch_size):
                batch = [instances[i] for i in perm[lo : lo + cfg.batch_size]]
                if len(batch) < 2:
                    continue
                _, g_wq, g_wp = batch_gradients(model, batch)
                t += 1
                if optimizer == "adam":
                    reference_adam_step(params, (g_wq, g_wp), m, v, t, lr)
                else:
                    for p, g in zip(params, (g_wq, g_wp)):
                        p -= lr * g
        assert t == 6  # two batches of 3 per epoch; the trailing singleton is dropped
        assert np.array_equal(bits(trained.w_q), bits(model.w_q))
        assert np.array_equal(bits(trained.w_p), bits(model.w_p))
        # only active rows moved, and the active rows are few
        table = FeatureTable(instances, hash_dim)
        for w, w0 in ((trained.w_q, initial[0]), (trained.w_p, initial[1])):
            moved = np.flatnonzero((w != w0).any(axis=0))
            assert len(moved) > 0 and np.isin(moved, table.rows).all()
        assert len(table.rows) < hash_dim // 10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_diverging_training_raises_naming_the_epoch(self, optimizer):
        # 1e308 overflows float64; 1e100 leaves the float64 loss and towers
        # finite but overflows the float32 that model.bin and dev scoring use
        for lr in (1e308, 1e100):
            model = init_model(d=16, hash_dim=512, seed=5)
            initial = (model.w_q.copy(), model.w_p.copy())
            cfg = TrainConfig(batch_size=4, epochs=3, learning_rate=lr, seed=5, d=16, hash_dim=512, optimizer=optimizer)
            with pytest.raises(ValueError, match="diverged in epoch 1"):
                train(model, separable_split(8), None, cfg)
            # the towers are left as the last finite epoch wrote them
            assert np.array_equal(model.w_q, initial[0]) and np.array_equal(model.w_p, initial[1])

    def test_too_few_instances_rejected(self):
        model = init_model(d=16, hash_dim=512, seed=0)
        cfg = TrainConfig(batch_size=2, epochs=1, d=16, hash_dim=512)
        with pytest.raises(ValueError):
            train(model, separable_split(1), None, cfg)

    def test_save_metrics_jsonl(self, tmp_path):
        _, metrics = self.run(epochs=3)
        path = tmp_path / "metrics.jsonl"
        save_metrics(metrics, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        for line, row in zip(lines, metrics):
            assert json.loads(line) == row

    def test_save_metrics_refuses_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError):
            save_metrics([{"epoch": 1, "mean_train_loss": math.nan}], tmp_path / "metrics.jsonl")
