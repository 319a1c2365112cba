"""End-to-end acceptance checks, one test per shipped guarantee.

These run the bundled synthetic corpus through the whole pipeline once
(module fixture) and verify the numeric contracts the package promises:
loss values, gradient exactness, search parity across code paths,
chunking round trips, clean hard negatives, training gains over the
random and lexical baselines, metric monotonicity, and byte-identical
reruns under a fixed seed.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from deskdpr.bm25 import bm25_score, bm25_top_k, mine_hard_negatives, tokenize
from deskdpr.bm25 import build_index as build_bm25_index
from deskdpr.cli import main
from deskdpr.corpus import (
    chunk_document,
    clean_document,
    ingest_corpus,
    render_encoder_input,
)
from deskdpr.dataset import DatasetSplit, align_questions, attach_negatives
from deskdpr.encoder import featurize_texts, init_model
from deskdpr.evaluation import EvalConfig, evaluate, evaluate_results, write_report
from deskdpr.flat_index import FlatIndex, search, search_naive
from deskdpr.flat_index import build_index as build_dense_index
from deskdpr.questions import answer_exclusion_strings, contains_answer, parse_bioasq
from deskdpr.synthetic import generate, write_corpus_jsonl, write_questions_json
from deskdpr.training import TrainConfig, batch_gradients, batch_loss, nll_loss, train

from helpers import factoid, instance, passage, random_text, store_of


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full run on the bundled synthetic set: 2000 passages, 200 questions."""
    root = tmp_path_factory.mktemp("acceptance")
    data = generate(n_passages=2000, n_questions=200, seed=0)
    corpus_path = root / "corpus.jsonl"
    questions_path = root / "questions.json"
    write_corpus_jsonl(data, corpus_path)
    write_questions_json(data, questions_path)

    store, stats = ingest_corpus(corpus_path, chunk_size=100)
    assert stats.passages == 2000
    questions = parse_bioasq(questions_path)
    assert len(questions) == 200

    bm25 = build_bm25_index(store)
    aligned, dropped = align_questions(questions, store, bm25)
    assert dropped == 0
    instances, short_of_hard = attach_negatives(aligned, store, bm25, n_hard=1, top_n=100)
    assert short_of_hard == 0

    random_model = init_model(seed=0)
    model = init_model(seed=0)
    start = time.perf_counter()
    model, metrics = train(
        model, DatasetSplit(name="train", instances=tuple(instances)), None, TrainConfig()
    )
    train_seconds = time.perf_counter() - start

    cfg = EvalConfig(k_values=(1, 5, 10))
    trained_report = evaluate(model, build_dense_index(model, store), store, instances, cfg)
    random_report = evaluate(
        random_model, build_dense_index(random_model, store), store, instances, cfg
    )
    bm25_results = [bm25_top_k(bm25, inst.question.text, 10) for inst in instances]
    bm25_report = evaluate_results(bm25_results, instances, store, cfg)

    return {
        "store": store,
        "bm25": bm25,
        "instances": instances,
        "metrics": metrics,
        "train_seconds": train_seconds,
        "trained_report": trained_report,
        "random_report": random_report,
        "bm25_report": bm25_report,
    }


def test_01_report_pairs_hit10_with_f1(pipeline, tmp_path):
    """Evaluation reports expose hit@10 and F1 together, in both formats."""
    report = pipeline["trained_report"]
    row = report.per_k[10]
    assert set(row) == {"hit_rate", "precision", "recall", "f1"}

    json_path = tmp_path / "report.json"
    write_report(report, json_path, fmt="json")
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert "hit_rate" in payload["per_k"]["10"]
    assert "f1" in payload["per_k"]["10"]

    md_path = tmp_path / "report.md"
    write_report(report, md_path, fmt="markdown_table")
    lines = md_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "| Encoder | Epochs | Batch | hit@10 | F1 |"
    cells = [c.strip() for c in lines[2].strip("|").split("|")]
    assert float(cells[3]) == pytest.approx(row["hit_rate"], abs=5e-5)
    assert float(cells[4]) == pytest.approx(row["f1"], abs=5e-5)


def test_02_uniform_loss_matches_log():
    """A positive tied with n uniform negatives costs exactly ln(n + 1)."""
    for n in (1, 3, 15, 31):
        assert nll_loss(0.0, [0.0] * n) == pytest.approx(math.log(n + 1), abs=1e-9)


def test_03_gradients_match_finite_differences():
    """Analytic gradients agree with central differences on 50 random models."""
    rng = random.Random(0)
    np_rng = np.random.default_rng(0)
    eps = 1e-4
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        d = rng.randint(2, 8)
        hash_dim = rng.randint(8, 32)
        b = rng.choice((2, 3, 4))
        instances = []
        for i in range(b):
            hard = tuple(
                passage(random_text(rng, rng.randint(1, 6), vocab_size=12, prefix="g"),
                        pid=f"h{trial}x{i}n{j}#0", title="t")
                for j in range(rng.randint(0, 2))
            )
            instances.append(
                instance(
                    factoid(f"q{i}", random_text(rng, rng.randint(1, 6), vocab_size=12, prefix="g"), ["x"]),
                    passage(random_text(rng, rng.randint(1, 6), vocab_size=12, prefix="g"),
                            pid=f"p{trial}x{i}#0", title="t"),
                    hard=hard,
                )
            )
        model = init_model(d=d, hash_dim=hash_dim, seed=trial)
        model.w_q = np_rng.normal(scale=0.5, size=(d, hash_dim))
        model.w_p = np_rng.normal(scale=0.5, size=(d, hash_dim))

        # features do not depend on the weights, so cache them once
        x = featurize_texts([inst.question.text for inst in instances], hash_dim)
        candidate_texts = [render_encoder_input(inst.positive) for inst in instances]
        candidate_texts += [
            render_encoder_input(neg) for inst in instances for neg in inst.hard_negatives
        ]
        y = featurize_texts(candidate_texts, hash_dim)

        def loss_at(w_q, w_p):
            s = (x @ w_q.T) @ (y @ w_p.T).T
            rows = np.arange(s.shape[0])
            lse = s.max(axis=1) + np.log(np.exp(s - s.max(axis=1, keepdims=True)).sum(axis=1))
            return float((lse - s[rows, rows]).mean())

        report, g_wq, g_wp = batch_gradients(model, instances)
        # the cached-feature path is the same function the public API computes
        assert loss_at(model.w_q, model.w_p) == pytest.approx(report.loss, abs=1e-12)

        for w, grad in ((model.w_q, g_wq), (model.w_p, g_wp)):
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = orig + eps
                up = loss_at(model.w_q, model.w_p)
                w[idx] = orig - eps
                down = loss_at(model.w_q, model.w_p)
                w[idx] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(fd - grad[idx]) / max(1.0, abs(fd), abs(grad[idx]))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst < 1e-5, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


def test_04_blocked_search_matches_naive_scan():
    """Heap search returns the naive scan's ids, scores, and order exactly."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    sizes = [10000, 1, 100]
    while len(sizes) < 100:
        sizes.append(min(10000, int(10 ** rng.uniform(0.5, 4.0))))
    for m in sizes:
        vectors = rng.standard_normal((m, 128)).astype(np.float32)
        if m >= 4:
            # duplicated rows force exact score ties
            vectors[m // 2] = vectors[0]
            vectors[m - 1] = vectors[1]
        index = FlatIndex(d=128, ids=[f"p{j}" for j in range(m)], vectors=vectors)
        q = rng.standard_normal(128)
        for k in (1, 10, 100):
            got = search(index, q, k)
            want = search_naive(index, q, k)
            assert [h.passage_id for h in got] == [h.passage_id for h in want]
            assert [h.score for h in got] == [h.score for h in want]
            assert [h.rank for h in got] == [h.rank for h in want]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"search parity check took {elapsed:.1f}s"


def test_05_accumulated_bm25_matches_per_passage():
    """Term-at-a-time top-k equals scoring each passage independently."""
    rng = random.Random(0)
    for trial in range(100):
        n = rng.randint(1, 200)
        texts = [random_text(rng, rng.randint(1, 60), vocab_size=50) for _ in range(n)]
        store = store_of(*texts)
        index = build_bm25_index(store)
        query = random_text(rng, rng.randint(1, 8), vocab_size=50)
        tokens = tokenize(query)
        brute = sorted(
            (
                (ordinal, score)
                for ordinal, score in (
                    (o, bm25_score(index, tokens, o)) for o in range(n)
                )
                if score > 0.0
            ),
            key=lambda item: (-item[1], item[0]),
        )
        k = rng.randint(1, 20)
        got = bm25_top_k(index, query, k)
        assert [(h.passage_id, h.score) for h in got] == [
            (index.passage_ids[o], s) for o, s in brute[:k]
        ]

    # worked example: one of two equal-length passages holds the term once,
    # so the score is the raw idf ln((2 - 1 + 0.5) / (1 + 0.5) + 1) = ln 2
    example = build_bm25_index(store_of("apple banana", "cherry durian"))
    assert bm25_score(example, ["apple"], 0) == pytest.approx(0.6931471805599453, abs=1e-6)


def test_06_chunker_reconstructs_documents():
    """Chunks concatenate back to the cleaned body at every chunk size."""
    rng = random.Random(1)
    documents = []
    for i in range(1000):
        n_words = rng.randint(1, 300)
        body = " ".join(f"w{rng.randrange(120)}" for _ in range(n_words))
        if i % 7 == 0:
            body = "  " + body.replace(" ", " \t ", 3) + " \n"
        documents.append(clean_document(body, title=f"t{i}", doc_id=f"doc{i}"))
    for chunk_size in (1, 7, 100):
        for doc in documents:
            chunks = chunk_document(doc, chunk_size)
            assert " ".join(p.text for p in chunks) == doc.body
            for p in chunks[:-1]:
                assert len(p.text.split()) == chunk_size
            assert 1 <= len(chunks[-1].text.split()) <= chunk_size
            assert [p.chunk_index for p in chunks] == list(range(len(chunks)))
            assert [p.passage_id for p in chunks] == [
                f"{doc.doc_id}#{j}" for j in range(len(chunks))
            ]


def test_07_mined_negatives_never_contain_answers(pipeline):
    """No mined hard negative contains an answer string, over every question."""
    store = pipeline["store"]
    bm25 = pipeline["bm25"]
    checked = 0
    for inst in pipeline["instances"]:
        needles = answer_exclusion_strings(inst.question)
        mined = mine_hard_negatives(
            bm25, store, inst.question, top_n=100, n=3,
            exclude_ids=(inst.positive.passage_id,),
        )
        assert mined, f"no candidates at all for {inst.question.question_id}"
        for p in list(mined) + list(inst.hard_negatives):
            assert not contains_answer(p.text, needles), (
                f"{p.passage_id} contains an answer for {inst.question.question_id}"
            )
            checked += 1
    assert checked >= 200


def test_08_training_beats_random_and_tracks_bm25(pipeline):
    """Default training halves the loss and matches the lexical baseline."""
    metrics = pipeline["metrics"]
    first, last = metrics[0]["mean_train_loss"], metrics[-1]["mean_train_loss"]
    assert last < 0.5 * first, f"loss went {first:.4f} -> {last:.4f}"

    trained_hit = pipeline["trained_report"].per_k[10]["hit_rate"]
    random_hit = pipeline["random_report"].per_k[10]["hit_rate"]
    bm25_hit = pipeline["bm25_report"].per_k[10]["hit_rate"]
    assert trained_hit > random_hit, f"trained {trained_hit} vs random {random_hit}"
    assert trained_hit >= bm25_hit - 0.05, f"trained {trained_hit} vs bm25 {bm25_hit}"
    assert pipeline["train_seconds"] < 300.0


def test_09_hit_rates_monotone_in_k(pipeline):
    """hit@1 <= hit@5 <= hit@10 on every report produced by the pipeline."""
    for name in ("trained_report", "random_report", "bm25_report"):
        report = pipeline[name]
        rates = [report.per_k[k]["hit_rate"] for k in (1, 5, 10)]
        assert rates == sorted(rates), f"{name}: {rates}"


def run_cli_pipeline(root):
    data = generate(n_passages=300, n_questions=40, seed=0, chunk_size=20)
    corpus = root / "corpus.jsonl"
    questions = root / "questions.json"
    write_corpus_jsonl(data, corpus)
    write_questions_json(data, questions)
    paths = {
        "store": root / "passages.jsonl",
        "bm25": root / "bm25.jsonl",
        "train": root / "dataset" / "train.json",
        "dev": root / "dataset" / "dev.json",
        "test": root / "dataset" / "test.json",
        "model": root / "model.bin",
        "metrics": root / "metrics.jsonl",
        "dense": root / "dense.bin",
        "report": root / "report.json",
    }
    steps = [
        ["ingest", "--corpus", str(corpus), "--out", str(paths["store"]),
         "--chunk-size", "20", "--seed", "0"],
        ["index-bm25", "--corpus", str(paths["store"]), "--out", str(paths["bm25"]), "--seed", "0"],
        ["build-dataset", "--questions", str(questions), "--store", str(paths["store"]),
         "--index", str(paths["bm25"]), "--out-dir", str(root / "dataset"),
         "--seed", "0"],
        ["train", "--train", str(paths["train"]), "--dev", str(paths["dev"]),
         "--out", str(paths["model"]), "--metrics", str(paths["metrics"]),
         "--batch-size", "8", "--epochs", "3", "--d", "64", "--hash-dim", "4096",
         "--seed", "0"],
        ["index-dense", "--model", str(paths["model"]), "--store", str(paths["store"]),
         "--out", str(paths["dense"]), "--seed", "0"],
        ["evaluate", "--model", str(paths["model"]), "--index", str(paths["dense"]),
         "--store", str(paths["store"]), "--questions", str(questions),
         "--out", str(paths["report"]), "--seed", "0"],
    ]
    for argv in steps:
        rc = main(argv)
        assert rc == 0, f"step {argv[0]} exited {rc}"
    return paths


def test_10_same_seed_runs_byte_identical(tmp_path_factory, capsys):
    """Two fixed-seed pipeline runs produce byte-identical artifacts."""
    a = run_cli_pipeline(tmp_path_factory.mktemp("run_a"))
    b = run_cli_pipeline(tmp_path_factory.mktemp("run_b"))
    capsys.readouterr()
    for key in ("store", "bm25", "train", "dev", "test", "model", "dense", "report"):
        assert a[key].read_bytes() == b[key].read_bytes(), f"{key} differs between runs"
    # per-epoch metrics match apart from wall-clock timings
    rows_a = [json.loads(line) for line in a["metrics"].read_text(encoding="utf-8").splitlines()]
    rows_b = [json.loads(line) for line in b["metrics"].read_text(encoding="utf-8").splitlines()]
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        ra.pop("wall_seconds")
        rb.pop("wall_seconds")
        assert ra == rb
