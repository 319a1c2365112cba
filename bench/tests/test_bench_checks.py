"""Self-tests of the benchmark's output checks and tracer.

Each check must pass on a correct output and fail on a planted fault:
a swapped top-10 id, a hard negative that contains the answer, a
differing artifact hash.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _dense_case(seed: int = 0, rows: int = 300, dim: int = 16, k: int = 10):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((rows, dim)).astype(np.float32)
    ids = [f"d{i}#0" for i in range(rows)]
    query = rng.standard_normal(dim)
    scores = vectors.astype(np.float64) @ query
    top = sorted(range(rows), key=lambda i: (-scores[i], i))[:k]
    return vectors, ids, query, [(ids[i], float(scores[i])) for i in top]


def test_dense_check_accepts_exact_top_k():
    vectors, ids, query, hits = _dense_case()
    assert checks.DenseReference(vectors, ids).problems(query, hits, 10) == []


def test_dense_check_rejects_swapped_ids():
    vectors, ids, query, hits = _dense_case()
    (a, sa), (b, sb) = hits[2], hits[3]
    swapped = hits[:2] + [(b, sa), (a, sb)] + hits[4:]
    assert checks.DenseReference(vectors, ids).problems(query, swapped, 10)


def test_dense_check_rejects_a_passage_from_outside_the_top_k():
    vectors, ids, query, hits = _dense_case()
    scores = vectors.astype(np.float64) @ query
    outsider = int(np.argsort(scores)[0])
    wrong = hits[:9] + [(ids[outsider], float(scores[outsider]))]
    assert checks.DenseReference(vectors, ids).problems(query, wrong, 10)


def test_dense_check_allows_swapping_exact_ties_only():
    vectors = np.zeros((4, 2), dtype=np.float32)
    vectors[:, 0] = [1.0, 2.0, 2.0, 0.5]
    ids = ["a#0", "b#0", "c#0", "d#0"]
    query = np.array([1.0, 0.0])
    assert checks.DenseReference(vectors, ids).problems(query, [("c#0", 2.0), ("b#0", 2.0)], 2) == []
    assert checks.DenseReference(vectors, ids).problems(query, [("b#0", 2.0), ("a#0", 1.0)], 2)


def _question(qid: str, qtype: str = "factoid", answer: str = "ans001val", snippet: str = "uniq001tag w1 ans001val"):
    return {
        "id": qid,
        "body": f"what about {qid}",
        "type": qtype,
        "exact_answer": "yes" if qtype == "yesno" else [[answer]],
        "snippets": [{"text": snippet}],
    }


def _record(qid: str, positive: str, negative_text: str, negative_id: str = "doc9#0"):
    return {
        "question_id": qid,
        "positive_ctxs": [{"passage_id": positive, "text": "uniq001tag w1 ans001val"}],
        "hard_negative_ctxs": [{"passage_id": negative_id, "text": negative_text}],
    }


def test_dataset_check_accepts_clean_splits():
    questions = [_question("q1")]
    splits = {"train": [_record("q1", "doc1#0", "w2 w3 w4")], "dev": [], "test": []}
    assert checks.dataset_problems(splits, questions, {"q1": "doc1#0"}) == []


def test_dataset_check_rejects_hard_negative_containing_the_answer():
    questions = [_question("q1")]
    splits = {"train": [_record("q1", "doc1#0", "w2 ANS001VAL w4")], "dev": [], "test": []}
    assert checks.dataset_problems(splits, questions, {"q1": "doc1#0"})


def test_dataset_check_matches_answers_on_collapsed_whitespace():
    questions = [_question("q1", qtype="yesno", snippet="alpha  beta")]
    splits = {"train": [_record("q1", "d0#0", "gamma alpha beta delta zeta", "d1#0")], "dev": [], "test": []}
    assert checks.dataset_problems(splits, questions, {"q1": "d0#0"})


def test_dataset_check_rejects_wrong_positive_and_positive_as_negative():
    questions = [_question("q1")]
    wrong = {"train": [_record("q1", "doc2#0", "w2")], "dev": [], "test": []}
    assert checks.dataset_problems(wrong, questions, {"q1": "doc1#0"})
    self_negative = {"train": [_record("q1", "doc1#0", "w2", negative_id="doc1#0")], "dev": [], "test": []}
    assert checks.dataset_problems(self_negative, questions, {"q1": "doc1#0"})


def test_dataset_check_rejects_dropped_question():
    questions = [_question("q1"), _question("q2")]
    splits = {"train": [_record("q1", "doc1#0", "w2")], "dev": [], "test": []}
    assert checks.dataset_problems(splits, questions, {"q1": "doc1#0", "q2": "doc2#0"})


def test_report_check():
    good = {"n_questions": 4, "per_k": {"1": {"hit_rate": 0.25}, "10": {"hit_rate": 0.5, "f1": 1 / 11}}}
    assert checks.report_problems(good, 4) == []
    not_monotone = {"n_questions": 4, "per_k": {"1": {"hit_rate": 0.75}, "10": {"hit_rate": 0.5, "f1": 1 / 11}}}
    assert checks.report_problems(not_monotone, 4)
    bad_f1 = {"n_questions": 4, "per_k": {"1": {"hit_rate": 0.25}, "10": {"hit_rate": 0.5, "f1": 0.1}}}
    assert checks.report_problems(bad_f1, 4)
    assert checks.report_problems(good, 4, min_hit_at_10=0.5) == []
    assert checks.report_problems(good, 4, min_hit_at_10=0.75)


def test_bm25_check():
    texts = ["apple banana apple", "banana cherry", "cherry date elder", "apple"]
    reference = checks.OkapiReference(texts, {"apple", "cherry"})
    ordinal = {f"p{i}": i for i in range(len(texts))}
    query = "apple cherry"
    ranked = sorted(range(len(texts)), key=lambda i: (-reference.score(query, i), i))
    hits = [(f"p{i}", reference.score(query, i)) for i in ranked if reference.score(query, i) > 0]
    assert checks.bm25_problems(reference, ordinal, query, hits, "p0", 10) == []
    off = [(hits[0][0], hits[0][1] * (1 + 1e-6))] + hits[1:]
    assert checks.bm25_problems(reference, ordinal, query, off, "p0", 10)
    assert checks.bm25_problems(reference, ordinal, query, hits[1:], hits[0][0], 10)


def test_okapi_reference_uses_non_negative_idf():
    texts = ["common rare", "common", "common"]
    reference = checks.OkapiReference(texts, {"common", "rare"})
    n, df = 3, 3
    assert reference.idf["common"] == pytest.approx(np.log((n - df + 0.5) / (df + 0.5) + 1.0))
    assert reference.idf["common"] > 0


def test_digest_check(tmp_path):
    assert checks.digest_problems({"model.bin": "aa"}, {"model.bin": "aa"}) == {}
    assert checks.digest_problems({"model.bin": "aa"}, {"model.bin": "bb"})
    first = workloads.DigestBook(tmp_path / "pipeline-seed0.json")
    assert first.compare({"model.bin": "aa"}) == {}
    first.save()
    second = workloads.DigestBook(tmp_path / "pipeline-seed0.json")
    assert "model.bin" in second.compare({"model.bin": "bb", "dense.bin": "cc"})
    assert second.compare({"model.bin": "aa"}) == {}
    assert second.compare({"dense.bin": "dd"})


def test_tracer_wraps_every_importer_and_restores():
    from deskdpr import encoder, training

    original = encoder.featurize_texts
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert training.featurize_texts is encoder.featurize_texts is not original
        with tracer.round():
            training.featurize_texts(["a b", "a b", "c"], 64)
            encoder.featurize("a b", 64)
    finally:
        tracer.uninstall()
    assert training.featurize_texts is encoder.featurize_texts is original
    metrics = tracer.layer_metrics(rounds=1)
    assert metrics["encoder.featurize_calls"][0] == 2
    assert metrics["encoder.texts_featurized"][0] == 4
    assert metrics["encoder.texts_per_distinct"][0] == 2
    assert metrics["trace.missing"][0] == 0


def test_tracer_reports_a_removed_function_as_missing(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "encoder.gone", (("deskdpr.encoder", "no_such_function"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["deskdpr.encoder.no_such_function"]
    assert tracer.layer_metrics(rounds=1)["trace.missing"][0] == 1
