import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskdpr.encoder import init_model
from deskdpr.errors import EmptyEvaluation
from deskdpr.evaluation import (
    MATCH_MODES,
    EvalConfig,
    EvalReport,
    evaluate,
    evaluate_results,
    write_report,
)
from deskdpr.flat_index import FlatIndex, build_index, search
from deskdpr.questions import contains_answer
from deskdpr.results import hits_from_ranking

from helpers import factoid, instance, store_of, yesno


def ranking(*pids):
    return hits_from_ranking([(pid, 1.0 - 0.1 * i) for i, pid in enumerate(pids)])


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.k_values == (1, 5, 10)
        assert cfg.match_mode == "gold_passage_id"

    def test_empty_k_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(k_values=())

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(k_values=(0, 5))

    def test_unsorted_k_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(k_values=(5, 1))

    def test_repeated_k_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            EvalConfig(k_values=(5, 5, 10))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(match_mode="fuzzy")


def hit_rates(store, q, pids, k_values, mode="answer_string", positive="d0#0"):
    """hit@k per k of one question whose ranking is ``pids``."""
    cfg = EvalConfig(k_values=k_values, match_mode=mode)
    report = evaluate_results([ranking(*pids)], [instance(q, store.get(positive))], store, cfg)
    return {k: row["hit_rate"] for k, row in report.per_k.items()}


class TestHitAtK:
    def test_answer_string_found_at_rank_three(self):
        store = store_of("nothing here", "still nothing", "the answer token appears")
        q = factoid("q1", "find it", ["answer token"])
        assert hit_rates(store, q, ("d0#0", "d1#0", "d2#0"), (2, 3)) == {2: 0.0, 3: 1.0}

    def test_answer_string_absent(self):
        store = store_of("nothing here", "still nothing")
        q = factoid("q1", "find it", ["answer token"])
        assert hit_rates(store, q, ("d0#0", "d1#0"), (1, 2)) == {1: 0.0, 2: 0.0}

    def test_empty_result_never_hits(self):
        store = store_of("anything")
        q = factoid("q1", "find it", ["anything"])
        for mode in MATCH_MODES:
            assert hit_rates(store, q, (), (1, 5), mode) == {1: 0.0, 5: 0.0}

    def test_gold_id_mode(self):
        store = store_of("a", "b")
        q = factoid("q1", "find it", ["zzz"])
        gold = {"mode": "gold_passage_id", "positive": "d1#0"}
        assert hit_rates(store, q, ("d0#0", "d1#0"), (1, 2), **gold) == {1: 0.0, 2: 1.0}
        assert hit_rates(store, q, ("d0#0",), (1, 2), **gold) == {1: 0.0, 2: 0.0}

    def test_yesno_judged_by_snippets(self):
        # a bare "yes" answer must not count as containment evidence
        store = store_of("yes it is widely known", "statins lower ldl cholesterol")
        q = yesno("q1", "do statins lower ldl", "yes", snippets=["statins lower ldl"])
        assert hit_rates(store, q, ("d1#0",), (1,)) == {1: 1.0}
        assert hit_rates(store, q, ("d0#0",), (1,)) == {1: 0.0}

    def test_snippet_matches_with_whitespace_collapsed(self):
        # the rule alignment used to pick the positive
        store = store_of("gamma alpha beta delta", "alphabeta")
        q = yesno("q1", "is alpha beta", "yes", snippets=["alpha  beta"])
        assert hit_rates(store, q, ("d0#0",), (1,)) == {1: 1.0}
        assert hit_rates(store, q, ("d1#0",), (1,)) == {1: 0.0}

    def test_answer_past_largest_k_is_a_miss(self):
        store = store_of("a", "b", "c", "the answer token")
        q = factoid("q1", "find it", ["answer token"])
        assert hit_rates(store, q, ("d0#0", "d1#0", "d2#0", "d3#0"), (1, 3)) == {1: 0.0, 3: 0.0}

    def test_short_ranking_hit_holds_at_larger_k(self):
        store = store_of("the answer token")
        q = factoid("q1", "find it", ["answer token"])
        assert hit_rates(store, q, ("d0#0",), (1, 5)) == {1: 1.0, 5: 1.0}


WORDS = ("yes", "no", "alpha", "beta", "gamma")
phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(" ".join)


@st.composite
def evaluation_cases(draw):
    """A store, questions with rankings over it (repeats and short ones
    included) and a config."""
    texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)
    store = store_of(*draw(st.lists(texts, min_size=1, max_size=6)))
    ids = [p.passage_id for p in store]
    k_values = tuple(sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=3))))
    instances, results = [], []
    for i in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            answer = draw(st.sampled_from(("yes", "no")))
            q = yesno(f"q{i}", "is it", answer, snippets=draw(st.lists(phrases, max_size=2)))
        else:
            q = factoid(f"q{i}", "what is it", draw(st.lists(phrases, min_size=1, max_size=2)))
        instances.append(instance(q, store.get(draw(st.sampled_from(ids)))))
        results.append(ranking(*draw(st.lists(st.sampled_from(ids), max_size=max(k_values) + 2))))
    return store, instances, results, EvalConfig(k_values, draw(st.sampled_from(MATCH_MODES)))


def defined_report(results, instances, store, cfg):
    """Each figure by its definition, judged afresh for every k: a hit has
    some relevant passage in the top k; precision, recall and F1 compare
    the top k's distinct ids with the one gold id, summed over questions."""
    per_k = {}
    for k in cfg.k_values:
        hits = true_positives = retrieved = 0
        for result, inst in zip(results, instances):
            top = result.ids()[:k]
            gold = inst.positive.passage_id
            q = inst.question
            needles = q.gold_snippets if q.qtype == "yesno" else q.answers
            if cfg.match_mode == "gold_passage_id":
                hits += gold in top
            else:
                hits += any(contains_answer(store.get(pid).text, needles) for pid in top)
            true_positives += gold in set(top)
            retrieved += len(set(top))
        precision = true_positives / retrieved if retrieved else 0.0
        recall = true_positives / len(instances)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_k[k] = {
            "hit_rate": hits / len(instances),
            "precision": precision,
            "recall": recall,
            "f1": f1,
        }
    return per_k


@settings(max_examples=300, deadline=None)
@given(evaluation_cases())
def test_evaluate_results_equals_its_definition_bitwise(case):
    store, instances, results, cfg = case
    report = evaluate_results(results, instances, store, cfg)

    def bits(per_k):
        return {k: {name: value.hex() for name, value in row.items()} for k, row in per_k.items()}

    assert bits(report.per_k) == bits(defined_report(results, instances, store, cfg))
    assert report.n_questions == len(instances)


class TestEvaluateResults:
    def make(self):
        store = store_of("alpha fact", "beta fact", "gamma fact", "delta fact")
        q1 = factoid("q1", "about alpha", ["alpha"])
        q2 = factoid("q2", "about beta", ["beta"])
        instances = [instance(q1, store.get("d0#0")), instance(q2, store.get("d1#0"))]
        return store, instances

    def test_perfect_ranking(self):
        store, instances = self.make()
        results = [ranking("d0#0", "d2#0"), ranking("d1#0", "d3#0")]
        report = evaluate_results(results, instances, store, EvalConfig(k_values=(1, 2)))
        assert report.per_k[1]["hit_rate"] == 1.0
        assert report.per_k[1]["precision"] == 1.0
        assert report.per_k[1]["recall"] == 1.0
        assert report.per_k[1]["f1"] == 1.0
        assert report.n_questions == 2

    def test_half_right_at_one(self):
        store, instances = self.make()
        # q1's positive at rank 2, q2's at rank 1
        results = [ranking("d2#0", "d0#0"), ranking("d1#0", "d3#0")]
        report = evaluate_results(results, instances, store, EvalConfig(k_values=(1, 2)))
        assert report.per_k[1]["hit_rate"] == 0.5
        assert report.per_k[2]["hit_rate"] == 1.0
        # at k=2: 2 true positives over 4 retrieved, over 2 gold
        assert report.per_k[2]["precision"] == 0.5
        assert report.per_k[2]["recall"] == 1.0
        assert report.per_k[2]["f1"] == pytest.approx(2 / 3, abs=1e-12)

    def test_miss_everywhere_is_zero(self):
        store, instances = self.make()
        results = [ranking("d2#0"), ranking("d3#0")]
        report = evaluate_results(results, instances, store, EvalConfig(k_values=(1,)))
        row = report.per_k[1]
        assert row == {"hit_rate": 0.0, "precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_hit_rate_monotone_in_k(self):
        rng = np.random.default_rng(0)
        store = store_of(*[f"fact number {i} text" for i in range(30)])
        instances = [
            instance(factoid(f"q{i}", f"about {i}", [f"number {i} "]), store[i])
            for i in range(12)
        ]
        all_ids = [p.passage_id for p in store]
        results = []
        for _ in instances:
            order = list(rng.permutation(30))
            results.append(ranking(*[all_ids[j] for j in order[:10]]))
        cfg = EvalConfig(k_values=(1, 2, 3, 5, 10))
        report = evaluate_results(results, instances, store, cfg)
        rates = [report.per_k[k]["hit_rate"] for k in cfg.k_values]
        assert rates == sorted(rates)
        for row in report.per_k.values():
            for value in row.values():
                assert 0.0 <= value <= 1.0

    def test_answer_string_mode(self):
        store, instances = self.make()
        # d2 does not contain "alpha"; d1 contains "beta"
        results = [ranking("d2#0"), ranking("d1#0")]
        cfg = EvalConfig(k_values=(1,), match_mode="answer_string")
        report = evaluate_results(results, instances, store, cfg)
        assert report.per_k[1]["hit_rate"] == 0.5

    def test_repeated_ids_retrieved_once(self):
        store, instances = self.make()
        # d0 twice then d2: 1 distinct id at k=2, 2 at k=3
        results = [ranking("d0#0", "d0#0", "d2#0")]
        report = evaluate_results(results, instances[:1], store, EvalConfig(k_values=(2, 3)))
        assert report.per_k[2]["precision"] == 1.0
        assert report.per_k[3]["precision"] == 0.5
        assert report.per_k[3]["recall"] == 1.0

    def test_empty_rejected(self):
        store, _ = self.make()
        with pytest.raises(EmptyEvaluation):
            evaluate_results([], [], store)

    def test_length_mismatch_rejected(self):
        store, instances = self.make()
        with pytest.raises(ValueError):
            evaluate_results([ranking("d0#0")], instances, store)

    def test_meta_carried(self):
        store, instances = self.make()
        results = [ranking("d0#0"), ranking("d1#0")]
        report = evaluate_results(
            results, instances, store, EvalConfig(k_values=(1,)), meta={"encoder": "hashed-bow"}
        )
        assert report.meta == {"encoder": "hashed-bow"}


class TestEvaluateEndToEnd:
    def test_random_model_hits_at_chance_rate(self):
        # expectation of hit@10 over a 400-passage pool is 10/400; the
        # mean over 24 seeds should stay inside a generous bracket
        store = store_of(*[f"unique{i}word row entry" for i in range(400)])
        instances = [
            instance(factoid(f"q{i}", f"find unique{i}word", [f"unique{i}word"]), store[i])
            for i in range(10)
        ]
        cfg = EvalConfig(k_values=(10,))
        rates = []
        for seed in range(24):
            model = init_model(d=16, hash_dim=1024, seed=seed)
            index = build_index(model, store)
            report = evaluate(model, index, store, instances, cfg)
            rates.append(report.per_k[10]["hit_rate"])
        mean = sum(rates) / len(rates)
        assert 0.0003 < mean < 0.2

    def test_evaluate_equals_manual_search(self):
        store = store_of(*[f"unique{i}word row" for i in range(20)])
        instances = [
            instance(factoid(f"q{i}", f"find unique{i}word", [f"unique{i}word"]), store[i])
            for i in range(5)
        ]
        model = init_model(d=8, hash_dim=256, seed=3)
        index = build_index(model, store)
        cfg = EvalConfig(k_values=(1, 5))
        report = evaluate(model, index, store, instances, cfg)
        from deskdpr.encoder import encode_question

        results = [
            search(index, encode_question(model, inst.question.text), 5) for inst in instances
        ]
        manual = evaluate_results(results, instances, store, cfg)
        assert report.per_k == manual.per_k

    def test_empty_instances_rejected(self):
        store = store_of("a")
        model = init_model(d=8, hash_dim=256, seed=0)
        index = build_index(model, store)
        with pytest.raises(EmptyEvaluation):
            evaluate(model, index, store, [])


class TestReports:
    def make_report(self):
        return EvalReport(
            per_k={
                1: {"hit_rate": 0.5, "precision": 0.5, "recall": 0.5, "f1": 0.5},
                10: {"hit_rate": 0.8125, "precision": 0.08125, "recall": 0.8125, "f1": 0.1478},
            },
            n_questions=16,
            meta={"encoder": "hashed-bow", "epochs": "8", "batch": "16"},
        )

    def test_json_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report(report, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert {int(k): v for k, v in payload["per_k"].items()} == report.per_k
        assert payload["n_questions"] == report.n_questions
        assert payload["meta"] == report.meta

    def test_json_keys_are_strings_sorted(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report(report, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert list(payload["per_k"]) == ["1", "10"]

    def test_markdown_table(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.md"
        write_report(report, path, fmt="markdown_table")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "| Encoder | Epochs | Batch | hit@10 | F1 |"
        assert lines[1].startswith("| ---")
        assert lines[2] == "| hashed-bow | 8 | 16 | 0.8125 | 0.1478 |"
        assert len(lines) == 3

    def test_markdown_missing_meta_dashes(self, tmp_path):
        report = EvalReport(
            per_k={10: {"hit_rate": 1.0, "precision": 0.1, "recall": 1.0, "f1": 0.1818}},
            n_questions=4,
        )
        path = tmp_path / "report.md"
        write_report(report, path, fmt="markdown_table")
        assert "| - | - | - |" in path.read_text(encoding="utf-8").splitlines()[2]

    def test_markdown_falls_back_to_max_k(self, tmp_path):
        report = EvalReport(
            per_k={5: {"hit_rate": 0.75, "precision": 0.15, "recall": 0.75, "f1": 0.25}},
            n_questions=4,
        )
        path = tmp_path / "report.md"
        write_report(report, path, fmt="markdown_table")
        assert "0.7500" in path.read_text(encoding="utf-8")

    def test_empty_per_k_rejected(self, tmp_path):
        report = EvalReport(per_k={}, n_questions=0)
        with pytest.raises(ValueError):
            write_report(report, tmp_path / "report.json")
        assert not (tmp_path / "report.json").exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(self.make_report(), tmp_path / "r", fmt="csv")
