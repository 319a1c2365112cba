import json
import random

import pytest

from deskdpr.bm25 import build_index
from deskdpr.dataset import (
    DatasetSplit,
    align_positive,
    align_questions,
    attach_negatives,
    emit_dpr_json,
    load_dpr_json,
    normalize_for_match,
    split_instances,
)
from deskdpr.errors import ParseError
from deskdpr.questions import Question

from helpers import factoid, instance, random_text, store_of, yesno


class TestNormalize:
    def test_lowercase_and_collapse(self):
        assert normalize_for_match("  The  DosR\tregulon\n") == "the dosr regulon"

    def test_empty(self):
        assert normalize_for_match("   ") == ""


class TestAlignPositive:
    def test_snippet_match(self):
        store = store_of("alpha beta gamma", "delta epsilon zeta")
        q = factoid("q1", "which set", ["nothing"], snippets=["delta epsilon"])
        positive = align_positive(q, store)
        assert positive is not None and positive.passage_id == "d1#0"

    def test_snippet_preferred_over_answer(self):
        store = store_of("the answer word", "the snippet phrase")
        q = factoid("q1", "which one", ["answer word"], snippets=["snippet phrase"])
        positive = align_positive(q, store)
        assert positive.passage_id == "d1#0"

    def test_answer_fallback_when_snippet_unmatched(self):
        # a snippet spanning a chunk boundary matches no single passage
        store = store_of("first half of", "the sentence answer word")
        q = factoid("q1", "which one", ["answer word"],
                    snippets=["of the sentence"])
        positive = align_positive(q, store)
        assert positive.passage_id == "d1#0"

    def test_no_match_returns_none(self):
        store = store_of("alpha beta")
        q = factoid("q1", "which one", ["gamma"], snippets=["delta"])
        assert align_positive(q, store) is None

    def test_lowest_ordinal_wins(self):
        store = store_of("shared answer here", "shared answer there")
        q = factoid("q1", "which one", ["shared answer"])
        assert align_positive(q, store).passage_id == "d0#0"

    def test_case_and_whitespace_insensitive(self):
        store = store_of("The  Alpha\tComplex binds")
        q = factoid("q1", "which one", ["alpha complex"])
        assert align_positive(q, store).passage_id == "d0#0"

    def test_blank_needles_ignored(self):
        store = store_of("alpha beta")
        q = Question(question_id="q1", text="t", qtype="factoid",
                     answers=("   ",), gold_snippets=("beta",))
        assert align_positive(q, store).passage_id == "d0#0"


class TestAlignQuestions:
    def test_drop_count_and_order(self):
        store = store_of("alpha content", "beta content")
        questions = [
            factoid("q1", "about beta", ["beta"]),
            factoid("q2", "about gamma", ["gamma"]),
            factoid("q3", "about alpha", ["alpha"]),
        ]
        instances, dropped = align_questions(questions, store)
        assert dropped == 1
        assert [i.question.question_id for i in instances] == ["q1", "q3"]
        assert [i.positive.passage_id for i in instances] == ["d1#0", "d0#0"]


class TestAttachNegatives:
    def build(self):
        store = store_of(
            "alpha result alpha data",
            "beta result beta data",
            "alpha beta mixture",
        )
        index = build_index(store)
        q1 = factoid("q1", "alpha result", ["alpha"])
        q2 = factoid("q2", "beta result", ["beta"])
        instances = [
            instance(q1, store.get("d0#0")),
            instance(q2, store.get("d1#0")),
        ]
        return store, index, instances

    def test_random_negatives_come_from_other_positives(self):
        store, index, instances = self.build()
        out, _ = attach_negatives(instances, store, index, n_hard=0, n_random=1)
        assert [p.passage_id for p in out[0].random_negatives] == ["d1#0"]
        assert [p.passage_id for p in out[1].random_negatives] == ["d0#0"]

    def test_pool_saturation_gives_short_list(self):
        store, index, instances = self.build()
        out, _ = attach_negatives(instances, store, index, n_hard=0, n_random=5)
        # only one other positive exists
        assert len(out[0].random_negatives) == 1

    def test_same_seed_same_sample(self):
        store, index, instances = self.build()
        a, _ = attach_negatives(instances, store, index, n_hard=1, n_random=1, seed=3)
        b, _ = attach_negatives(instances, store, index, n_hard=1, n_random=1, seed=3)
        for x, y in zip(a, b):
            assert [p.passage_id for p in x.random_negatives] == [p.passage_id for p in y.random_negatives]
            assert [p.passage_id for p in x.hard_negatives] == [p.passage_id for p in y.hard_negatives]

    def test_own_positive_never_mined(self):
        store, index, instances = self.build()
        out, _ = attach_negatives(instances, store, index, n_hard=2, n_random=0)
        for inst in out:
            for p in inst.hard_negatives:
                assert p.passage_id != inst.positive.passage_id

    def test_hard_negative_lacks_answer(self):
        store, index, instances = self.build()
        out, _ = attach_negatives(instances, store, index, n_hard=2, n_random=0)
        for inst in out:
            for p in inst.hard_negatives:
                for needle in inst.question.answers:
                    assert needle.lower() not in p.text.lower()

    def test_short_of_hard_counted(self):
        store = store_of("alpha only passage")
        index = build_index(store)
        q = factoid("q1", "alpha only", ["alpha"])
        out, short = attach_negatives(
            [instance(q, store.get("d0#0"))], store, index, n_hard=1
        )
        assert short == 1
        assert out[0].hard_negatives == ()

    @pytest.mark.parametrize("counts", [{"n_hard": -1}, {"n_random": -2}, {"top_n": 0}, {"n_hard": 0, "top_n": 0}])
    def test_bad_counts_rejected_before_mining(self, monkeypatch, counts):
        store, index, instances = self.build()
        monkeypatch.setattr("deskdpr.dataset.mine_hard_negatives", lambda *a, **kw: pytest.fail("mined"))
        with pytest.raises(ValueError, match="must be >= "):
            attach_negatives(instances, store, index, **counts)

    def test_instances_otherwise_unchanged(self):
        store, index, instances = self.build()
        out, _ = attach_negatives(instances, store, index, n_hard=1, n_random=1)
        for before, after in zip(instances, out):
            assert after.question is before.question
            assert after.positive is before.positive


class TestSplitInstances:
    def make_instances(self, n):
        store = store_of(*[f"text number {i}" for i in range(n)])
        return [
            instance(factoid(f"q{i}", f"question {i}", [f"number {i}"]), store[i])
            for i in range(n)
        ]

    def test_sizes_eight_one_one(self):
        splits = split_instances(self.make_instances(10))
        assert (len(splits["train"]), len(splits["dev"]), len(splits["test"])) == (8, 1, 1)

    def test_disjoint_union(self):
        instances = self.make_instances(23)
        splits = split_instances(instances, seed=5)
        qids = [i.question.question_id for s in splits.values() for i in s]
        assert sorted(qids) == sorted(i.question.question_id for i in instances)
        assert len(set(qids)) == len(qids)

    def test_same_seed_same_assignment(self):
        instances = self.make_instances(17)
        a = split_instances(instances, seed=9)
        b = split_instances(instances, seed=9)
        for name in ("train", "dev", "test"):
            assert [i.question.question_id for i in a[name]] == [
                i.question.question_id for i in b[name]
            ]

    def test_original_order_kept_within_split(self):
        instances = self.make_instances(30)
        splits = split_instances(instances, seed=2)
        position = {inst.question.question_id: i for i, inst in enumerate(instances)}
        for split in splits.values():
            positions = [position[i.question.question_id] for i in split]
            assert positions == sorted(positions)

    def test_bad_fractions_rejected(self):
        instances = self.make_instances(4)
        with pytest.raises(ValueError):
            split_instances(instances, fractions=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            split_instances(instances, fractions=(1.2, -0.1, -0.1))

    def test_all_train(self):
        instances = self.make_instances(6)
        splits = split_instances(instances, fractions=(1.0, 0.0, 0.0))
        assert len(splits["train"]) == 6
        assert len(splits["dev"]) == 0 and len(splits["test"]) == 0


class TestDatasetSplit:
    def test_duplicate_question_id_rejected(self):
        store = store_of("alpha", "beta")
        q = factoid("q1", "text", ["alpha"])
        with pytest.raises(ValueError, match="duplicate"):
            DatasetSplit(name="train", instances=(instance(q, store[0]), instance(q, store[1])))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            DatasetSplit(name="validation", instances=())


class TestEmitLoad:
    def make_split(self):
        store = store_of("alpha result data", "beta result data", "gamma result data")
        q1 = factoid("q1", "alpha question", ["alpha"], snippets=["alpha result"])
        q2 = yesno("q2", "beta question", "yes", snippets=["beta result"])
        return DatasetSplit(
            name="train",
            instances=(
                instance(q1, store[0], hard=(store[2],), rand=(store[1],)),
                instance(q2, store[1]),
            ),
        )

    def test_round_trip(self, tmp_path):
        split = self.make_split()
        path = tmp_path / "train.json"
        emit_dpr_json(split, path)
        loaded = load_dpr_json(path, name="train")
        assert loaded == split

    def test_record_layout(self, tmp_path):
        split = self.make_split()
        path = tmp_path / "train.json"
        emit_dpr_json(split, path)
        records = json.loads(path.read_text(encoding="utf-8"))
        assert [r["question_id"] for r in records] == ["q1", "q2"]
        first = records[0]
        assert first["positive_ctxs"][0]["passage_id"] == "d0#0"
        assert set(first["positive_ctxs"][0]) == {"title", "text", "passage_id"}
        assert first["hard_negative_ctxs"][0]["passage_id"] == "d2#0"
        assert first["negative_ctxs"][0]["passage_id"] == "d1#0"
        # second record has no negatives, both lists still present
        assert records[1]["hard_negative_ctxs"] == []
        assert records[1]["negative_ctxs"] == []

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text("[{broken", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dpr_json(path)

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text('{"not": "array"}', encoding="utf-8")
        with pytest.raises(ParseError):
            load_dpr_json(path)

    def test_record_without_positive_rejected(self, tmp_path):
        split = self.make_split()
        path = tmp_path / "train.json"
        emit_dpr_json(split, path)
        records = json.loads(path.read_text(encoding="utf-8"))
        records[1]["positive_ctxs"] = []
        path.write_text(json.dumps(records), encoding="utf-8")
        with pytest.raises(ParseError, match="record 1"):
            load_dpr_json(path)

    def test_missing_field_rejected(self, tmp_path):
        split = self.make_split()
        path = tmp_path / "train.json"
        emit_dpr_json(split, path)
        records = json.loads(path.read_text(encoding="utf-8"))
        del records[0]["question"]
        path.write_text(json.dumps(records), encoding="utf-8")
        with pytest.raises(ParseError, match="record 0"):
            load_dpr_json(path)


class TestEndToEndDataset:
    def test_aligned_mined_split_round_trip(self, tmp_path):
        rng = random.Random(41)
        texts = []
        for i in range(40):
            text = random_text(rng, 12)
            if i % 2 == 0:
                text += f" fact{i // 2}marker extra words"
            texts.append(text)
        store = store_of(*texts)
        index = build_index(store)
        questions = [
            factoid(f"q{i}", f"where is fact{i}marker " + random_text(rng, 3), [f"fact{i}marker"])
            for i in range(20)
        ]
        instances, dropped = align_questions(questions, store)
        assert dropped == 0
        instances, _ = attach_negatives(instances, store, index, n_hard=1, n_random=1, seed=1)
        splits = split_instances(instances, seed=1)
        for name, split in splits.items():
            path = tmp_path / f"{name}.json"
            emit_dpr_json(split, path)
            assert load_dpr_json(path, name=name) == split
