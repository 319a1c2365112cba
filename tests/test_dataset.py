import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskdpr.bm25 import build_index
from deskdpr.dataset import (
    DatasetSplit,
    align_questions,
    attach_negatives,
    emit_dpr_json,
    load_dpr_json,
    normalize_for_match,
    split_instances,
)
from deskdpr.errors import ParseError
from deskdpr.questions import Question, contains_answer

from helpers import aligned_positive, factoid, instance, random_text, store_of, yesno


class TestNormalize:
    def test_lowercase_and_collapse(self):
        assert normalize_for_match("  The  DosR\tregulon\n") == "the dosr regulon"

    def test_empty(self):
        assert normalize_for_match("   ") == ""


class TestAlignPositive:
    def test_snippet_match(self):
        store = store_of("alpha beta gamma", "delta epsilon zeta")
        q = factoid("q1", "which set", ["nothing"], snippets=["delta epsilon"])
        positive = aligned_positive(q, store)
        assert positive is not None and positive.passage_id == "d1#0"

    def test_snippet_preferred_over_answer(self):
        store = store_of("the answer word", "the snippet phrase")
        q = factoid("q1", "which one", ["answer word"], snippets=["snippet phrase"])
        positive = aligned_positive(q, store)
        assert positive.passage_id == "d1#0"

    def test_answer_fallback_when_snippet_unmatched(self):
        # a snippet spanning a chunk boundary matches no single passage
        store = store_of("first half of", "the sentence answer word")
        q = factoid("q1", "which one", ["answer word"],
                    snippets=["of the sentence"])
        positive = aligned_positive(q, store)
        assert positive.passage_id == "d1#0"

    def test_no_match_returns_none(self):
        store = store_of("alpha beta")
        q = factoid("q1", "which one", ["gamma"], snippets=["delta"])
        assert aligned_positive(q, store) is None

    def test_lowest_ordinal_wins(self):
        store = store_of("shared answer here", "shared answer there")
        q = factoid("q1", "which one", ["shared answer"])
        assert aligned_positive(q, store).passage_id == "d0#0"

    def test_case_and_whitespace_insensitive(self):
        store = store_of("The  Alpha\tComplex binds")
        q = factoid("q1", "which one", ["alpha complex"])
        assert aligned_positive(q, store).passage_id == "d0#0"

    def test_blank_needles_ignored(self):
        store = store_of("alpha beta")
        q = Question(question_id="q1", text="t", qtype="factoid",
                     answers=("   ",), gold_snippets=("beta",))
        assert aligned_positive(q, store).passage_id == "d0#0"


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


def brute_force_positive(q, store):
    """The first passage in store order containing a gold snippet, else an answer."""
    for needles in (q.gold_snippets, q.answers):
        for p in store:
            if contains_answer(p.text, needles):
                return p
    return None


# words, whitespace, punctuation, and letters whose lowercase depends on
# context (final sigma) or grows (dotted capital I)
PIECES = ("alpha", "beta", "Alpha", "BETA", "i", " ", "  ", "\t", "\n", "_", ".", ",", "Σ", "ΑΣ", "ς", "σ", "İ")
pieces = st.lists(st.sampled_from(PIECES), max_size=5).map("".join)
question_needles = st.tuples(st.lists(pieces, max_size=3), st.lists(pieces, min_size=1, max_size=3))


class TestAlignMatchesBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(pieces, max_size=6), needles=st.lists(question_needles, min_size=1, max_size=3))
    # alpha|beta joined by a space would contain "alpha beta"
    @example(texts=["alpha", "beta"], needles=[([], ["alpha beta"])])
    # passages that normalize to ""
    @example(texts=["", " \t\n ", "alpha", ""], needles=[([], ["alpha"])])
    # the first passage wins, for one needle and across needles
    @example(texts=["alpha", "alpha"], needles=[([], ["ALPHA"])])
    @example(texts=["beta", "alpha"], needles=[([], ["alpha", "beta"])])
    # blank snippets fall through to the answers
    @example(texts=["beta", "alpha"], needles=[(["  ", "\t"], ["alpha"])])
    @example(texts=["alpha_beta.", "Alpha\t\nbeta"], needles=[(["alpha beta"], ["beta"])])
    @example(texts=["ΑΣ Σ", "İ"], needles=[(["ας σ"], ["i"]), ([], ["iΣ"])])
    def test_first_passage_in_store_order(self, texts, needles):
        store = store_of(*texts)
        questions = [
            Question(question_id=f"q{i}", text="t", qtype="factoid", answers=tuple(answers), gold_snippets=tuple(snippets))
            for i, (snippets, answers) in enumerate(needles)
        ]
        expected = [(q, brute_force_positive(q, store)) for q in questions]
        instances, dropped = align_questions(questions, store)
        assert [(inst.question, inst.positive) for inst in instances] == [(q, p) for q, p in expected if p]
        assert dropped == sum(p is None for _, p in expected)


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

    def test_own_positive_never_mined(self):
        store, index, instances = self.build()
        out, _ = attach_negatives(instances, store, index, n_hard=2)
        for inst in out:
            for p in inst.hard_negatives:
                assert p.passage_id != inst.positive.passage_id

    def test_hard_negative_lacks_answer(self):
        store, index, instances = self.build()
        out, _ = attach_negatives(instances, store, index, n_hard=2)
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

    @pytest.mark.parametrize("counts", [{"n_hard": -1}, {"top_n": 0}, {"n_hard": 0, "top_n": 0}])
    def test_bad_counts_rejected_before_mining(self, monkeypatch, counts):
        store, index, instances = self.build()
        monkeypatch.setattr("deskdpr.dataset.mine_hard_negatives", lambda *a, **kw: pytest.fail("mined"))
        with pytest.raises(ValueError, match="must be >= "):
            attach_negatives(instances, store, index, **counts)

    def test_instances_otherwise_unchanged(self):
        store, index, instances = self.build()
        out, _ = attach_negatives(instances, store, index, n_hard=1)
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

    @pytest.mark.parametrize("fractions", [(math.nan, 0.5, 0.5), (math.inf, -math.inf, 0.0), (0.5, 0.5, math.nan)])
    def test_non_finite_fractions_rejected(self, fractions):
        with pytest.raises(ValueError, match="finite"):
            split_instances(self.make_instances(4), fractions=fractions)

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
                instance(q1, store[0], hard=(store[2],)),
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
        assert first["negative_ctxs"] == []
        # second record has no negatives, both lists still present
        assert records[1]["hard_negative_ctxs"] == []
        assert records[1]["negative_ctxs"] == []

    def test_negative_ctxs_are_ignored(self, tmp_path):
        """A split whose negative_ctxs hold passages, as files written with
        random negatives do, loads equal to one without, so it trains the same."""
        split = self.make_split()
        path = tmp_path / "train.json"
        emit_dpr_json(split, path)
        records = json.loads(path.read_text(encoding="utf-8"))
        records[0]["negative_ctxs"] = [records[1]["positive_ctxs"][0]]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(records), encoding="utf-8")
        assert load_dpr_json(old) == load_dpr_json(path)

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
        instances, _ = attach_negatives(instances, store, index, n_hard=1)
        splits = split_instances(instances, seed=1)
        for name, split in splits.items():
            path = tmp_path / f"{name}.json"
            emit_dpr_json(split, path)
            assert load_dpr_json(path, name=name) == split
