"""Training-instance construction: positive alignment, negatives, splits.

A training instance pairs a question with exactly one positive passage
and zero or more BM25-mined hard negatives; in-batch training supplies
the other questions' positives as further negatives.  Instances
serialize to DPR's JSON layout: positive_ctxs and hard_negative_ctxs
lists whose entries carry title, text and passage_id, and a
negative_ctxs list that is written empty and ignored on reading.
"""

from __future__ import annotations

import json
import logging
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

from .bm25 import InvertedIndex, mine_hard_negatives
from .corpus import Passage, PassageStore
from .errors import ParseError, expect, reading
from .questions import Question, match_needles, normalize_for_match

log = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "dev", "test")


@dataclass(frozen=True)
class TrainingInstance:
    question: Question
    positive: Passage
    hard_negatives: tuple[Passage, ...] = ()


@dataclass(frozen=True)
class DatasetSplit:
    name: str
    instances: tuple[TrainingInstance, ...]

    def __post_init__(self):
        if self.name not in SPLIT_NAMES:
            raise ValueError(f"split name must be one of {SPLIT_NAMES}, got {self.name!r}")
        seen: set[str] = set()
        for inst in self.instances:
            qid = inst.question.question_id
            if qid in seen:
                raise ValueError(f"duplicate question id {qid!r} in split {self.name!r}")
            seen.add(qid)

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)


def align_questions(
    questions: Iterable[Question], store: PassageStore
) -> tuple[list[TrainingInstance], int]:
    """Instances (no negatives yet) for every alignable question.

    A question's positive is the first passage, in store order, that
    contains one of its gold snippets, else the first that contains one
    of its answers, by ``questions.contains_answer``.  The store's texts
    are normalized once and joined with newlines, which normalizing has
    turned into spaces, so no needle spans two passages; the smallest
    ``find`` position of any needle lies in the lowest ordinal that
    contains one.  Returns the instances plus the count of questions
    dropped because no passage contained their snippets or answers.
    """
    texts = [normalize_for_match(p.text) for p in store]
    starts = list(accumulate((len(t) + 1 for t in texts), initial=0))
    haystack = "\n".join(texts)
    instances: list[TrainingInstance] = []
    dropped = 0
    for q in questions:
        for needles in (q.gold_snippets, q.answers):
            found = [at for at in map(haystack.find, match_needles(needles)) if at >= 0]
            if found:
                positive = store[bisect_right(starts, min(found)) - 1]
                instances.append(TrainingInstance(question=q, positive=positive))
                break
        else:
            dropped += 1
    if dropped:
        log.warning("dropped %d questions with no aligned positive", dropped)
    return instances, dropped


def attach_negatives(
    instances: Sequence[TrainingInstance],
    store: PassageStore,
    index: InvertedIndex,
    n_hard: int = 1,
    top_n: int = 100,
) -> tuple[list[TrainingInstance], int]:
    """Add up to ``n_hard`` mined hard negatives to each instance.

    Hard negatives come from the BM25 top ``top_n`` pool, excluding the
    instance's own positive.  Returns new instances plus the count of
    instances that got fewer hard negatives than requested.  Raises
    ``ValueError``, before mining anything, for ``n_hard < 0`` or
    ``top_n < 1``.
    """
    if n_hard < 0:
        raise ValueError(f"n_hard must be >= 0, got {n_hard}")
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    out: list[TrainingInstance] = []
    for inst in instances:
        hard: list[Passage] = []
        if n_hard > 0:
            exclude = (inst.positive.passage_id,)
            hard = mine_hard_negatives(index, store, inst.question, top_n=top_n, n=n_hard, exclude_ids=exclude)
        out.append(TrainingInstance(question=inst.question, positive=inst.positive, hard_negatives=tuple(hard)))
    short_of_hard = sum(len(inst.hard_negatives) < n_hard for inst in out)
    if short_of_hard:
        log.warning("%d instances got fewer hard negatives than requested", short_of_hard)
    return out, short_of_hard


def check_fractions(fractions: Sequence[float]) -> tuple[float, ...]:
    """`fractions` as a tuple if they are three finite non-negatives summing to 1, else ValueError."""
    valid = len(fractions) == 3 and all(math.isfinite(f) and f >= 0 for f in fractions)
    if not valid or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be three finite non-negatives summing to 1, got {tuple(fractions)}")
    return tuple(fractions)


def split_instances(
    instances: Sequence[TrainingInstance],
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> dict[str, DatasetSplit]:
    """Shuffle once with the seed, then cut train/dev/test by fractions.

    Within each split the original instance order is preserved so output
    files are stable for a given seed.
    """
    check_fractions(fractions)
    order = list(range(len(instances)))
    random.Random(seed).shuffle(order)
    n = len(order)
    n_train = int(round(fractions[0] * n))
    n_dev = int(round(fractions[1] * n))
    n_train = min(n_train, n)
    n_dev = min(n_dev, n - n_train)
    picks = {
        "train": sorted(order[:n_train]),
        "dev": sorted(order[n_train : n_train + n_dev]),
        "test": sorted(order[n_train + n_dev :]),
    }
    return {
        name: DatasetSplit(name=name, instances=tuple(instances[i] for i in idxs))
        for name, idxs in picks.items()
    }


def _ctx(p: Passage) -> dict:
    return {"title": p.title, "text": p.text, "passage_id": p.passage_id}


def _passage_from_ctx(ctx: dict) -> Passage:
    passage_id = expect(ctx["passage_id"], str, "'passage_id'")
    doc_id, chunk_index = Passage.split_id(passage_id)
    title, text = (expect(ctx[key], str, repr(key)) for key in ("title", "text"))
    return Passage(passage_id, doc_id, title, text, chunk_index)


def _strings(rec: dict, key: str) -> tuple[str, ...]:
    """The record's list of strings `key`, empty when absent, type-checked."""
    return tuple(expect(s, str, f"an entry of {key!r}") for s in expect(rec.get(key, []), list, repr(key)))


def _passages(rec: dict, key: str) -> tuple[Passage, ...]:
    """The passages of the record's ctx list `key`, empty when absent, type-checked."""
    return tuple(_passage_from_ctx(ctx) for ctx in expect(rec.get(key, []), list, repr(key)))


def emit_dpr_json(split: DatasetSplit, path: str | Path) -> None:
    """Write a split as a JSON array of question records."""
    records = []
    for inst in split.instances:
        q = inst.question
        records.append(
            {
                "question_id": q.question_id,
                "question": q.text,
                "qtype": q.qtype,
                "answers": list(q.answers),
                "gold_snippets": list(q.gold_snippets),
                "positive_ctxs": [_ctx(inst.positive)],
                "negative_ctxs": [],
                "hard_negative_ctxs": [_ctx(p) for p in inst.hard_negatives],
            }
        )
    with open(path, "w", encoding="utf-8") as f:
        json.dump(records, f, ensure_ascii=False, indent=2)
        f.write("\n")


def load_dpr_json(path: str | Path, name: str = "train") -> DatasetSplit:
    """Read a split written by emit_dpr_json; ``negative_ctxs`` is not read."""
    instances: list[TrainingInstance] = []
    with reading(path) as r:
        records = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(records, list):
            raise ParseError(f"{path}: expected a JSON array of question records")
        for i, rec in enumerate(records):
            r.at = ("record", i)
            question = Question(
                question_id=expect(rec["question_id"], str, "'question_id'"),
                text=expect(rec["question"], str, "'question'"),
                qtype=rec["qtype"],
                answers=_strings(rec, "answers"),
                gold_snippets=_strings(rec, "gold_snippets"),
            )
            positives = _passages(rec, "positive_ctxs")
            if not positives:
                raise ValueError("positive_ctxs is empty")
            instances.append(
                TrainingInstance(
                    question=question,
                    positive=positives[0],
                    hard_negatives=_passages(rec, "hard_negative_ctxs"),
                )
            )
        r.at = None  # what follows concerns the file as a whole
        return DatasetSplit(name=name, instances=tuple(instances))
