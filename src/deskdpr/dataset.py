"""Training-instance construction: positive alignment, negatives, splits.

A training instance pairs a question with exactly one positive passage,
zero or more mined hard negatives, and zero or more random negatives.
Instances serialize to a JSON layout with positive_ctxs, negative_ctxs
and hard_negative_ctxs lists whose entries carry title, text and
passage_id.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .bm25 import InvertedIndex, mine_hard_negatives
from .corpus import Passage, PassageStore
from .errors import ParseError
from .questions import Question, match_needles, normalize_for_match

log = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "dev", "test")


@dataclass(frozen=True)
class TrainingInstance:
    question: Question
    positive: Passage
    hard_negatives: tuple[Passage, ...] = ()
    random_negatives: tuple[Passage, ...] = ()


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


def align_positive(
    question: Question,
    store: PassageStore,
    normalized_texts: Sequence[str] | None = None,
) -> Passage | None:
    """First passage containing a gold snippet, else one containing an answer.

    Matching is ``questions.contains_answer``, with the store's texts
    normalized once (``normalized_texts``, when the caller has them).
    Ties go to the lowest passage ordinal.  Returns None when nothing in
    the store contains any snippet or answer.
    """
    if normalized_texts is None:
        normalized_texts = [normalize_for_match(p.text) for p in store]
    for needles in (question.gold_snippets, question.answers):
        wanted = match_needles(needles)
        if not wanted:
            continue
        for ordinal, text in enumerate(normalized_texts):
            if any(n in text for n in wanted):
                return store[ordinal]
    return None


def align_questions(
    questions: Iterable[Question], store: PassageStore
) -> tuple[list[TrainingInstance], int]:
    """Instances (no negatives yet) for every alignable question.

    Returns the instances plus the count of questions dropped because no
    passage contained their snippets or answers.
    """
    normalized = [normalize_for_match(p.text) for p in store]
    instances: list[TrainingInstance] = []
    dropped = 0
    for q in questions:
        positive = align_positive(q, store, normalized)
        if positive is None:
            dropped += 1
            continue
        instances.append(TrainingInstance(question=q, positive=positive))
    if dropped:
        log.warning("dropped %d questions with no aligned positive", dropped)
    return instances, dropped


def attach_negatives(
    instances: Sequence[TrainingInstance],
    store: PassageStore,
    index: InvertedIndex,
    n_hard: int = 1,
    n_random: int = 0,
    top_n: int = 100,
    seed: int = 0,
) -> tuple[list[TrainingInstance], int]:
    """Add mined hard negatives and sampled random negatives to each instance.

    Hard negatives come from the BM25 top pool, excluding the instance's
    own positive.  Random negatives are drawn from the other instances'
    positives (the in-split passage pool), never the instance's own
    positive.  Returns new instances plus the count of instances that got
    fewer hard negatives than requested.  Raises ``ValueError``, before
    mining anything, for a negative count or ``top_n < 1``.
    """
    if n_hard < 0 or n_random < 0:
        raise ValueError(f"n_hard and n_random must be >= 0, got n_hard={n_hard}, n_random={n_random}")
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    rng = random.Random(seed)
    pool: list[Passage] = []
    seen_pids: set[str] = set()
    for inst in instances:
        if inst.positive.passage_id not in seen_pids:
            seen_pids.add(inst.positive.passage_id)
            pool.append(inst.positive)

    out: list[TrainingInstance] = []
    short_of_hard = 0
    for inst in instances:
        hard: tuple[Passage, ...] = ()
        if n_hard > 0:
            mined = mine_hard_negatives(
                index,
                store,
                inst.question,
                top_n=top_n,
                n=n_hard,
                exclude_ids=(inst.positive.passage_id,),
            )
            hard = tuple(mined)
            if len(hard) < n_hard:
                short_of_hard += 1
        rand: tuple[Passage, ...] = ()
        if n_random > 0:
            candidates = [p for p in pool if p.passage_id != inst.positive.passage_id]
            n_take = min(n_random, len(candidates))
            if n_take < n_random:
                log.warning(
                    "question %s: random-negative pool has only %d candidates (%d requested)",
                    inst.question.question_id,
                    len(candidates),
                    n_random,
                )
            rand = tuple(rng.sample(candidates, n_take))
        out.append(
            TrainingInstance(
                question=inst.question,
                positive=inst.positive,
                hard_negatives=hard,
                random_negatives=rand,
            )
        )
    if short_of_hard:
        log.warning("%d instances got fewer hard negatives than requested", short_of_hard)
    return out, short_of_hard


def split_instances(
    instances: Sequence[TrainingInstance],
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> dict[str, DatasetSplit]:
    """Shuffle once with the seed, then cut train/dev/test by fractions.

    Within each split the original instance order is preserved so output
    files are stable for a given seed.
    """
    if len(fractions) != 3 or any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be three non-negatives summing to 1, got {fractions}")
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
    pid = ctx["passage_id"]
    doc_id, chunk_index = Passage.split_id(pid)
    return Passage(
        passage_id=pid,
        doc_id=doc_id,
        title=ctx["title"],
        text=ctx["text"],
        chunk_index=chunk_index,
    )


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
                "negative_ctxs": [_ctx(p) for p in inst.random_negatives],
                "hard_negative_ctxs": [_ctx(p) for p in inst.hard_negatives],
            }
        )
    with open(path, "w", encoding="utf-8") as f:
        json.dump(records, f, ensure_ascii=False, indent=2)
        f.write("\n")


def load_dpr_json(path: str | Path, name: str = "train") -> DatasetSplit:
    """Read a split written by emit_dpr_json."""
    with open(path, encoding="utf-8") as f:
        try:
            records = json.load(f)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(records, list):
        raise ParseError(f"{path}: expected a JSON array of question records")
    instances: list[TrainingInstance] = []
    for i, rec in enumerate(records):
        try:
            question = Question(
                question_id=rec["question_id"],
                text=rec["question"],
                qtype=rec["qtype"],
                answers=tuple(rec["answers"]),
                gold_snippets=tuple(rec.get("gold_snippets", ())),
            )
            positives = rec["positive_ctxs"]
            if not positives:
                raise ValueError("positive_ctxs is empty")
            instances.append(
                TrainingInstance(
                    question=question,
                    positive=_passage_from_ctx(positives[0]),
                    hard_negatives=tuple(_passage_from_ctx(c) for c in rec.get("hard_negative_ctxs", ())),
                    random_negatives=tuple(_passage_from_ctx(c) for c in rec.get("negative_ctxs", ())),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: record {i}: {exc}") from exc
    return DatasetSplit(name=name, instances=tuple(instances))
