"""Retrieval quality: hit@k plus micro-averaged set precision/recall/F1.

hit@k counts a question as answered when the top-k contains a relevant
passage, where relevance is either answer-string containment or gold
passage identity, per the configured mode.  Precision/recall/F1 always
compare retrieved passage-id sets against the gold positives.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import PassageStore
from .dataset import TrainingInstance
from .encoder import EncoderModel, encode_questions
from .errors import EmptyEvaluation
from .flat_index import FlatIndex, search_many
from .questions import Question, answer_exclusion_strings, contains_answer
from .results import RetrievalResult

log = logging.getLogger(__name__)

MATCH_MODES = ("answer_string", "gold_passage_id")
REPORT_FORMATS = ("json", "markdown_table")


@dataclass(frozen=True)
class EvalConfig:
    k_values: tuple[int, ...] = (1, 5, 10)
    match_mode: str = "gold_passage_id"

    def __post_init__(self):
        if not self.k_values:
            raise ValueError("k_values must not be empty")
        if any(k < 1 for k in self.k_values):
            raise ValueError(f"every k must be >= 1, got {self.k_values}")
        if any(a >= b for a, b in zip(self.k_values, self.k_values[1:])):
            raise ValueError(f"k_values must be strictly increasing, got {self.k_values}")
        if self.match_mode not in MATCH_MODES:
            raise ValueError(f"match_mode must be one of {MATCH_MODES}, got {self.match_mode!r}")


@dataclass(frozen=True)
class EvalReport:
    per_k: dict[int, dict[str, float]]
    n_questions: int
    meta: dict[str, str] = field(default_factory=dict)


def judge_hit(
    result: RetrievalResult,
    question: Question,
    store: PassageStore,
    mode: str = "gold_passage_id",
    gold_ids: frozenset[str] = frozenset(),
) -> bool:
    """Whether any retrieved passage answers the question.

    answer_string: any answer (gold snippets for yes/no questions) is in
    a retrieved passage's text by ``contains_answer``.
    gold_passage_id: any retrieved id is in gold_ids.
    """
    if mode not in MATCH_MODES:
        raise ValueError(f"match_mode must be one of {MATCH_MODES}, got {mode!r}")
    if mode == "gold_passage_id":
        return any(hit.passage_id in gold_ids for hit in result)
    needles = answer_exclusion_strings(question)
    return any(contains_answer(store.get(hit.passage_id).text, needles) for hit in result)


def evaluate_results(
    results: Sequence[RetrievalResult],
    instances: Sequence[TrainingInstance],
    store: PassageStore,
    cfg: EvalConfig = EvalConfig(),
    meta: dict[str, str] | None = None,
) -> EvalReport:
    """Score pre-computed rankings; results[i] belongs to instances[i].

    Each result must cover at least max(k_values) hits (or the whole
    collection if smaller).  Retrieved-vs-gold set metrics are
    micro-averaged: totals are summed over questions before dividing.
    """
    if not instances:
        raise EmptyEvaluation("no questions to evaluate")
    if len(results) != len(instances):
        raise ValueError(f"{len(results)} results for {len(instances)} instances")
    per_k: dict[int, dict[str, float]] = {}
    for k in cfg.k_values:
        hits = 0
        true_positives = 0
        retrieved_total = 0
        gold_total = 0
        for result, inst in zip(results, instances):
            gold = frozenset({inst.positive.passage_id})
            top = RetrievalResult(hits=list(result)[:k])
            if judge_hit(top, inst.question, store, cfg.match_mode, gold):
                hits += 1
            retrieved_ids = set(top.ids())
            true_positives += len(retrieved_ids & gold)
            retrieved_total += len(retrieved_ids)
            gold_total += len(gold)
        precision = true_positives / retrieved_total if retrieved_total else 0.0
        recall = true_positives / gold_total if gold_total else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_k[k] = {
            "hit_rate": hits / len(instances),
            "precision": precision,
            "recall": recall,
            "f1": f1,
        }
    return EvalReport(per_k=per_k, n_questions=len(instances), meta=dict(meta or {}))


def evaluate(
    model: EncoderModel,
    index: FlatIndex,
    store: PassageStore,
    instances: Sequence[TrainingInstance],
    cfg: EvalConfig = EvalConfig(),
    meta: dict[str, str] | None = None,
) -> EvalReport:
    """Dense retrieval then evaluate_results."""
    k_max = max(cfg.k_values)
    # one batch: each embedding row is independent of the rows beside it
    q = encode_questions(model, [inst.question.text for inst in instances])
    results = search_many(index, q, k_max)
    return evaluate_results(results, instances, store, cfg, meta)


def _headline(report: EvalReport) -> tuple[float, float]:
    """(hit rate, F1) at k=10 when present, else at the largest k."""
    k = 10 if 10 in report.per_k else max(report.per_k)
    return report.per_k[k]["hit_rate"], report.per_k[k]["f1"]


def write_report(report: EvalReport, path: str | Path, fmt: str = "json") -> None:
    """Serialize a report as JSON or a one-row markdown table."""
    if not report.per_k:
        raise ValueError("refusing to write a report with empty per_k")
    if fmt == "json":
        payload = {
            "per_k": {str(k): report.per_k[k] for k in sorted(report.per_k)},
            "n_questions": report.n_questions,
            "meta": report.meta,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, ensure_ascii=False, indent=2)
            f.write("\n")
    elif fmt == "markdown_table":
        hit, f1 = _headline(report)
        encoder = report.meta.get("encoder", "-")
        epochs = report.meta.get("epochs", "-")
        batch = report.meta.get("batch", "-")
        lines = [
            "| Encoder | Epochs | Batch | hit@10 | F1 |",
            "| --- | --- | --- | --- | --- |",
            f"| {encoder} | {epochs} | {batch} | {hit:.4f} | {f1:.4f} |",
        ]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"format must be one of {REPORT_FORMATS}, got {fmt!r}")
