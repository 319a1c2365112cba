"""Retrieval quality: hit@k plus micro-averaged set precision/recall/F1.

Each ranking is judged once, through the rank of its first relevant
passage (answer-string containment or gold passage identity, per the
configured mode); hit@k is that rank being at most k.  Precision/recall/F1
compare the top k's distinct passage ids against the gold positive.
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
from .questions import answer_exclusion_strings, contains_answer
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


def evaluate_results(
    results: Sequence[RetrievalResult],
    instances: Sequence[TrainingInstance],
    store: PassageStore,
    cfg: EvalConfig = EvalConfig(),
    meta: dict[str, str] | None = None,
) -> EvalReport:
    """Score pre-computed rankings; results[i] belongs to instances[i].

    Each result must cover at least max(k_values) hits (or the whole
    collection if smaller).  answer_string mode finds an answer (gold
    snippets for yes/no questions) by ``contains_answer``, gold_passage_id
    the positive's id.  Set metrics are micro-averaged: totals are summed
    over questions before dividing.
    """
    if not instances:
        raise EmptyEvaluation("no questions to evaluate")
    if len(results) != len(instances):
        raise ValueError(f"{len(results)} results for {len(instances)} instances")
    k_max = max(cfg.k_values)
    judged = []  # (top k_max ids, gold id, rank of the first relevant passage, else k_max + 1)
    for result, inst in zip(results, instances):
        ids = result.ids()[:k_max]
        gold = inst.positive.passage_id
        if cfg.match_mode == "gold_passage_id":
            relevant = (pid == gold for pid in ids)
        else:
            needles = answer_exclusion_strings(inst.question)
            relevant = (contains_answer(store.get(pid).text, needles) for pid in ids)
        first = next((rank for rank, hit in enumerate(relevant, start=1) if hit), k_max + 1)
        judged.append((ids, gold, first))
    per_k: dict[int, dict[str, float]] = {}
    for k in cfg.k_values:
        true_positives = sum(gold in ids[:k] for ids, gold, _ in judged)
        retrieved_total = sum(len(set(ids[:k])) for ids, _, _ in judged)
        precision = true_positives / retrieved_total if retrieved_total else 0.0
        recall = true_positives / len(instances)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_k[k] = {
            "hit_rate": sum(first <= k for _, _, first in judged) / len(instances),
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
