"""Output checks, computed apart from the program.

Nothing here imports deskdpr: every reference (tokenizer, Okapi BM25,
exact inner-product scan, answer matching) is written out again, so a
fault in the program cannot hide itself by also being in its check.
Each check returns the problems it found; none found means it passed.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

SCORE_TOLERANCE = 1e-9
_TOKEN = re.compile(r"[^\W_]+")
_SPACE = re.compile(r"\s+")


def tokens(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def collapse(text: str) -> str:
    """Lowercase with every whitespace run collapsed to one space."""
    return _SPACE.sub(" ", text.lower()).strip()


def needles(question: Mapping) -> list[str]:
    """Answer-bearing strings of a generated BioASQ question.

    Yes/no answers would match anything, so their gold snippets stand in.
    """
    if question["type"] == "yesno":
        return [s["text"] for s in question["snippets"]]
    flat: list[str] = []
    pending = [question["exact_answer"]]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            flat.append(item)
        else:
            pending.extend(item)
    return flat


def contains_answer(text: str, answer_strings: Iterable[str]) -> bool:
    """Raw lowercase containment or whitespace-collapsed containment."""
    raw, folded = text.lower(), collapse(text)
    return any(
        (a.lower() in raw) or (collapse(a) in folded) for a in answer_strings if a.strip()
    )


def dataset_problems(
    splits: Mapping[str, Sequence[Mapping]],
    questions: Sequence[Mapping],
    expected_positive: Mapping[str, str],
) -> list[str]:
    """Aligned positives and hard negatives of emitted dataset splits.

    Every generated question must appear once, its positive must be the
    planted passage, and no hard negative may be the positive or contain
    the answer.
    """
    problems: list[str] = []
    by_id = {q["id"]: q for q in questions}
    seen: Counter[str] = Counter()
    for split, records in splits.items():
        for record in records:
            qid = record["question_id"]
            seen[qid] += 1
            positive = record["positive_ctxs"][0]["passage_id"]
            if positive != expected_positive.get(qid):
                problems.append(f"{split}/{qid}: positive {positive}, planted {expected_positive.get(qid)}")
            answers = needles(by_id[qid]) if qid in by_id else []
            for ctx in record["hard_negative_ctxs"]:
                if ctx["passage_id"] == positive:
                    problems.append(f"{split}/{qid}: hard negative {ctx['passage_id']} is the positive")
                elif contains_answer(ctx["text"], answers):
                    problems.append(f"{split}/{qid}: hard negative {ctx['passage_id']} contains the answer")
    missing = sorted(set(by_id) - set(seen))
    if missing:
        problems.append(f"{len(missing)} questions missing from the splits, first {missing[0]}")
    repeated = sorted(q for q, n in seen.items() if n > 1)
    if repeated:
        problems.append(f"{len(repeated)} questions appear in more than one record, first {repeated[0]}")
    return problems


def report_problems(report: Mapping, n_questions: int, min_hit_at_10: float = 0.0) -> list[str]:
    """hit@k monotone in k, f1@10 = 2*hit@10/11 with one gold each, and
    hit@10 at least ``min_hit_at_10``."""
    problems: list[str] = []
    per_k = {int(k): v for k, v in report["per_k"].items()}
    if report["n_questions"] != n_questions:
        problems.append(f"report covers {report['n_questions']} questions, expected {n_questions}")
    rates = [per_k[k]["hit_rate"] for k in sorted(per_k)]
    if rates != sorted(rates):
        problems.append(f"hit rates not monotone in k: {rates}")
    if 10 not in per_k:
        problems.append("report has no k=10 row")
    else:
        if per_k[10]["hit_rate"] < min_hit_at_10:
            problems.append(f"hit@10 {per_k[10]['hit_rate']!r} below {min_hit_at_10}")
        want = 2 * per_k[10]["hit_rate"] / 11
        if abs(per_k[10]["f1"] - want) > 1e-12:
            problems.append(f"f1@10 {per_k[10]['f1']!r}, expected 2*hit@10/11 = {want!r}")
    return problems


class DenseReference:
    """Exact float64 inner-product scan over an index's float32 rows."""

    def __init__(self, vectors: np.ndarray, ids: Sequence[str]):
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.ids = list(ids)
        self.ordinal = {pid: i for i, pid in enumerate(self.ids)}

    def top_k(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """All reference scores, and the top k ordinals with ties to the lower ordinal."""
        scores = self.vectors @ np.asarray(query, dtype=np.float64)
        k = min(k, len(scores))
        kth = np.partition(-scores, k - 1)[k - 1]
        candidates = np.nonzero(-scores <= kth)[0]
        return scores, candidates[np.lexsort((candidates, -scores[candidates]))][:k]

    def problems(self, query: np.ndarray, hits: Sequence[tuple[str, float]], k: int) -> list[str]:
        """Hits against the scan; a hit may stand where the reference has
        another passage only when their reference scores lie within
        SCORE_TOLERANCE of each other."""
        scores, order = self.top_k(query, k)
        if len(hits) != len(order):
            return [f"{len(hits)} hits, expected {len(order)}"]
        problems: list[str] = []
        if len({pid for pid, _ in hits}) != len(hits):
            problems.append("repeated passage id among hits")
        for rank, ((pid, score), ref) in enumerate(zip(hits, order), start=1):
            if pid not in self.ordinal:
                problems.append(f"rank {rank}: unknown passage id {pid}")
                continue
            own = scores[self.ordinal[pid]]
            if abs(score - own) > SCORE_TOLERANCE:
                problems.append(f"rank {rank}: {pid} scored {score!r}, reference {own!r}")
            if abs(own - scores[ref]) > SCORE_TOLERANCE:
                problems.append(
                    f"rank {rank}: {pid} (reference {own!r}) where {self.ids[ref]} ({scores[ref]!r}) belongs"
                )
        return problems


class OkapiReference:
    """Okapi BM25 (k1=1.2, b=0.75, non-negative IDF) over raw passage texts."""

    def __init__(self, texts: Sequence[str], query_vocabulary: set[str], k1: float = 1.2, b: float = 0.75):
        self.k1, self.b = k1, b
        self.lengths = [len(tokens(t)) for t in texts]
        self.avg_length = sum(self.lengths) / len(texts)
        self.n = len(texts)
        df: Counter[str] = Counter()
        for text in texts:
            df.update(query_vocabulary.intersection(tokens(text)))
        self.idf = {t: math.log((self.n - df[t] + 0.5) / (df[t] + 0.5) + 1.0) for t in df}
        self.texts = texts

    def score(self, query: str, ordinal: int) -> float:
        tf = Counter(tokens(self.texts[ordinal]))
        norm = 1.0 - self.b + self.b * self.lengths[ordinal] / self.avg_length
        total = 0.0
        for t in tokens(query):
            if tf[t]:
                total += self.idf[t] * tf[t] * (self.k1 + 1.0) / (tf[t] + self.k1 * norm)
        return total


def bm25_problems(
    reference: OkapiReference,
    ordinal: Mapping[str, int],
    query: str,
    hits: Sequence[tuple[str, float]],
    planted: str,
    k: int,
) -> list[str]:
    """Hit scores equal the reference formula, descend, and hold the planted passage."""
    problems: list[str] = []
    for rank, (pid, score) in enumerate(hits, start=1):
        want = reference.score(query, ordinal[pid])
        if abs(score - want) > SCORE_TOLERANCE * max(1.0, abs(want)):
            problems.append(f"rank {rank}: {pid} scored {score!r}, Okapi gives {want!r}")
    keys = [(-score, ordinal[pid]) for pid, score in hits]
    if keys != sorted(keys):
        problems.append("hits not in descending score order with ties to the lower ordinal")
    if len(hits) > k:
        problems.append(f"{len(hits)} hits for k={k}")
    if planted not in [pid for pid, _ in hits]:
        problems.append(f"planted passage {planted} not in the top {k}")
    return problems


def sha256_bytes(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def digest_problems(recorded: Mapping[str, str], current: Mapping[str, str]) -> dict[str, str]:
    """Each name whose digest differs from the one recorded for the same seed."""
    return {
        name: f"{name}: sha256 {digest[:12]} differs from {recorded[name][:12]} recorded for this seed"
        for name, digest in current.items()
        if name in recorded and recorded[name] != digest
    }
