"""QA question model and BioASQ-style JSON parsing.

Only factoid and yes/no questions are kept; list and summary types are
dropped at parse time.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import ParseError, expect, reading

log = logging.getLogger(__name__)

QUESTION_TYPES = ("factoid", "yesno")


@dataclass(frozen=True)
class Question:
    question_id: str
    text: str
    qtype: str  # "factoid" | "yesno"
    answers: tuple[str, ...]
    gold_snippets: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.qtype not in QUESTION_TYPES:
            raise ValueError(f"unknown question type {self.qtype!r}")
        if not self.text:
            raise ValueError("question text must be non-empty")
        if not self.answers:
            raise ValueError(f"question {self.question_id!r} has no answers")


def answer_exclusion_strings(q: Question) -> tuple[str, ...]:
    """Strings whose presence marks a passage as answer-bearing.

    For yes/no questions the literal answers would match almost any text,
    so the gold snippets are used instead.
    """
    if q.qtype == "yesno":
        return q.gold_snippets
    return q.answers


def normalize_for_match(text: str) -> str:
    """Lowercase, and join the words that ``str.split`` finds by one space,
    for containment tests.  Whitespace is ``str.isspace``, which equals
    ``re``'s ``\\s``: the rule ``clean_document`` uses."""
    return " ".join(text.lower().split())


def match_needles(needles: Iterable[str]) -> list[str]:
    """The match form of each needle; blank needles match nothing and are dropped."""
    return [n for n in (normalize_for_match(needle) for needle in needles) if n]


def contains_answer(text: str, needles: Iterable[str]) -> bool:
    """Whether text contains any needle, compared lowercase with runs of
    whitespace collapsed to one space on both sides.

    This is the one answer-matching rule: positive alignment, hard-negative
    mining and answer-string evaluation all use it.  A caller testing many
    texts may normalize them once with ``normalize_for_match`` and test
    ``n in text`` for each of ``match_needles(needles)``, which is the
    same test.
    """
    hay = normalize_for_match(text)
    return any(n in hay for n in match_needles(needles))


def _flatten_answers(value) -> list[str]:
    # exact_answer comes as a string, a list of strings, or nested lists
    if isinstance(value, str):
        return [value] if value.strip() else []
    if isinstance(value, list):
        out: list[str] = []
        for item in value:
            out.extend(_flatten_answers(item))
        return out
    return []


def parse_bioasq(path: str | Path) -> list[Question]:
    """Parse a BioASQ-style question file.

    Expects {"questions": [{"body", "type", "exact_answer", "snippets"}]}.
    Questions of unknown type or with no usable answers are skipped and
    counted in a warning.
    """
    questions: list[Question] = []
    skipped_type = 0
    skipped_invalid = 0
    with reading(path) as r:
        raw = Path(path).read_text(encoding="utf-8")
        if not raw.strip():
            raise ParseError(f"{path}: empty question file")
        data = json.loads(raw)
        if not isinstance(data, dict) or not isinstance(data.get("questions"), list):
            raise ParseError(f"{path}: expected a top-level 'questions' array")
        for i, entry in enumerate(data["questions"]):
            r.at = ("question", i)
            qtype = entry.get("type", "")
            if qtype not in QUESTION_TYPES:
                skipped_type += 1
                continue
            answers = [expect(a, str, "an exact answer") for a in _flatten_answers(entry.get("exact_answer", []))]
            snippets = tuple(
                expect(s["text"], str, "snippet text")
                for s in entry.get("snippets", [])
                if isinstance(s, dict) and s.get("text")
            )
            text = expect(entry.get("body") or "", str, "'body'").strip()
            if not text or not answers:
                skipped_invalid += 1
                continue
            questions.append(
                Question(
                    question_id=expect(entry.get("id", f"q{i}"), str, "'id'"),
                    text=text,
                    qtype=qtype,
                    answers=tuple(answers),
                    gold_snippets=snippets,
                )
            )
    if skipped_type:
        log.warning("%s: skipped %d questions of unsupported type", path, skipped_type)
    if skipped_invalid:
        log.warning("%s: skipped %d questions with empty body or answers", path, skipped_invalid)
    return questions
