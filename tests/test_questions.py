import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskdpr.errors import ParseError
from deskdpr.questions import (
    Question,
    answer_exclusion_strings,
    contains_answer,
    match_needles,
    normalize_for_match,
    parse_bioasq,
)

from helpers import SPACE_LIKE, factoid, yesno


def write_questions(tmp_path, entries):
    path = tmp_path / "questions.json"
    path.write_text(json.dumps({"questions": entries}), encoding="utf-8")
    return path


class TestQuestionValidation:
    def test_valid_factoid(self):
        q = factoid("q1", "what is x", ["the answer"])
        assert q.qtype == "factoid"

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Question(question_id="q1", text="", qtype="factoid", answers=("a",))

    def test_empty_answers_rejected(self):
        with pytest.raises(ValueError):
            Question(question_id="q1", text="t", qtype="factoid", answers=())

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            Question(question_id="q1", text="t", qtype="summary", answers=("a",))


class TestExclusionStrings:
    def test_factoid_uses_answers(self):
        q = factoid("q1", "what is x", ["alpha", "beta"], snippets=["snippet text"])
        assert answer_exclusion_strings(q) == ("alpha", "beta")

    def test_yesno_uses_snippets(self):
        # the literal "yes" would match almost any passage
        q = yesno("q1", "is x true", "yes", snippets=["the gold snippet"])
        assert answer_exclusion_strings(q) == ("the gold snippet",)


class TestContainsAnswer:
    def test_case_insensitive(self):
        assert contains_answer("The RNA Polymerase story", ["rna polymerase"])

    def test_no_match(self):
        assert not contains_answer("nothing here", ["absent"])

    def test_empty_needles(self):
        assert not contains_answer("anything", [])

    def test_whitespace_runs_collapse_on_both_sides(self):
        assert contains_answer("gamma alpha beta delta", ["alpha  beta"])
        assert contains_answer("gamma alpha\n\tbeta delta", ["alpha beta"])
        assert not contains_answer("alphabeta", ["alpha beta"])

    def test_blank_needles_match_nothing(self):
        assert not contains_answer("some text here", [" ", "\t", ""])
        assert match_needles([" A  b ", "  ", "C"]) == ["a b", "c"]


# The oracle: the regex normalize_for_match applied before it split on str.isspace.
_WS_RE = re.compile(r"\s+")


def regex_normalize(text):
    return _WS_RE.sub(" ", text.lower()).strip()


class TestNormalizeEqualsRegex:
    """``normalize_for_match`` gives exactly what ``\\s+`` collapsing gives."""

    def test_every_code_point_alone(self):
        every = map(chr, range(sys.maxunicode + 1))
        assert [c for c in every if normalize_for_match(c) != regex_normalize(c)] == []

    def test_every_code_point_between_two_letters(self):
        text = "a" + "a".join(map(chr, range(sys.maxunicode + 1))) + "a"
        assert normalize_for_match(text) == regex_normalize(text)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=SPACE_LIKE))
    def test_space_like_text(self, text):
        assert normalize_for_match(text) == regex_normalize(text)

    def test_named_cases(self):
        assert normalize_for_match(" A\u3000\u2028B\x1c c ") == "a b c"
        assert normalize_for_match("a\u200bb\ufeff") == "a\u200bb\ufeff"  # neither is whitespace
        assert normalize_for_match("İ") == "i\u0307"


class TestParseBioasq:
    def test_keeps_factoid_and_yesno_only(self, tmp_path):
        path = write_questions(
            tmp_path,
            [
                {"id": "q1", "body": "what is x", "type": "factoid", "exact_answer": [["a1"]], "snippets": [{"text": "s1"}]},
                {"id": "q2", "body": "is y true", "type": "yesno", "exact_answer": "yes", "snippets": [{"text": "s2"}]},
                {"id": "q3", "body": "list stuff", "type": "list", "exact_answer": [["a"]], "snippets": []},
                {"id": "q4", "body": "summarize", "type": "summary", "snippets": []},
            ],
        )
        questions = parse_bioasq(path)
        assert [q.question_id for q in questions] == ["q1", "q2"]
        assert questions[0].answers == ("a1",)
        assert questions[0].gold_snippets == ("s1",)
        assert questions[1].qtype == "yesno"
        assert questions[1].answers == ("yes",)

    def test_nested_exact_answers_flattened(self, tmp_path):
        path = write_questions(
            tmp_path,
            [{"id": "q1", "body": "b", "type": "factoid", "exact_answer": [["a1", "a2"], ["a3"]], "snippets": []}],
        )
        assert parse_bioasq(path)[0].answers == ("a1", "a2", "a3")

    def test_string_exact_answer_accepted(self, tmp_path):
        path = write_questions(
            tmp_path,
            [{"id": "q1", "body": "b", "type": "factoid", "exact_answer": "one", "snippets": []}],
        )
        assert parse_bioasq(path)[0].answers == ("one",)

    def test_empty_answer_question_skipped(self, tmp_path):
        path = write_questions(
            tmp_path,
            [
                {"id": "q1", "body": "b", "type": "factoid", "exact_answer": [], "snippets": []},
                {"id": "q2", "body": "b2", "type": "factoid", "exact_answer": "kept", "snippets": []},
            ],
        )
        assert [q.question_id for q in parse_bioasq(path)] == ["q2"]

    def test_missing_id_gets_positional_fallback(self, tmp_path):
        path = write_questions(
            tmp_path,
            [{"body": "b", "type": "factoid", "exact_answer": "a", "snippets": []}],
        )
        assert parse_bioasq(path)[0].question_id == "q0"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "questions.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_bioasq(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "questions.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_bioasq(path)

    def test_missing_questions_key_rejected(self, tmp_path):
        path = tmp_path / "questions.json"
        path.write_text('{"other": []}', encoding="utf-8")
        with pytest.raises(ParseError, match="questions"):
            parse_bioasq(path)
