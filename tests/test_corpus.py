import ast
import json
import random
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deskdpr
from deskdpr import binfile
from deskdpr.corpus import FORMAT as STORE_FORMAT
from deskdpr.corpus import (
    DEFAULT_CHUNK_SIZE,
    Document,
    Passage,
    PassageStore,
    build_store,
    chunk_document,
    clean_document,
    ingest_corpus,
    load_store,
    render_encoder_input,
    save_store,
)
from deskdpr.errors import DuplicateId, EmptyDocument, ParseError, UnsupportedVersion

from helpers import SPACE_LIKE, rewrite_payload, store_of, traced


class TestCleanDocument:
    def test_collapses_whitespace(self):
        doc = clean_document("hello   world\n", "T", "d1")
        assert doc.body == "hello world"
        assert doc.title == "T"
        assert doc.doc_id == "d1"

    def test_empty_body_raises(self):
        with pytest.raises(EmptyDocument):
            clean_document("", "T", "d1")

    def test_whitespace_only_body_raises(self):
        with pytest.raises(EmptyDocument):
            clean_document(" \t\n ", "T", "d1")

    def test_blank_lines_become_single_spaces(self):
        doc = clean_document("para one\n\n\n\npara two", "T", "d1")
        assert doc.body == "para one para two"

    def test_control_characters_removed(self):
        doc = clean_document("a\x00b\x07c", "T", "d1")
        assert doc.body == "a b c"


# The oracle: the regexes clean_document applied before it split on str.isspace.
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")
_WS_RE = re.compile(r"\s+")


def regex_clean(raw):
    return _WS_RE.sub(" ", _CONTROL_RE.sub(" ", raw)).strip()


def cleaned(raw):
    try:
        return clean_document(raw, "T", "d1").body
    except EmptyDocument:
        return ""


class TestCleanEqualsRegex:
    """``clean_document`` keeps exactly what the two regexes keep."""

    def test_every_code_point_alone(self):
        every = map(chr, range(sys.maxunicode + 1))
        assert [c for c in every if cleaned(c) != regex_clean(c)] == []

    def test_every_code_point_between_two_letters(self):
        text = "a" + "a".join(map(chr, range(sys.maxunicode + 1))) + "a"
        assert cleaned(text) == regex_clean(text)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=SPACE_LIKE))
    def test_space_like_text(self, raw):
        assert cleaned(raw) == regex_clean(raw)

    def test_zero_width_space_and_bom_are_not_whitespace(self):
        assert cleaned("a\u200b b\ufeff\x85c") == "a\u200b b\ufeff c"


def test_no_module_imports_re():
    """One whitespace rule, ``str.split``: the package uses no regular expressions."""
    importers = []
    for path in sorted(Path(deskdpr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(name == "re" or name.startswith("re.") for name in names):
                importers.append(path.name)
    assert importers == []


class TestChunkDocument:
    def test_250_words_in_chunks_of_100(self):
        doc = Document(doc_id="d1", title="T", body=" ".join(f"w{i}" for i in range(250)))
        chunks = chunk_document(doc, 100)
        assert [len(c.text.split()) for c in chunks] == [100, 100, 50]
        assert [c.chunk_index for c in chunks] == [0, 1, 2]
        assert [c.passage_id for c in chunks] == ["d1#0", "d1#1", "d1#2"]

    def test_exact_multiple(self):
        doc = Document(doc_id="d1", title="T", body=" ".join(f"w{i}" for i in range(100)))
        chunks = chunk_document(doc, 100)
        assert len(chunks) == 1
        assert len(chunks[0].text.split()) == 100

    def test_single_word(self):
        doc = Document(doc_id="d1", title="T", body="word")
        chunks = chunk_document(doc, 100)
        assert len(chunks) == 1
        assert chunks[0].text == "word"
        assert chunks[0].chunk_index == 0

    def test_chunk_size_below_one_rejected(self):
        doc = Document(doc_id="d1", title="T", body="a b c")
        with pytest.raises(ValueError):
            chunk_document(doc, 0)

    def test_title_carried_to_every_chunk(self):
        doc = Document(doc_id="d1", title="My Title", body=" ".join(["w"] * 150))
        assert all(c.title == "My Title" for c in chunk_document(doc, 100))

    def test_reconstruction_over_random_documents(self):
        # every word lands in exactly one chunk, in order, and every
        # chunk except the last is exactly chunk_size words
        rng = random.Random(42)
        for trial in range(300):
            n_words = rng.randint(1, 350)
            body = " ".join(f"w{rng.randrange(50)}" for _ in range(n_words))
            chunk_size = rng.choice([1, 3, 7, 50, 100])
            doc = Document(doc_id=f"d{trial}", title="T", body=body)
            chunks = chunk_document(doc, chunk_size)
            assert " ".join(c.text for c in chunks) == body
            for c in chunks[:-1]:
                assert len(c.text.split()) == chunk_size
            assert 1 <= len(chunks[-1].text.split()) <= chunk_size
            assert [c.chunk_index for c in chunks] == list(range(len(chunks)))


class TestPassageIds:
    def test_make_and_split_round_trip(self):
        pid = Passage.make_id("doc7", 3)
        assert pid == "doc7#3"
        assert Passage.split_id(pid) == ("doc7", 3)

    def test_doc_id_containing_separator(self):
        pid = Passage.make_id("a#b", 2)
        assert Passage.split_id(pid) == ("a#b", 2)


class TestRenderEncoderInput:
    def test_basic(self):
        p = Passage(passage_id="d#0", doc_id="d", title="Gene X", text="abc def", chunk_index=0)
        assert render_encoder_input(p) == "Gene X [SEP] abc def"

    def test_empty_title(self):
        p = Passage(passage_id="d#0", doc_id="d", title="", text="abc", chunk_index=0)
        assert render_encoder_input(p) == " [SEP] abc"

    def test_inserts_exactly_one_separator_occurrence(self):
        p = Passage(
            passage_id="d#0", doc_id="d", title="has [SEP] inside", text="[SEP] again", chunk_index=0
        )
        rendered = render_encoder_input(p)
        in_fields = p.title.count("[SEP]") + p.text.count("[SEP]")
        assert rendered.count("[SEP]") == in_fields + 1


class TestPassageStore:
    def test_ordinals_follow_insertion_order(self):
        store = store_of("one", "two", "three")
        assert len(store) == 3
        assert [store.get(f"d{i}#0") for i in range(3)] == [store[0], store[1], store[2]]
        assert store[1].text == "two"
        assert store.get("d2#0").text == "three"
        assert "d0#0" in store and "nope#0" not in store

    def test_duplicate_id_rejected(self):
        p = Passage(passage_id="d0#0", doc_id="d0", title="t", text="x", chunk_index=0)
        with pytest.raises(DuplicateId):
            PassageStore([p, p])

    def test_build_store_chunks_all_documents(self):
        docs = [
            Document(doc_id="a", title="A", body=" ".join(["x"] * 150)),
            Document(doc_id="b", title="B", body="y"),
        ]
        store = build_store(docs, chunk_size=100)
        assert [p.passage_id for p in store] == ["a#0", "a#1", "b#0"]


class TestStorePersistence:
    def test_round_trip_identity(self, tmp_path):
        store = store_of("alpha beta", "gamma", "delta epsilon zeta")
        path = tmp_path / "store.jsonl"
        save_store(store, path)
        assert load_store(path) == store

    def test_round_trip_preserves_ordinals(self, tmp_path):
        store = store_of("one", "two", "three")
        path = tmp_path / "store.jsonl"
        save_store(store, path)
        loaded = load_store(path)
        for i, p in enumerate(store):
            assert loaded[i].passage_id == p.passage_id
            assert loaded.get(p.passage_id) == loaded[i]

    def test_unicode_survives(self, tmp_path):
        store = store_of("naïve café résumé", titles=["tïtle"])
        path = tmp_path / "store.jsonl"
        save_store(store, path)
        assert load_store(path)[0].text == "naïve café résumé"

    def test_truncated_file_rejected(self, tmp_path):
        store = store_of("one", "two", "three")
        path = tmp_path / "store.jsonl"
        save_store(store, path)

        def cut_last_chunk_index(payload):
            del payload[-8:]

        rewrite_payload(path, cut_last_chunk_index)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: truncated chunk indexes"):
            load_store(path)

    def test_text_not_utf8_named_by_file(self, tmp_path):
        store = store_of("one", "two")
        path = tmp_path / "store.jsonl"
        save_store(store, path)

        def break_utf8(payload):
            payload[payload.index(b"two")] = 0xFF

        rewrite_payload(path, break_utf8)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not valid UTF-8"):
            load_store(path)

    def test_duplicate_id_in_file_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        columns = [["d0#0", "d0#0"], ["d0", "d0"], ["t", "t"], ["one", "two"]]
        parts = [binfile.strings([""]), *map(binfile.strings, columns), np.zeros(2, dtype="<i8")]
        binfile.write(path, STORE_FORMAT, (2, 100), parts)
        with pytest.raises(DuplicateId, match=f"^{re.escape(str(path))}: duplicate passage_id 'd0#0'"):
            load_store(path)

    def test_save_holds_one_string_table_at_a_time(self, tmp_path):
        # ids, doc ids, titles and texts of 100 characters each: four string tables of 416,000 bytes
        store = PassageStore(
            Passage(passage_id=f"{i:098d}#0", doc_id=f"{i:098d}", title=f"{i:0100d}", text=f"{i:0100d}", chunk_index=0)
            for i in range(4000)
        )
        table = len(binfile.strings(p.text for p in store))
        _, held, peak = traced(save_store, store, tmp_path / "store.jsonl")
        # the table being written, and a quarter of one for its growth and the chunk indexes
        assert peak - held <= table + table // 4

    def test_unsupported_version_rejected(self, tmp_path):
        store = store_of("one")
        path = tmp_path / "store.jsonl"
        save_store(store, path)
        rewrite_payload(path, lambda payload: struct.pack_into("<I", payload, 4, 99))
        with pytest.raises(UnsupportedVersion, match="passage store version 99, this build reads 1"):
            load_store(path)

    def test_not_a_store_file_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"something": "else"}\n', encoding="utf-8")
        with pytest.raises(ParseError):
            load_store(path)


class TestIngestCorpus:
    def _write(self, tmp_path, docs):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for d in docs:
                f.write(json.dumps(d) + "\n")
        return path

    def test_counts_and_chunking(self, tmp_path):
        docs = [
            {"doc_id": "a", "title": "A", "body": " ".join(["x"] * 250)},
            {"doc_id": "b", "title": "B", "body": "short body"},
        ]
        store, stats = ingest_corpus(self._write(tmp_path, docs), 100)
        assert stats.documents == 2
        assert stats.passages == 4
        assert stats.dropped_empty == 0
        assert len(store) == 4
        assert store.chunk_size == 100
        assert store.corpus_checksum != ""

    def test_empty_body_documents_dropped_and_counted(self, tmp_path):
        docs = [
            {"doc_id": "a", "title": "A", "body": "   "},
            {"doc_id": "b", "title": "B", "body": "kept"},
        ]
        store, stats = ingest_corpus(self._write(tmp_path, docs), 100)
        assert stats.dropped_empty == 1
        assert [p.doc_id for p in store] == ["b"]

    def test_duplicate_doc_id_rejected(self, tmp_path):
        docs = [
            {"doc_id": "a", "title": "A", "body": "one"},
            {"doc_id": "a", "title": "A2", "body": "two"},
        ]
        with pytest.raises(DuplicateId):
            ingest_corpus(self._write(tmp_path, docs), 100)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "a", "title": "A", "body": "ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            ingest_corpus(path, 100)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "a", "title": "A"}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="body"):
            ingest_corpus(path, 100)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest_corpus(path, 100)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"doc_id": "a", "title": "\xff", "body": "x"}\n')
        with pytest.raises(ParseError):
            ingest_corpus(path, 100)

    def test_default_chunk_size_is_100(self):
        assert DEFAULT_CHUNK_SIZE == 100
