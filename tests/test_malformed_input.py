"""Malformed input: every file reader raises a DeskdprError, and the CLI exits 2 naming the file."""

import contextlib
import copy
import io
import json
import shutil
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deskdpr.bm25 import build_index as build_bm25_index
from deskdpr.bm25 import load_bm25_index, save_bm25_index
from deskdpr.cli import main
from deskdpr.corpus import ingest_corpus, load_store, read_corpus_jsonl, save_store
from deskdpr.dataset import align_questions, emit_dpr_json, load_dpr_json, split_instances
from deskdpr.encoder import init_model, save_model
from deskdpr.errors import DeskdprError, DuplicateId, ParseError, UnsupportedVersion, reading
from deskdpr.flat_index import build_index as build_dense_index
from deskdpr.flat_index import save_index
from deskdpr.manifest import manifest_path, read_manifest, write_manifest
from deskdpr.questions import parse_bioasq
from deskdpr.synthetic import generate, write_corpus_jsonl, write_questions_json
from helpers import snapshot_dir


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """Valid inputs and artifacts the program wrote, none with a manifest."""
    root = tmp_path_factory.mktemp("good")
    data = generate(n_passages=12, n_questions=6, seed=0, chunk_size=10)
    paths = {name: root / name for name in (
        "corpus.jsonl", "questions.json", "store.jsonl", "bm25.jsonl", "train.json", "model.bin", "dense.bin"
    )}
    write_corpus_jsonl(data, paths["corpus.jsonl"])
    write_questions_json(data, paths["questions.json"])
    store, _ = ingest_corpus(paths["corpus.jsonl"], chunk_size=10)
    save_store(store, paths["store.jsonl"])
    save_bm25_index(build_bm25_index(store), paths["bm25.jsonl"])
    instances, _ = align_questions(parse_bioasq(paths["questions.json"]), store)
    emit_dpr_json(split_instances(instances, (1.0, 0.0, 0.0))["train"], paths["train.json"])
    model = init_model(d=8, hash_dim=64, seed=0)
    save_model(model, paths["model.bin"])
    save_index(build_dense_index(model, store), paths["dense.bin"])
    return paths


def run_cli(argv):
    """main(argv) with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


class TestReading:
    @pytest.mark.parametrize("at, where", [(None, ""), (7, "line 7: "), (("record", 3), "record 3: ")])
    def test_location_names_line_or_record(self, at, where):
        with pytest.raises(ParseError) as info:
            with reading("in.json") as r:
                r.at = at
                raise TypeError("bad shape")
        assert str(info.value) == f"in.json: {where}bad shape"
        assert isinstance(info.value.__cause__, TypeError)

    @pytest.mark.parametrize("exc, detail", [
        (KeyError("body"), "missing field 'body'"),
        (IndexError("list index out of range"), "list index out of range"),
        (AttributeError("'int' object has no attribute 'get'"), "'int' object has no attribute 'get'"),
        (OverflowError("cannot convert float infinity to integer"), "cannot convert float infinity to integer"),
        (ValueError("math domain error"), "math domain error"),
    ])
    def test_malformed_content_becomes_parse_error(self, exc, detail):
        with pytest.raises(ParseError, match=f"^in.json: line 2: {detail}$"):
            with reading("in.json") as r:
                r.at = 2
                raise exc

    def test_bad_json_and_utf8_are_named(self):
        with pytest.raises(ParseError, match=r"^in.json: line 1: invalid JSON: Expecting value"):
            with reading("in.json") as r:
                r.at = 1
                json.loads("broken")
        # the text layer decodes ahead of the line being parsed, so no line is named
        with pytest.raises(ParseError, match=r"^in.json: not valid UTF-8: 'utf-8' codec"):
            with reading("in.json") as r:
                r.at = 1
                b"\xff".decode("utf-8")

    @pytest.mark.parametrize("exc", [
        ParseError("in.json: own message"), UnsupportedVersion("v9"), DuplicateId("a#0"), OSError("gone"),
        RuntimeError("bug"),
    ])
    def test_other_errors_pass_through_untouched(self, exc):
        with pytest.raises(type(exc)) as info:
            with reading("in.json") as r:
                r.at = 4
                raise exc
        assert info.value is exc


# -- property: any one replaced line, record or field ----------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def replace_one(data, doc, min_depth):
    """A copy of `doc` with one element at a depth from min_depth to 4 (a line,
    a record, or a field at any depth) replaced by an arbitrary JSON value."""
    doc = copy.deepcopy(doc)
    parent, key, node, depth = None, None, doc, 0
    target = data.draw(st.integers(min_depth, 4))
    while depth < target and isinstance(node, (list, dict)) and node:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        parent, node, depth = node, node[key], depth + 1
    value = data.draw(json_values)
    if parent is None:
        return value
    parent[key] = value
    return doc


def jsonl_doc(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def write_jsonl(path, doc):
    path.write_text("".join(json.dumps(row) + "\n" for row in doc), encoding="utf-8")


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


READERS = {
    # file: (reader, JSON Lines?)
    "corpus.jsonl": (read_corpus_jsonl, True),
    "store.jsonl": (load_store, True),
    "bm25.jsonl": (load_bm25_index, True),
    "questions.json": (parse_bioasq, False),
    "train.json": (load_dpr_json, False),
    "store.jsonl.manifest.json": (lambda path: read_manifest(str(path)[: -len(".manifest.json")]), False),
}

few = settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("name", sorted(READERS))
@few
@given(data=st.data())
def test_reader_returns_or_raises_a_library_error(good, tmp_path, name, data):
    reader, lines = READERS[name]
    path = tmp_path / name
    if name.endswith(".manifest.json"):
        write_manifest(tmp_path / "store.jsonl", "ingest", {"chunk_size": 10}, 0, [good["corpus.jsonl"]])
        doc = json.loads(path.read_text(encoding="utf-8"))
    else:
        doc = jsonl_doc(good[name]) if lines else json.loads(good[name].read_text(encoding="utf-8"))
    bad = replace_one(data, doc, min_depth=1 if lines else 0)
    (write_jsonl if lines else write_json)(path, bad)
    try:
        reader(path)
    except DeskdprError:
        pass


@few
@given(data=st.data())
def test_ingest_exits_0_or_2(good, tmp_path, data):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, replace_one(data, jsonl_doc(good["corpus.jsonl"]), min_depth=1))
    rc, err = run_cli(["ingest", "--corpus", corpus, "--out", tmp_path / "store.jsonl"])
    assert rc in (0, 2), err


@pytest.mark.parametrize("stage", ["build-dataset", "evaluate"])
@few
@given(data=st.data())
def test_questions_exit_0_or_2(good, tmp_path, stage, data):
    questions = tmp_path / "questions.json"
    write_json(questions, replace_one(data, json.loads(good["questions.json"].read_text(encoding="utf-8")), 0))
    if stage == "build-dataset":
        argv = ["--index", good["bm25.jsonl"], "--out-dir", tmp_path / "dataset"]
    else:
        argv = ["--model", good["model.bin"], "--index", good["dense.bin"], "--out", tmp_path / "report.json"]
    rc, err = run_cli([stage, "--questions", questions, "--store", good["store.jsonl"], *argv])
    assert rc in (0, 2), err


# -- the probes: inputs that once ended in a traceback and exit 1, or were accepted --


def edit_jsonl(name, line, edit):
    def make(tmp_path):
        doc = jsonl_doc(tmp_path / name)
        doc[line] = edit(doc[line])
        write_jsonl(tmp_path / name, doc)
    return make


def edit_json(name, edit):
    def make(tmp_path):
        doc = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        write_json(tmp_path / name, edit(doc))
    return make


def edit_questions(edit):
    return edit_json("questions.json", edit)


def without(key):
    return lambda row: {k: v for k, v in row.items() if k != key}


def with_field(key, value):
    return lambda row: {**row, key: value}


def first_question(key, value):
    def edit(doc):
        doc["questions"][0][key] = value
        return doc
    return edit


def first_record(edit):
    def edit_doc(doc):
        doc[0] = edit(doc[0])
        return doc
    return edit_json("train.json", edit_doc)


def first_positive(key, value):
    return first_record(lambda rec: {**rec, "positive_ctxs": [{**rec["positive_ctxs"][0], key: value}]})


def dense_entry_inf(tmp_path):
    """The index's last vector entry made inf, under a valid checksum."""
    path = tmp_path / "dense.bin"
    payload = bytearray(path.read_bytes()[:-4])
    payload[-4:] = struct.pack("<f", float("inf"))
    path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))


def bad_input_checksums(tmp_path):
    store = tmp_path / "store.jsonl"
    write_manifest(store, "ingest", {"chunk_size": 10}, 0, [])
    raw = json.loads(manifest_path(store).read_text(encoding="utf-8"))
    raw["input_checksums"] = []
    write_json(manifest_path(store), raw)


BUILD_DATASET = ["build-dataset", "--questions", "questions.json", "--store", "store.jsonl",
                 "--index", "bm25.jsonl", "--out-dir", "dataset"]
INDEX_BM25 = ["index-bm25", "--corpus", "store.jsonl", "--out", "out.jsonl"]
INGEST = ["ingest", "--corpus", "corpus.jsonl", "--out", "out.jsonl"]
TRAIN = ["train", "--train", "train.json", "--out", "model.bin", "--d", "8", "--hash-dim", "64"]
EVALUATE = ["evaluate", "--model", "model.bin", "--index", "dense.bin", "--store", "store.jsonl",
            "--questions", "questions.json", "--out", "report.json"]

PROBES = {
    # probe: (command, bad file, how it is made, where the error is)
    "bm25 header without k1": (BUILD_DATASET, "bm25.jsonl", edit_jsonl("bm25.jsonl", 0, without("k1")), "line 1: "),
    "bm25 line 1 is []": (BUILD_DATASET, "bm25.jsonl", edit_jsonl("bm25.jsonl", 0, lambda row: []), "line 1: "),
    "bm25 line 2 is [1, 2]": (BUILD_DATASET, "bm25.jsonl", edit_jsonl("bm25.jsonl", 1, lambda row: [1, 2]), "line 2: "),
    "bm25 doc_lengths are strings": (
        BUILD_DATASET, "bm25.jsonl",
        edit_jsonl("bm25.jsonl", 1, lambda row: {"doc_lengths": [str(n) for n in row["doc_lengths"]]}), "",
    ),
    "store line 1 is []": (INDEX_BM25, "store.jsonl", edit_jsonl("store.jsonl", 0, lambda row: []), "line 1: "),
    "store line 2 is [1, 2]": (INDEX_BM25, "store.jsonl", edit_jsonl("store.jsonl", 1, lambda row: [1, 2]), "line 2: "),
    "questions are [1, 2]": (BUILD_DATASET, "questions.json", edit_questions(lambda doc: {"questions": [1, 2]}), "question 0: "),
    "questions are 5": (BUILD_DATASET, "questions.json", edit_questions(lambda doc: {"questions": 5}), ""),
    "question body is 5": (BUILD_DATASET, "questions.json", edit_questions(first_question("body", 5)), "question 0: "),
    "snippet text is 5": (
        BUILD_DATASET, "questions.json", edit_questions(first_question("snippets", [{"text": 5}])), "question 0: ",
    ),
    "corpus body is 5": (INGEST, "corpus.jsonl", edit_jsonl("corpus.jsonl", 0, with_field("body", 5)), "line 1: "),
    "manifest input_checksums is []": (INDEX_BM25, "store.jsonl.manifest.json", bad_input_checksums, ""),
    "store text is 5": (INDEX_BM25, "store.jsonl", edit_jsonl("store.jsonl", 1, with_field("text", 5)), "line 2: "),
    "store chunk_index is '0'": (
        INDEX_BM25, "store.jsonl", edit_jsonl("store.jsonl", 1, with_field("chunk_index", "0")), "line 2: ",
    ),
    "train question is 5": (TRAIN, "train.json", first_record(with_field("question", 5)), "record 0: "),
    "train ctx text is 5": (TRAIN, "train.json", first_positive("text", 5), "record 0: "),
    "corpus title is a lone surrogate": (
        INGEST, "corpus.jsonl", edit_jsonl("corpus.jsonl", 0, with_field("title", "\ud800")), "line 1: ",
    ),
    "exact answer is a lone surrogate": (
        BUILD_DATASET, "questions.json", edit_questions(first_question("exact_answer", "\ud800")), "question 0: ",
    ),
    "dense vector entry is inf": (EVALUATE, "dense.bin", dense_entry_inf, ""),
}


@pytest.mark.parametrize("probe", list(PROBES))
def test_probe_exits_2_naming_the_file(good, tmp_path, monkeypatch, probe):
    argv, bad, make, where = PROBES[probe]
    for name in good:
        shutil.copy(good[name], tmp_path / name)
    make(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = snapshot_dir(tmp_path)
    rc, err = run_cli(argv)
    assert rc == 2, err
    assert err.startswith(f"error: {bad}: {where}"), err
    assert len(err.splitlines()) == 1, err
    assert snapshot_dir(tmp_path) == before
