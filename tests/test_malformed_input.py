"""Malformed input: every file reader raises a DeskdprError, and the CLI exits 2 naming the file."""

import contextlib
import copy
import io
import json
import shutil
import struct
import tracemalloc
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deskdpr import binfile
from deskdpr.bm25 import build_index as build_bm25_index
from deskdpr.bm25 import load_bm25_index, save_bm25_index
from deskdpr.cli import main
from deskdpr.corpus import PassageStore, ingest_corpus, load_store, read_corpus_jsonl, save_store
from deskdpr.dataset import align_questions, emit_dpr_json, load_dpr_json, split_instances
from deskdpr.encoder import init_model, load_model, save_model
from deskdpr.errors import DeskdprError, DuplicateId, ParseError, UnsupportedVersion, reading
from deskdpr.flat_index import build_index as build_dense_index
from deskdpr.flat_index import load_index, save_index
from deskdpr.manifest import manifest_path, read_manifest, write_manifest
from deskdpr.questions import parse_bioasq
from deskdpr.synthetic import generate, write_corpus_jsonl, write_questions_json
from helpers import BM25_INTS, BM25_PREFIX, bm25_array, bm25_parts, rewrite_payload, set_bm25_ints, snapshot_dir


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """Valid inputs and artifacts the program wrote, none with a manifest."""
    root = tmp_path_factory.mktemp("good")
    data = generate(n_passages=12, n_questions=6, seed=0, chunk_size=10)
    paths = {name: root / name for name in (
        "corpus.jsonl", "questions.json", "store.jsonl", "bm25.bin", "train.json", "model.bin", "dense.bin"
    )}
    write_corpus_jsonl(data, paths["corpus.jsonl"])
    write_questions_json(data, paths["questions.json"])
    store, _ = ingest_corpus(paths["corpus.jsonl"], chunk_size=10)
    save_store(store, paths["store.jsonl"])
    save_bm25_index(build_bm25_index(store), paths["bm25.bin"])
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


BINARY_READERS = {
    "store.jsonl": load_store, "bm25.bin": load_bm25_index, "dense.bin": load_index, "model.bin": load_model,
}


@pytest.mark.parametrize("name", sorted(BINARY_READERS))
@few
@given(data=st.data())
def test_binary_reader_returns_or_raises_a_library_error(good, tmp_path, name, data):
    """One byte changed under a recomputed CRC (often in the header, where the
    counts are), or the file cut at any length."""
    raw = good[name].read_bytes()
    path = tmp_path / name
    if data.draw(st.booleans()):
        payload = bytearray(raw[:-4])
        at = data.draw(st.integers(0, 63) | st.integers(0, len(payload) - 1))
        payload[at] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
    else:
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    tracemalloc.start()
    try:
        BINARY_READERS[name](path)
    except DeskdprError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # nothing is sized by a header count before the bytes behind it are checked
    assert peak < 16 * len(raw) + 2**20


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
        argv = ["--index", good["bm25.bin"], "--out-dir", tmp_path / "dataset"]
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


def bm25_ints(name, first, values):
    """Integer array `name` of the BM25 index overwritten from position `first`."""
    return lambda tmp_path: rewrite_payload(tmp_path / "bm25.bin", lambda p: set_bm25_ints(p, name, first, values))


def prefix_field(name, fmt, offset, value):
    """One field of binary artifact `name`'s prefix, at `offset` and of struct code `fmt`, overwritten with value."""
    edit = lambda p: struct.pack_into(fmt, p, offset, value)
    return lambda tmp_path: rewrite_payload(tmp_path / name, edit)


def bm25_reversed_postings(tmp_path):
    """The first posting list of two or more postings reversed, tfs with it."""
    def edit(payload):
        offsets = bm25_array(payload, "offsets")
        lo, hi = next((lo, hi) for lo, hi in zip(offsets, offsets[1:]) if hi - lo >= 2)
        for name in ("ordinals", "tfs"):
            set_bm25_ints(payload, name, lo, bm25_array(payload, name)[lo:hi][::-1])
    rewrite_payload(tmp_path / "bm25.bin", edit)


def bm25_first_cut(part):
    """The first entry of a part of the BM25 index cut out: a string of a table, or an integer."""
    def edit(payload):
        start = bm25_parts(payload)[part]
        size = struct.calcsize(BM25_INTS[part]) if part in BM25_INTS else 4 + struct.unpack_from("<I", payload, start)[0]
        del payload[start : start + size]
    return lambda tmp_path: rewrite_payload(tmp_path / "bm25.bin", edit)


def bm25_zero_lengths(tmp_path):
    """Every doc length 0, which with b 0 once made every contribution NaN."""
    def edit(payload):
        n = BM25_PREFIX.unpack_from(payload)[2]
        set_bm25_ints(payload, "doc_lengths", 0, [0] * n)
    rewrite_payload(tmp_path / "bm25.bin", edit)


def bm25_last(name, change):
    """The last entry of integer array `name` of the BM25 index replaced by change(entry)."""
    def edit(payload):
        values = bm25_array(payload, name)
        set_bm25_ints(payload, name, len(values) - 1, [change(values[-1])])
    return lambda tmp_path: rewrite_payload(tmp_path / "bm25.bin", edit)


def bm25_count(offset):
    """The BM25 index's header count at `offset` claiming one more than the file holds."""
    def edit(payload):
        struct.pack_into("<Q", payload, offset, struct.unpack_from("<Q", payload, offset)[0] + 1)
    return lambda tmp_path: rewrite_payload(tmp_path / "bm25.bin", edit)


def store_edit(edit):
    """edit(payload) applied to the store's payload, under a new CRC."""
    return lambda tmp_path: rewrite_payload(tmp_path / "store.jsonl", edit)


def store_text_not_utf8(payload):
    """The last byte of the last text, just before the n int64 chunk indexes, made 0xff."""
    n = struct.unpack_from("<Q", payload, 8)[0]
    payload[-8 * n - 1] = 0xFF


def store_second_id_is_the_first(payload):
    """The second passage id overwritten with the first; ids come first after the checksum, which has no '#'."""
    at = payload.index(b"doc0000#1")
    payload[at : at + 9] = b"doc0000#0"


def store_as_json_lines(tmp_path):
    """The store in the JSON Lines format the program wrote before the binary one."""
    path = tmp_path / "store.jsonl"
    store = load_store(path)
    meta = {"format": "deskdpr-passages", "version": 1, "chunk_size": store.chunk_size,
            "corpus_checksum": store.corpus_checksum, "count": len(store)}
    write_jsonl(path, [meta, *map(asdict, store)])


def store_without_first_passage(tmp_path):
    return PassageStore(load_store(tmp_path / "store.jsonl").passages[1:])


def bm25_from_another_store(tmp_path):
    save_bm25_index(build_bm25_index(store_without_first_passage(tmp_path)), tmp_path / "bm25.bin")


def dense_from_another_store(tmp_path):
    model = load_model(tmp_path / "model.bin")
    save_index(build_dense_index(model, store_without_first_passage(tmp_path)), tmp_path / "dense.bin")


def dense_id_not_utf8(tmp_path):
    """The first id's first byte made 0xff, under a valid checksum."""
    path = tmp_path / "dense.bin"
    payload = bytearray(path.read_bytes()[:-4])
    payload[24] = 0xFF  # after magic, version, d, M and the id's u32 length
    path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))


def model_as_version_2(tmp_path):
    """The model as version 2 wrote it: each tower's (d, hash_dim) rows, under a valid CRC."""
    path = tmp_path / "model.bin"
    model = load_model(path)
    towers = (np.ascontiguousarray(w, dtype="<f4") for w in (model.w_q, model.w_p))
    binfile.write(path, binfile.Format("model", b"DPRM", 2, "II"), (model.d, model.hash_dim), towers)


def bad_input_checksums(tmp_path):
    store = tmp_path / "store.jsonl"
    write_manifest(store, "ingest", {"chunk_size": 10}, 0, [])
    raw = json.loads(manifest_path(store).read_text(encoding="utf-8"))
    raw["input_checksums"] = []
    write_json(manifest_path(store), raw)


BUILD_DATASET = ["build-dataset", "--questions", "questions.json", "--store", "store.jsonl",
                 "--index", "bm25.bin", "--out-dir", "dataset"]
INDEX_BM25 = ["index-bm25", "--corpus", "store.jsonl", "--out", "out.jsonl"]
INDEX_DENSE = ["index-dense", "--model", "model.bin", "--store", "store.jsonl", "--out", "out.bin"]
INGEST = ["ingest", "--corpus", "corpus.jsonl", "--out", "out.jsonl"]
TRAIN = ["train", "--train", "train.json", "--out", "model.bin", "--d", "8", "--hash-dim", "64"]
EVALUATE = ["evaluate", "--model", "model.bin", "--index", "dense.bin", "--store", "store.jsonl",
            "--questions", "questions.json", "--out", "report.json"]
REPL = ["repl", "--index", "dense.bin", "--model", "model.bin", "--store", "store.jsonl"]

PROBES = {
    # probe: (command, bad file, how it is made, where the error is)
    "bm25 ordinal is negative": (BUILD_DATASET, "bm25.bin", bm25_ints("ordinals", 0, [-1]), "token "),
    "bm25 ordinal is n_passages": (BUILD_DATASET, "bm25.bin", bm25_ints("ordinals", 0, [12]), "token "),
    "bm25 tf is 0": (BUILD_DATASET, "bm25.bin", bm25_ints("tfs", 0, [0]), "token "),
    "bm25 posting list reversed": (BUILD_DATASET, "bm25.bin", bm25_reversed_postings, "token "),
    "bm25 doc length is negative": (BUILD_DATASET, "bm25.bin", bm25_ints("doc_lengths", 0, [-1]), "passage "),
    "bm25 doc lengths are 0": (BUILD_DATASET, "bm25.bin", bm25_zero_lengths, "passage "),
    "bm25 last tf is 0": (BUILD_DATASET, "bm25.bin", bm25_last("tfs", lambda tf: 0), "token "),
    "bm25 last doc length is one more": (BUILD_DATASET, "bm25.bin", bm25_last("doc_lengths", lambda dl: dl + 1), "passage "),
    # every passage has at most 10 tokens, so tfs are uint8 in memory, where 256 would wrap to 0
    "bm25 tf is 256 in a uint8 index": (
        BUILD_DATASET, "bm25.bin", bm25_ints("tfs", 0, [256]),
        "passage 'doc0000#0': doc length 10, but its postings' tfs sum to 265\n",
    ),
    "bm25 offsets end short of n_postings": (
        BUILD_DATASET, "bm25.bin", bm25_last("offsets", lambda end: end - 1), "offsets must rise strictly from 0",
    ),
    "bm25 claims one more token": (BUILD_DATASET, "bm25.bin", bm25_count(16), "truncated "),
    "bm25 claims one more posting": (BUILD_DATASET, "bm25.bin", bm25_count(24), "truncated tfs"),
    "bm25 n_passages exceeds doc_lengths": (BUILD_DATASET, "bm25.bin", bm25_first_cut("doc_lengths"), "truncated "),
    "bm25 n_passages exceeds passage_ids": (BUILD_DATASET, "bm25.bin", bm25_first_cut("passage_ids"), "truncated "),
    "bm25 index from another store": (BUILD_DATASET, "bm25.bin", bm25_from_another_store, "its 11 passage ids"),
    "bm25 is version 2": (
        BUILD_DATASET, "bm25.bin", prefix_field("bm25.bin", "<I", 4, 2), "BM25 index version 2, this build reads 4",
    ),
    "bm25 is version 3": (
        BUILD_DATASET, "bm25.bin", prefix_field("bm25.bin", "<I", 4, 3), "BM25 index version 3, this build reads 4",
    ),
    "bm25 claims 2^31 passages": (
        BUILD_DATASET, "bm25.bin", prefix_field("bm25.bin", "<Q", 8, 2**31), "2147483648 passages",
    ),
    "dense index from another store": (EVALUATE, "dense.bin", dense_from_another_store, "its 11 passage ids"),
    "repl index from another store": (REPL, "dense.bin", dense_from_another_store, "its 11 passage ids"),
    "store is version 2": (
        INDEX_BM25, "store.jsonl", prefix_field("store.jsonl", "<I", 4, 2), "passage store version 2, this build reads 1",
    ),
    "store claims 2^40 passages": (
        INDEX_BM25, "store.jsonl", prefix_field("store.jsonl", "<Q", 8, 2**40), "truncated passage ids: ",
    ),
    "store in the JSON Lines format": (INDEX_BM25, "store.jsonl", store_as_json_lines, "bad magic "),
    "questions are [1, 2]": (BUILD_DATASET, "questions.json", edit_questions(lambda doc: {"questions": [1, 2]}), "question 0: "),
    "questions are 5": (BUILD_DATASET, "questions.json", edit_questions(lambda doc: {"questions": 5}), ""),
    "question body is 5": (BUILD_DATASET, "questions.json", edit_questions(first_question("body", 5)), "question 0: "),
    "snippet text is 5": (
        BUILD_DATASET, "questions.json", edit_questions(first_question("snippets", [{"text": 5}])), "question 0: ",
    ),
    "corpus body is 5": (INGEST, "corpus.jsonl", edit_jsonl("corpus.jsonl", 0, with_field("body", 5)), "line 1: "),
    "manifest input_checksums is []": (INDEX_BM25, "store.jsonl.manifest.json", bad_input_checksums, ""),
    "store text is not UTF-8": (INDEX_BM25, "store.jsonl", store_edit(store_text_not_utf8), "not valid UTF-8: "),
    "store passage id repeats": (
        INDEX_BM25, "store.jsonl", store_edit(store_second_id_is_the_first), "duplicate passage_id 'doc0000#0'",
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
    "model is version 2": (INDEX_DENSE, "model.bin", model_as_version_2, "model version 2, this build reads 3"),
    "evaluate model is version 2": (EVALUATE, "model.bin", model_as_version_2, "model version 2, this build reads 3"),
    "dense id is not UTF-8": (EVALUATE, "dense.bin", dense_id_not_utf8, "not valid UTF-8: "),
}


@pytest.mark.parametrize("probe", list(PROBES))
def test_probe_exits_2_naming_the_file(good, tmp_path, monkeypatch, probe):
    argv, bad, make, where = PROBES[probe]
    assert_exits_2_naming(good, tmp_path, monkeypatch, argv, make, f"{bad}: {where}")


def assert_exits_2_naming(good, tmp_path, monkeypatch, argv, make, message):
    """In a copy of the good files that make(copy) edited, argv exits 2 with one
    error line starting with `message`, and writes nothing."""
    for name in good:
        shutil.copy(good[name], tmp_path / name)
    make(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = snapshot_dir(tmp_path)
    rc, err = run_cli(argv)
    assert rc == 2, err
    assert err.startswith(f"error: {message}"), err
    assert len(err.splitlines()) == 1, err
    assert snapshot_dir(tmp_path) == before


# every path flag that reads a binary artifact: (command, flag, the artifact it takes)
BINARY_FLAGS = [
    (INDEX_BM25, "--corpus", "store.jsonl"),
    (BUILD_DATASET, "--store", "store.jsonl"),
    (BUILD_DATASET, "--index", "bm25.bin"),
    (INDEX_DENSE, "--model", "model.bin"),
    (INDEX_DENSE, "--store", "store.jsonl"),
    (EVALUATE, "--model", "model.bin"),
    (EVALUATE, "--index", "dense.bin"),
    (EVALUATE, "--store", "store.jsonl"),
    (REPL, "--index", "dense.bin"),
    (REPL, "--model", "model.bin"),
    (REPL, "--store", "store.jsonl"),
]


@pytest.mark.parametrize("argv, flag, other", [
    pytest.param(argv, flag, other, id=f"{argv[0]} {flag} {other}")
    for argv, flag, own in BINARY_FLAGS
    for other in ("store.jsonl", "bm25.bin", "dense.bin", "model.bin", "questions.json")
    if other != own
])
def test_binary_flag_given_another_kind_exits_2_naming_it(good, tmp_path, monkeypatch, argv, flag, other):
    argv = list(argv)
    argv[argv.index(flag) + 1] = other
    assert_exits_2_naming(good, tmp_path, monkeypatch, argv, lambda copy: None, f"{other}: ")
