"""Small builders shared across test modules."""

import gc
import struct
import tracemalloc
import zlib

import numpy as np

from deskdpr.corpus import Passage, PassageStore
from deskdpr.dataset import TrainingInstance, align_questions
from deskdpr.encoder import EncoderModel
from deskdpr.questions import Question


# Characters near the edge of "whitespace": every C0 control and DEL, the
# Unicode spaces, and U+200B and U+FEFF, which are not whitespace; plus letters.
SPACE_LIKE = "".join(map(chr, [*range(0x20), 0x7F, 0x85, 0xA0, 0x1680, *range(0x2000, 0x200C)])) + (
    "\u2028\u2029\u3000\ufeffaBİ"
)


def passage(text: str, pid: str = "d0#0", title: str = "title") -> Passage:
    doc_id, chunk_index = Passage.split_id(pid)
    return Passage(passage_id=pid, doc_id=doc_id, title=title, text=text, chunk_index=chunk_index)


def store_of(*texts: str, titles=None, chunk_size: int = 100) -> PassageStore:
    passages = [
        Passage(
            passage_id=f"d{i}#0",
            doc_id=f"d{i}",
            title=titles[i] if titles else f"title {i}",
            text=text,
            chunk_index=0,
        )
        for i, text in enumerate(texts)
    ]
    return PassageStore(passages, chunk_size=chunk_size)


def factoid(qid: str, text: str, answers, snippets=()) -> Question:
    return Question(
        question_id=qid,
        text=text,
        qtype="factoid",
        answers=tuple(answers),
        gold_snippets=tuple(snippets),
    )


def yesno(qid: str, text: str, answer: str = "yes", snippets=()) -> Question:
    return Question(
        question_id=qid,
        text=text,
        qtype="yesno",
        answers=(answer,),
        gold_snippets=tuple(snippets),
    )


def aligned_positive(question: Question, store: PassageStore) -> Passage | None:
    """The positive ``align_questions`` gives one question, or None when it drops it."""
    instances, _ = align_questions([question], store)
    return instances[0].positive if instances else None


def instance(question: Question, positive: Passage, hard=()) -> TrainingInstance:
    return TrainingInstance(question=question, positive=positive, hard_negatives=tuple(hard))


def random_text(rng, n_words: int, vocab_size: int = 30, prefix: str = "tok") -> str:
    return " ".join(f"{prefix}{rng.randrange(vocab_size)}" for _ in range(n_words))


def snapshot_dir(root) -> dict:
    """Every file under root, by path, with its bytes."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def rewrite_payload(path, edit) -> None:
    """Apply edit(payload) to a binary artifact without its CRC-32 trailer, then append a new CRC."""
    payload = bytearray(path.read_bytes()[:-4])
    edit(payload)
    path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))


# magic, version, n_passages, n_tokens, n_postings
BM25_PREFIX = struct.Struct("<4sIQQQ")
# the integer arrays of a BM25 index after its two string tables, in file order, with their struct codes
BM25_INTS = {"doc_lengths": "q", "offsets": "q", "ordinals": "i", "tfs": "i"}


def _bm25_counts(payload) -> dict[str, int]:
    _, _, n, n_tokens, n_postings = BM25_PREFIX.unpack_from(payload)
    return {"doc_lengths": n, "offsets": n_tokens + 1, "ordinals": n_postings, "tfs": n_postings}


def bm25_parts(payload) -> dict[str, int]:
    """Where each part of a BM25 index payload starts: the token and passage id
    tables, then the int64 doc lengths and offsets and the int32 ordinals and tfs."""
    _, _, n, n_tokens, _ = BM25_PREFIX.unpack_from(payload)
    starts, at = {"tokens": BM25_PREFIX.size}, BM25_PREFIX.size
    for _ in range(n_tokens):
        at += 4 + struct.unpack_from("<I", payload, at)[0]
    starts["passage_ids"] = at
    for _ in range(n):
        at += 4 + struct.unpack_from("<I", payload, at)[0]
    for name, count in _bm25_counts(payload).items():
        starts[name], at = at, at + struct.calcsize(BM25_INTS[name]) * count
    assert at == len(payload)
    return starts


def bm25_array(payload, name: str) -> tuple[int, ...]:
    """Integer array `name` of a BM25 index payload."""
    count = _bm25_counts(payload)[name]
    return struct.unpack_from(f"<{count}{BM25_INTS[name]}", payload, bm25_parts(payload)[name])


def set_bm25_ints(payload, name: str, first: int, values) -> None:
    """Overwrite integer array `name` of a BM25 index payload from position `first`."""
    code = BM25_INTS[name]
    at = bm25_parts(payload)[name] + struct.calcsize(code) * first
    struct.pack_into(f"<{len(values)}{code}", payload, at, *values)


def widen(model: EncoderModel) -> EncoderModel:
    """``model`` with its towers widened to float64, for tests that step or
    perturb the towers in float64 (``init_model`` gives float32 towers)."""
    return EncoderModel(model.d, model.hash_dim, *(w.astype(np.float64, order="F") for w in (model.w_q, model.w_p)))


def traced(fn, *args):
    """``fn(*args)``, the bytes its result holds and the call's traced peak.
    The cyclic collector is paused, so a collection run inside the call
    cannot add its own transient allocations."""
    gc.disable()
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    return result, held, peak


def scratch_beyond_result(fn, *args):
    """``fn(*args)`` and how many bytes its traced peak rose above what its
    result holds."""
    result, held, peak = traced(fn, *args)
    return result, peak - held
