import random
import re
import struct
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest

from deskdpr import flat_index
from deskdpr.encoder import encode_passages, encode_question, init_model
from deskdpr.errors import (
    CorruptIndex,
    DimensionError,
    DuplicateId,
    EmptyCorpus,
    ParseError,
    UnsupportedVersion,
)
from deskdpr.corpus import render_encoder_input
from deskdpr.flat_index import (
    FlatIndex,
    build_index,
    load_index,
    save_index,
    search,
    search_naive,
)

from helpers import random_text, scratch_beyond_result, store_of


def random_index(rng, m, d=16, duplicate_rows=0):
    vectors = rng.normal(size=(m, d)).astype(np.float32)
    # duplicated rows force exact score ties
    for i in range(duplicate_rows):
        vectors[m - 1 - i] = vectors[i]
    return FlatIndex(d=d, ids=[f"p{i}#0" for i in range(m)], vectors=vectors)


class TestFlatIndexValidation:
    def test_len(self):
        index = random_index(np.random.default_rng(0), 5)
        assert len(index) == 5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            FlatIndex(d=4, ids=["a", "b"], vectors=np.zeros((3, 4), dtype=np.float32))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(DimensionError):
            FlatIndex(d=4, ids=["a"], vectors=np.zeros((1, 4), dtype=np.float64))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateId):
            FlatIndex(d=4, ids=["a", "a"], vectors=np.zeros((2, 4), dtype=np.float32))


class TestBuildIndex:
    def test_rows_are_encoded_passages(self):
        model = init_model(d=8, hash_dim=64, seed=0)
        store = store_of("alpha beta", "gamma delta", "epsilon")
        index = build_index(model, store)
        assert index.ids == ["d0#0", "d1#0", "d2#0"]
        assert index.vectors.dtype == np.float32
        for i, passage in enumerate(store):
            expected = encode_passages(model, [render_encoder_input(passage)])[0].astype(np.float32)
            assert np.array_equal(index.vectors[i], expected)

    def test_batching_does_not_change_rows(self, monkeypatch):
        model = init_model(d=8, hash_dim=64, seed=0)
        store = store_of(*[f"text number {i}" for i in range(10)])
        whole = build_index(model, store)
        monkeypatch.setattr(flat_index, "BUILD_BATCH_ROWS", 3)
        tiny = build_index(model, store)
        assert np.array_equal(whole.vectors, tiny.vectors)

    def test_empty_store_rejected(self):
        model = init_model(d=8, hash_dim=64, seed=0)
        with pytest.raises(EmptyCorpus):
            build_index(model, store_of())

    def test_rows_written_into_one_matrix(self, monkeypatch):
        # beside the rows it returns, the build holds one batch's scratch, not a second copy of the rows
        rng = random.Random(5)
        store = store_of(*(random_text(rng, 40, vocab_size=400) for _ in range(3000)))
        model = init_model(d=256, hash_dim=1024, seed=0)
        monkeypatch.setattr(flat_index, "BUILD_BATCH_ROWS", 100)
        index, scratch = scratch_beyond_result(build_index, model, store)
        assert index.vectors.nbytes == 3000 * 256 * 4
        assert scratch < index.vectors.nbytes // 3

    def test_rows_overflowing_float32_rejected_without_a_warning(self):
        model = init_model(d=8, hash_dim=64, seed=0)
        model.w_p[:] = np.float32(3e38)  # finite in float32, but the projections are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="passage vectors must be finite in float32"):
                build_index(model, store_of("alpha beta gamma", "delta"))


class TestSearch:
    def test_matches_naive_scan(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            m = int(rng.integers(1, 60))
            index = random_index(rng, m, duplicate_rows=min(3, m // 2))
            q = rng.normal(size=16)
            for k in (1, 5, m, m + 7):
                got = search(index, q, k)
                want = search_naive(index, q, k)
                assert [h.passage_id for h in got] == [h.passage_id for h in want]
                assert [h.score for h in got] == [h.score for h in want]
                assert [h.rank for h in got] == [h.rank for h in want]

    def test_block_size_irrelevant(self):
        rng = np.random.default_rng(2)
        index = random_index(rng, 25, duplicate_rows=4)
        q = rng.normal(size=16)
        reference = [(h.passage_id, h.score) for h in search(index, q, 10)]
        for block_rows in (1, 3, 25, 32, 4096):
            with mock.patch.object(flat_index, "SEARCH_BLOCK_ROWS", block_rows):
                got = [(h.passage_id, h.score) for h in search(index, q, 10)]
            assert got == reference

    def test_scores_match_sim_exactly(self):
        model = init_model(d=8, hash_dim=64, seed=3)
        store = store_of("alpha beta", "gamma delta", "alpha gamma")
        index = build_index(model, store)
        q = encode_question(model, "alpha")
        for hit in search(index, q, 3):
            row = index.vectors[index.ids.index(hit.passage_id)]
            assert hit.score == float((row.astype(np.float64) * q).sum())

    def test_ties_break_toward_lower_ordinal(self):
        vectors = np.ones((4, 2), dtype=np.float32)
        index = FlatIndex(d=2, ids=["a", "b", "c", "d"], vectors=vectors)
        result = search(index, np.ones(2), 2)
        assert result.ids() == ["a", "b"]

    def test_smaller_k_is_prefix_of_larger(self):
        rng = np.random.default_rng(4)
        index = random_index(rng, 40, duplicate_rows=5)
        q = rng.normal(size=16)
        big = search(index, q, 20).ids()
        for k in (1, 5, 12):
            assert search(index, q, k).ids() == big[:k]

    def test_k_beyond_size_returns_all(self):
        rng = np.random.default_rng(5)
        index = random_index(rng, 7)
        result = search(index, rng.normal(size=16), 100)
        assert len(result) == 7
        assert sorted(result.ids()) == sorted(index.ids)

    def test_ranks_are_sequential(self):
        rng = np.random.default_rng(6)
        index = random_index(rng, 12)
        result = search(index, rng.normal(size=16), 5)
        assert [h.rank for h in result] == [1, 2, 3, 4, 5]

    def test_bad_k_rejected(self):
        rng = np.random.default_rng(7)
        index = random_index(rng, 3)
        with pytest.raises(ValueError):
            search(index, rng.normal(size=16), 0)
        with pytest.raises(ValueError):
            search_naive(index, rng.normal(size=16), 0)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        index = random_index(rng, 3)
        with pytest.raises(DimensionError):
            search(index, rng.normal(size=9), 1)
        with pytest.raises(DimensionError):
            search(index, rng.normal(size=(2, 16)), 1)

    def test_float32_query_matches_its_promotion(self):
        rng = np.random.default_rng(9)
        index = random_index(rng, 10)
        q = rng.normal(size=16)
        b = search(index, q.astype(np.float32).astype(np.float64), 3)
        c = search(index, q.astype(np.float32), 3)
        assert [(h.passage_id, h.score) for h in b] == [(h.passage_id, h.score) for h in c]


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        index = random_index(rng, 9, d=16)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.d == index.d
        assert loaded.ids == index.ids
        assert np.array_equal(loaded.vectors, index.vectors)

    def test_search_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(11)
        index = random_index(rng, 20, duplicate_rows=3)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        q = rng.normal(size=16)
        before = [(h.passage_id, h.score) for h in search(index, q, 8)]
        after = [(h.passage_id, h.score) for h in search(loaded, q, 8)]
        assert before == after

    def test_unicode_ids_survive(self, tmp_path):
        vectors = np.zeros((2, 4), dtype=np.float32)
        index = FlatIndex(d=4, ids=["déjà#0", "μ-receptor#1"], vectors=vectors)
        path = tmp_path / "index.bin"
        save_index(index, path)
        assert load_index(path).ids == ["déjà#0", "μ-receptor#1"]

    def test_file_is_drix_v1(self, tmp_path):
        vectors = np.array([[1.5, -2.0, 0.25], [0.0, 3.0, -0.5]], dtype=np.float32)
        path = tmp_path / "index.bin"
        save_index(FlatIndex(d=3, ids=["a#0", "é#1"], vectors=vectors), path)
        payload = b"".join([
            b"DRIX",
            struct.pack("<IIQ", 1, 3, 2),  # version, d, M
            struct.pack("<I", 3) + b"a#0",
            struct.pack("<I", 4) + "é#1".encode("utf-8"),
            struct.pack("<6f", 1.5, -2.0, 0.25, 0.0, 3.0, -0.5),
        ])
        assert path.read_bytes() == payload + struct.pack("<I", zlib.crc32(payload))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        rng = np.random.default_rng(12)
        save_index(random_index(rng, 3), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"ZZZZ"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptIndex, match="magic"):
            load_index(path)

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "index.bin"
        rng = np.random.default_rng(13)
        save_index(random_index(rng, 5), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptIndex, match="checksum"):
            load_index(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "index.bin"
        rng = np.random.default_rng(14)
        save_index(random_index(rng, 5), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])
        with pytest.raises(CorruptIndex):
            load_index(path)

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_bytes(b"DRIX\x01\x00")
        with pytest.raises(CorruptIndex):
            load_index(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        rng = np.random.default_rng(15)
        save_index(random_index(rng, 3), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        # keep the checksum valid so the version check is what fires
        payload = bytes(raw[:-4])
        raw[-4:] = struct.pack("<I", zlib.crc32(payload))
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersion):
            load_index(path)

    def test_non_finite_vectors_rejected_under_a_valid_checksum(self, tmp_path):
        path = tmp_path / "index.bin"
        save_index(random_index(np.random.default_rng(17), 3, d=4), path)
        payload = bytearray(path.read_bytes()[:-4])
        payload[-4:] = struct.pack("<f", np.inf)  # the last entry of the last row
        path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
        where = re.escape(str(path))
        with pytest.raises(ParseError, match=f"^{where}: passage vectors must be finite in float32; row 2 "):
            load_index(path)

    def test_loaded_vectors_writeable(self, tmp_path):
        rng = np.random.default_rng(16)
        path = tmp_path / "index.bin"
        save_index(random_index(rng, 3), path)
        loaded = load_index(path)
        assert loaded.vectors.flags.writeable
