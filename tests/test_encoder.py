import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from deskdpr import binfile, bm25, encoder
from deskdpr.bm25 import build_index, tokenize
from deskdpr.encoder import (
    EncoderModel,
    encode_passages,
    encode_question,
    encode_questions,
    featurize,
    featurize_texts,
    hash_token,
    init_model,
    load_model,
    save_model,
)
from deskdpr.errors import DimensionError, ParseError, UnsupportedVersion

from helpers import scratch_beyond_result, store_of


class TestHashToken:
    def test_frozen_bucket(self):
        # blake2b("dosr") as an 8-byte big-endian integer is
        # 2362551406999784233; mod 16384 gives 2857
        assert hash_token("dosr", 16384) == 2857

    def test_matches_first_principles(self):
        digest = hashlib.blake2b("regulon".encode(), digest_size=8).digest()
        assert hash_token("regulon", 16384) == int.from_bytes(digest, "big") % 16384

    def test_range(self):
        for token in ("a", "longer token text", "p53", "ζ"):
            for dim in (1, 7, 16384):
                assert 0 <= hash_token(token, dim) < dim

    def test_stable_across_calls(self):
        assert hash_token("alpha", 512) == hash_token("alpha", 512)


class TestFeaturize:
    def test_empty_text_is_zero_row(self):
        row = featurize("")
        assert row.shape == (1, 16384)
        assert row.nnz == 0

    def test_punctuation_only_is_zero_row(self):
        assert featurize("... --- !!!").nnz == 0

    def test_single_token_unit_value(self):
        row = featurize("abc")
        assert row.nnz == 1
        assert row.data[0] == 1.0

    def test_counts_normalized(self):
        # "a a b" gives counts (2, 1), normalized by sqrt(5)
        row = featurize("a a b")
        assert row.nnz == 2
        assert sorted(row.data) == pytest.approx(
            [1 / np.sqrt(5), 2 / np.sqrt(5)], abs=1e-15
        )

    def test_nonzero_rows_have_unit_norm(self):
        batch = featurize_texts(["one two three two", "four", "five five"])
        dense = batch.toarray()
        for row in dense:
            assert np.sqrt((row * row).sum()) == pytest.approx(1.0, abs=1e-12)

    def test_collisions_merge_counts(self):
        # with one bucket every token lands together
        row = featurize("a b c", hash_dim=1)
        assert row.nnz == 1
        assert row.data[0] == 1.0

    def test_batch_rows_equal_single_rows(self):
        texts = ["alpha beta", "", "gamma gamma delta"]
        batch = featurize_texts(texts)
        for i, text in enumerate(texts):
            single = featurize(text)
            assert np.array_equal(batch[[i]].toarray(), single.toarray())

    def test_indices_sorted(self):
        row = featurize("one two three four five six")
        assert list(row.indices) == sorted(row.indices)

    def test_rows_equal_rows_hashed_token_by_token(self):
        # featurize_texts hashes each distinct token of a call once and
        # counts buckets over arrays; every row must still be the one
        # hash_token gives token by token
        texts = ["alpha beta alpha", "beta gamma", "", "gamma gamma delta alpha", "beta"]
        batch = featurize_texts(texts, hash_dim=64)
        for i, text in enumerate(texts):
            counts = {}
            for token in tokenize(text):
                bucket = hash_token(token, 64)
                counts[bucket] = counts.get(bucket, 0.0) + 1.0
            indices = sorted(counts)
            values = np.array([counts[j] for j in indices])
            if values.size:
                values /= np.sqrt((values * values).sum())
            row = batch[[i]]
            assert row.indices.tolist() == indices
            assert np.array_equal(row.data, values)

    def test_bad_hash_dim_rejected(self):
        with pytest.raises(ValueError):
            featurize("a", hash_dim=0)


def featurize_texts_by_row(texts, hash_dim):
    """featurize_texts as a per-row loop: count buckets in a dict, sort them,
    divide by the root of the summed squares."""
    indptr, indices, data = [0], [], []
    for text in texts:
        counts = {}
        for token in tokenize(text):
            bucket = hash_token(token, hash_dim)
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
        row_indices = sorted(counts)
        row_values = np.array([counts[i] for i in row_indices], dtype=np.float64)
        if row_values.size:
            row_values /= np.sqrt((row_values * row_values).sum())
        indices.extend(row_indices)
        data.extend(row_values.tolist())
        indptr.append(len(indices))
    return sparse.csr_array(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(texts), hash_dim),
    )


WORDS = ["alpha", "beta", "gamma", "p53", "Σίγμα", "x", "ΟΔΟΣ", "dosr"]
TEXTS = st.one_of(
    st.just(""),
    st.text(alphabet=" .,;-_!?", max_size=12),  # no token at all
    st.lists(st.sampled_from(WORDS), max_size=40).map(" ".join),  # repeats and collisions
    st.text(max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(TEXTS, max_size=12), st.sampled_from([1, 7, 64, 16384]))
def test_featurize_texts_equals_per_row_loop_bitwise(texts, hash_dim):
    batch = featurize_texts(texts, hash_dim)
    expected = featurize_texts_by_row(texts, hash_dim)
    assert batch.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(batch, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


class TestOneTokenPath:
    """BM25 and the encoder read one token stream, ``bm25.token_ids``."""

    def test_both_builds_call_token_ids(self, monkeypatch):
        calls, token_ids = [], bm25.token_ids

        def counting(texts):
            texts = list(texts)
            calls.append(texts)
            return token_ids(texts)

        monkeypatch.setattr(bm25, "token_ids", counting)
        monkeypatch.setattr(encoder, "token_ids", counting)
        build_index(store_of("a b", "b c"))
        featurize_texts(["c d", "e"], 64)
        assert calls == [["a b", "b c"], ["c d", "e"]]

    def test_each_distinct_token_hashed_once_per_call(self, monkeypatch):
        hashed = []

        def counting(token, hash_dim):
            hashed.append(token)
            return hash_token(token, hash_dim)

        monkeypatch.setattr(encoder, "hash_token", counting)
        texts = ["b a b", "", "a c a", "C; B"]
        featurize_texts(texts, 64)
        assert sorted(hashed) == ["a", "b", "c"]
        featurize_texts(texts, 64)  # a new call hashes again
        assert sorted(hashed) == ["a", "a", "b", "b", "c", "c"]


class TestInitModel:
    def test_shapes_and_bounds(self):
        model = init_model(d=16, hash_dim=64, seed=1)
        bound = 1 / np.sqrt(64)
        for w in (model.w_q, model.w_p):
            assert w.shape == (16, 64)
            assert np.abs(w).max() <= bound

    def test_same_seed_identical(self):
        a = init_model(d=8, hash_dim=32, seed=7)
        b = init_model(d=8, hash_dim=32, seed=7)
        assert np.array_equal(a.w_q, b.w_q)
        assert np.array_equal(a.w_p, b.w_p)

    def test_different_seeds_differ(self):
        a = init_model(d=8, hash_dim=32, seed=1)
        b = init_model(d=8, hash_dim=32, seed=2)
        assert not np.array_equal(a.w_q, b.w_q)

    def test_towers_differ(self):
        model = init_model(d=8, hash_dim=32, seed=0)
        assert not np.array_equal(model.w_q, model.w_p)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_model(d=0)
        with pytest.raises(ValueError):
            init_model(hash_dim=0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionError):
            EncoderModel(d=4, hash_dim=8, w_q=np.zeros((4, 8)), w_p=np.zeros((8, 4)))

    def test_draws_question_tower_first_in_row_major_order(self):
        model = init_model(d=8, hash_dim=32, seed=4)
        rng = np.random.default_rng(4)
        bound = 1 / np.sqrt(32)
        assert np.array_equal(model.w_q, rng.uniform(-bound, bound, size=(8, 32)).astype(np.float32))
        assert np.array_equal(model.w_p, rng.uniform(-bound, bound, size=(8, 32)).astype(np.float32))

    @pytest.mark.parametrize("d", [1, encoder.BLOCK_ROWS - 1, encoder.BLOCK_ROWS + 5, 3 * encoder.BLOCK_ROWS + 1])
    def test_equals_one_draw_per_tower(self, d):
        # the towers are drawn BLOCK_ROWS rows at a time; d is no multiple of that
        model = init_model(d=d, hash_dim=48, seed=11)
        rng = np.random.default_rng(11)
        bound = 1 / np.sqrt(48)
        for w in (model.w_q, model.w_p):
            oracle = rng.uniform(-bound, bound, size=(d, 48)).astype(np.float32)
            assert w.dtype == np.float32
            assert w.tobytes(order="C") == oracle.tobytes()

    def test_scratch_is_one_block_of_rows(self):
        # float32 towers, drawn one float64 block of rows at a time
        d, hash_dim = 61, 4096
        model, scratch = scratch_beyond_result(init_model, d, hash_dim, 3)
        assert model.w_q.nbytes == model.w_p.nbytes == d * hash_dim * 4
        assert scratch <= encoder.BLOCK_ROWS * hash_dim * 8 + 16384


class TestTowerDtype:
    """A tower is float64 or float32; no other dtype reaches the projections."""

    @pytest.mark.parametrize("dtype", [np.float16, np.longdouble, np.int64, np.complex128, np.bool_])
    @pytest.mark.parametrize("tower", ["w_q", "w_p"])
    def test_other_dtypes_rejected(self, dtype, tower):
        towers = {"w_q": np.zeros((2, 3)), "w_p": np.zeros((2, 3))}
        towers[tower] = np.zeros((2, 3), dtype)
        with pytest.raises(DimensionError, match=f"{tower} has dtype"):
            EncoderModel(d=2, hash_dim=3, **towers)


class TestTowerLayout:
    """Towers are (d, hash_dim) Fortran-ordered, so w.T is C-contiguous."""

    def test_init_model(self):
        model = init_model(d=8, hash_dim=32, seed=0)
        assert model.w_q.T.flags.c_contiguous and model.w_p.T.flags.c_contiguous

    def test_load_model(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init_model(d=8, hash_dim=32, seed=0), path)
        model = load_model(path)
        assert model.w_q.T.flags.c_contiguous and model.w_p.T.flags.c_contiguous

    def test_construction_converts_c_order(self):
        w = np.arange(32.0).reshape(4, 8)
        model = EncoderModel(d=4, hash_dim=8, w_q=w, w_p=w.copy())
        assert model.w_q.T.flags.c_contiguous and model.w_p.T.flags.c_contiguous
        assert np.array_equal(model.w_q, w)

    def test_assigned_c_order_tower_encodes_identically(self):
        model = init_model(d=16, hash_dim=128, seed=5)
        texts = ["alpha beta gamma", "delta alpha", ""]
        expected = encode_questions(model, texts)
        model.w_q = np.ascontiguousarray(model.w_q)
        assert not model.w_q.T.flags.c_contiguous
        assert np.array_equal(encode_questions(model, texts), expected)


def distinct_bucket_tokens(n, hash_dim):
    """First n single tokens with pairwise-distinct buckets."""
    picked = {}
    i = 0
    while len(picked) < n:
        token = f"tok{i}"
        bucket = hash_token(token, hash_dim)
        if bucket not in picked.values():
            picked[token] = bucket
        i += 1
    return picked


class TestEncode:
    def test_empty_text_encodes_to_zero(self):
        model = init_model(d=8, hash_dim=32, seed=0)
        assert np.array_equal(encode_question(model, ""), np.zeros(8))
        assert np.array_equal(encode_passages(model, [""])[0], np.zeros(8))

    def test_identity_weights_reproduce_features(self):
        # with W = I the embedding is the feature vector itself
        tokens = distinct_bucket_tokens(3, 8)
        eye = np.eye(8)
        model = EncoderModel(d=8, hash_dim=8, w_q=eye, w_p=eye.copy())
        text = " ".join(tokens)
        emb = encode_question(model, text)
        features = featurize(text, hash_dim=8).toarray()[0]
        assert np.array_equal(emb, features)

    def test_towers_are_independent(self):
        model = init_model(d=8, hash_dim=32, seed=0)
        q = encode_question(model, "shared text")
        p = encode_passages(model, ["shared text"])[0]
        assert not np.array_equal(q, p)

    def test_batch_rows_equal_single(self):
        model = init_model(d=16, hash_dim=128, seed=3)
        texts = ["alpha beta gamma", "delta", "epsilon zeta eta theta"]
        q_batch = encode_questions(model, texts)
        p_batch = encode_passages(model, texts)
        for i, text in enumerate(texts):
            assert np.array_equal(q_batch[i], encode_question(model, text))
            assert np.array_equal(p_batch[i], encode_passages(model, [text])[0])

    def test_deterministic(self):
        model = init_model(d=16, hash_dim=128, seed=3)
        a = encode_question(model, "alpha beta")
        b = encode_question(model, "alpha beta")
        assert np.array_equal(a, b)


class TestPersistence:
    def test_round_trip_is_float32_quantization(self, tmp_path):
        model = init_model(d=8, hash_dim=32, seed=9)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.d == 8 and loaded.hash_dim == 32
        for w, saved in ((loaded.w_q, model.w_q), (loaded.w_p, model.w_p)):
            assert w.dtype == np.float32
            assert w.tobytes(order="C") == saved.astype(np.float32).tobytes(order="C")

    def test_second_save_is_byte_identical(self, tmp_path):
        # the loaded towers are the file's float32 values, so resaving changes nothing
        model = init_model(d=8, hash_dim=32, seed=9)
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_c_ordered_tower_saves_the_same_bytes(self, tmp_path):
        # a C-ordered tower assigned after construction is converted on save
        model = init_model(d=8, hash_dim=32, seed=9)
        save_model(model, tmp_path / "a.bin")
        model.w_q = np.ascontiguousarray(model.w_q)
        save_model(model, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        loaded = load_model(tmp_path / "b.bin")
        for w, saved in ((loaded.w_q, model.w_q), (loaded.w_p, model.w_p)):
            assert w.dtype == np.float32 and w.flags.f_contiguous and w.flags.writeable
            assert w.tobytes(order="C") == saved.tobytes(order="C")

    def test_body_is_row_major_towers(self, tmp_path):
        # version 3: each tower as w.T, one row of d floats per hash bucket, whatever its memory order
        model = init_model(d=8, hash_dim=32, seed=9)
        path = tmp_path / "model.bin"
        save_model(model, path)
        expected = b"".join(
            np.array(w.T.tolist(), dtype="<f4").tobytes() for w in (model.w_q, model.w_p)
        )
        raw = path.read_bytes()
        assert raw[:16] == b"DPRM" + struct.pack("<III", 3, 8, 32)
        assert raw[16:-4] == expected
        assert raw[-4:] == struct.pack("<I", zlib.crc32(raw[:-4]))

    def test_save_copies_no_rows_of_float32_towers(self, tmp_path):
        # float32 Fortran-ordered towers are written as they are, well under
        # one block of BLOCK_ROWS rows (131072 bytes here)
        d, hash_dim = 61, 4096
        model = init_model(d=d, hash_dim=hash_dim, seed=3)
        _, scratch = scratch_beyond_result(save_model, model, tmp_path / "model.bin")
        assert scratch <= 16384

    def test_load_scratch_is_the_crc_chunk(self, tmp_path):
        # beside the float32 towers it returns, loading holds at most the
        # reader's CRC chunk, never the file's bytes or a block of rows
        d, hash_dim = 61, 4096
        path = tmp_path / "model.bin"
        save_model(init_model(d=d, hash_dim=hash_dim, seed=3), path)
        model, scratch = scratch_beyond_result(load_model, path)
        assert model.w_q.nbytes == model.w_p.nbytes == d * hash_dim * 4
        assert scratch <= binfile.CRC_CHUNK

    def test_loaded_weights_writeable(self, tmp_path):
        model = init_model(d=4, hash_dim=16, seed=0)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.w_q.flags.writeable
        loaded.w_q[0, 0] = 1.0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        model = init_model(d=4, hash_dim=16, seed=0)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="magic"):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        model = init_model(d=4, hash_dim=16, seed=0)
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ParseError):
            load_model(path)

    def test_bit_flip_detected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init_model(d=4, hash_dim=16, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="checksum"):
            load_model(path)

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"DPRM\x01")
        with pytest.raises(ParseError):
            load_model(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        model = init_model(d=4, hash_dim=16, seed=0)
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersion):
            load_model(path)

    def test_encodings_survive_round_trip(self, tmp_path):
        model = init_model(d=16, hash_dim=256, seed=2)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        quantized = EncoderModel(
            d=16,
            hash_dim=256,
            w_q=model.w_q.astype(np.float32).astype(np.float64),
            w_p=model.w_p.astype(np.float32).astype(np.float64),
        )
        text = "token stream for parity"
        assert np.array_equal(
            encode_question(loaded, text), encode_question(quantized, text)
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(TEXTS, max_size=8),
    st.integers(1, 12) | st.just(2 * encoder.PROJECT_COLUMNS + 3),
    st.sampled_from([1, 7, 64, 1024]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-42, 1e-30, 1.0, 1e30]),
)
def test_loaded_model_encodes_as_its_float64_widening_bitwise(tmp_path_factory, texts, d, hash_dim, seed, scale):
    rng = np.random.default_rng(seed)
    towers = [rng.standard_normal((d, hash_dim)) * scale for _ in range(2)]
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(EncoderModel(d=d, hash_dim=hash_dim, w_q=towers[0], w_p=towers[1]), path)
    loaded = load_model(path)
    features = featurize_texts(texts, hash_dim)
    for encode, w in ((encode_questions, loaded.w_q), (encode_passages, loaded.w_p)):
        # the reference is the dense product of the whole widened tower
        got, want = encode(loaded, texts), features @ w.T.astype(np.float64)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape == (len(texts), d)
        assert got.tobytes() == want.tobytes()
