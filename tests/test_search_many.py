"""Properties of the shortlist-and-rescore kernel against the naive scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskdpr import flat_index
from deskdpr.encoder import init_model
from deskdpr.errors import DimensionError
from deskdpr.flat_index import FlatIndex, build_index, search, search_many, search_naive

from helpers import store_of


def hits(result):
    """(id, score bits, rank) of every hit."""
    return [(h.passage_id, h.score.hex(), h.rank) for h in result]


def make_index(vectors):
    vectors = np.asarray(vectors, dtype=np.float32)
    return FlatIndex(d=vectors.shape[1], ids=[f"p{i}" for i in range(len(vectors))], vectors=vectors)


def assert_matches_naive(index, queries, k, block_rows=4096):
    got = search_many(index, queries, k, block_rows)
    assert len(got) == len(queries)
    for q, result in zip(queries, got):
        with np.errstate(over="ignore", invalid="ignore"):
            want = search_naive(index, q, k)
        assert hits(result) == hits(want)


@st.composite
def random_case(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 80))
    d = draw(st.integers(1, 24))
    k = draw(st.integers(1, m + 10))
    n = draw(st.integers(1, 4))
    duplicates = draw(st.integers(0, m // 2))
    block_rows = draw(st.sampled_from([1, 3, 7, 32, 4096]))
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((m, d)).astype(np.float32)
    # duplicated rows force exact score ties
    for i in range(duplicates):
        vectors[m - 1 - i] = vectors[i]
    queries = rng.standard_normal((n, d))
    return make_index(vectors), queries, k, block_rows


def nudged_rows(seed, d, variants=64, fillers=64):
    """Copies of one row, each with one entry moved 1-3 float32 ulps, plus
    lower-scoring filler rows; the query is random."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(d).astype(np.float32)
    rows = np.repeat(base[None], variants, axis=0)
    for row in rows:
        j = rng.integers(d)
        toward = np.float32(np.inf if rng.random() < 0.5 else -np.inf)
        for _ in range(rng.integers(1, 4)):
            row[j] = np.nextafter(row[j], toward)
    q = rng.standard_normal(d)
    filler = rng.standard_normal((fillers, d)).astype(np.float32) * np.float32(0.01)
    vectors = np.vstack([filler, rows])[rng.permutation(variants + fillers)]
    return make_index(vectors), q


class TestMatchesNaive:
    @settings(max_examples=150, deadline=None)
    @given(random_case())
    def test_random_indexes(self, case):
        index, queries, k, block_rows = case
        assert_matches_naive(index, queries, k, block_rows)

    @settings(max_examples=50, deadline=None)
    @given(random_case())
    def test_batch_row_equals_single_search(self, case):
        index, queries, k, block_rows = case
        batch = search_many(index, queries, k, block_rows)
        for q, result in zip(queries, batch):
            assert hits(result) == hits(search(index, q, k, block_rows))

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 16),
        scale=st.integers(-60, 60),
        k=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scores_one_ulp_apart_that_float32_ties(self, d, scale, k, seed):
        """Row j scores c + j ulps exactly; in float32 every row ties."""
        rng = np.random.default_rng(seed)
        c = 2.0**scale
        q = np.full(d, c)
        for j in range(1, d):
            q[j] = np.nextafter(q[j - 1], np.inf)
        order = rng.permutation(d)
        vectors = np.eye(d, dtype=np.float32)[order]
        index = make_index(vectors)
        approx = vectors @ q.astype(np.float32)
        assert np.all(approx == approx[0])  # float32 sees one big tie
        assert_matches_naive(index, q[None, :], k)
        # the largest component wins, whatever its row's ordinal
        best = search(index, q, 1).ids()[0]
        assert best == f"p{int(np.flatnonzero(order == d - 1)[0])}"

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 48), k=st.integers(1, 12))
    def test_rows_nudged_by_float32_ulps(self, seed, d, k):
        """Near-tied rows whose float32 scores are out of exact order."""
        index, q = nudged_rows(seed, d)
        assert_matches_naive(index, q[None, :], k, block_rows=16)

    def test_nudged_rows_flip_the_float32_order(self):
        flipped = 0
        for seed in range(10):
            index, q = nudged_rows(seed, 32)
            exact = (index.vectors * q).sum(axis=1)
            approx = index.vectors @ q.astype(np.float32)
            flipped += bool(np.any((approx[:, None] > approx[None, :]) & (exact[:, None] < exact[None, :])))
        assert flipped >= 3

    @pytest.mark.parametrize("magnitudes", [(1e-30, 1e30), (1e-30, 1e39), (1e30, 1e39)])
    def test_mixed_magnitudes_take_the_full_rescore(self, magnitudes):
        rng = np.random.default_rng(17)
        vectors = (rng.standard_normal((300, 16)) * 10.0 ** rng.integers(-5, 10, size=(300, 1))).astype(np.float32)
        queries = rng.choice(magnitudes, size=(6, 16)) * rng.choice([-1.0, 1.0], size=(6, 16))
        with np.errstate(over="ignore", invalid="ignore"):
            approx = queries.astype(np.float32) @ vectors.T
        assert not np.isfinite(approx).all()  # the fallback really runs
        assert_matches_naive(make_index(vectors), queries, 10, block_rows=64)

    @pytest.mark.parametrize(
        "row_scale, query_scale", [(1e-44, 0.1), (1e-42, 1e-3), (1e-40, 1.0), (1e-38, 1e-30), (1e-38, 1e30)]
    )
    def test_subnormal_rows_and_underflowing_products(self, row_scale, query_scale):
        rng = np.random.default_rng(0)
        vectors = (rng.standard_normal((200, 16)) * row_scale).astype(np.float32)
        queries = rng.standard_normal((5, 16)) * query_scale
        assert_matches_naive(make_index(vectors), queries, 10, block_rows=32)

    def test_non_finite_rows_and_queries(self):
        rng = np.random.default_rng(18)
        vectors = rng.standard_normal((50, 8)).astype(np.float32)
        for row, col, bad in ((7, 3, np.nan), (21, 0, np.inf), (30, 5, -np.inf)):
            broken = vectors.copy()
            broken[row, col] = bad
            with pytest.raises(ValueError, match=f"row {row} "):
                make_index(broken)
        queries = rng.standard_normal((4, 8))
        queries[1, 2] = np.nan
        queries[2, 0] = np.inf
        assert_matches_naive(make_index(vectors), queries, 12, block_rows=16)

    def test_zero_query_keeps_ordinal_order(self):
        rng = np.random.default_rng(19)
        index = make_index(rng.standard_normal((40, 8)))
        result = search_many(index, np.zeros((1, 8)), 5)[0]
        assert result.ids() == ["p0", "p1", "p2", "p3", "p4"]
        assert_matches_naive(index, np.zeros((1, 8)), 5)


class TestShortlist:
    def test_rescores_few_rows(self, monkeypatch):
        sizes = []
        ranked = flat_index._ranked

        def counting(index, rows, *args):
            sizes.append(len(rows))
            return ranked(index, rows, *args)

        monkeypatch.setattr(flat_index, "_ranked", counting)
        rng = np.random.default_rng(21)
        index = make_index(rng.standard_normal((5000, 32)))
        search_many(index, rng.standard_normal((20, 32)), 10)
        assert len(sizes) == 20
        assert max(sizes) <= 20

    def test_empty_index(self):
        index = FlatIndex(d=4, ids=[], vectors=np.zeros((0, 4), dtype=np.float32))
        assert [r.ids() for r in search_many(index, np.ones((2, 4)), 3)] == [[], []]


class TestRows:
    def test_edits_between_searches_are_seen(self):
        rng = np.random.default_rng(22)
        index = make_index(rng.standard_normal((200, 8)))
        q = rng.standard_normal(8)
        search(index, q, 5)
        index.vectors[150] = (1e6 * q).astype(np.float32)
        assert search(index, q, 5).ids()[0] == "p150"
        assert_matches_naive(index, q[None, :], 5)

    def test_edit_while_briefly_writeable_is_seen(self):
        model = init_model(d=8, hash_dim=64, seed=0)
        index = build_index(model, store_of(*[f"alpha beta {i}" for i in range(30)]))
        index.vectors.flags.writeable = False
        q = np.ones(8)
        search(index, q, 3)
        index.vectors.flags.writeable = True
        index.vectors[17] = np.float32(1e4)
        index.vectors.flags.writeable = False
        assert search(index, q, 3).ids()[0] == index.ids[17]
        assert_matches_naive(index, q[None, :], 3)


class TestValidation:
    def test_queries_must_be_a_matrix(self):
        index = make_index(np.ones((3, 4)))
        with pytest.raises(DimensionError):
            search_many(index, np.ones(4), 1)
        with pytest.raises(DimensionError):
            search_many(index, np.ones((2, 5)), 1)

    def test_bad_k_and_block_rows(self):
        index = make_index(np.ones((3, 4)))
        with pytest.raises(ValueError):
            search_many(index, np.ones((1, 4)), 0)
        with pytest.raises(ValueError):
            search_many(index, np.ones((1, 4)), 1, block_rows=0)
