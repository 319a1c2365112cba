import gc
import math
import random
import re
import struct
import sys
import tempfile
import tracemalloc
import warnings
import zlib
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskdpr import bm25
from deskdpr.bm25 import (
    bm25_score,
    bm25_top_k,
    build_index,
    load_bm25_index,
    mine_hard_negatives,
    save_bm25_index,
    token_ids,
    tokenize,
)
from deskdpr.corpus import render_encoder_input
from deskdpr.errors import EmptyCorpus, ParseError, UnsupportedVersion

from helpers import (
    aligned_positive,
    factoid,
    passage,
    random_text,
    rewrite_payload,
    set_bm25_ints,
    store_of,
    traced,
    yesno,
)

LN2 = 0.6931471805599453


def postings(index):
    """Every token's posting list, as a dict of (ordinal, tf) lists."""
    return {token: index.posting_list(token) for token in index.token_ids}


def all_terms(index):
    """Every posting's BM25 term, token after token in id order."""
    return np.concatenate([np.empty(0), *(index.terms(token)[1] for token in index.token_ids)])


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("DosR regulon, controlled") == ["dosr", "regulon", "controlled"]

    def test_hyphen_splits(self):
        assert tokenize("RNA-polymerase II") == ["rna", "polymerase", "ii"]

    def test_underscore_splits(self):
        assert tokenize("gene_name variant") == ["gene", "name", "variant"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_kept(self):
        assert tokenize("p53 binds 3 sites") == ["p53", "binds", "3", "sites"]


# The oracle: Unicode alphanumeric runs of the lowered text, found by a regex.
_ALNUM_RUNS = re.compile(r"[^\W_]+")


def regex_tokenize(text):
    return _ALNUM_RUNS.findall(text.lower())


class TestTokenizeEqualsRegex:
    """``tokenize`` keeps exactly what the regex ``[^\\W_]+`` keeps."""

    def test_every_code_point_classed_alike(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(re.findall(r"[^\W_]", every)) == "".join(c for c in every if c.isalnum())
        assert [c for c in every if c.isalnum() and c.isspace()] == []

    @settings(max_examples=500, deadline=None)
    @given(st.text())
    def test_any_text(self, text):
        assert tokenize(text) == regex_tokenize(text)

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("ΟΔΟΣ [SEP] ΣΑΣ", ["οδος", "sep", "σας"]),  # final sigma before a separator
            ("İstanbul", ["i", "stanbul"]),  # lowers to i + U+0307, a combining mark
            ("Straße", ["straße"]),
            ("ﬁne", ["ﬁne"]),
            ("１２３ｘ", ["１２３ｘ"]),  # fullwidth digits and letter
            ("Ⅻ legion", ["ⅻ", "legion"]),
            ("a\u00a0b", ["a", "b"]),  # no-break space
            ("gene_name", ["gene", "name"]),
        ],
    )
    def test_named_cases(self, text, tokens):
        assert tokenize(text) == tokens == regex_tokenize(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.text())
    def test_encoder_input_is_title_sep_text(self, title, text):
        p = passage(text, title=title)
        assert tokenize(render_encoder_input(p)) == tokenize(title) + ["sep"] + tokenize(text)


class TestConstants:
    def test_k1_and_b_are_the_okapi_reference_values(self):
        assert (bm25.K1, bm25.B) == (1.2, 0.75)


class TestBuildIndex:
    def test_postings_and_lengths(self):
        index = build_index(store_of("a b", "b c"))
        assert postings(index) == {"a": [(0, 1)], "b": [(0, 1), (1, 1)], "c": [(1, 1)]}
        assert index.doc_lengths == [2, 2]
        assert index.avg_doc_length == 2.0
        assert index.passage_ids == ["d0#0", "d1#0"]

    def test_repeated_token_counted(self):
        index = build_index(store_of("x x x"))
        assert index.term_frequency("x", 0) == 3

    def test_title_not_indexed(self):
        # doc length and matching cover passage text only
        index = build_index(store_of("apple", titles=["zebra"]))
        assert index.doc_lengths == [1]
        assert index.term_frequency("zebra", 0) == 0
        assert len(bm25_top_k(index, "zebra", 5)) == 0

    def test_empty_store_rejected(self):
        with pytest.raises(EmptyCorpus):
            build_index(store_of())

    def test_store_of_no_tokens_builds_and_loads_without_warnings(self, tmp_path):
        # every doc length and the average are 0, so the length normalization is 0/0; no posting gathers it
        path = tmp_path / "bm25.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_bm25_index(build_index(store_of("--", "·")), path)
            index = load_bm25_index(path)
            assert len(bm25_top_k(index, "alpha", 5)) == 0

    def test_idf_is_the_log_formula_bitwise(self):
        # dfs 1, 2 and 3 of 3 passages; math.log, not numpy's, on every one
        index = build_index(store_of("a b c", "b c", "c"))
        for token, df in (("a", 1), ("b", 2), ("c", 3)):
            idf = index.idf(token)
            assert type(idf) is float
            assert idf.hex() == math.log((3 - df + 0.5) / (df + 0.5) + 1.0).hex()

    def test_unseen_token_idf_zero(self):
        index = build_index(store_of("a b"))
        assert index.idf("zzz") == 0.0

    def test_postings_sorted_with_bounded_tf(self):
        rng = random.Random(11)
        texts = [random_text(rng, rng.randrange(1, 40)) for _ in range(50)]
        index = build_index(store_of(*texts))
        for token, plist in postings(index).items():
            ordinals = [o for o, _ in plist]
            assert ordinals == sorted(ordinals)
            for ordinal, tf in plist:
                assert 1 <= tf <= index.doc_lengths[ordinal]

    @pytest.mark.parametrize("n, refused", [(2**31 - 1, False), (2**31, True)])
    def test_passage_count_bounded_by_int32(self, n, refused):
        class Tokenized(Exception):
            pass

        class LengthOnly:
            """A store's length, and nothing to tokenize."""

            def __len__(self):
                return n

            def __iter__(self):
                raise Tokenized

        with pytest.raises(ValueError if refused else Tokenized, match="2147483648 passages" if refused else None):
            build_index(LengthOnly())


# repeats, a word only its case tells apart, non-ASCII letters, and runs that
# tokenize to nothing, so some passages have no tokens at all
BUILD_WORDS = ["alpha", "Alpha", "beta", "\u03b2eta", "\u03a9mega", "\u0130x", "p53", "--", "\u00b7", ""]


BUILD_TEXTS = st.lists(st.lists(st.sampled_from(BUILD_WORDS), max_size=12).map(" ".join), min_size=1, max_size=10)


@settings(max_examples=150, deadline=None)
@given(texts=BUILD_TEXTS)
@example(texts=["alpha " * 255, "beta alpha"]).via("a tf of 255, the most a uint8 tf holds")
@example(texts=["alpha " * 256, "beta alpha"]).via("a passage of 256 tokens: uint16 tfs")
@example(texts=["alpha " * 65535, "beta alpha"]).via("a tf of 65,535, the most a uint16 tf holds")
@example(texts=["alpha " * 65536, "beta alpha"]).via("a passage of 65,536 tokens: uint32 tfs")
def test_build_equals_counter_reference(texts):
    check_against_counter_reference(texts)


@pytest.mark.parametrize("block_postings", [1, 2, 7])
@settings(max_examples=50, deadline=None)
@given(texts=BUILD_TEXTS)
@example(texts=["alpha", ""]).via("an empty passage after a full block")
@example(texts=["alpha beta", ""]).via("a block of empty passages only, at 1 posting a block")
@example(texts=["beta", " ".join(["alpha", "beta", "p53"] * 3), "p53 alpha"]).via("a passage longer than a block")
@example(texts=["", "--", "\u00b7 --"]).via("no passage has a token")
def test_build_equals_counter_reference_in_small_blocks(block_postings, texts):
    with mock.patch.object(bm25, "BLOCK_POSTINGS", block_postings):
        check_against_counter_reference(texts)


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(0, 9), min_size=1, max_size=20), block_postings=st.integers(1, 12))
def test_passage_blocks_cover_the_passages_in_order(lengths, block_postings):
    ends = np.concatenate(([0], np.cumsum(lengths)))
    with mock.patch.object(bm25, "BLOCK_POSTINGS", block_postings):
        blocks = list(bm25._passage_blocks(ends))
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == len(lengths)
    for lo, hi in blocks:
        # at most a block of occurrences, unless one passage holds more
        assert lo < hi and (sum(lengths[lo:hi]) <= block_postings or hi == lo + 1)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6)), max_size=60))
def test_count_keys_equals_counter(dtype, pairs):
    keys = np.array([group << 3 | member for group, member in pairs], dtype=dtype)
    groups, members, counts = bm25.count_keys(keys, 3)
    want = sorted(Counter(pairs).items())
    assert groups.dtype == dtype and members.dtype == counts.dtype == np.int32
    assert list(zip(zip(groups.tolist(), members.tolist()), counts.tolist())) == want


@pytest.mark.parametrize("n_groups, bits, dtype", [(1 << 31, 0, np.int32), (1 << 27, 4, np.int32), (1 << 27 | 1, 4, np.int64)])
def test_key_dtype_holds_the_largest_key(n_groups, bits, dtype):
    assert bm25.key_dtype(n_groups, bits) == dtype


def test_token_ids_leaves_no_reference_cycle():
    """Its token-to-id dict is freed on return, not left to the cyclic collector."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # every object a collection finds unreachable lands in gc.garbage
    try:
        vocabulary, _, _ = token_ids(["alpha beta", "beta gamma"])
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, dict)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert vocabulary == ["alpha", "beta", "gamma"]
    assert leaked == []


def check_against_counter_reference(texts):
    """Build, save and load an index of the texts; check every array against
    Counter's counts, the tfs' dtype against the longest passage, the file
    against a save of int32 tfs, and the top-k scores against bm25_score."""
    _, ids, _ = token_ids(texts)
    assert ids.dtype == np.int32
    index = build_index(store_of(*texts))
    counts = [Counter(tokenize(text)) for text in texts]
    vocabulary = list(dict.fromkeys(token for c in counts for token in c))
    want = [[(ordinal, c[token]) for ordinal, c in enumerate(counts) if token in c] for token in vocabulary]
    assert list(index.token_ids) == vocabulary
    assert index.offsets.tolist() == [sum(map(len, want[:i])) for i in range(len(want) + 1)]
    assert index.ordinals.tolist() == [ordinal for plist in want for ordinal, _ in plist]
    assert index.tfs.tolist() == [tf for plist in want for _, tf in plist]
    assert index.ordinals.dtype == np.int32
    assert index.tfs.dtype == np.min_scalar_type(max(sum(c.values()) for c in counts))
    # a one-token query's score is 0.0 plus the one term, exactly
    terms = [bm25_score(index, [token], ordinal).hex() for token, plist in zip(vocabulary, want) for ordinal, _ in plist]
    assert [c.hex() for c in all_terms(index).tolist()] == terms
    int32_tfs = bm25.InvertedIndex(
        vocabulary, index.offsets, index.ordinals, index.tfs.astype(np.int32), index.doc_lengths, index.passage_ids
    )
    with tempfile.TemporaryDirectory() as tmp:
        save_bm25_index(index, Path(tmp) / "bm25.bin")
        save_bm25_index(int32_tfs, Path(tmp) / "int32.bin")
        assert (Path(tmp) / "bm25.bin").read_bytes() == (Path(tmp) / "int32.bin").read_bytes()
        loaded = load_bm25_index(Path(tmp) / "bm25.bin")
    for name in ("offsets", "ordinals", "tfs"):
        a, b = getattr(index, name), getattr(loaded, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert all_terms(loaded).tobytes() == all_terms(index).tobytes()
    assert loaded.doc_lengths == index.doc_lengths
    for idx in (index, loaded):
        for hit in bm25_top_k(idx, " ".join(vocabulary), len(texts)):
            assert hit.score.hex() == bm25_score(idx, vocabulary, idx.passage_ids.index(hit.passage_id)).hex()


class TestScore:
    def test_two_docs_single_match_is_ln2(self):
        # df=1 of N=2 gives idf ln 2, and a passage at average length
        # with tf=1 has tf part exactly 1
        index = build_index(store_of("apple banana", "cherry durian"))
        assert bm25_score(index, ["apple"], 0) == pytest.approx(LN2, abs=1e-9)

    def test_no_query_token_present_scores_zero(self):
        index = build_index(store_of("apple banana", "cherry durian"))
        assert bm25_score(index, ["apple"], 1) == 0.0

    def test_token_in_every_doc_scores_small_positive(self):
        index = build_index(store_of("common apple", "common banana"))
        score = bm25_score(index, ["common"], 0)
        assert 0.0 < score < LN2

    def test_monotone_in_tf(self):
        index = build_index(store_of("x y y y", "x x y y", "x x x y"))
        s1 = bm25_score(index, ["x"], 0)
        s2 = bm25_score(index, ["x"], 1)
        s3 = bm25_score(index, ["x"], 2)
        assert s1 < s2 < s3

    def test_repeated_query_token_contributes_each_time(self):
        index = build_index(store_of("apple banana", "cherry durian"))
        once = bm25_score(index, ["apple"], 0)
        twice = bm25_score(index, ["apple", "apple"], 0)
        assert twice == pytest.approx(2 * once, abs=1e-12)

    def test_out_of_range_ordinal_rejected(self):
        index = build_index(store_of("apple"))
        with pytest.raises(IndexError):
            bm25_score(index, ["apple"], 1)


class TestTopK:
    def test_ranks_by_score(self):
        index = build_index(store_of("x y z", "x x y", "a b c"))
        result = bm25_top_k(index, "x y", 3)
        assert result.ids() == ["d1#0", "d0#0"]
        assert result.hits[0].rank == 1 and result.hits[1].rank == 2

    def test_zero_score_passages_omitted(self):
        index = build_index(store_of("x", "y"))
        result = bm25_top_k(index, "x", 10)
        assert result.ids() == ["d0#0"]

    def test_no_overlap_returns_empty(self):
        index = build_index(store_of("x", "y"))
        assert len(bm25_top_k(index, "zzz", 10)) == 0

    def test_tie_breaks_toward_lower_ordinal(self):
        index = build_index(store_of("same words", "same words", "same words"))
        result = bm25_top_k(index, "same", 2)
        assert result.ids() == ["d0#0", "d1#0"]

    def test_k_truncates(self):
        index = build_index(store_of("x", "x x", "x x x"))
        assert len(bm25_top_k(index, "x", 2)) == 2

    def test_k_below_one_rejected(self):
        index = build_index(store_of("x"))
        with pytest.raises(ValueError):
            bm25_top_k(index, "x", 0)

    def test_matches_per_passage_scoring_bitwise(self):
        rng = random.Random(23)
        texts = [random_text(rng, rng.randrange(1, 60)) for _ in range(80)]
        index = build_index(store_of(*texts))
        for _ in range(20):
            query = random_text(rng, rng.randrange(1, 6))
            tokens = tokenize(query)
            expected = {}
            for ordinal in range(len(texts)):
                score = bm25_score(index, tokens, ordinal)
                if score > 0.0:
                    expected[index.passage_ids[ordinal]] = score
            result = bm25_top_k(index, query, len(texts))
            assert len(result) == len(expected)
            for hit in result:
                assert hit.score == expected[hit.passage_id]

    def test_irrelevant_passage_absent_from_results(self):
        index = build_index(store_of("x", "x x y y y y", "filler " * 50))
        assert "d2#0" not in bm25_top_k(index, "x", 10).ids()

    def test_growing_corpus_can_flip_relative_order(self):
        # Average length and N shift with every added passage, so even a
        # passage sharing no query token moves existing scores enough to
        # swap neighbours.  Document the behaviour rather than pretend
        # ordering is stable under corpus growth.
        small = build_index(store_of("x", "x x y y y y"))
        before = bm25_top_k(small, "x", 2).ids()
        assert before == ["d0#0", "d1#0"]

        grown = build_index(store_of("x", "x x y y y y", "filler " * 50))
        after = bm25_top_k(grown, "x", 2).ids()
        assert after == ["d1#0", "d0#0"]

    def test_unchanged_index_gives_unchanged_scores(self):
        index = build_index(store_of("x", "x x y y y y"))
        first = [(h.passage_id, h.score) for h in bm25_top_k(index, "x y", 5)]
        second = [(h.passage_id, h.score) for h in bm25_top_k(index, "x y", 5)]
        assert first == second


def okapi_top_k(texts, query, k, k1, b):
    """Okapi BM25 from ``tokenize`` output alone, apart from InvertedIndex:
    df by scanning every passage, idf by math.log, scores summed in query
    order; (id, float.hex(score)) of the top k with score > 0, ties by ordinal."""
    docs = [tokenize(text) for text in texts]
    n = len(docs)
    avg = sum(len(doc) for doc in docs) / n
    scored = []
    for ordinal, doc in enumerate(docs):
        score = 0.0
        for token in tokenize(query):
            tf = doc.count(token)
            if tf:
                df = sum(token in other for other in docs)
                idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
                score += idf * (tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(doc) / avg)))
        if score > 0.0:
            scored.append((ordinal, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [(f"d{ordinal}#0", score.hex()) for ordinal, score in scored[:k]]


WORDS = ["alpha", "beta", "gamma", "delta", "p53"]
texts_strategy = st.lists(
    st.lists(st.sampled_from(WORDS + ["Alpha", "--"]), max_size=10).map(" ".join), min_size=1, max_size=12
)


@settings(max_examples=150, deadline=None)
@given(
    texts=texts_strategy,
    copies=st.integers(0, 3),
    query=st.lists(st.sampled_from(WORDS + ["unknown", "zzz"]), min_size=1, max_size=8).map(" ".join),
    extra_k=st.integers(-11, 3),
)
def test_top_k_equals_okapi_reference_bitwise(texts, copies, query, extra_k):
    # repeated passages tie; the query repeats tokens and holds unknown ones;
    # k runs from below the candidate count to beyond the passage count
    texts = texts + texts[:copies]
    k = max(1, len(texts) + extra_k)
    want = okapi_top_k(texts, query, k, 1.2, 0.75)
    index = build_index(store_of(*texts))
    with tempfile.TemporaryDirectory() as tmp:
        save_bm25_index(index, Path(tmp) / "bm25.bin")
        loaded = load_bm25_index(Path(tmp) / "bm25.bin")
    for idx in (index, loaded):
        got = bm25_top_k(idx, query, k)
        assert [(hit.passage_id, hit.score.hex()) for hit in got] == want
        assert [hit.rank for hit in got] == list(range(1, len(want) + 1))


class TestMining:
    def test_n_zero_mines_nothing(self):
        store = store_of("drug trial", "drug trial result")
        index = build_index(store)
        q = factoid("q1", "drug trial", ["nothing matches this"])
        assert mine_hard_negatives(index, store, q, n=0) == []

    def test_negative_n_rejected(self):
        store = store_of("drug trial")
        index = build_index(store)
        q = factoid("q1", "drug trial", ["nothing matches this"])
        with pytest.raises(ValueError, match="n must be >= 0"):
            mine_hard_negatives(index, store, q, n=-1)

    def test_skips_answer_bearing_top_hit(self):
        store = store_of(
            "mitochondria are the powerhouse organelle",
            "mitochondria research continues",
        )
        index = build_index(store)
        q = factoid("q1", "what are mitochondria", ["powerhouse"])
        top = bm25_top_k(index, q.text, 2)
        assert top.ids()[0] == "d0#0"
        mined = mine_hard_negatives(index, store, q, n=1)
        assert [p.passage_id for p in mined] == ["d1#0"]

    def test_all_candidates_contain_answer(self):
        store = store_of("alpha protein binds", "the alpha complex")
        index = build_index(store)
        q = factoid("q1", "alpha binding", ["alpha"])
        assert mine_hard_negatives(index, store, q, n=1) == []
        assert mine_hard_negatives(index, store, q, n=3) == []

    def test_match_is_case_insensitive(self):
        store = store_of("the ALPHA protein binds")
        index = build_index(store)
        q = factoid("q1", "alpha protein", ["Alpha"])
        assert mine_hard_negatives(index, store, q, n=1) == []

    def test_yesno_excludes_by_snippet_not_answer(self):
        store = store_of(
            "statins reduce cholesterol markedly",
            "statins are widely prescribed",
        )
        index = build_index(store)
        q = yesno("q1", "do statins reduce cholesterol", "yes",
                  snippets=["statins reduce cholesterol"])
        mined = mine_hard_negatives(index, store, q, n=1)
        assert [p.passage_id for p in mined] == ["d1#0"]

    def test_exclude_ids_skips_known_positive(self):
        store = store_of("query term here", "query term there")
        index = build_index(store)
        q = factoid("q1", "query term", ["unmatched answer"])
        mined = mine_hard_negatives(index, store, q, n=1, exclude_ids=("d0#0",))
        assert [p.passage_id for p in mined] == ["d1#0"]

    def test_returns_up_to_n_in_rank_order(self):
        store = store_of("drug trial", "drug trial result", "drug dose", "unrelated")
        index = build_index(store)
        q = factoid("q1", "drug trial", ["nothing matches this"])
        mined = mine_hard_negatives(index, store, q, n=2)
        # both query tokens match d0 and d1; length normalization puts
        # the shorter passage first
        assert [p.passage_id for p in mined] == ["d0#0", "d1#0"]

    def test_whitespace_variant_of_snippet_is_not_mined(self):
        # alignment finds the snippet "alpha  beta" in d0 with whitespace
        # collapsed; mining must apply the same rule and reject d1
        store = store_of("alpha beta", "gamma alpha beta delta zeta", "beta blockers only")
        index = build_index(store)
        q = yesno("q1", "does alpha beta bind", "yes", snippets=["alpha  beta"])
        positive = aligned_positive(q, store)
        assert positive is not None and positive.passage_id == "d0#0"
        mined = mine_hard_negatives(index, store, q, n=3, exclude_ids=(positive.passage_id,))
        assert [p.passage_id for p in mined] == ["d2#0"]

    def test_mined_never_contains_exclusion_strings(self):
        rng = random.Random(7)
        texts = []
        for i in range(60):
            text = random_text(rng, rng.randrange(5, 30))
            if i % 4 == 0:
                text += f" answer{i // 4}marker"
            texts.append(text)
        store = store_of(*texts)
        index = build_index(store)
        for qi in range(15):
            q = factoid(f"q{qi}", random_text(rng, 4), [f"answer{qi}marker"])
            for p in mine_hard_negatives(index, store, q, n=5):
                assert f"answer{qi}marker" not in p.text.lower()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = random.Random(31)
        texts = [random_text(rng, rng.randrange(1, 30)) for _ in range(25)]
        index = build_index(store_of(*texts))
        path = tmp_path / "bm25.bin"
        save_bm25_index(index, path)
        loaded = load_bm25_index(path)
        assert loaded.token_ids == index.token_ids
        assert postings(loaded) == postings(index)
        assert loaded.doc_lengths == index.doc_lengths
        assert loaded.passage_ids == index.passage_ids
        assert all_terms(loaded).tobytes() == all_terms(index).tobytes()
        query = texts[0].split()[:3]
        for ordinal in range(len(texts)):
            assert bm25_score(loaded, query, ordinal) == bm25_score(index, query, ordinal)

    def test_file_is_the_documented_layout(self, tmp_path):
        # tokens in id order (first seen), then passage ids, then int64 and int32 arrays
        index = build_index(store_of("b a b", "a c"))
        path = tmp_path / "bm25.bin"
        save_bm25_index(index, path)
        payload = b"".join([
            struct.pack("<4sIQQQ", b"BM25", 4, 2, 3, 4),
            *(struct.pack("<I", len(s)) + s.encode() for s in ("b", "a", "c", "d0#0", "d1#0")),
            struct.pack("<2q", 3, 2),  # doc lengths
            struct.pack("<4q", 0, 1, 3, 4),  # offsets
            struct.pack("<4i", 0, 0, 1, 1),  # ordinals
            struct.pack("<4i", 2, 1, 1, 1),  # tfs
        ])
        assert path.read_bytes() == payload + struct.pack("<I", zlib.crc32(payload))

    def test_not_an_index_file(self, tmp_path):
        path = tmp_path / "bm25.bin"
        save_bm25_index(build_index(store_of("a b")), path)
        rewrite_payload(path, lambda payload: payload.__setitem__(slice(0, 4), b"DRIX"))
        with pytest.raises(ParseError, match="magic"):
            load_bm25_index(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bm25.bin"
        save_bm25_index(build_index(store_of("a b")), path)
        rewrite_payload(path, lambda payload: struct.pack_into("<I", payload, 4, 99))
        with pytest.raises(UnsupportedVersion):
            load_bm25_index(path)

    def test_header_of_2_31_passages_refused_before_allocating(self, tmp_path):
        path = tmp_path / "bm25.bin"
        save_bm25_index(build_index(store_of("a b", "b c")), path)
        rewrite_payload(path, lambda payload: struct.pack_into("<Q", payload, 8, 2**31))  # n_passages
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=r"^\S+: 2147483648 passages: a BM25 index holds fewer than 2\^31$"):
                load_bm25_index(path)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 2**16

    def test_truncated_postings_detected(self, tmp_path):
        path = tmp_path / "bm25.bin"
        save_bm25_index(build_index(store_of("a b c d")), path)
        rewrite_payload(path, lambda payload: payload.__delitem__(slice(-4, None)))  # the last tf
        with pytest.raises(ParseError, match="truncated tfs"):
            load_bm25_index(path)

    def test_malformed_posting_named_by_its_token(self, tmp_path):
        path = tmp_path / "bm25.bin"
        save_bm25_index(build_index(store_of("a b", "b c")), path)
        # b's posting list is ordinals 1 and 2 of [a: 0 | b: 0, 1 | c: 1]
        rewrite_payload(path, lambda payload: set_bm25_ints(payload, "ordinals", 2, [2]))
        with pytest.raises(ParseError, match=r"^\S+: token 'b': posting \[2, 1\]: ordinals must rise strictly within \[0, 2\)"):
            load_bm25_index(path)

    def test_doc_length_must_be_its_tfs_sum(self, tmp_path):
        path = tmp_path / "bm25.bin"
        save_bm25_index(build_index(store_of("a b", "b c c")), path)
        rewrite_payload(path, lambda payload: set_bm25_ints(payload, "doc_lengths", 1, [4]))
        with pytest.raises(ParseError, match=r"^\S+: passage 'd1#0': doc length 4, but its postings' tfs sum to 3$"):
            load_bm25_index(path)

    def test_tf_past_a_uint16_index_refused_with_the_files_sum(self, tmp_path):
        # a's tf of 300 in passage 0, the first posting, made 65,536: a uint16 tf would wrap to 0
        path = tmp_path / "bm25.bin"
        index = build_index(store_of("a " * 300 + "b", "b c"))
        assert index.tfs.dtype == np.uint16 and index.posting_list("a") == [(0, 300)]
        save_bm25_index(index, path)
        rewrite_payload(path, lambda payload: set_bm25_ints(payload, "tfs", 0, [65536]))
        with pytest.raises(ParseError, match=r"^\S+: passage 'd0#0': doc length 301, but its postings' tfs sum to 65537$"):
            load_bm25_index(path)

    def test_idf_identical_after_reload(self, tmp_path):
        index = build_index(store_of("a b", "b c", "c d"))
        path = tmp_path / "bm25.bin"
        save_bm25_index(index, path)
        loaded = load_bm25_index(path)
        for token in index.token_ids:
            assert loaded.idf(token) == index.idf(token)


class TestBlocks:
    """The build and the load work through the postings in blocks of
    ``BLOCK_POSTINGS``; no block size may change a bit."""

    @pytest.mark.parametrize("block_postings", [1, 2, 7])
    def test_small_blocks_change_nothing_through_a_round_trip(self, tmp_path, block_postings):
        rng = random.Random(37)
        texts = [random_text(rng, rng.randrange(0, 30)) for _ in range(40)]
        queries = [random_text(rng, 4) for _ in range(10)]
        whole = build_index(store_of(*texts))
        with mock.patch.object(bm25, "BLOCK_POSTINGS", block_postings):
            built = build_index(store_of(*texts))
            save_bm25_index(built, tmp_path / "bm25.bin")
            loaded = load_bm25_index(tmp_path / "bm25.bin")
        for index in (built, loaded):
            for name in ("offsets", "ordinals", "tfs"):
                assert getattr(index, name).tobytes() == getattr(whole, name).tobytes(), name
            assert all_terms(index).tobytes() == all_terms(whole).tobytes()
            for query in queries:
                got = [(h.passage_id, h.score.hex()) for h in bm25_top_k(index, query, 10)]
                assert got == [(h.passage_id, h.score.hex()) for h in bm25_top_k(whole, query, 10)]

    # a run of 5000 of one token beside passages of one or two: doc lengths far from the average
    EXTREME_TEXTS = ("a b", "c", "e f", "g " * 5000 + "h", "y z z")

    @pytest.mark.parametrize("block_postings", [1, 2, 7])
    def test_contributions_finite_and_at_most_idf_times_k1_plus_1(self, block_postings):
        with mock.patch.object(bm25, "BLOCK_POSTINGS", block_postings), warnings.catch_warnings():
            warnings.simplefilter("error")
            index = build_index(store_of(*self.EXTREME_TEXTS))
            terms = all_terms(index)
        idf = np.repeat([index.idf(t) for t in index.token_ids], np.diff(index.offsets))
        assert np.isfinite(terms).all()
        assert (terms > 0).all()
        assert (terms <= idf * (bm25.K1 + 1.0)).all()

    @pytest.mark.parametrize("block_postings", [1, 2, 7])
    def test_tf_raised_in_the_last_block_refused_on_load(self, tmp_path, block_postings):
        # the last posting is z's in passage 4, tf 2: raised to 3, its tfs sum past the doc length
        path = tmp_path / "bm25.bin"
        index = build_index(store_of(*self.EXTREME_TEXTS))
        save_bm25_index(index, path)
        last = len(index.tfs) - 1
        rewrite_payload(path, lambda payload: set_bm25_ints(payload, "tfs", last, [3]))
        with mock.patch.object(bm25, "BLOCK_POSTINGS", block_postings):
            with pytest.raises(ParseError, match=r"^\S+: passage 'd4#0': doc length 3, but its postings' tfs sum to 4$"):
                load_bm25_index(path)

    @pytest.mark.parametrize("block_postings", [1, 2, 7])
    def test_ordinal_repeated_across_a_block_boundary_refused_on_load(self, tmp_path, block_postings):
        # b's posting list is ordinals 1 and 2 of [a: 0 | b: 0, 1 | c: 1]; in blocks of 1 or 2, 2 starts a block
        path = tmp_path / "bm25.bin"
        save_bm25_index(build_index(store_of("a b", "b c")), path)
        rewrite_payload(path, lambda payload: set_bm25_ints(payload, "ordinals", 2, [0]))
        with mock.patch.object(bm25, "BLOCK_POSTINGS", block_postings):
            with pytest.raises(ParseError, match=r"^\S+: token 'b': posting \[0, 1\]: ordinals must rise strictly within"):
                load_bm25_index(path)


class TestPeakMemory:
    """An index holds its int32 ordinals and its tfs in ``tf_dtype``, 5 bytes
    a posting while every passage has under 256 tokens and at most 8, beside
    arrays of one value a token or a passage.  A build holds one int32 id an
    occurrence and one block's scratch arrays beside the index; a load holds
    one block's scratch arrays and a few arrays of one value a passage; a
    query holds its accumulator and a few arrays as long as the postings it
    reads.  None holds a scratch array as long as the postings (5 bytes a
    posting is 1.7 MiB here)."""

    SLACK = 1 << 20

    @pytest.fixture(scope="class")
    def store(self):
        rng = random.Random(41)
        return store_of(*(random_text(rng, 80, vocab_size=400) for _ in range(5000)))  # about 360k postings

    def test_build_holds_8_bytes_a_posting_and_peaks_below_16(self, store):
        index, held, peak = traced(build_index, store)
        n_postings = len(index.ordinals)
        assert 8 * n_postings > 2 * self.SLACK  # 8 bytes a posting more, held or scratch, would show
        # ordinals and tfs; offsets and idfs, one a token; K1 * norm, one a passage
        assert held <= 8 * n_postings + 16 * (len(index.token_ids) + 1) + 8 * index.n_passages + self.SLACK
        assert peak <= 16 * n_postings + self.SLACK

    def test_build_holds_5_bytes_a_posting_under_256_tokens(self, store):
        index, held, _ = traced(build_index, store)
        n_postings = len(index.ordinals)
        assert max(index.doc_lengths) < 256 and 3 * n_postings > self.SLACK  # int32 tfs would show
        # int32 ordinals and uint8 tfs; offsets and idfs, one a token; K1 * norm, one a passage
        assert held <= 5 * n_postings + 16 * (len(index.token_ids) + 1) + 8 * index.n_passages + self.SLACK

    def test_build_holds_4_bytes_an_occurrence_beside_the_index(self):
        # each passage repeats its few tokens, so a scratch array as long as the occurrences shows against the postings
        rng = random.Random(43)
        store = store_of(*(random_text(rng, 100, vocab_size=20) for _ in range(10000)))
        index, _, peak = traced(build_index, store)
        n_occurrences, n_postings = sum(index.doc_lengths), len(index.ordinals)
        assert n_occurrences >= 3 * n_postings and 4 * n_occurrences > 2 * self.SLACK
        # int32 ids, ordinals and tfs; one block's keys and counts, under 64 bytes an occurrence
        assert peak <= 4 * n_occurrences + 8 * n_postings + 64 * bm25.BLOCK_POSTINGS + self.SLACK

    def test_load_holds_one_block_beyond_its_index(self, store, tmp_path):
        path = tmp_path / "bm25.bin"
        save_bm25_index(build_index(store), path)
        index, held, peak = traced(load_bm25_index, path)
        # one block's int64 tfs and bool masks, and a few arrays of one value a passage
        bound = 8 * bm25.BLOCK_POSTINGS + 16 * index.n_passages + (1 << 15)
        assert len(index.ordinals) > bound  # one bool a posting would show
        assert peak - held < bound

    @pytest.mark.parametrize("query", ["tok7", "tok7 tok1 tok2 tok3 tok7"])
    def test_query_holds_its_accumulator_and_arrays_as_long_as_its_postings(self, store, query):
        index = build_index(store)
        bm25_top_k(index, query, 10)  # the tokenizer's table learns the query's characters
        _, _, peak = traced(bm25_top_k, index, query, 10)
        read = sum(len(index.posting_list(token)) for token in tokenize(query))
        # the float64 accumulator and its bool mask, one a passage; a few 8-byte arrays a posting read
        bound = 9 * index.n_passages + 4 * 8 * read + (1 << 14)
        assert 8 * len(index.ordinals) > 2 * bound  # one float64 a posting would show
        assert peak <= bound
