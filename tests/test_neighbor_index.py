"""The batched exact neighbour index against two oracles: exact rational
cosine ranking on ternary matrices, and the earlier one-query-at-a-time
search on float maps."""

from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced, word_lists
from word2spike import evaluator
from word2spike.corpus_io import AnalogyQuad, EmbeddingSet, SimilarityPair
from word2spike.evaluator import (
    _as_index,
    _NeighborIndex,
    analogy_eval,
    full_report,
    overlap_at_k,
    simlex_eval,
)
from word2spike.spike_codec import CodecConfig, roundtrip


def exact_top_k(rows, tokens, query, k, exclude):
    """Tokens of the k nearest rows by cosine, ties toward the smaller
    token, in exact arithmetic.  With d = row . query and n = |row|**2,
    cosine ordering is the ordering of sign(d) * d**2 / n, a rational."""
    if not any(query):
        return []
    ranked = []
    for j, row in enumerate(rows):
        n = sum(x * x for x in row)
        if n == 0 or j in exclude:
            continue
        d = sum(int(a) * int(b) for a, b in zip(row, query))
        ranked.append((-Fraction(d * abs(d), n), tokens[j]))
    return [token for _, token in sorted(ranked)[:k]]


class PerQueryIndex:
    """The earlier search, one query at a time: a full mat-vec of unit rows
    and a full (-cosine, index) lexsort per query."""

    def __init__(self, vectors):
        self.words = sorted(vectors)
        matrix = np.stack([np.asarray(vectors[w], dtype=np.float64) for w in self.words])
        norms = np.linalg.norm(matrix, axis=1)
        self.zero_norm = norms == 0.0
        self.unit = matrix / np.where(self.zero_norm, 1.0, norms)[:, None]
        self.index = {w: i for i, w in enumerate(self.words)}

    def top_k(self, query_vec, k, exclude):
        qnorm = float(np.linalg.norm(query_vec))
        if qnorm == 0.0:
            return []
        sims = self.unit @ (np.asarray(query_vec, dtype=np.float64) / qnorm)
        sims[self.zero_norm] = -np.inf
        for word in exclude:
            sims[self.index[word]] = -np.inf
        k = min(k, int(np.isfinite(sims).sum()))
        if k <= 0:
            return []
        order = np.lexsort((np.arange(len(sims)), -sims))
        return [self.words[i] for i in order[:k]]


def row_tokens(n):
    # zero-padded tokens sort in row order, so row j is the j-th smallest
    return [f"w{j:03d}" for j in range(n)]


def as_map(matrix):
    return dict(zip(row_tokens(len(matrix)), matrix))


@st.composite
def ternary_searches(draw):
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 5))
    codes = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)
    rows = draw(st.lists(codes, min_size=n, max_size=n))
    # queries: vocabulary rows, 3CosAdd-like sums, and arbitrary small integers
    queries = draw(st.lists(
        st.one_of(
            st.integers(0, n - 1).map(lambda j: rows[j]),
            st.tuples(*[st.integers(0, n - 1)] * 3).map(
                lambda t: [b - a + c for a, b, c in zip(rows[t[0]], rows[t[1]], rows[t[2]])]
            ),
            st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
        ),
        min_size=1,
        max_size=8,
    ))
    n_excluded = draw(st.integers(0, 3))
    exclude = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=n_excluded, max_size=n_excluded),
        min_size=len(queries),
        max_size=len(queries),
    ))
    k = draw(st.integers(1, n + 3))
    block_rows = draw(st.sampled_from([1, 2, 3, evaluator._BLOCK_ROWS]))
    # tokens in row order, reversed, or shuffled: ties break by token, not row
    tokens = draw(st.one_of(
        st.just(row_tokens(n)), st.just(row_tokens(n)[::-1]), st.permutations(row_tokens(n))
    ))
    return rows, tokens, queries, exclude, k, block_rows


@st.composite
def bound_searches(draw):
    """Searches at the edges of _rank's bound on the k-th score: n about
    _GROUPS_PER_K * k words, below which every column is its own group
    and above which the last group is the widest, or about twice that,
    where the groups reach a width of 2, or an odd n beyond; k above n;
    rows with fewer than k finite scores, through zero-norm rows and
    exclusions; and ternary codes of few dimensions, which tie often at
    the k-th place."""
    k = draw(st.integers(1, 4))
    edge = evaluator._GROUPS_PER_K * k
    n = draw(st.one_of(
        st.integers(max(1, edge - 2), edge + 2),
        st.integers(2 * edge - 2, 2 * edge + 2),
        st.just(4 * edge + 1),
        st.integers(1, k),
    ))
    dim = draw(st.integers(1, 3))
    codes = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)
    rows = draw(st.lists(codes, min_size=n, max_size=n))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=n // 2)):
        rows[j] = [0] * dim
    queries = draw(st.lists(
        st.one_of(
            st.integers(0, n - 1).map(lambda j: rows[j]),
            st.tuples(*[st.integers(0, n - 1)] * 3).map(
                lambda t: [b - a + c for a, b, c in zip(rows[t[0]], rows[t[1]], rows[t[2]])]
            ),
        ),
        min_size=1,
        max_size=6,
    ))
    n_excluded = draw(st.integers(0, n))
    exclude = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=n_excluded, max_size=n_excluded),
        min_size=len(queries),
        max_size=len(queries),
    ))
    tokens = draw(st.permutations(row_tokens(n)))
    return rows, tokens, queries, exclude, k


class TestTernaryExactness:
    @settings(max_examples=300, deadline=None)
    @given(ternary_searches())
    def test_matches_exact_oracle_word_for_word(self, search):
        rows, tokens, queries, exclude, k, block_rows = search
        index = _NeighborIndex(tokens, np.array(rows, dtype=np.int8))
        queries_arr = np.array(queries, dtype=np.float64)
        with mock.patch.object(evaluator, "_BLOCK_ROWS", block_rows):
            got = word_lists(index, index.top_k(queries_arr, k, np.array(exclude, dtype=np.intp)))
        expected = [exact_top_k(rows, tokens, q, k, set(ex)) for q, ex in zip(queries, exclude)]
        assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(bound_searches())
    def test_the_kth_score_bound_keeps_the_exact_ranking(self, search):
        rows, tokens, queries, exclude, k = search
        index = _NeighborIndex(tokens, np.array(rows, dtype=np.int8))
        top = index.top_k(np.array(queries, dtype=np.int8), k, np.array(exclude, dtype=np.intp))
        assert top.shape == (len(queries), k) and top.dtype == np.intp
        expected = [exact_top_k(rows, tokens, q, k, set(ex)) for q, ex in zip(queries, exclude)]
        assert word_lists(index, top) == expected
        # the padding is -1, and only at the end of a row
        assert [row.tolist() for row in top] == [
            [tokens.index(t) for t in words] + [-1] * (k - len(words)) for words in expected
        ]

    def test_ties_at_the_kth_place_break_toward_the_smaller_token(self):
        # the third place is a tie between two rows in both searches
        rows = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 0]])
        index = _NeighborIndex(row_tokens(6), rows)
        got = word_lists(index, index.top_k(np.array([[1.0, 1.0, 1.0]]), 3, np.array([[0]])))
        assert got == [["w003", "w004", "w001"]]
        assert word_lists(index, index.top_k(np.array([[1.0, 1.0, 0.0]]), 3, np.array([[0]]))) == [
            ["w001", "w002", "w003"]
        ]

    def test_tie_that_float_cosines_split(self):
        # 1/sqrt(2) == 3/sqrt(18), but in float64 the second is one ulp larger
        rows = np.zeros((2, 18))
        rows[0, :2] = 1.0
        rows[1] = 1.0
        query = np.zeros((1, 18))
        query[0, [0, 2, 3]] = 1.0
        index = _NeighborIndex(row_tokens(2), rows)
        nothing = np.zeros((1, 0), dtype=np.intp)
        assert word_lists(index, index.top_k(query, 1, nothing)) == [["w000"]]
        assert word_lists(index, index.top_k(query, 2, nothing)) == [["w000", "w001"]]

    def test_zero_query_and_exhausted_vocabulary_give_empty_lists(self):
        index = _NeighborIndex(row_tokens(2), np.array([[1.0, 0.0], [0.0, 0.0]]))
        got = word_lists(index, index.top_k(np.array([[0.0, 0.0], [1.0, 1.0]]), 5, np.array([[0], [0]])))
        assert got == [[], []]


class TestFloatMaps:
    @pytest.mark.parametrize("k", [1, 10, 85])
    def test_matches_per_query_search(self, k):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((80, 16))
        matrix[7] = 0.0
        vectors = as_map(matrix)
        index, oracle = _as_index(vectors), PerQueryIndex(vectors)
        triples = rng.integers(0, 80, size=(40, 3))
        targets = matrix[triples[:, 1]] - matrix[triples[:, 0]] + matrix[triples[:, 2]]
        queries = np.vstack([matrix, targets])
        exclude = np.vstack([np.repeat(np.arange(80)[:, None], 3, axis=1), triples])
        got = word_lists(index, index.top_k(queries, k, exclude))
        expected = [
            oracle.top_k(q, k, {index.words[j] for j in ex}) for q, ex in zip(queries, exclude)
        ]
        assert got == expected
        assert got[7] == [] and len(got[0]) == min(k, 78)

    def test_block_boundaries_do_not_change_rankings(self, monkeypatch):
        rng = np.random.default_rng(6)
        matrix = np.vstack([rng.standard_normal((30, 8)), rng.integers(-1, 2, size=(30, 8))])
        index = _NeighborIndex(row_tokens(60), matrix)
        queries = matrix[::2] + matrix[1::2]
        exclude = np.arange(60).reshape(30, 2)
        whole = word_lists(index, index.top_k(queries, 10, exclude))
        for rows in (1, 3, 7):
            monkeypatch.setattr(evaluator, "_BLOCK_ROWS", rows)
            assert word_lists(index, index.top_k(queries, 10, exclude)) == whole


class TestFloat32Index:
    def test_integer_codes_are_held_in_four_bytes(self):
        codes = np.random.default_rng(7).integers(-1, 2, size=(50, 12)).astype(np.int8)
        index = _NeighborIndex(row_tokens(50), codes)
        assert index.matrix.dtype == np.float32 and index.matrix.nbytes == 4 * codes.size
        assert index.sq_norms.dtype == np.float64
        # an |entry| of 2**24 or more keeps float64
        wide = _NeighborIndex(row_tokens(2), np.array([[2**24, 0], [0, 1]], dtype=np.int32))
        assert wide.matrix.dtype == np.float64

    @pytest.mark.parametrize("max_abs, dtype", [(2364, np.float32), (2365, np.float64)], ids=["float32", "float64"])
    def test_the_product_bound_picks_the_number_format(self, max_abs, dtype):
        # one dimension: 3 * 2364**2 = 2**24 - 11728 and 3 * 2365**2 =
        # 2**24 + 2459.  The 3CosAdd target w003 - w000 + w003 = 3 * max_abs
        # has equal cosines to w001 .. w003, a tie that goes to w001; at
        # 2365 a float32 product would round 3 * 2365**2 up to an even
        # integer and put w003 first
        rows = np.array([[-max_abs], [1], [max_abs - 1], [max_abs]], dtype=np.int16)
        index = _NeighborIndex(row_tokens(4), rows)
        assert index.matrix.dtype == dtype
        queries = index.matrix[[3, 3, 1]] - index.matrix[[0, 2, 0]] + index.matrix[[3, 1, 2]]
        nothing = np.zeros((3, 0), dtype=np.intp)
        expected = [exact_top_k(rows.tolist(), row_tokens(4), q, 4, set()) for q in queries.astype(int).tolist()]
        assert expected[0] == ["w001", "w002", "w003", "w000"]
        assert word_lists(index, index.top_k(queries, 4, nothing)) == expected

    def test_the_product_bound_on_ternary_codes(self):
        # 3 * d = 2**24 - 1 at d = 5592405, the most dimensions held as
        # float32, and 2**24 + 2 at one more (3 does not divide 2**24, so
        # no matrix meets the bound exactly)
        d = (2**24 - 1) // 3
        assert _NeighborIndex(["a"], np.ones((1, d), dtype=np.int8)).matrix.dtype == np.float32
        assert _NeighborIndex(["a"], np.ones((1, d + 1), dtype=np.int8)).matrix.dtype == np.float64

    @pytest.mark.parametrize("block_rows", [1, 5, 128])
    def test_large_integer_codes_match_the_exact_oracle(self, monkeypatch, block_rows):
        # small queries stay below 2**24 and are multiplied in float32, the
        # heavy ones pass it and are not; blocks of 5 mix the two
        rng = np.random.default_rng(8)
        rows = rng.integers(-4096, 4097, size=(40, 6))
        queries = np.vstack([rng.integers(-3, 4, size=(12, 6)), rng.integers(-5000, 5001, size=(12, 6))])
        queries = queries[rng.permutation(len(queries))]
        exclude = rng.integers(0, 40, size=(len(queries), 2))
        index = _NeighborIndex(row_tokens(40), rows.astype(np.int16))
        monkeypatch.setattr(evaluator, "_BLOCK_ROWS", block_rows)
        got = word_lists(index, index.top_k(queries, 5, exclude))
        tokens = row_tokens(40)
        assert got == [exact_top_k(rows.tolist(), tokens, q, 5, set(ex)) for q, ex in zip(queries.tolist(), exclude)]

    @pytest.mark.parametrize("block_rows", [50, 128])
    def test_non_integer_queries_match_a_float64_index(self, monkeypatch, block_rows):
        rng = np.random.default_rng(9)
        codes = rng.integers(-1, 2, size=(200, 16)).astype(np.int8)
        narrow = _NeighborIndex(row_tokens(200), codes)
        wide = _NeighborIndex(row_tokens(200), codes.astype(np.float64))
        queries = np.vstack([rng.standard_normal((100, 16)), codes[:50] + 0.5, codes[:50]])
        exclude = rng.integers(0, 200, size=(len(queries), 2))
        monkeypatch.setattr(evaluator, "_BLOCK_ROWS", block_rows)
        assert word_lists(narrow, narrow.top_k(queries, 10, exclude)) == word_lists(wide, wide.top_k(queries, 10, exclude))
        # equal cosines in float32, 1 + 2**-30 rounding to 1: the query is
        # nearer w001 in float64, and a float32 tie would go to w000
        two = _NeighborIndex(row_tokens(2), np.array([[0, 1], [1, 0]], dtype=np.int8))
        assert word_lists(two, two.top_k(np.array([[1 + 2**-30, 1.0]]), 2, np.zeros((1, 0), dtype=np.intp))) == [
            ["w001", "w000"]
        ]


class TestQueryPrecondition:
    @pytest.mark.parametrize("cfg", [CodecConfig(mode="lossless"), CodecConfig(mode="stochastic", seed=1)],
                             ids=["lossless", "stochastic"])
    def test_float32_indices_get_integer_queries_of_their_dtype(self, random_set, monkeypatch, cfg):
        # a float32 index is exact for queries in its dtype whose |entries|
        # are at most 3 * max|entry|, the sums of up to three of its rows
        searched = []
        top_k = _NeighborIndex.top_k

        def checked(index, queries, k, exclude):
            if index.matrix.dtype == np.float32:
                assert queries.dtype == index.matrix.dtype
                assert np.array_equal(queries, np.rint(queries))
                assert np.abs(queries).max(initial=0) <= 3 * np.abs(index.matrix).max(initial=0)
                searched.append(len(queries))
            return top_k(index, queries, k, exclude)

        monkeypatch.setattr(_NeighborIndex, "top_k", checked)
        words = random_set.words
        pairs = [SimilarityPair(words[i], words[i + 3], float(i % 7)) for i in range(60)]
        quads = [AnalogyQuad(*words[i : i + 4]) for i in range(0, 80, 4)]
        full_report(random_set, cfg, pairs, quads)
        # the analogy targets and the own top-10 rows of the quantized
        # index, and of the spike index where its codes differ
        assert searched == [20, 100] * (1 if cfg.mode == "lossless" else 2)


class TestMemory:
    def test_the_block_bounds_the_search_memory(self):
        peaks = []
        for n in (2000, 4000):
            codes = np.random.default_rng(10).integers(-1, 2, size=(n, 300)).astype(np.int8)
            tops, peak, _ = traced(lambda: _NeighborIndex(row_tokens(n), codes).own_top_k(10))
            assert len(tops) == n
            # the float32 index and three blocks of float64 scores, plus
            # the words, the lists and the small arrays
            assert peak < 4 * codes.size + 3 * evaluator._BLOCK_ROWS * n * 8 + 2**20
            peaks.append(peak)
        # twice the words in about twice the memory, not four times
        assert peaks[1] < 2.2 * peaks[0]


@pytest.fixture
def index_calls(monkeypatch):
    """Counts of _NeighborIndex constructions and top_k searches."""
    calls = {"__init__": 0, "top_k": 0}
    for name in calls:
        method = getattr(_NeighborIndex, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(_NeighborIndex, name, counted)
    return calls


def eight_pairs_one_quad(words):
    pairs = [SimilarityPair(words[i], words[i + 1], float(i)) for i in range(8)]
    return pairs, [AnalogyQuad(*words[:4])]


class TestSharedIndices:
    def test_metrics_accept_a_prebuilt_index(self, random_set):
        vectors = random_set.as_map()
        index = _NeighborIndex(random_set.words, random_set.vectors)
        words = random_set.words
        quads = [AnalogyQuad(*words[i : i + 4]) for i in range(0, 40, 4)]
        pairs = [SimilarityPair(words[i], words[i + 3], float(i % 7)) for i in range(60)]
        assert analogy_eval(index, quads) == analogy_eval(vectors, quads)
        assert simlex_eval(index, pairs) == simlex_eval(vectors, pairs)
        assert overlap_at_k(index, index, 10) == overlap_at_k(vectors, vectors, 10) == 1.0

    def test_full_report_builds_one_index_per_representation(self, random_set, index_calls):
        full_report(random_set, CodecConfig(mode="lossless"), *eight_pairs_one_quad(random_set.words))
        # one analogy search and one top-10 search per index, the original's
        # lists computed once; the lossless spike codes equal the quantized
        # codes, so the spike column copies their metrics
        assert index_calls == {"__init__": 2, "top_k": 4}

    def test_full_report_indexes_spike_codes_that_differ(self, random_set, index_calls):
        cfg = CodecConfig(mode="stochastic", seed=1)
        result = roundtrip(random_set, cfg)
        assert not np.array_equal(result.decoded.values, result.ternary.values)
        full_report(random_set, cfg, *eight_pairs_one_quad(random_set.words))
        assert index_calls == {"__init__": 3, "top_k": 6}

    def test_lossless_spike_metrics_equal_a_decoded_index(self, random_set):
        cfg = CodecConfig(mode="lossless")
        words = random_set.words
        pairs = [SimilarityPair(words[i], words[i + 3], float(i % 7)) for i in range(60)]
        quads = [AnalogyQuad(*words[i : i + 4]) for i in range(0, 80, 4)]
        report = full_report(random_set, cfg, pairs, quads)

        result = roundtrip(random_set, cfg)
        original_index = _NeighborIndex(random_set.words, random_set.vectors)
        spike = evaluator._metrics_for(
            _NeighborIndex(result.decoded.words, result.decoded.values),
            original_index, pairs, quads,
        )
        spike.reconstruction_accuracy = 1.0
        for f in fields(evaluator.RepresentationMetrics):
            assert getattr(report.spike, f.name) == getattr(spike, f.name), f.name
        # the spike column is a copy: filling it leaves the quantized column
        assert report.quantized.reconstruction_accuracy is None


def shuffled(es, seed):
    order = np.random.default_rng(seed).permutation(len(es))
    return EmbeddingSet(tuple(es.words[i] for i in order), es.vectors[order])


class TestRowOrder:
    @pytest.mark.parametrize("seed", [None, 4])
    def test_original_index_uses_the_embedding_matrix(self, random_set, monkeypatch, seed):
        es = random_set if seed is None else shuffled(random_set, seed)
        built = []
        init = _NeighborIndex.__init__

        def recorded(index, *args):
            init(index, *args)
            built.append(index)

        monkeypatch.setattr(_NeighborIndex, "__init__", recorded)
        full_report(es, CodecConfig(mode="lossless"), *eight_pairs_one_quad(es.words))
        assert built[0].words == es.words
        assert np.shares_memory(built[0].matrix, es.vectors)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_shuffled_rows_give_the_same_report(self, random_set, seed):
        words = random_set.words
        pairs = [SimilarityPair(words[i], words[i + 3], float(i % 7)) for i in range(60)]
        quads = [AnalogyQuad(*words[i : i + 4]) for i in range(0, 80, 4)]
        cfg = CodecConfig(mode="lossless")
        report = full_report(random_set, cfg, pairs, quads)
        shuffled_report = full_report(shuffled(random_set, seed), cfg, pairs, quads)
        # overlap@10 is a float mean taken in row order, so its last bit may differ
        for a, b in zip(report._reps(), shuffled_report._reps()):
            assert b.overlap_at_10 == pytest.approx(a.overlap_at_10, rel=1e-12)
            assert replace(b, overlap_at_10=a.overlap_at_10) == a

    def test_ties_break_by_token_not_row(self):
        # equal rows: every search ties, and the smaller token must come first
        index = _NeighborIndex(["c", "a", "d", "b"], np.ones((4, 2)))
        assert word_lists(index, index.top_k(np.ones((1, 2)), 4, np.zeros((1, 0), dtype=np.intp))) == [["a", "b", "c", "d"]]
        assert word_lists(index, index.own_top_k(2))[index.row["d"]] == ["a", "b"]
