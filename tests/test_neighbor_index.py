"""The batched exact neighbour index against two oracles: exact rational
cosine ranking on ternary maps, and the earlier one-query-at-a-time search
on float maps."""

from dataclasses import fields
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from word2spike import evaluator
from word2spike.corpus_io import AnalogyQuad, SimilarityPair
from word2spike.evaluator import _NeighborIndex, analogy_eval, full_report, overlap_at_k
from word2spike.spike_codec import CodecConfig, roundtrip


def exact_top_k(rows, query, k, exclude):
    """Row indices of the k nearest rows by cosine, ties toward the smaller
    index, in exact arithmetic.  With d = row . query and n = |row|**2,
    cosine ordering is the ordering of sign(d) * d**2 / n, a rational."""
    if not any(query):
        return []
    ranked = []
    for j, row in enumerate(rows):
        n = sum(x * x for x in row)
        if n == 0 or j in exclude:
            continue
        d = sum(int(a) * int(b) for a, b in zip(row, query))
        ranked.append((-Fraction(d * abs(d), n), j))
    return [j for _, j in sorted(ranked)[:k]]


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


def as_map(matrix):
    # zero-padded tokens sort in row order, so row j is word j
    return {f"w{j:03d}": row for j, row in enumerate(matrix)}


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
    block_cells = draw(st.sampled_from([1, 3, 2 * n + 1, evaluator._BLOCK_CELLS]))
    return rows, queries, exclude, k, block_cells


class TestTernaryExactness:
    @settings(max_examples=300, deadline=None)
    @given(ternary_searches())
    def test_matches_exact_oracle_word_for_word(self, search):
        rows, queries, exclude, k, block_cells = search
        index = _NeighborIndex(as_map(np.array(rows, dtype=np.float64)))
        queries_arr = np.array(queries, dtype=np.float64)
        with mock.patch.object(evaluator, "_BLOCK_CELLS", block_cells):
            got = index.top_k(queries_arr, k, np.array(exclude, dtype=np.intp))
        expected = [
            [index.words[j] for j in exact_top_k(rows, q, k, set(ex))]
            for q, ex in zip(queries, exclude)
        ]
        assert got == expected

    def test_ties_at_the_kth_place_break_toward_the_smaller_token(self):
        # the third place is a tie between two rows in both searches
        rows = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 0]])
        index = _NeighborIndex(as_map(rows.astype(np.float64)))
        got = index.top_k(np.array([[1.0, 1.0, 1.0]]), 3, np.array([[0]]))
        assert got == [["w003", "w004", "w001"]]
        assert index.top_k(np.array([[1.0, 1.0, 0.0]]), 3, np.array([[0]])) == [
            ["w001", "w002", "w003"]
        ]

    def test_tie_that_float_cosines_split(self):
        # 1/sqrt(2) == 3/sqrt(18), but in float64 the second is one ulp larger
        rows = np.zeros((2, 18))
        rows[0, :2] = 1.0
        rows[1] = 1.0
        query = np.zeros((1, 18))
        query[0, [0, 2, 3]] = 1.0
        index = _NeighborIndex(as_map(rows))
        nothing = np.zeros((1, 0), dtype=np.intp)
        assert index.top_k(query, 1, nothing) == [["w000"]]
        assert index.top_k(query, 2, nothing) == [["w000", "w001"]]

    def test_zero_query_and_exhausted_vocabulary_give_empty_lists(self):
        index = _NeighborIndex(as_map(np.array([[1.0, 0.0], [0.0, 0.0]])))
        got = index.top_k(np.array([[0.0, 0.0], [1.0, 1.0]]), 5, np.array([[0], [0]]))
        assert got == [[], []]


class TestFloatMaps:
    @pytest.mark.parametrize("k", [1, 10, 85])
    def test_matches_per_query_search(self, k):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((80, 16))
        matrix[7] = 0.0
        vectors = as_map(matrix)
        index, oracle = _NeighborIndex(vectors), PerQueryIndex(vectors)
        triples = rng.integers(0, 80, size=(40, 3))
        targets = matrix[triples[:, 1]] - matrix[triples[:, 0]] + matrix[triples[:, 2]]
        queries = np.vstack([matrix, targets])
        exclude = np.vstack([np.repeat(np.arange(80)[:, None], 3, axis=1), triples])
        got = index.top_k(queries, k, exclude)
        expected = [
            oracle.top_k(q, k, {index.words[j] for j in ex}) for q, ex in zip(queries, exclude)
        ]
        assert got == expected
        assert got[7] == [] and len(got[0]) == min(k, 78)

    def test_block_boundaries_do_not_change_rankings(self, monkeypatch):
        rng = np.random.default_rng(6)
        matrix = np.vstack([rng.standard_normal((30, 8)), rng.integers(-1, 2, size=(30, 8))])
        index = _NeighborIndex(as_map(matrix))
        queries = matrix[::2] + matrix[1::2]
        exclude = np.arange(60).reshape(30, 2)
        whole = index.top_k(queries, 10, exclude)
        for cells in (3, 3 * len(matrix), 7 * len(matrix) + 1):
            monkeypatch.setattr(evaluator, "_BLOCK_CELLS", cells)
            assert index.top_k(queries, 10, exclude) == whole


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
        index = _NeighborIndex(vectors)
        words = random_set.words
        quads = [AnalogyQuad(*words[i : i + 4]) for i in range(0, 40, 4)]
        assert analogy_eval(index, quads) == analogy_eval(vectors, quads)
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
        original_index = _NeighborIndex(random_set.as_map())
        spike = evaluator._metrics_for(
            _NeighborIndex(result.decoded.as_map()), original_index, pairs, quads, list(words)
        )
        spike.reconstruction_accuracy = 1.0
        for f in fields(evaluator.RepresentationMetrics):
            assert getattr(report.spike, f.name) == getattr(spike, f.name), f.name
        # the spike column is a copy: filling it leaves the quantized column
        assert report.quantized.reconstruction_accuracy is None
