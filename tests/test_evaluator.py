import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import word_lists
from word2spike.corpus_io import AnalogyQuad, EmbeddingSet, SimilarityPair
from word2spike.evaluator import (
    EvaluationError,
    _as_index,
    _fractional_ranks,
    analogy_eval,
    cosine,
    full_report,
    overlap_at_k,
    reconstruction_accuracy,
    simlex_eval,
    spearman,
)
from word2spike.quantizer import TernarySet, quantize_all
from word2spike.spike_codec import CodecConfig


def order_sensitive_set():
    """200 x 16 words on which a float mean of the per-word overlap
    fractions depends on their order (0.489 or 0.48900000000000005)."""
    rng = np.random.default_rng(42)
    return EmbeddingSet(tuple(f"w{i:03d}" for i in range(200)), rng.standard_normal((200, 16)))


def shuffled(es, seed):
    order = np.random.default_rng(seed).permutation(len(es.words))
    return EmbeddingSet(tuple(es.words[i] for i in order), es.vectors[order])


# (xs, ys, rho) with rho computed by an independent exact-fraction
# tied-rank oracle (average ranks, then Pearson over rationals)
SPEARMAN_FIXTURES = [
    ([1, 2, 3], [10, 20, 30], 1.0),
    ([1, 2, 3], [30, 20, 10], -1.0),
    ([1, 2, 2, 3], [1, 3, 2, 4], 0.9486832980505138),
    ([1, 1, 2, 3, 5], [2, 7, 1, 8, 8], 0.631578947368421),
    ([3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8], 0.19885368120992464),
    ([1, 2, 3, 4], [1, 3, 2, 4], 0.8),
]


class TestCosine:
    def test_identity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
        assert cosine(np.array([1.0, 1.0]), np.array([1.0, -1.0])) == 0.0

    def test_zero_norm_is_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.zeros(3))


class TestSpearman:
    @pytest.mark.parametrize("xs,ys,rho", SPEARMAN_FIXTURES)
    def test_oracle_fixtures(self, xs, ys, rho):
        assert spearman(xs, ys) == pytest.approx(rho, abs=1e-12)

    def test_scipy_agreement(self):
        import scipy.stats

        rng = np.random.default_rng(0)
        for _ in range(20):
            xs = rng.integers(0, 10, size=30).astype(float)
            ys = rng.integers(0, 10, size=30).astype(float)
            assert spearman(xs, ys) == pytest.approx(
                scipy.stats.spearmanr(xs, ys).statistic, abs=1e-12
            )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-5, 5).map(float),
                              st.floats(-1e6, 1e6, allow_nan=False)), min_size=1, max_size=60))
    def test_fractional_ranks_equal_rankdata(self, xs):
        import scipy.stats

        xs = np.array(xs)
        assert _fractional_ranks(xs).tolist() == scipy.stats.rankdata(xs).tolist()

    def test_constant_input_rejected(self):
        with pytest.raises(EvaluationError):
            spearman([1, 1, 1], [1, 2, 3])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
            min_size=3,
            max_size=30,
        )
    )
    def test_monotone_transform_invariance(self, pairs):
        xs = np.array([float(a) for a, _ in pairs])
        ys = np.array([float(b) for _, b in pairs])
        if len(np.unique(xs)) < 2 or len(np.unique(ys)) < 2:
            return
        base = spearman(xs, ys)
        assert spearman(np.exp(xs / 25.0), ys) == pytest.approx(base, abs=1e-9)
        assert spearman(xs, 3.0 * ys + 7.0) == pytest.approx(base, abs=1e-9)


class TestSimlexEval:
    def test_perfect_monotone(self):
        vectors = {
            "a": np.array([1.0, 0.0]),
            "b": np.array([1.0, 0.1]),
            "c": np.array([1.0, 0.5]),
            "d": np.array([0.0, 1.0]),
        }
        pairs = [
            SimilarityPair("a", "b", 9.0),
            SimilarityPair("a", "c", 6.0),
            SimilarityPair("a", "d", 1.0),
        ]
        rho, used, skipped = simlex_eval(vectors, pairs)
        assert rho == pytest.approx(1.0)
        assert (used, skipped) == (3, 0)

    def test_oov_skipped_and_counted(self):
        vectors = {"a": np.array([1.0]), "b": np.array([2.0]), "c": np.array([3.0])}
        pairs = [
            SimilarityPair("a", "b", 5.0),
            SimilarityPair("a", "zz", 4.0),
            SimilarityPair("b", "c", 3.0),
        ]
        with pytest.raises(EvaluationError):
            # only 2 usable pairs but identical cosines -> constant input
            simlex_eval(vectors, pairs)

    def test_all_oov_errors(self):
        with pytest.raises(EvaluationError):
            simlex_eval({"a": np.ones(2)}, [SimilarityPair("x", "y", 1.0)])

    def test_zero_norm_pairs_give_one_aggregated_warning(self, caplog):
        rng = np.random.default_rng(1)
        vectors = {
            f"w{i:02d}": rng.standard_normal(4) if i % 3 else np.zeros(4) for i in range(30)
        }
        words = sorted(vectors)
        pairs = [SimilarityPair(words[i], words[i + 1], float(i % 7)) for i in range(29)]
        zero_pairs = sum(1 for i in range(29) if i % 3 == 0 or (i + 1) % 3 == 0)
        with caplog.at_level(logging.WARNING, logger="word2spike.evaluator"):
            rho, used, skipped = simlex_eval(vectors, pairs)
        assert [r.getMessage() for r in caplog.records] == [
            f"{zero_pairs} pairs involve a zero-norm vector; their cosine is taken as 0"
        ]
        # the same per-pair cosines as cosine(), so rho does not move
        sims = [cosine(vectors[p.word_a], vectors[p.word_b]) for p in pairs]
        assert rho == spearman(sims, [p.human_score for p in pairs])
        assert (used, skipped) == (29, 0)

    @pytest.mark.parametrize("quantized", [False, True])
    def test_matches_per_pair_cosines(self, random_set, quantized):
        es = quantize_all(random_set) if quantized else random_set
        vectors = dict(zip(es.words, es.values if quantized else es.vectors))
        rng = np.random.default_rng(5)
        words = list(es.words) + ["oov"]
        pairs = [SimilarityPair(words[a], words[b], float(rng.normal()))
                 for a, b in rng.integers(0, len(words), size=(300, 2)) if a != b]
        rho, used, skipped = simlex_eval(vectors, pairs)
        in_vocab = [p for p in pairs if "oov" not in (p.word_a, p.word_b)]
        sims = [cosine(vectors[p.word_a], vectors[p.word_b]) for p in in_vocab]
        expected = spearman(sims, [p.human_score for p in in_vocab])
        # ternary dot products and norms are exact, so the cosines are too
        assert rho == (expected if quantized else pytest.approx(expected, rel=1e-12))
        assert (used, skipped) == (len(in_vocab), len(pairs) - len(in_vocab))


def neighbors(vectors, query, k):
    """Top-k cosine neighbours of a vocabulary word, the word itself ranked out."""
    index = _as_index(vectors)
    return word_lists(index, index.own_top_k(k))[index.row[query]]


class TestNeighbors:
    def test_tie_broken_lexicographically(self):
        vectors = {
            "q": np.array([1.0, 0.0]),
            "b": np.array([1.0, 0.0]),
            "a": np.array([1.0, 0.0]),
        }
        assert neighbors(vectors, "q", 2) == ["a", "b"]

    def test_duplicate_vector_first(self):
        vectors = {
            "q": np.array([1.0, 0.0]),
            "twin": np.array([2.0, 0.0]),
            "far": np.array([0.0, 1.0]),
        }
        assert neighbors(vectors, "q", 1) == ["twin"]

    def test_k_beyond_vocab(self):
        vectors = {"q": np.ones(2), "a": np.ones(2)}
        assert neighbors(vectors, "q", 10) == ["a"]

    def test_zero_norm_excluded(self):
        vectors = {"q": np.ones(2), "zero": np.zeros(2), "a": np.ones(2)}
        assert neighbors(vectors, "q", 5) == ["a"]


def set_overlap(map_a, map_b, k):
    """The earlier formula of overlap_at_k: the shared words' top-k word
    lists intersected as Python sets, the sizes summed and divided once."""
    index_a, index_b = _as_index(map_a), _as_index(map_b)
    lists_a, lists_b = (word_lists(index, index.own_top_k(k)) for index in (index_a, index_b))
    words = [w for w in index_a.words if w in index_b]
    hits = sum(len(set(lists_a[index_a.row[w]]) & set(lists_b[index_b.row[w]])) for w in words)
    return hits / (k * len(words))


@st.composite
def overlap_pairs(draw):
    """Two word -> vector maps over partly disjoint vocabularies, each in
    its own row order, with small integer vectors (zero ones included) and
    k up to past the vocabulary, so some top-k lists are shorter than k."""
    pool = [f"w{i}" for i in range(10)]
    dim = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim).map(np.array)
    maps = []
    for _ in range(2):
        words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
        maps.append({w: draw(vector) for w in words})
    k = draw(st.integers(1, 12))
    return *maps, k


class TestOverlapAtK:
    def test_identity_is_one(self, random_set):
        m = random_set.as_map()
        assert overlap_at_k(m, m, 10) == 1.0

    def test_disjoint_is_zero(self):
        # two clusters; map_b flips cluster membership so top-1 never agrees
        map_a = {
            "a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.01]),
            "c": np.array([0.0, 1.0]), "d": np.array([0.01, 1.0]),
        }
        map_b = {
            "a": np.array([0.0, 1.0]), "b": np.array([1.0, 0.0]),
            "c": np.array([1.0, 0.01]), "d": np.array([0.02, 1.0]),
        }
        assert overlap_at_k(map_a, map_b, 1) == 0.0

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, random_set, k):
        m = random_set.as_map()
        with pytest.raises(ValueError, match="k must be >= 1"):
            overlap_at_k(m, m, k)

    def test_empty_shared_vocab(self):
        with pytest.raises(EvaluationError):
            overlap_at_k({"a": np.ones(2)}, {"b": np.ones(2)}, 1)

    @settings(max_examples=200, deadline=None)
    @given(overlap_pairs())
    def test_equals_the_set_formula(self, maps):
        map_a, map_b, k = maps
        if not set(map_a) & set(map_b):
            with pytest.raises(EvaluationError):
                overlap_at_k(map_a, map_b, k)
            return
        assert overlap_at_k(map_a, map_b, k) == set_overlap(map_a, map_b, k)

    def test_exact_whatever_the_word_order(self):
        es = order_sensitive_set()
        ternary = quantize_all(es)
        map_a, map_b = es.as_map(), dict(zip(ternary.words, ternary.values))
        assert list(map_a) == list(map_b) == list(es.words)  # row i is the same word on both sides
        tops = (word_lists(index, index.own_top_k(10)) for index in map(_as_index, (map_a, map_b)))
        hits = sum(len(set(a) & set(b)) for a, b in zip(*tops))
        exact = float(Fraction(hits, 10 * len(es.words)))
        # each side in its own row order: the sum runs in the first side's
        for seed in range(4):
            ternary_b = quantize_all(shuffled(es, seed + 4))
            shuffled_b = dict(zip(ternary_b.words, ternary_b.values))
            assert overlap_at_k(shuffled(es, seed).as_map(), shuffled_b, 10) == exact


class TestAnalogyEval:
    @staticmethod
    def exact_fixture():
        # d = b - a + c exactly, and is the unique nearest candidate
        vectors = {
            "a": np.array([1.0, 0.0, 0.0, 0.0]),
            "b": np.array([0.0, 1.0, 0.0, 0.0]),
            "c": np.array([1.0, 0.0, 1.0, 0.0]),
            "d": np.array([0.0, 1.0, 1.0, 0.0]),
            "noise1": np.array([0.3, -0.7, 0.1, 0.9]),
            "noise2": np.array([-0.5, 0.1, -0.8, 0.2]),
        }
        return vectors, [AnalogyQuad("a", "b", "c", "d")]

    def test_exact_construction_correct(self):
        vectors, quads = self.exact_fixture()
        accuracy, used, skipped = analogy_eval(vectors, quads)
        assert (accuracy, used, skipped) == (1.0, 1, 0)

    def test_oov_quad_skipped(self):
        vectors, quads = self.exact_fixture()
        quads.append(AnalogyQuad("a", "b", "c", "missing"))
        accuracy, used, skipped = analogy_eval(vectors, quads)
        assert (accuracy, used, skipped) == (1.0, 1, 1)

    def test_all_skipped_errors(self):
        with pytest.raises(EvaluationError):
            analogy_eval({"a": np.ones(2)}, [AnalogyQuad("x", "y", "z", "w")])

    def test_scale_invariance(self):
        vectors, quads = self.exact_fixture()
        scaled = {w: 7.5 * v for w, v in vectors.items()}
        assert analogy_eval(scaled, quads) == analogy_eval(vectors, quads)

    def test_query_with_no_neighbour_is_wrong(self):
        # the second quad's target e - a + zero is the zero vector, which
        # has no neighbour, so its fourth word is not found
        vectors, quads = self.exact_fixture()
        vectors["e"] = vectors["a"].copy()
        vectors["zero"] = np.zeros(4)
        quads.append(AnalogyQuad("a", "e", "zero", "d"))
        assert analogy_eval(vectors, quads) == (0.5, 2, 0)

    def test_query_words_excluded(self):
        # without exclusion, b itself would beat d
        vectors = {
            "a": np.array([1.0, 0.0]),
            "b": np.array([0.0, 1.0]),
            "c": np.array([1.0, 0.001]),
            "d": np.array([0.001, 1.0]),
        }
        accuracy, _, _ = analogy_eval(vectors, [AnalogyQuad("a", "b", "c", "d")])
        assert accuracy == 1.0


class TestReconstructionAccuracy:
    def test_identical_sets(self, random_set):
        ts = quantize_all(random_set)
        word_exact, per_dim, confusion = reconstruction_accuracy(ts, ts)
        assert word_exact == 1.0
        assert per_dim == 1.0
        assert np.all(confusion == np.diag(np.diag(confusion)))

    def test_one_flipped_dimension(self):
        truth = TernarySet(("u", "v"), np.array([[1, 0], [0, -1]], dtype=np.int8))
        flipped = np.array([[1, 0], [0, 1]], dtype=np.int8)
        pred = TernarySet(("u", "v"), flipped)
        word_exact, per_dim, confusion = reconstruction_accuracy(truth, pred)
        assert word_exact == 0.5
        assert per_dim == 0.75
        assert confusion[0, 2] == 1  # the -1 misread as +1

    def test_confusion_rows_sum_to_symbol_counts(self, random_set):
        ts = quantize_all(random_set)
        other = TernarySet(ts.words, np.roll(ts.values, 1, axis=1))
        _, _, confusion = reconstruction_accuracy(ts, other)
        for i, symbol in enumerate((-1, 0, 1)):
            assert confusion[i].sum() == np.sum(ts.values == symbol)

    def test_vocabulary_mismatch(self):
        a = TernarySet(("x",), np.array([[1]], dtype=np.int8))
        b = TernarySet(("y",), np.array([[1]], dtype=np.int8))
        with pytest.raises(ValueError):
            reconstruction_accuracy(a, b)


class TestFullReport:
    @staticmethod
    def datasets(words):
        pairs = [SimilarityPair(words[i], words[i + 1], float(i)) for i in range(8)]
        quads = [AnalogyQuad(words[0], words[1], words[2], words[3])]
        return pairs, quads

    def test_lossless_columns_identical(self, random_set):
        pairs, quads = self.datasets(random_set.words)
        report = full_report(random_set, CodecConfig(mode="lossless"), pairs, quads)
        # reconstruction is N/A for the quantized column; all shared
        # metrics must agree exactly
        for field in ("simlex_rho", "analogy_accuracy", "overlap_at_10",
                      "simlex_used", "simlex_skipped", "analogy_used", "analogy_skipped"):
            assert getattr(report.quantized, field) == getattr(report.spike, field)
        assert report.spike.reconstruction_accuracy == 1.0
        assert report.per_dimension_accuracy == 1.0

    def test_stochastic_reports_confusion(self, random_set):
        pairs, quads = self.datasets(random_set.words)
        report = full_report(random_set, CodecConfig(seed=9), pairs, quads)
        assert report.confusion is not None
        assert report.spike.reconstruction_accuracy <= 1.0
        assert 0.0 <= report.per_dimension_accuracy <= 1.0

    def test_shuffled_rows_give_the_same_overlap(self):
        es = order_sensitive_set()
        cfg = CodecConfig(mode="lossless")
        assert full_report(es, cfg).quantized.overlap_at_10 == 0.489
        for seed in range(4):
            assert full_report(shuffled(es, seed), cfg).quantized.overlap_at_10 == 0.489

    @pytest.mark.parametrize("mode", ["stochastic", "lossless"])
    def test_makes_no_spike_times(self, random_set, no_spike_times, mode):
        pairs, quads = self.datasets(random_set.words)
        report = full_report(random_set, CodecConfig(mode=mode, seed=4), pairs, quads)
        assert report.confusion is not None

    def test_smoke_serializes(self, random_set):
        import json

        report = full_report(random_set, CodecConfig(mode="lossless"))
        json.loads(report.to_json())
        table = report.to_table()
        assert "Quantized" in table and "Reconstruction" in table
