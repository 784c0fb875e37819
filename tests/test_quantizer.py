import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from word2spike.corpus_io import CorpusFormatError
from word2spike.quantizer import (
    TernarySet,
    TernaryVector,
    _absmean,
    load_ternary,
    quantize,
    quantize_all,
    save_ternary,
)

finite_vectors = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    min_size=1,
    max_size=32,
).map(np.array)


def test_absmean_gamma_hand_value():
    # (|2| + |-1| + |0|) / 3 = 1
    gammas, _ = _absmean(np.array([[2.0, -1.0, 0.0]]))
    assert gammas.tolist() == [1.0]


def test_absmean_gamma_zero_vector():
    gammas, _ = _absmean(np.zeros((1, 3)))
    assert gammas.tolist() == [0.0]


def test_absmean_gamma_single_negative():
    gammas, _ = _absmean(np.array([[-3.0]]))
    assert gammas.tolist() == [3.0]


def test_absmean_gamma_empty_rejected():
    # the scale of an empty vector is undefined, so quantize refuses it
    with pytest.raises(ValueError):
        quantize(np.array([]))


def test_quantize_three_cases():
    # gamma = 1; 2 > gamma -> +1, |-1| <= gamma -> 0 (boundary), |0| <= gamma -> 0
    t = quantize(np.array([2.0, -1.0, 0.0]))
    assert t.values.tolist() == [1, 0, 0]


def test_quantize_zero_vector():
    t = quantize(np.zeros(4))
    assert t.values.tolist() == [0, 0, 0, 0]


def test_quantize_boundary_values_go_to_zero():
    # gamma = 3 exactly; strict inequalities leave both at 0
    t = quantize(np.array([3.0, -3.0]))
    assert t.values.tolist() == [0, 0]


def test_ternary_vector_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        TernaryVector(np.array([2, 0]))


@pytest.mark.parametrize("make", [
    lambda: TernaryVector([0.5, 1.7, -1.2]),
    lambda: TernarySet(("a",), [[0.9, -0.4]]),
    lambda: TernarySet(("a",), [[257]]),
], ids=["vector-fractions", "set-fractions", "set-int8-wraparound"])
def test_alphabet_checked_before_int8_cast(make):
    # an int8 cast would turn each of these into valid codes
    with pytest.raises(ValueError, match=r"\{-1, 0, \+1\}"):
        make()


def test_ternary_set_rejects_duplicate_words():
    # save_ternary would write a file that load_ternary refuses
    with pytest.raises(CorpusFormatError, match="duplicate words"):
        TernarySet(("a", "a"), [[1, 0], [0, -1]])


def test_load_ternary_rejects_fraction(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a 1 0.5 -1\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"values outside \{-1, 0, 1\}"):
        load_ternary(str(path))


@settings(max_examples=300, deadline=None)
@given(finite_vectors)
def test_sign_symmetry(v):
    pos = quantize(v)
    neg = quantize(-v)
    assert np.array_equal(neg.values, -pos.values)


@settings(max_examples=300, deadline=None)
@given(finite_vectors, st.floats(min_value=1e-3, max_value=1e3))
def test_positive_scale_invariance(v, c):
    # exact in real arithmetic; skip inputs sitting within float rounding
    # distance of the gamma boundary, where the comparison can flip
    gamma = np.mean(np.abs(v))
    assume(np.all(np.abs(np.abs(v) - gamma) > 1e-9 * max(1.0, gamma)))
    base = quantize(v)
    scaled = quantize(c * v)
    assert np.array_equal(scaled.values, base.values)


@settings(max_examples=300, deadline=None)
@given(finite_vectors)
def test_alphabet_and_counts(v):
    t = quantize(v)
    assert set(np.unique(t.values)) <= {-1, 0, 1}
    counts = sum(int(np.sum(t.values == s)) for s in (-1, 0, 1))
    assert counts == len(v)


@settings(max_examples=200, deadline=None)
@given(finite_vectors)
def test_matches_definition(v):
    t = quantize(v)
    gamma = np.mean(np.abs(v))
    expected = np.where(v > gamma, 1, np.where(v < -gamma, -1, 0))
    assert np.array_equal(t.values, expected)


class TestQuantizeAll:
    def test_composition(self, tiny_set):
        ts = quantize_all(tiny_set)
        assert ts.words == tiny_set.words
        for i, word in enumerate(tiny_set.words):
            single = quantize(tiny_set.vectors[i])
            assert np.array_equal(ts.values[i], single.values)
            assert ts.gammas[i] == np.mean(np.abs(tiny_set.vectors[i]))

    def test_negation_flips_all(self, random_set):
        from word2spike.corpus_io import EmbeddingSet

        flipped = EmbeddingSet(random_set.words, -random_set.vectors)
        assert np.array_equal(quantize_all(flipped).values, -quantize_all(random_set).values)

    @pytest.mark.parametrize("shape", [(50, 300), (3, 1), (0, 4)])
    def test_save_bytes_match_per_value_formatting(self, tmp_path, shape):
        # oracle: the earlier writer, which formatted every value with str(int(v))
        rng = np.random.default_rng(3)
        values = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=shape)
        ts = TernarySet(tuple(f"w{i}" for i in range(shape[0])), values)
        path = tmp_path / "t.txt"
        save_ternary(ts, str(path))
        expected = "".join(
            word + " " + " ".join(str(int(v)) for v in row) + "\n"
            for word, row in zip(ts.words, ts.values)
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_serialization_roundtrip(self, tmp_path, random_set):
        ts = quantize_all(random_set)
        path = str(tmp_path / "t.txt")
        save_ternary(ts, path)
        back = load_ternary(path)
        assert back.words == ts.words
        assert np.array_equal(back.values, ts.values)
