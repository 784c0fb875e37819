from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from word2spike import quantizer
from word2spike.corpus_io import CorpusFormatError, EmbeddingSet
from word2spike.quantizer import (
    TernarySet,
    TernaryVector,
    _absmean,
    load_ternary,
    quantize_all,
    save_ternary,
)

finite_vectors = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    min_size=1,
    max_size=32,
).map(np.array)


def quantize(v) -> np.ndarray:
    """The codes quantize_all gives the one-word set holding ``v``."""
    return quantize_all(EmbeddingSet(("w",), np.asarray(v, dtype=np.float64).reshape(1, -1))).values[0]


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
    # the scale of an empty vector is undefined; no word set can hold one
    with pytest.raises(ValueError, match="dimensionality must be >= 1"):
        quantize(np.array([]))


def test_quantize_three_cases():
    # gamma = 1; 2 > gamma -> +1, |-1| <= gamma -> 0 (boundary), |0| <= gamma -> 0
    assert quantize(np.array([2.0, -1.0, 0.0])).tolist() == [1, 0, 0]


def test_quantize_zero_vector():
    assert quantize(np.zeros(4)).tolist() == [0, 0, 0, 0]


def test_quantize_boundary_values_go_to_zero():
    # gamma = 3 exactly; strict inequalities leave both at 0
    assert quantize(np.array([3.0, -3.0])).tolist() == [0, 0]


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


@pytest.mark.parametrize("values, accepted", [
    ([np.nan, 0.0], False),
    ([-0.0, 1.0], True),
    ([0.5, -1.0], False),
    ([2, 0], False),
    ([-1.0, np.inf], False),
    (np.array([True, False]), True),
    (np.array([-1, 0, 1], dtype=np.int8), True),
    (np.array([-2, 1], dtype=np.int8), False),
], ids=["nan", "minus-zero", "half", "two", "inf", "bool", "int8", "int8-minus-two"])
def test_alphabet_check_agrees_with_isin(values, accepted):
    # the reference: membership in {-1, 0, 1} by np.isin
    assert np.isin(values, (-1, 0, 1)).all() == accepted
    if accepted:
        assert TernaryVector(values).values.tolist() == np.asarray(values).astype(np.int8).tolist()
    else:
        with pytest.raises(ValueError, match=r"\{-1, 0, \+1\}"):
            TernaryVector(values)


def test_ternary_set_rejects_duplicate_words():
    # save_ternary would write a file that load_ternary refuses
    with pytest.raises(CorpusFormatError, match="duplicate words"):
        TernarySet(("a", "a"), [[1, 0], [0, -1]])


def test_load_ternary_rejects_fraction(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a 1 0.5 -1\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"values outside \{-1, 0, 1\}"):
        load_ternary(str(path))


# the line is found by reading the file again, past a header and blank
# lines; 1e0, +1 and 1.0 are codes, written another way
@pytest.mark.parametrize("header", ["", "3 3\n"])
def test_load_ternary_error_names_line_and_token(tmp_path, header):
    path = tmp_path / "t.txt"
    path.write_text(header + "\na 1 0 -1\nb 1e0 +1 1.0\n  \nc -1 0.50 2\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as exc:
        load_ternary(str(path))
    assert str(exc.value) == f"{path}:{5 + bool(header)}: values outside {{-1, 0, 1}}: '0.50'"


@settings(max_examples=300, deadline=None)
@given(finite_vectors)
def test_sign_symmetry(v):
    assert np.array_equal(quantize(-v), -quantize(v))


@settings(max_examples=300, deadline=None)
@given(finite_vectors, st.floats(min_value=1e-3, max_value=1e3))
def test_positive_scale_invariance(v, c):
    # exact in real arithmetic; skip inputs sitting within float rounding
    # distance of the gamma boundary, where the comparison can flip
    gamma = np.mean(np.abs(v))
    assume(np.all(np.abs(np.abs(v) - gamma) > 1e-9 * max(1.0, gamma)))
    assert np.array_equal(quantize(c * v), quantize(v))


@settings(max_examples=300, deadline=None)
@given(finite_vectors)
def test_alphabet_and_counts(v):
    t = quantize(v)
    assert set(np.unique(t)) <= {-1, 0, 1}
    counts = sum(int(np.sum(t == s)) for s in (-1, 0, 1))
    assert counts == len(v)


@settings(max_examples=200, deadline=None)
@given(finite_vectors)
def test_matches_definition(v):
    gamma = np.mean(np.abs(v))
    expected = np.where(v > gamma, 1, np.where(v < -gamma, -1, 0))
    assert np.array_equal(quantize(v), expected)


class TestQuantizeAll:
    def test_composition(self, tiny_set):
        ts = quantize_all(tiny_set)
        assert ts.words == tiny_set.words
        for i, word in enumerate(tiny_set.words):
            # each row is quantized on its own scale, as if it were alone
            assert np.array_equal(ts.values[i], quantize(tiny_set.vectors[i]))
            assert ts.gammas[i] == np.mean(np.abs(tiny_set.vectors[i]))

    def test_negation_flips_all(self, random_set):
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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=4), unique=True, max_size=6), st.integers(0, 5),
           st.sampled_from([1, 3, 7, 2**16]), st.data())
    def test_save_bytes_match_per_value_formatting_in_blocks(self, tmp_path_factory, words, dim, block, data):
        # non-ASCII words, rows without dimensions and blocks cut anywhere
        values = np.array(data.draw(st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=dim, max_size=dim),
                                             min_size=len(words), max_size=len(words))), np.int8)
        ts = TernarySet(tuple(words), values.reshape(len(words), dim))
        path = tmp_path_factory.mktemp("ternary") / "t.txt"
        with mock.patch.object(quantizer, "_BLOCK_CODES", block):
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
