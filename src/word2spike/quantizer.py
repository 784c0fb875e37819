"""Absmean ternarization of continuous vectors.

Each vector gets its own scale gamma = mean(|w_i|); dimensions strictly
above +gamma map to +1, strictly below -gamma map to -1, everything with
|w_i| <= gamma maps to 0.  The rule is scale-invariant for positive
scaling and odd under negation.  The scale only picks the codes: every
later stage, and every cosine metric, works on the codes alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus_io import CorpusFormatError, EmbeddingSet, load_embeddings


def _ternary_codes(values) -> np.ndarray:
    """``values`` as int8, if every entry is exactly -1, 0 or +1."""
    values = np.asarray(values)
    if not ((values == -1) | (values == 0) | (values == 1)).all():
        raise ValueError("ternary values must lie in {-1, 0, +1}")
    return values.astype(np.int8, copy=False)


@dataclass(frozen=True)
class TernaryVector:
    """Per-dimension codes in {-1, 0, +1}."""

    values: np.ndarray  # int8

    def __post_init__(self):
        object.__setattr__(self, "values", _ternary_codes(self.values))


@dataclass(frozen=True)
class TernarySet:
    """A vocabulary of ternary codes, one row per word."""

    words: tuple[str, ...]
    values: np.ndarray  # (n_words, dim) int8
    # the per-word absmean scales from quantize_all, None elsewhere; no
    # command reads them, but the benchmark's roundtrip workload counts
    # them in its output_bytes
    gammas: np.ndarray | None = None

    def __post_init__(self):
        vals = _ternary_codes(self.values)
        if vals.ndim != 2 or vals.shape[0] != len(self.words):
            raise ValueError("values must be a (n_words, dim) matrix")
        if len(set(self.words)) != len(self.words):
            raise CorpusFormatError("duplicate words in ternary set")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return len(self.words)


def _absmean(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row gammas mean(|w|) and ternary codes of an (n, d) matrix."""
    gammas = np.mean(np.abs(vectors), axis=1)
    codes = np.zeros(vectors.shape, dtype=np.int8)
    codes[vectors > gammas[:, None]] = 1
    codes[vectors < -gammas[:, None]] = -1
    return gammas, codes


def quantize_all(es: EmbeddingSet) -> TernarySet:
    """Quantize every word of an EmbeddingSet, preserving word order."""
    gammas, codes = _absmean(es.vectors)
    return TernarySet(es.words, codes, gammas)


# the text form of -1, 0, +1, indexed by code + 1
_SYMBOLS = np.array(["-1", "0", "1"])


def save_ternary(ts: TernarySet, path: str) -> None:
    """Write a ternary set in the text embedding format, values in {-1,0,1}."""
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(ts.words, ts.values):
            fh.write(word + " " + " ".join(_SYMBOLS[row + 1].tolist()) + "\n")


def load_ternary(path: str) -> TernarySet:
    """Read a ternary text file back."""
    es = load_embeddings(path)
    try:
        values = _ternary_codes(es.vectors)
    except ValueError:
        raise CorpusFormatError(f"{path}: values outside {{-1, 0, 1}}") from None
    return TernarySet(es.words, values)
