"""Absmean ternarization of continuous vectors.

Each vector gets its own scale gamma = mean(|w_i|); dimensions strictly
above +gamma map to +1, strictly below -gamma map to -1, everything with
|w_i| <= gamma maps to 0.  The rule is scale-invariant for positive
scaling and odd under negation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus_io import CorpusFormatError, EmbeddingSet, load_embeddings


@dataclass(frozen=True)
class TernaryVector:
    """Per-dimension codes in {-1, 0, +1} plus the absmean scale used."""

    values: np.ndarray  # int8
    gamma: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int8)
        if not np.isin(vals, (-1, 0, 1)).all():
            raise ValueError("ternary values must lie in {-1, 0, +1}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.gamma == 0 and np.any(vals != 0):
            raise ValueError("gamma == 0 implies an all-zero code")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class TernarySet:
    """A vocabulary of ternary codes; gammas may be absent for decoded sets."""

    words: tuple[str, ...]
    values: np.ndarray  # (n_words, dim) int8
    gammas: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int8)
        if vals.ndim != 2 or vals.shape[0] != len(self.words):
            raise ValueError("values must be a (n_words, dim) matrix")
        if not np.isin(vals, (-1, 0, 1)).all():
            raise ValueError("ternary values must lie in {-1, 0, +1}")
        object.__setattr__(self, "values", vals)
        if self.gammas is not None:
            g = np.asarray(self.gammas, dtype=np.float64)
            if g.shape != (len(self.words),):
                raise ValueError("one gamma per word required")
            object.__setattr__(self, "gammas", g)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def as_map(self) -> dict[str, np.ndarray]:
        return {w: self.values[i].astype(np.float64) for i, w in enumerate(self.words)}


def _absmean(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row gammas mean(|w|) and ternary codes of an (n, d) matrix."""
    gammas = np.mean(np.abs(vectors), axis=1)
    codes = np.zeros(vectors.shape, dtype=np.int8)
    codes[vectors > gammas[:, None]] = 1
    codes[vectors < -gammas[:, None]] = -1
    return gammas, codes


def _one_row(v: np.ndarray) -> np.ndarray:
    """A nonempty finite vector as a (1, d) float64 matrix."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite value in vector")
    return v.reshape(1, -1)


def absmean_gamma(v: np.ndarray) -> float:
    """Mean absolute value of a nonempty finite vector."""
    gammas, _ = _absmean(_one_row(v))
    return float(gammas[0])


def quantize(v: np.ndarray) -> TernaryVector:
    """Ternarize one vector with its own absmean gamma."""
    gammas, codes = _absmean(_one_row(v))
    return TernaryVector(codes[0], float(gammas[0]))


def quantize_all(es: EmbeddingSet, normalize: bool = False) -> TernarySet:
    """Quantize every word of an EmbeddingSet, preserving word order.

    ``normalize`` L2-normalizes each nonzero vector first, which changes
    the gammas but not the codes (the rule is positive-scale invariant).
    """
    vectors = es.vectors
    if normalize:
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors = np.where(norms > 0, vectors / np.where(norms > 0, norms, 1.0), vectors)
    gammas, codes = _absmean(vectors)
    return TernarySet(es.words, codes, gammas)


# the text form of -1, 0, +1, indexed by code + 1
_SYMBOLS = np.array(["-1", "0", "1"])


def save_ternary(ts: TernarySet, path: str, gamma_path: str | None = None) -> None:
    """Write a ternary set in the text embedding format, values in {-1,0,1}.

    Per-word gammas go to a sidecar file (``token gamma`` per line) when
    ``gamma_path`` is given and gammas are present.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(ts.words, ts.values):
            fh.write(word + " " + " ".join(_SYMBOLS[row + 1].tolist()) + "\n")
    if gamma_path is not None and ts.gammas is not None:
        with open(gamma_path, "w", encoding="utf-8") as fh:
            for word, g in zip(ts.words, ts.gammas):
                fh.write(f"{word} {float(g)!r}\n")


def load_ternary(path: str, gamma_path: str | None = None) -> TernarySet:
    """Read a ternary text file (and optional gamma sidecar) back."""
    es = load_embeddings(path)
    values = es.vectors
    if not np.isin(values, (-1.0, 0.0, 1.0)).all():
        raise CorpusFormatError(f"{path}: values outside {{-1, 0, 1}}")
    gammas = None
    if gamma_path is not None:
        gmap = {}
        with open(gamma_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 2:
                    raise CorpusFormatError(f"{gamma_path}:{lineno}: expected 'token gamma'")
                gmap[parts[0]] = float(parts[1])
        try:
            gammas = np.array([gmap[w] for w in es.words])
        except KeyError as exc:
            raise CorpusFormatError(f"{gamma_path}: missing gamma for {exc}") from exc
    return TernarySet(es.words, values.astype(np.int8), gammas)
