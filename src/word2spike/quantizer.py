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

from .corpus_io import CorpusFormatError, EmbeddingSet, _header, load_embeddings


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
    # 1 - 0 above +gamma, 0 - 1 below -gamma, 0 - 0 between
    codes = (vectors > gammas[:, None]).view(np.int8)
    codes -= (vectors < -gammas[:, None]).view(np.int8)
    return gammas, codes


def quantize_all(es: EmbeddingSet) -> TernarySet:
    """Quantize every word of an EmbeddingSet, preserving word order."""
    gammas, codes = _absmean(es.vectors)
    return TernarySet(es.words, codes, gammas)


# ternary.txt is formatted in blocks of about this many codes
_BLOCK_CODES = 2**16

# " -1", " 0" and " 1" in 4-byte lanes padded with 0 bytes, indexed by code + 1
_SYMBOL_LANES = np.frombuffer(b" -1\0 0\0\0 1\0\0", np.uint32)


def _row_texts(cells: np.ndarray, ends) -> list[bytes]:
    """The bytes of a (rows, width) uint8 matrix with every 0 byte dropped,
    cut into pieces: piece i holds the rows from ``ends[i - 1]`` (0 for
    the first) up to ``ends[i]``."""
    ends = list(ends)
    return [cells[start:stop].tobytes().translate(None, b"\0") for start, stop in zip([0] + ends, ends)]


def save_ternary(ts: TernarySet, path: str) -> None:
    """Write a ternary set in the text embedding format, values in {-1,0,1}.

    The codes are gathered from a table of 4-byte lanes, in blocks of
    about _BLOCK_CODES codes.
    """
    step = max(1, _BLOCK_CODES // max(ts.dim, 1))
    with open(path, "wb") as fh:
        for start in range(0, len(ts), step):
            codes = ts.values[start:start + step]
            texts = _row_texts(_SYMBOL_LANES[codes + 1].view(np.uint8), range(1, len(codes) + 1))
            # word, space and the codes joined by spaces, even when there are none
            fh.write(b"".join(
                word.encode() + b" " + text[1:] + b"\n" for word, text in zip(ts.words[start:start + step], texts)
            ))


def load_ternary(path: str) -> TernarySet:
    """Read a ternary text file back."""
    es = load_embeddings(path)
    try:
        values = _ternary_codes(es.vectors)
    except ValueError:
        raise CorpusFormatError(_outside_message(path, es)) from None
    return TernarySet(es.words, values)


def _outside_message(path: str, es: EmbeddingSet) -> str:
    """The error for the first value of ``es`` outside {-1, 0, 1}, naming
    its line and token, found by reading the file at ``path`` again."""
    row, col = np.argwhere((es.vectors != -1) & (es.vectors != 0) & (es.vectors != 1))[0].tolist()
    with open(path, encoding="utf-8", newline=None) as fh:
        # the data lines, as load_embeddings reads them
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or lineno == 1 and _header(line):
                continue
            if row == 0:
                return f"{path}:{lineno}: values outside {{-1, 0, 1}}: {parts[1 + col]!r}"
            row -= 1
    # the file lost lines since it was read
    return f"{path}: values outside {{-1, 0, 1}}"
