"""Parsing and validation of external data files.

Handles the de-facto text embedding format (``token v1 v2 ... vn`` with an
optional ``count dim`` header), SimLex-style TSV similarity files, analogy
files (four tokens per line), and plain word lists.  All loaders reject
malformed input loudly, with line numbers; nothing is silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class CorpusFormatError(ValueError):
    """A data file violates its format contract."""


class EmptyResultError(ValueError):
    """An operation produced an empty vocabulary or dataset."""


@dataclass(frozen=True)
class EmbeddingSet:
    """An ordered vocabulary with one continuous vector per word.

    ``vectors`` is a (len(words), dim) float64 array; ``words`` are unique
    and lookup is exact-match, case-sensitive.
    """

    words: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        if len(self.words) < 1:
            raise EmptyResultError("embedding set must contain at least one word")
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.words):
            raise ValueError("vectors must be a (n_words, dim) matrix")
        if self.vectors.shape[1] < 1:
            raise ValueError("dimensionality must be >= 1")
        if len(set(self.words)) != len(self.words):
            raise CorpusFormatError("duplicate words in embedding set")
        if not np.all(np.isfinite(self.vectors)):
            raise CorpusFormatError("non-finite value in embedding vectors")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def as_map(self) -> dict[str, np.ndarray]:
        return {w: self.vectors[i] for i, w in enumerate(self.words)}


@dataclass(frozen=True)
class SimilarityPair:
    word_a: str
    word_b: str
    human_score: float

    def __post_init__(self):
        if self.word_a == self.word_b:
            raise CorpusFormatError(
                f"similarity pair with identical words: {self.word_a!r}"
            )


@dataclass(frozen=True)
class AnalogyQuad:
    """a : b :: c : d, where d is the expected answer."""

    a: str
    b: str
    c: str
    d: str

    def __post_init__(self):
        for tok in (self.a, self.b, self.c, self.d):
            if not tok:
                raise CorpusFormatError("analogy quad with empty token")


@dataclass(frozen=True)
class WordList:
    tokens: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise CorpusFormatError("duplicate tokens in word list")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def _parse_float(text: str, path: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}:{lineno}: unparsable number {text!r}") from exc
    if not math.isfinite(value):
        raise CorpusFormatError(f"{path}:{lineno}: non-finite value {text!r}")
    return value


def load_embeddings(path: str, lowercase: bool = False) -> EmbeddingSet:
    """Load a text embedding file.

    Each data line is ``token v1 v2 ... vn``, after an optional first line
    ``count dim``.  Dimensionality must be consistent; duplicate tokens and
    non-finite values are rejected.  Lines end at ``\n``, ``\r`` or
    ``\r\n`` only; any other Unicode line break inside a line separates
    tokens like a space.
    """
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    dim: int | None = None
    declared: tuple[int, int] | None = None

    # lines are read one at a time and each kept only as its float64 row
    with open(path, encoding="utf-8", newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            # str.isdigit() holds for "²" too, which int() cannot read
            if lineno == 1 and len(parts) == 2 and all(tok.isascii() and tok.isdigit() for tok in parts):
                declared = (int(parts[0]), int(parts[1]))
                continue
            if not parts:
                continue
            if len(parts) < 2:
                raise CorpusFormatError(f"{path}:{lineno}: expected token and values")
            token = parts[0].lower() if lowercase else parts[0]
            if token in seen:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate token {token!r}")
            # a sum is finite unless a value is not (or the sum overflows), so
            # only a line failing float() or the sum is parsed again, value by
            # value, for the first error's message
            try:
                values = list(map(float, parts[1:]))
                finite = math.isfinite(sum(values))
            except ValueError:
                finite = False
            if not finite:
                values = [_parse_float(v, path, lineno) for v in parts[1:]]
            if dim is None:
                dim = len(values)
                if declared is not None and declared[1] != dim:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: line has {dim} values but header declares "
                        f"dim {declared[1]}"
                    )
            elif len(values) != dim:
                raise CorpusFormatError(
                    f"{path}:{lineno}: line has {len(values)} values, expected {dim}"
                )
            seen.add(token)
            words.append(token)
            rows.append(np.array(values, dtype=np.float64))

    if not words:
        raise CorpusFormatError(f"{path}: no embedding rows found")
    if declared is not None and declared[0] != len(words):
        raise CorpusFormatError(
            f"{path}: header declares {declared[0]} rows, found {len(words)}"
        )
    return EmbeddingSet(tuple(words), np.stack(rows))


def load_simlex(path: str, lowercase: bool = False) -> list[SimilarityPair]:
    """Load a SimLex-999 style TSV with columns word1, word2, SimLex999.

    Lines end at ``\n``, ``\r`` or ``\r\n`` only, so an error names the
    line a text editor shows; any other Unicode line break stays inside
    its column.
    """
    pairs = []
    with open(path, encoding="utf-8", newline=None) as fh:
        first = fh.readline()
        if not first:
            raise CorpusFormatError(f"{path}: empty file")
        header = first.rstrip("\n").split("\t")
        try:
            i_a = header.index("word1")
            i_b = header.index("word2")
            i_s = header.index("SimLex999")
        except ValueError as exc:
            raise CorpusFormatError(
                f"{path}: header must contain word1, word2 and SimLex999 columns"
            ) from exc

        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cols = line.rstrip("\n").split("\t")
            if len(cols) <= max(i_a, i_b, i_s):
                raise CorpusFormatError(f"{path}:{lineno}: too few columns")
            a, b = cols[i_a], cols[i_b]
            if lowercase:
                a, b = a.lower(), b.lower()
            pairs.append(SimilarityPair(a, b, _parse_float(cols[i_s], path, lineno)))
    return pairs


def load_analogies(path: str, lowercase: bool = False) -> list[AnalogyQuad]:
    """Load analogy quads, one ``a b c d`` per line; ``:``/``#`` lines skipped."""
    quads = []
    with open(path, encoding="utf-8", newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith((":", "#")):
                continue
            parts = stripped.split()
            if len(parts) != 4:
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected 4 tokens, got {len(parts)}"
                )
            if lowercase:
                parts = [p.lower() for p in parts]
            quads.append(AnalogyQuad(*parts))
    return quads


def load_wordlist(path: str, lowercase: bool = False) -> WordList:
    """Load one token per line; duplicates removed keeping first occurrence."""
    tokens: list[str] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8", newline=None) as fh:
        for line in fh:
            tok = line.strip()
            if not tok:
                continue
            if lowercase:
                tok = tok.lower()
            if tok not in seen:
                seen.add(tok)
                tokens.append(tok)
    if not tokens:
        raise CorpusFormatError(f"{path}: empty word list")
    return WordList(tuple(tokens))


def restrict(es: EmbeddingSet, words: WordList) -> tuple[EmbeddingSet, int]:
    """Keep only words present in both, in WordList order.

    Returns the restricted set plus the count of list words missing from
    the embedding vocabulary.  Raises EmptyResultError if nothing survives.
    """
    row = {w: i for i, w in enumerate(es.words)}
    kept = [w for w in words if w in row]
    missing = len(words) - len(kept)
    if not kept:
        raise EmptyResultError("no words shared between embedding set and word list")
    return EmbeddingSet(tuple(kept), es.vectors[[row[w] for w in kept]]), missing
