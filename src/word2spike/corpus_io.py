"""Parsing and validation of external data files.

Handles the de-facto text embedding format (``token v1 v2 ... vn`` with an
optional ``count dim`` header), SimLex-style TSV similarity files, analogy
files (four tokens per line), and plain word lists.  All loaders read
their lines through ``_text_lines`` and reject malformed input loudly,
with line numbers; nothing is silently dropped.
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


def _text_lines(path: str):
    """(line number, line) for each line of the UTF-8 text file at ``path``
    that holds more than whitespace.  A leading byte-order mark is dropped,
    and lines end at ``\n``, ``\r`` or ``\r\n`` only, so a line's number
    is the one a text editor shows."""
    with open(path, encoding="utf-8-sig", newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isspace():
                yield lineno, line


# lines are parsed in blocks of about this many characters
_BLOCK_CHARS = 2**16

# every character str.isspace() holds for except " ", "\n" and "\r", which
# universal newlines leave only as a line's final "\n": str.split() breaks
# tokens at each of them, np.loadtxt does not
_ASCII_SPACES = ("\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")
_UNICODE_SPACES = (
    "\x85", "\xa0", "\u1680", "\u2000", "\u2001", "\u2002", "\u2003", "\u2004", "\u2005", "\u2006",
    "\u2007", "\u2008", "\u2009", "\u200a", "\u2028", "\u2029", "\u202f", "\u205f", "\u3000",
)


def _blocks(items, size, limit: int):
    """Lists of consecutive items, each closed once the ``size`` of its
    items adds up to ``limit``."""
    block, total = [], 0
    for item in items:
        block.append(item)
        total += size(item)
        if total >= limit:
            yield block
            block, total = [], 0
    if block:
        yield block


def _header(line: str) -> tuple[int, int] | None:
    """The ``count dim`` of an embedding file's first line, if it is one.
    No header declares 0 dimensions, so ``7 0`` is a word and its value."""
    parts = line.split()
    # str.isdigit() holds for "²" too, which int() cannot read
    if len(parts) == 2 and all(tok.isascii() and tok.isdigit() for tok in parts) and int(parts[1]) >= 1:
        return int(parts[0]), int(parts[1])
    return None


def _parse_plain_block(lines: list[str], lowercase: bool, seen: set[str],
                       dim: int | None) -> tuple[list[str], np.ndarray] | None:
    """The tokens and the (len(lines), n) values of ``lines`` when each is
    ``token v1 .. vn`` with single spaces and no other whitespace, every
    value is finite, n equals ``dim`` (if not None) and no token repeats
    or is in ``seen``; else None.

    ``np.loadtxt`` reads a value as ``float()`` does, but refuses some
    tokens ``float()`` takes (``1_000``, non-ASCII digits) and the empty
    field that a double, leading or trailing space makes; such a block is
    None too.
    """
    text = "".join(lines)
    if any(ch in text for ch in _ASCII_SPACES):
        return None
    if not text.isascii() and any(ch in text for ch in _UNICODE_SPACES):
        return None
    tokens, rests = [], []
    for line in lines:
        token, _, rest = line.partition(" ")
        # np.loadtxt skips a line without values, and warns if none has any
        if not token or rest in ("", "\n"):
            return None
        tokens.append(token.lower() if lowercase else token)
        rests.append(rest)
    try:
        values = np.loadtxt(rests, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    if dim is not None and values.shape[1] != dim:
        return None
    if not np.isfinite(values).all() or len(set(tokens)) != len(tokens) or not seen.isdisjoint(tokens):
        return None
    return tokens, values


def load_embeddings(path: str, lowercase: bool = False) -> EmbeddingSet:
    """Load a text embedding file.

    Each data line is ``token v1 v2 ... vn``, after an optional first line
    ``count dim`` with dim at least 1.  Dimensionality must be consistent;
    duplicate tokens and non-finite values are rejected.  Any Unicode line
    break but the three line ends separates tokens like a space.

    Lines are read in blocks of about _BLOCK_CHARS characters.  A block of
    plain lines is parsed by one ``np.loadtxt`` call, and any other block
    line by line, which gives every error its message and line number.
    """
    words: list[str] = []
    matrices: list[np.ndarray] = []
    seen: set[str] = set()
    dim: int | None = None
    declared: tuple[int, int] | None = None

    for block in _blocks(_text_lines(path), lambda item: len(item[1]), _BLOCK_CHARS):
        # a header can only be line 1, so only the first block holds one
        if block[0][0] == 1 and (declared := _header(block[0][1])) is not None:
            del block[0]
            if not block:
                continue
        # before the first row, a header's dim is the one to match
        expected = declared[1] if dim is None and declared is not None else dim
        parsed = _parse_plain_block([line for _, line in block], lowercase, seen, expected)
        if parsed is not None:
            tokens, values = parsed
            dim = values.shape[1]
            seen.update(tokens)
            words.extend(tokens)
            matrices.append(values)
            continue
        rows: list[list[float]] = []
        for lineno, line in block:
            parts = line.split()
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
            rows.append(values)
        if rows:
            matrices.append(np.array(rows, dtype=np.float64))

    if not words:
        raise CorpusFormatError(f"{path}: no embedding rows found")
    if declared is not None and declared[0] != len(words):
        raise CorpusFormatError(
            f"{path}: header declares {declared[0]} rows, found {len(words)}"
        )
    return EmbeddingSet(tuple(words), np.concatenate(matrices))


def load_simlex(path: str, lowercase: bool = False) -> list[SimilarityPair]:
    """Load a SimLex-999 style TSV whose first line names its columns,
    among them word1, word2 and SimLex999; any Unicode line break but the
    three line ends stays inside its column."""
    pairs = []
    columns = None
    for lineno, line in _text_lines(path):
        cols = line.rstrip("\n").split("\t")
        if columns is None:
            try:
                columns = [cols.index(name) for name in ("word1", "word2", "SimLex999")]
            except ValueError as exc:
                raise CorpusFormatError(
                    f"{path}: header must contain word1, word2 and SimLex999 columns"
                ) from exc
            continue
        if len(cols) <= max(columns):
            raise CorpusFormatError(f"{path}:{lineno}: too few columns")
        a, b, score = (cols[i] for i in columns)
        if lowercase:
            a, b = a.lower(), b.lower()
        score = _parse_float(score, path, lineno)
        if a == b:
            raise CorpusFormatError(f"{path}:{lineno}: similarity pair with identical words: {a!r}")
        pairs.append(SimilarityPair(a, b, score))
    if columns is None:
        raise CorpusFormatError(f"{path}: empty file")
    return pairs


def load_analogies(path: str, lowercase: bool = False) -> list[AnalogyQuad]:
    """Load analogy quads, one ``a b c d`` per line; ``:``/``#`` lines skipped."""
    quads = []
    for lineno, line in _text_lines(path):
        parts = line.split()
        if parts[0].startswith((":", "#")):
            continue
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
    for _, line in _text_lines(path):
        tok = line.strip()
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
