"""Semantic-fidelity metrics over original, quantized, and spike-decoded
word representations: SimLex Spearman correlation, top-1 analogy accuracy
(3CosAdd), top-10 nearest-neighbor overlap, and exact reconstruction
accuracy, assembled into a table-shaped report.

Out-of-vocabulary items are skipped and counted, never silently dropped.
All-zero vectors (possible after ternarization) get cosine similarity 0
and are excluded from neighbor rankings.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, replace

import numpy as np

from .corpus_io import AnalogyQuad, EmbeddingSet, SimilarityPair, WordList
from .quantizer import TernarySet
from .spike_codec import CodecConfig, roundtrip

log = logging.getLogger(__name__)


class EvaluationError(ValueError):
    """Metric preconditions not met (degenerate or empty input)."""


def _cosine_or_none(u: np.ndarray, v: np.ndarray) -> float | None:
    """Cosine similarity, or None when either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return None
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; zero-norm vectors compare as 0 (with a warning)."""
    c = _cosine_or_none(u, v)
    if c is None:
        log.warning("cosine of a zero-norm vector defined as 0")
        return 0.0
    return c


def _fractional_ranks(xs: np.ndarray) -> np.ndarray:
    """Average-fractional ranks, 1-based; ties share their mean rank.

    A group of c equal values whose last 1-based rank is C gets the mean
    rank C - (c - 1) / 2, an integer or a half, so exact in float64.
    """
    _, inverse, counts = np.unique(xs, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    if len(xs) < 2:
        raise EvaluationError("need at least 2 observations")
    if len(np.unique(xs)) < 2 or len(np.unique(ys)) < 2:
        raise EvaluationError("constant input has no rank correlation")
    rx = _fractional_ranks(xs)
    ry = _fractional_ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.dot(rx, ry) / np.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))


def simlex_eval(
    vectors: dict[str, np.ndarray], pairs: list[SimilarityPair]
) -> tuple[float, int, int]:
    """Spearman rho between model cosines and human scores.

    Pairs with either word out of vocabulary are skipped and counted.
    Pairs involving a zero-norm vector get cosine 0 and one aggregated
    warning.  Returns (rho, used, skipped).
    """
    if not pairs:
        raise EvaluationError("no similarity pairs supplied")
    sims, scores = [], []
    skipped = zero_norm = 0
    for pair in pairs:
        if pair.word_a not in vectors or pair.word_b not in vectors:
            skipped += 1
            continue
        c = _cosine_or_none(vectors[pair.word_a], vectors[pair.word_b])
        if c is None:
            zero_norm += 1
            c = 0.0
        sims.append(c)
        scores.append(pair.human_score)
    if zero_norm:
        log.warning("%d pairs involve a zero-norm vector; their cosine is taken as 0", zero_norm)
    if len(sims) < 2:
        raise EvaluationError(
            f"only {len(sims)} in-vocabulary pairs ({skipped} skipped); need >= 2"
        )
    return spearman(sims, scores), len(sims), skipped


# rows x vocabulary cells scored per matrix product in _NeighborIndex.top_k;
# 2**19 float64 cells keep each block's temporaries near 4 MB
_BLOCK_CELLS = 2**19


class _NeighborIndex:
    """Exact brute-force cosine search over a vocabulary, batched.

    Queries are scored in row blocks, one matrix product per block.
    Zero-norm words are excluded from rankings (their cosine is defined as
    0, which would rank arbitrarily), and a zero query has no neighbours.
    Rankings are by (-score, token): words are sorted, so equal scores
    break toward the smaller token.  The score is the key
    ``sign(d) * d**2 / |row|**2`` of the dot product ``d``, which ranks as
    the cosine does and is exact for ternary rows and integer queries.
    """

    def __init__(self, vectors: dict[str, np.ndarray]):
        self.words = sorted(vectors)
        self.row = {w: i for i, w in enumerate(self.words)}
        self.matrix = np.stack([np.asarray(vectors[w], dtype=np.float64) for w in self.words])
        self.sq_norms = np.einsum("ij,ij->i", self.matrix, self.matrix)
        self.zero_norm = self.sq_norms == 0.0
        if self.zero_norm.any():
            log.warning(
                "%d zero-norm vectors excluded from neighbor rankings",
                int(self.zero_norm.sum()),
            )
        self._own: dict[int, dict[str, list[str]]] = {}

    def __contains__(self, word: str) -> bool:
        return word in self.row

    def top_k(self, queries: np.ndarray, k: int, exclude: np.ndarray) -> list[list[str]]:
        """Top-k words for each row of an (m, d) query matrix.

        ``exclude`` is an (m, e) array of row indices ranked out per query.
        Returns m lists, each shorter than k only when the vocabulary runs
        out.
        """
        queries = np.asarray(queries, dtype=np.float64)
        n = len(self.words)
        step = max(1, _BLOCK_CELLS // n)
        sq_norms = np.where(self.zero_norm, 1.0, self.sq_norms)
        out: list[list[str]] = []
        for lo in range(0, len(queries), step):
            block = queries[lo : lo + step]
            scores = block @ self.matrix.T
            # d * |d| / |row|**2 ranks as d / |row| does.  For ternary rows
            # (|row|**2 <= dim) and integer queries with sum|q| * dim < 2**26
            # it is exact and order-faithful in float64: d and d**2 are exact
            # integers, and two distinct keys differ by at least 1 / dim**2,
            # more than rounding can close, so ties are true ties
            scores *= np.abs(scores)
            scores /= sq_norms
            scores[:, self.zero_norm] = -np.inf
            scores[~block.any(axis=1)] = -np.inf
            scores[np.arange(len(block))[:, None], exclude[lo : lo + step]] = -np.inf
            out.extend(self._rank(scores, min(k, n)))
        return out

    def _rank(self, scores: np.ndarray, k: int) -> list[list[str]]:
        if k <= 0:
            return [[] for _ in scores]
        # per query row: every candidate scoring at least the k-th largest
        # (ties at the k-th place included), ordered by (-score, token)
        kth = np.partition(scores, -k, axis=1)[:, -k]
        flat = np.flatnonzero(scores >= kth[:, None])
        values = scores.ravel()[flat]
        finite = values > -np.inf
        flat, values = flat[finite], values[finite]
        rows, cols = np.divmod(flat, scores.shape[1])
        order = np.lexsort((cols, -values, rows))
        rows, cols = rows[order], cols[order]
        starts = np.searchsorted(rows, np.arange(len(scores) + 1))
        return [
            [self.words[i] for i in cols[a : min(b, a + k)]]
            for a, b in zip(starts[:-1], starts[1:])
        ]

    def own_top_k(self, words: list[str], k: int) -> list[list[str]]:
        """Top-k lists of vocabulary words, each ranking itself out;
        memoized per (word, k), and the missing ones computed in one call."""
        memo = self._own.setdefault(k, {})
        missing = [w for w in dict.fromkeys(words) if w not in memo]
        if missing:
            rows = np.sort(np.array([self.row[w] for w in missing], dtype=np.intp))
            # the whole vocabulary is queried in place, without a copy
            queries = self.matrix if len(rows) == len(self.words) else self.matrix[rows]
            tops = self.top_k(queries, k, rows[:, None])
            memo.update((self.words[r], top) for r, top in zip(rows, tops))
        return [memo[w] for w in words]


def _as_index(vectors) -> _NeighborIndex:
    return vectors if isinstance(vectors, _NeighborIndex) else _NeighborIndex(vectors)


def neighbors(vectors: dict[str, np.ndarray], query: str, k: int) -> list[str]:
    """Top-k cosine nearest neighbors of a vocabulary word, query excluded.

    Ties break lexicographically; returns fewer than k words only when the
    vocabulary runs out.
    """
    if query not in vectors:
        raise EvaluationError(f"query {query!r} not in vocabulary")
    if k < 1:
        raise ValueError("k must be >= 1")
    return _NeighborIndex(vectors).own_top_k([query], k)[0]


def overlap_at_k(
    map_a: dict[str, np.ndarray] | _NeighborIndex,
    map_b: dict[str, np.ndarray] | _NeighborIndex,
    k: int,
    vocab: WordList | list[str] | None = None,
) -> float:
    """Mean |top-k(a) ∩ top-k(b)| / k over the shared vocabulary.

    Either side may be a prebuilt index, whose top-k lists are reused.
    """
    index_a, index_b = _as_index(map_a), _as_index(map_b)
    words = list(vocab) if vocab is not None else sorted(set(index_a.row) & set(index_b.row))
    words = [w for w in words if w in index_a and w in index_b]
    if not words:
        raise EvaluationError("empty shared vocabulary")
    pairs = zip(index_a.own_top_k(words, k), index_b.own_top_k(words, k))
    return float(np.mean([len(set(top_a) & set(top_b)) / k for top_a, top_b in pairs]))


def analogy_eval(
    vectors: dict[str, np.ndarray] | _NeighborIndex, quads: list[AnalogyQuad]
) -> tuple[float, int, int]:
    """Top-1 accuracy of 3CosAdd analogy solving.

    Predicts the nearest word to vec(b) - vec(a) + vec(c), excluding the
    three query words, for all quads in one batched search.  Quads with
    any OOV word are skipped and counted.  Returns (accuracy, used,
    skipped).
    """
    if not quads:
        raise EvaluationError("no analogy quads supplied")
    index = _as_index(vectors)
    used = [q for q in quads if all(w in index for w in (q.a, q.b, q.c, q.d))]
    skipped = len(quads) - len(used)
    if not used:
        raise EvaluationError(f"all {skipped} analogy quads skipped (OOV)")
    abc = np.array([[index.row[q.a], index.row[q.b], index.row[q.c]] for q in used], dtype=np.intp)
    m = index.matrix
    targets = m[abc[:, 1]] - m[abc[:, 0]] + m[abc[:, 2]]
    tops = index.top_k(targets, 1, abc)
    correct = sum(1 for top, q in zip(tops, used) if top and top[0] == q.d)
    return correct / len(used), len(used), skipped


def reconstruction_accuracy(
    ternary: TernarySet, decoded: TernarySet
) -> tuple[float, float, np.ndarray]:
    """Exact-reconstruction statistics between two ternary sets.

    Returns (fraction of words matching in every dimension, per-dimension
    accuracy, 3x3 confusion matrix with rows/cols ordered -1, 0, +1).
    """
    if ternary.words != decoded.words or ternary.dim != decoded.dim:
        raise ValueError("vocabulary or dimensionality mismatch")
    truth, pred = ternary.values, decoded.values
    word_exact = float(np.mean(np.all(truth == pred, axis=1)))
    per_dim = float(np.mean(truth == pred))
    cells = 3 * (truth.astype(np.intp) + 1) + (pred + 1)
    confusion = np.bincount(cells.ravel(), minlength=9).reshape(3, 3)
    return word_exact, per_dim, confusion


# Metric values reported by the original study, for context only: they
# depend on a proprietary embedding model and an unpublished analogy set,
# so they are annotations in the report, never test oracles.
REFERENCE_VALUES = {
    "simlex_rho": {"original": 0.540, "quantized": 0.542, "spike": 0.526},
    "analogy_accuracy": {"original": 0.375, "quantized": 0.375, "spike": 0.375},
    "overlap_at_10": {"quantized": 0.885, "spike": 0.727},
    "reconstruction_accuracy": {"spike": 1.0},
}


@dataclass
class RepresentationMetrics:
    simlex_rho: float | None = None
    simlex_used: int = 0
    simlex_skipped: int = 0
    analogy_accuracy: float | None = None
    analogy_used: int = 0
    analogy_skipped: int = 0
    overlap_at_10: float | None = None
    reconstruction_accuracy: float | None = None


@dataclass
class EvalReport:
    """Metrics for the original / quantized / spike-decoded representations."""

    original: RepresentationMetrics
    quantized: RepresentationMetrics
    spike: RepresentationMetrics
    per_dimension_accuracy: float | None = None
    confusion: list[list[int]] | None = None
    reference: dict = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_table(self) -> str:
        """Aligned-text table, one metric per row, one representation per column."""
        def fmt(value, pct=False):
            if value is None:
                return "N/A"
            return f"{100 * value:.2f}%" if pct else f"{value:.3f}"

        rows = [
            ("SimLex (Spearman rho)", [fmt(r.simlex_rho) for r in self._reps()]),
            ("Analogy accuracy", [fmt(r.analogy_accuracy, pct=True) for r in self._reps()]),
            ("Overlap@10 vs original", [fmt(r.overlap_at_10) for r in self._reps()]),
            ("Reconstruction accuracy", [fmt(r.reconstruction_accuracy, pct=True) for r in self._reps()]),
        ]
        header = ("Metric", ["Original", "Quantized", "Spike-based"])
        width = max(len(header[0]), *(len(name) for name, _ in rows)) + 2
        lines = [header[0].ljust(width) + "".join(c.rjust(14) for c in header[1])]
        lines.append("-" * len(lines[0]))
        for name, cells in rows:
            lines.append(name.ljust(width) + "".join(c.rjust(14) for c in cells))
        return "\n".join(lines)

    def _reps(self):
        return (self.original, self.quantized, self.spike)


def _metrics_for(
    index: _NeighborIndex, original_index: _NeighborIndex, pairs, quads, vocab
) -> RepresentationMetrics:
    m = RepresentationMetrics()
    if pairs:
        vectors = dict(zip(index.words, index.matrix))
        m.simlex_rho, m.simlex_used, m.simlex_skipped = simlex_eval(vectors, pairs)
    if quads:
        m.analogy_accuracy, m.analogy_used, m.analogy_skipped = analogy_eval(index, quads)
    m.overlap_at_10 = overlap_at_k(original_index, index, 10, vocab)
    return m


def full_report(
    original: EmbeddingSet,
    cfg: CodecConfig,
    pairs: list[SimilarityPair] | None = None,
    quads: list[AnalogyQuad] | None = None,
) -> EvalReport:
    """Quantize and round-trip the embedding set, then evaluate all metrics
    for the original, quantized, and spike-decoded representations.

    One neighbour index is built per representation and shared by all its
    metrics; the original's top-10 lists are computed once.  When the
    decoded codes equal the quantized ones, as in lossless mode, the spike
    metrics are the quantized metrics and no third index is built."""
    result = roundtrip(original, cfg)
    original_index = _NeighborIndex(original.as_map())
    vocab = list(original.words)
    original_m = _metrics_for(original_index, original_index, pairs, quads, vocab)
    quantized_m = _metrics_for(
        _NeighborIndex(result.ternary.as_map()), original_index, pairs, quads, vocab
    )
    if np.array_equal(result.decoded.values, result.ternary.values):
        # same words by construction, and every metric is a function of
        # the words and their codes
        spike_m = replace(quantized_m)
    else:
        spike_m = _metrics_for(
            _NeighborIndex(result.decoded.as_map()), original_index, pairs, quads, vocab
        )
    report = EvalReport(
        original=original_m, quantized=quantized_m, spike=spike_m, reference=REFERENCE_VALUES
    )
    word_exact, per_dim, confusion = reconstruction_accuracy(result.ternary, result.decoded)
    report.spike.reconstruction_accuracy = word_exact
    report.per_dimension_accuracy = per_dim
    report.confusion = confusion.tolist()
    return report
