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
from collections.abc import Mapping
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .corpus_io import AnalogyQuad, EmbeddingSet, SimilarityPair
from .quantizer import TernarySet
from .spike_codec import CodecConfig, roundtrip

log = logging.getLogger(__name__)


class EvaluationError(ValueError):
    """Metric preconditions not met (degenerate or empty input)."""


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; zero-norm vectors compare as 0 (with a warning)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        log.warning("cosine of a zero-norm vector defined as 0")
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


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
    vectors: Mapping[str, np.ndarray] | _NeighborIndex, pairs: list[SimilarityPair]
) -> tuple[float, int, int]:
    """Spearman rho between model cosines and human scores.

    ``vectors`` may be a prebuilt index.  Pairs with either word out of
    vocabulary are skipped and counted.  Pairs involving a zero-norm
    vector get cosine 0 and one aggregated warning.  Returns (rho, used,
    skipped).  The cosines of all used pairs are computed in one pass.
    """
    if not pairs:
        raise EvaluationError("no similarity pairs supplied")
    index = _as_index(vectors)
    used = [p for p in pairs if p.word_a in index and p.word_b in index]
    skipped = len(pairs) - len(used)
    a = np.array([index.row[p.word_a] for p in used], dtype=np.intp)
    b = np.array([index.row[p.word_b] for p in used], dtype=np.intp)
    sq_a, sq_b = index.sq_norms[a], index.sq_norms[b]
    zero = (sq_a == 0.0) | (sq_b == 0.0)
    dots = np.einsum("ij,ij->i", index.matrix[a], index.matrix[b], dtype=np.float64)
    norms = np.sqrt(sq_a) * np.sqrt(sq_b)
    sims = np.clip(np.divide(dots, norms, out=np.zeros_like(dots), where=~zero), -1.0, 1.0)
    if zero.any():
        log.warning("%d pairs involve a zero-norm vector; their cosine is taken as 0", int(zero.sum()))
    if len(used) < 2:
        raise EvaluationError(
            f"only {len(used)} in-vocabulary pairs ({skipped} skipped); need >= 2"
        )
    return spearman(sims, [p.human_score for p in used]), len(used), skipped


# query rows scored per matrix product in _NeighborIndex.top_k: a block's
# scores are 128 x n float64, 2 MB at 2k words and 10 MB at 10k
_BLOCK_ROWS = 128

# float32 holds every integer of magnitude below 2**24 exactly
_FLOAT32_EXACT = 2**24

# _NeighborIndex._rank bounds each row's k-th score by the maxima of
# _GROUPS_PER_K * k disjoint column groups; of 1, 2, 4 and 8 groups per k,
# 4 and 8 searched a 2k x 300 index fastest, and 1 no faster than a
# full-row partition
_GROUPS_PER_K = 4


class _NeighborIndex:
    """Exact brute-force cosine search over a vocabulary, batched.

    Queries are scored in blocks of _BLOCK_ROWS rows, one matrix product
    per block.  Zero-norm words are excluded from rankings (their cosine is
    defined as 0, which would rank arbitrarily), and a zero query has no
    neighbours.  Rankings are by (-score, token): rows stay in the caller's
    order, and each row's rank among the sorted tokens breaks equal scores
    toward the smaller token.  The score is the key ``sign(d) * d**2 /
    |row|**2`` of the dot product ``d``, which ranks as the cosine does and
    is exact for ternary rows and integer queries.

    An (n, d) integer matrix with ``3 * d * max|entry|**2 < 2**24``, such
    as the int8 ternary codes, is held as float32, half the bytes of
    float64; any other matrix is held as float64.  The bound covers the
    product of a row with any sum of at most three rows, the queries the
    program sends (the rows themselves and 3CosAdd targets b - a + c, in
    the matrix's dtype): every partial sum is an integer below 2**24, so
    every float32 product is exact.  ``sq_norms`` are float64 either way.
    """

    def __init__(self, words, matrix: np.ndarray):
        """Index the (n, d) ``matrix`` whose row i is ``words[i]``; a float64
        matrix is used without a copy."""
        self.words = tuple(words)
        self.row = {w: i for i, w in enumerate(self.words)}
        matrix = np.asarray(matrix)
        small = np.issubdtype(matrix.dtype, np.integer) and (
            3 * matrix.shape[1] * max(-int(matrix.min(initial=0)), int(matrix.max(initial=0))) ** 2
            < _FLOAT32_EXACT
        )
        self.matrix = np.asarray(matrix, dtype=np.float32 if small else np.float64)
        # each row's place in token order (the inverse of the sorting
        # permutation), the last ranking key
        self.token_rank = np.argsort(sorted(range(len(self.words)), key=self.words.__getitem__))
        self.sq_norms = np.einsum("ij,ij->i", self.matrix, self.matrix, dtype=np.float64)
        self._own: dict[int, np.ndarray] = {}

    @cached_property
    def zero_norm(self) -> np.ndarray:
        """The zero-norm rows; counted in one warning at the first search,
        so an index used only for SimLex cosines does not warn."""
        zero = self.sq_norms == 0.0
        if zero.any():
            log.warning("%d zero-norm vectors excluded from neighbor rankings", int(zero.sum()))
        return zero

    def __contains__(self, word: str) -> bool:
        return word in self.row

    def top_k(self, queries: np.ndarray, k: int, exclude: np.ndarray) -> np.ndarray:
        """The rows of the top-k words for each row of an (m, d) query matrix.

        ``exclude`` is an (m, e) array of row indices ranked out per query.
        Returns an (m, k) intp table whose row i holds query i's neighbours
        best first, padded at its end with -1 where the vocabulary runs out
        (a zero query has no neighbour, so its row is all -1).

        Each block takes the one product numpy's promotion gives: a float32
        index multiplies queries of its own dtype in float32, exact under
        the bound it was built with, and float64 or int64 queries in
        float64.  The product is widened to float64 before the key.
        """
        queries = np.asarray(queries)
        sq_norms = np.where(self.zero_norm, 1.0, self.sq_norms)
        top = np.full((len(queries), k), -1, dtype=np.intp)
        for lo in range(0, len(queries), _BLOCK_ROWS):
            block = queries[lo : lo + _BLOCK_ROWS]
            scores = (block @ self.matrix.T).astype(np.float64, copy=False)
            # d * |d| / |row|**2 ranks as d / |row| does.  For ternary rows
            # (|row|**2 <= dim) and integer queries with sum|q| * dim < 2**26
            # it is exact and order-faithful in float64: d and d**2 are exact
            # integers, and two distinct keys differ by at least 1 / dim**2,
            # more than rounding can close, so ties are true ties.  In
            # place: a third block-sized array would raise the peak
            scores *= np.abs(scores)
            scores /= sq_norms
            scores[:, self.zero_norm] = -np.inf
            scores[~block.any(axis=1)] = -np.inf
            scores[np.arange(len(block))[:, None], exclude[lo : lo + _BLOCK_ROWS]] = -np.inf
            self._rank(scores, top[lo : lo + _BLOCK_ROWS, : len(self.words)])
        return top

    def _rank(self, scores: np.ndarray, top: np.ndarray) -> None:
        """Write into each row of ``top``, of 1 <= k <= n columns, the
        columns of its row of ``scores`` with the k largest finite scores,
        ordered by (-score, token); a row with fewer finite scores keeps
        the rest."""
        k = top.shape[1]
        # min(_GROUPS_PER_K * k, n) >= k disjoint groups; k of them hold a
        # score at least the k-th largest of their maxima, so at least k
        # scores are: the bound is at most the k-th largest score
        width = max(1, scores.shape[1] // (_GROUPS_PER_K * k))
        starts = np.arange(0, scores.shape[1], width)[: _GROUPS_PER_K * k]
        bound = np.partition(np.maximum.reduceat(scores, starts, axis=1), -k, axis=1)[:, -k]
        # every candidate scoring at least the bound (ties at the k-th
        # place included), ordered by (row, -score, token)
        flat = np.flatnonzero(scores >= bound[:, None])
        values = scores.ravel()[flat]
        finite = values > -np.inf
        flat, values = flat[finite], values[finite]
        rows, cols = np.divmod(flat, scores.shape[1])
        order = np.lexsort((self.token_rank[cols], -values, rows))
        rows, cols = rows[order], cols[order]
        # each candidate's place in its row's ranking
        place = np.arange(len(rows)) - np.searchsorted(rows, rows)
        first = place < k
        top[rows[first], place[first]] = cols[first]

    def own_top_k(self, k: int) -> np.ndarray:
        """Every word's top-k table row, as ``top_k`` gives it, in row
        order, each word ranking itself out; computed in one search at the
        first use of each k, and read-only, as it is shared."""
        if k not in self._own:
            top = self.top_k(self.matrix, k, np.arange(len(self.words))[:, None])
            top.flags.writeable = False
            self._own[k] = top
        return self._own[k]


def _as_index(vectors: Mapping[str, np.ndarray] | _NeighborIndex) -> _NeighborIndex:
    """A prebuilt index as it is, or an index over a word -> vector map."""
    if isinstance(vectors, _NeighborIndex):
        return vectors
    return _NeighborIndex(vectors, np.stack(list(vectors.values())))


def overlap_at_k(
    map_a: Mapping[str, np.ndarray] | _NeighborIndex,
    map_b: Mapping[str, np.ndarray] | _NeighborIndex,
    k: int,
) -> float:
    """Mean |top-k(a) ∩ top-k(b)| / k over the words both sides hold.

    Either side may be a prebuilt index, whose top-k table is reused;
    each index computes every word's top-k row once per k.  The second
    side's rows are mapped to the first's, with -2 for a word the first
    lacks and for -1 padding, so neither matches any entry of the first
    side's table, and the hits are counted by comparing the two tables.
    The integer hit total is divided once, so the mean is the correctly
    rounded fraction whatever the word order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    index_a, index_b = _as_index(map_a), _as_index(map_b)
    words = [w for w in index_a.words if w in index_b]
    if not words:
        raise EvaluationError("empty shared vocabulary")
    rows_a = np.array([index_a.row[w] for w in words], dtype=np.intp)
    rows_b = np.array([index_b.row[w] for w in words], dtype=np.intp)
    # index_b's row j is index_a's row to_a[j]; the last entry takes -1
    to_a = np.array([index_a.row.get(w, -2) for w in index_b.words] + [-2], dtype=np.intp)
    tops_a = index_a.own_top_k(k)[rows_a]
    tops_b = to_a[index_b.own_top_k(k)[rows_b]]
    hits = int(np.count_nonzero(tops_a[:, :, None] == tops_b[:, None, :]))
    return hits / (k * len(words))


def analogy_eval(
    vectors: Mapping[str, np.ndarray] | _NeighborIndex, quads: list[AnalogyQuad]
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
    # in the index's dtype: small exact integers for ternary codes
    targets = m[abc[:, 1]] - m[abc[:, 0]] + m[abc[:, 2]]
    d = np.array([index.row[q.d] for q in used], dtype=np.intp)
    # a query with no neighbour has top-1 row -1, never d's row
    correct = int(np.count_nonzero(index.top_k(targets, 1, abc)[:, 0] == d))
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


def _metrics_for(index: _NeighborIndex, original: _NeighborIndex, pairs, quads) -> RepresentationMetrics:
    m = RepresentationMetrics()
    if pairs:
        m.simlex_rho, m.simlex_used, m.simlex_skipped = simlex_eval(index, pairs)
    if quads:
        m.analogy_accuracy, m.analogy_used, m.analogy_skipped = analogy_eval(index, quads)
    m.overlap_at_10 = overlap_at_k(original, index, 10)
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
    metrics; the original's top-10 table is computed once.  When the
    decoded codes equal the quantized ones, as in lossless mode, the spike
    metrics are the quantized metrics and no third index is built."""
    result = roundtrip(original, cfg)
    original_index = _NeighborIndex(original.words, original.vectors)
    original_m = _metrics_for(original_index, original_index, pairs, quads)
    quantized_m = _metrics_for(
        _NeighborIndex(result.ternary.words, result.ternary.values), original_index, pairs, quads
    )
    if np.array_equal(result.decoded.values, result.ternary.values):
        # same words by construction, and every metric is a function of
        # the words and their codes
        spike_m = replace(quantized_m)
    else:
        spike_m = _metrics_for(
            _NeighborIndex(result.decoded.words, result.decoded.values), original_index, pairs, quads
        )
    report = EvalReport(
        original=original_m, quantized=quantized_m, spike=spike_m, reference=REFERENCE_VALUES
    )
    word_exact, per_dim, confusion = reconstruction_accuracy(result.ternary, result.decoded)
    report.spike.reconstruction_accuracy = word_exact
    report.per_dimension_accuracy = per_dim
    report.confusion = confusion.tolist()
    return report
