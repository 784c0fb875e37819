"""The three benchmark workloads: deterministic inputs, one timed pass, checks.

Every workload drives word2spike only through its public entry points:
``word2spike.cli.main(argv)`` in-process, or library calls.  Inputs are
generated from the workload seed before any timing starts; the program
sees only the generated files or arrays.  A workload's ``run`` is the
timed part and holds the program calls alone; ``summarize`` and ``check``
run outside the timing, and checks run after all passes, so that checking
adds neither to ``wall_s`` nor to the memory high-water mark read before
it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the timed calls go through module attributes, so the tracer's swapped
# bindings are the ones called
import word2spike.cli as cli
import word2spike.spike_codec as spike_codec
from word2spike.corpus_io import EmbeddingSet
from word2spike.spike_codec import CodecConfig, misclassification_probabilities, read_raster_jsonl

DIM = 300

# The channel check fails a pass at |z| > 5 per confusion cell.  The cells
# are binomial z-scores as in acceptance criterion 2, which passes at 3; at
# 3 a correct channel still fails about 1.5% of corpora (four cells, one
# of them a mean-3 Poisson count), and the benchmark runs dozens of seeds.
# Cells beyond 3 are printed as a warning.
CHANNEL_FAIL_Z = 5.0
CHANNEL_WARN_Z = 3.0


@dataclass
class Verdict:
    problems: list[str]
    notes: str = ""


# --- input generation ----------------------------------------------------------

def corpus_words(n_words: int) -> tuple[str, ...]:
    return tuple(f"w{i:06d}" for i in range(n_words))


def write_corpus(path: Path, rng: np.random.Generator, n_words: int) -> np.ndarray:
    """Write an iid N(0, 1) text corpus formatted with %.6f, like
    scripts/make_synthetic_embeddings.py, and return the values exactly as
    a loader parses them back."""
    values = rng.standard_normal((n_words, DIM))
    with open(path, "w", encoding="utf-8") as fh:
        for word, vec in zip(corpus_words(n_words), values):
            tokens = [f"{v:.6f}" for v in vec]
            fh.write(word + " " + " ".join(tokens) + "\n")
            vec[:] = [float(t) for t in tokens]
    return values


def write_simlex(path: Path, rng: np.random.Generator, vectors: np.ndarray, n_pairs: int) -> None:
    """SimLex-format TSV: score = original cosine + N(0, 0.1)."""
    words = corpus_words(len(vectors))
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("word1\tword2\tSimLex999\n")
        for _ in range(n_pairs):
            a, b = rng.choice(len(vectors), size=2, replace=False)
            score = float(unit[a] @ unit[b]) + rng.normal(0.0, 0.1)
            fh.write(f"{words[a]}\t{words[b]}\t{score:.6f}\n")


def write_analogies(path: Path, rng: np.random.Generator, n_words: int, n_quads: int) -> None:
    """Analogy quads of four distinct corpus tokens."""
    words = corpus_words(n_words)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(n_quads):
            fh.write(" ".join(words[i] for i in rng.choice(n_words, size=4, replace=False)) + "\n")


def absmean_oracle(vectors: np.ndarray, block: int = 256) -> np.ndarray:
    """Ternary codes by the absmean rule, written independently of the
    quantizer: +1 above gamma = mean|w|, -1 below -gamma, else 0.

    Computed in row blocks so that its temporaries stay far below the
    program's own peak, which peak_rss_mb must be able to show."""
    codes = np.empty(vectors.shape, dtype=np.int8)
    for start in range(0, len(vectors), block):
        rows = vectors[start:start + block]
        gamma = np.abs(rows).mean(axis=1, keepdims=True)
        codes[start:start + block] = (rows > gamma).astype(np.int8) - (rows < -gamma).astype(np.int8)
    return codes


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _read_int_rows(path: Path, sep: str | None) -> tuple[list[str], np.ndarray]:
    words, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(sep)
            words.append(parts[0])
            rows.append([int(float(v)) for v in parts[1:]])
    return words, np.array(rows, dtype=np.int64)


# --- workloads -----------------------------------------------------------------

class CliStochastic:
    """quantize -> encode (stochastic, counts, 2 threads) -> decode via the CLI."""

    name = "cli-stochastic-1k"

    def __init__(self, n_words: int = 1000):
        self.n_words = n_words

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.corpus = work / "corpus.txt"
        vectors = write_corpus(self.corpus, np.random.default_rng([seed, 1]), self.n_words)
        self.truth = absmean_oracle(vectors)
        self.shape = vectors.shape

    def run(self, index: int) -> list[int]:
        out = self.work / f"pass{index}"
        q, e, d = out / "quantize", out / "encode", out / "decode"
        return [cli.main(argv) for argv in (
            ["quantize", "--embeddings", str(self.corpus), "--out-dir", str(q)],
            ["encode", "--ternary", str(q / "ternary.txt"), "--seed", str(self.seed), "--counts",
             # two threads match nproc = 2 on the reference machine
             "--threads", "2", "--out-dir", str(e)],
            ["decode", "--rasters", str(e / "rasters.jsonl"), "--out-dir", str(d)],
        )]

    def summarize(self, index: int, codes: list[int]) -> tuple[int, object]:
        out = self.work / f"pass{index}"
        return _tree_bytes(out), (out, codes)

    def valid_raster_frac(self, detail) -> float:
        """Share of the rasters read back from rasters.jsonl that pass
        SpikeRaster.validate().  A metric, not a check: JSONL rounds spike
        times to 1 us, which breaks some rasters without changing counts."""
        out, _ = detail
        _, rasters = read_raster_jsonl(str(out / "encode" / "rasters.jsonl"))
        invalid = 0
        for raster in rasters:
            try:
                raster.validate()
            except ValueError:
                invalid += 1
        return 1.0 - invalid / len(rasters)

    def check(self, detail) -> Verdict:
        out, codes = detail
        if any(codes):
            return Verdict([f"exit codes {codes}"])
        problems = []
        words, rasters = read_raster_jsonl(str(out / "encode" / "rasters.jsonl"))
        counts = np.stack([r.counts() for r in rasters])
        expected_words = list(corpus_words(self.n_words))
        if words != expected_words:
            problems.append("rasters.jsonl words differ from the corpus")

        ternary_words, ternary = _read_int_rows(out / "quantize" / "ternary.txt", None)
        if ternary_words != expected_words or not np.array_equal(ternary, self.truth):
            problems.append("ternary.txt differs from the absmean oracle")

        csv_words, csv_counts = _read_int_rows(out / "encode" / "counts.csv", ",")
        if csv_words != words or not np.array_equal(csv_counts, counts):
            problems.append("counts.csv disagrees with the spike counts in rasters.jsonl")

        cfg = CodecConfig(seed=self.seed)
        rule = np.where(counts == 0, 0, np.where(counts >= cfg.count_threshold, 1, -1))
        decoded_words, decoded = _read_int_rows(out / "decode" / "decoded.txt", None)
        if decoded_words != words or not np.array_equal(decoded, rule):
            problems.append("decoded.txt differs from the count-threshold rule")

        worst, channel = channel_z_scores(self.truth, decoded, cfg)
        if worst > CHANNEL_FAIL_Z:
            problems.append(f"confusion cell beyond {CHANNEL_FAIL_Z:g} SE: {channel}")
        notes = f"channel max |z| {worst:.2f}"
        if worst > CHANNEL_WARN_Z:
            notes += f" (beyond {CHANNEL_WARN_Z:g} SE: {channel})"
        return Verdict(problems, notes)


def channel_z_scores(truth: np.ndarray, decoded: np.ndarray, cfg: CodecConfig) -> tuple[float, str]:
    """Binomial z-score of every off-diagonal confusion cell against the
    exact misclassification probabilities; a zero-probability cell must
    be empty.  Returns the largest |z| and a per-cell summary."""
    analysis = misclassification_probabilities(cfg)
    cells = {
        (-1, 1): analysis.p_minus_as_plus,
        (-1, 0): analysis.p_minus_as_zero,
        (1, -1): analysis.p_plus_as_minus,
        (1, 0): analysis.p_plus_as_zero,
        (0, 1): 0.0,
        (0, -1): 0.0,
    }
    worst, parts = 0.0, []
    for (sent, got), p in cells.items():
        mask = truth == sent
        n = int(mask.sum())
        hits = int(np.sum(decoded[mask] == got))
        if n == 0:
            continue
        se = math.sqrt(p * (1.0 - p) / n)
        diff = abs(hits / n - p)
        z = diff / se if se > 0 else (math.inf if hits else 0.0)
        worst = max(worst, z)
        parts.append(f"{sent:+d}->{got:+d} {hits}/{n} z={z:.2f}")
    return worst, "; ".join(parts)


class RoundtripLossless:
    """Library roundtrip(es, CodecConfig(mode="lossless")) on an in-memory set."""

    name = "roundtrip-lossless-10k"

    def __init__(self, n_words: int = 10_000):
        self.n_words = n_words

    def prepare(self, work: Path, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        vectors = rng.standard_normal((self.n_words, DIM))
        np.round(vectors, 6, out=vectors)  # in place: no second corpus-sized array
        self.es = EmbeddingSet(corpus_words(self.n_words), vectors)
        self.truth = absmean_oracle(vectors)
        self.shape = vectors.shape

    def run(self, index: int):
        return spike_codec.roundtrip(self.es, CodecConfig(mode="lossless"))

    def summarize(self, index: int, result) -> tuple[int, object]:
        arrays = (result.ternary.values, result.ternary.gammas, result.decoded.values, result.matches)
        return sum(a.nbytes for a in arrays if a is not None), (
            bool(result.matches.all()),
            np.array_equal(result.ternary.values, self.truth),
            np.array_equal(result.decoded.values, self.truth),
        )

    def valid_raster_frac(self, detail) -> float:
        return 1.0  # no raster is read back

    def check(self, detail) -> Verdict:
        all_match, codes_ok, decoded_ok = detail
        problems = []
        if not all_match:
            problems.append("matches.all() is False")
        if not codes_ok:
            problems.append("ternary codes differ from the absmean oracle")
        if not decoded_ok:
            problems.append("decoded codes differ from the absmean oracle")
        return Verdict(problems)


class EvalLossless:
    """word2spike eval --mode lossless with SimLex pairs and analogy quads."""

    name = "eval-lossless-2k"

    def __init__(self, n_words: int = 2000, n_pairs: int = 999, n_quads: int = 500):
        self.n_words = n_words
        self.n_pairs = n_pairs
        self.n_quads = n_quads

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        self.corpus = work / "corpus.txt"
        self.simlex = work / "simlex.tsv"
        self.analogies = work / "analogies.txt"
        vectors = write_corpus(self.corpus, np.random.default_rng([seed, 3]), self.n_words)
        write_simlex(self.simlex, np.random.default_rng([seed, 4]), vectors, self.n_pairs)
        write_analogies(self.analogies, np.random.default_rng([seed, 5]), self.n_words, self.n_quads)
        self.shape = vectors.shape

    def run(self, index: int) -> int:
        return cli.main(["eval", "--mode", "lossless", "--embeddings", str(self.corpus),
                         "--simlex", str(self.simlex), "--analogies", str(self.analogies),
                         "--out-dir", str(self.work / f"pass{index}")])

    def summarize(self, index: int, code: int) -> tuple[int, object]:
        out = self.work / f"pass{index}"
        return (_tree_bytes(out) if out.exists() else 0), (out, code)

    def valid_raster_frac(self, detail) -> float:
        return 1.0  # no raster is read back

    def check(self, detail) -> Verdict:
        out, code = detail
        if code:
            return Verdict([f"exit code {code}"])
        with open(out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        problems = []
        if report["original"]["overlap_at_10"] != 1.0:
            problems.append(f"original overlap_at_10 is {report['original']['overlap_at_10']}")
        for field in ("simlex_rho", "analogy_accuracy", "overlap_at_10"):
            if report["quantized"][field] != report["spike"][field]:
                problems.append(f"quantized and spike {field} differ")
        if report["spike"]["reconstruction_accuracy"] != 1.0:
            problems.append("spike reconstruction accuracy is not 1.0")
        for rep in ("original", "quantized", "spike"):
            if report[rep]["simlex_used"] != self.n_pairs:
                problems.append(f"{rep} simlex_used {report[rep]['simlex_used']} != {self.n_pairs}")
            if report[rep]["analogy_used"] != self.n_quads:
                problems.append(f"{rep} analogy_used {report[rep]['analogy_used']} != {self.n_quads}")
        return Verdict(problems)


WORKLOADS = {w.name: w for w in (CliStochastic, RoundtripLossless, EvalLossless)}


def check_pass(workload, detail) -> Verdict:
    """Run a workload's checks; output that cannot be read fails the pass."""
    try:
        return workload.check(detail)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Verdict([f"unreadable output: {exc!r}"])

