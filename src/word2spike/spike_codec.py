"""Rate mapping, Poisson raster generation, threshold decoding, and the
exact statistical analysis of decode errors.

Ternary codes map to firing rates (+1 -> rate_plus, 0 -> 0 Hz,
-1 -> rate_minus).  Stochastic mode draws each dimension as an exact
homogeneous Poisson process over the observation window: a Poisson(rate *
window) spike count, then that many sorted iid uniform spike times within
the window.  Lossless mode emits exactly round(rate * window) evenly spaced
spikes, which guarantees perfect decode.  Decoding is purely count-based:
zero spikes -> 0, count >= ceil(threshold * window) -> +1, anything else
-> -1.

All error probabilities are computed by exact Poisson summation, never a
normal approximation.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .quantizer import TernarySet, TernaryVector


class ConfigError(ValueError):
    """A codec configuration violates its invariants."""


_MODES = ("stochastic", "lossless")


@dataclass(frozen=True)
class CodecConfig:
    """Window length, rate assignments, decode threshold, mode and seed.

    The zero level always fires at 0 Hz; the decode threshold must lie
    strictly between the two nonzero rates.
    """

    window_s: float = 0.2
    rate_plus_hz: float = 100.0
    rate_minus_hz: float = 50.0
    threshold_hz: float = 72.0
    mode: str = "stochastic"
    seed: int = 0

    def __post_init__(self):
        if not (self.window_s > 0 and math.isfinite(self.window_s)):
            raise ConfigError(f"window_s must be positive, got {self.window_s}")
        if not 0 < self.rate_minus_hz < self.threshold_hz < self.rate_plus_hz:
            raise ConfigError(
                "rates must satisfy 0 < rate_minus < threshold < rate_plus, got "
                f"{self.rate_minus_hz}/{self.threshold_hz}/{self.rate_plus_hz} Hz"
            )
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")

    @property
    def lambda_plus(self) -> float:
        return self.rate_plus_hz * self.window_s

    @property
    def lambda_minus(self) -> float:
        return self.rate_minus_hz * self.window_s

    @property
    def count_threshold(self) -> int:
        """Smallest spike count decoding to +1: ceil(threshold * window)."""
        # tiny slack so an exactly-integer product is not pushed up by
        # binary rounding of the multiplication
        return max(1, math.ceil(self.threshold_hz * self.window_s - 1e-9))


# Default follows the 200 ms / 100-50 Hz / 72 Hz setting; the 400 ms
# alternate uses a wider 25-200 Hz separation with the threshold picked by
# exhaustive exact-error search (see suggest_threshold).
PRESETS: dict[str, CodecConfig] = {
    "paper-200ms": CodecConfig(),
    "paper-400ms": CodecConfig(
        window_s=0.4, rate_plus_hz=200.0, rate_minus_hz=25.0, threshold_hz=85.0
    ),
}


_CONFIG_KEYS = ("window_s", "rate_plus_hz", "rate_minus_hz", "threshold_hz", "mode", "seed")


def save_codec_config(cfg: CodecConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in _CONFIG_KEYS:
            fh.write(f"{key} = {getattr(cfg, key)}\n")


def load_codec_config(path: str) -> CodecConfig:
    """Parse the key-value config format written by save_codec_config."""
    return CodecConfig(**_read_config(path))


def _read_config(path: str) -> dict:
    """The keyword arguments a config file sets, typed for CodecConfig."""
    kwargs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key == "mode":
                kwargs[key] = value
            elif key == "seed":
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
    return kwargs


@dataclass(frozen=True)
class RateVector:
    """Per-dimension target (or estimated) firing rates in Hz."""

    rates_hz: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates_hz, dtype=np.float64)
        if rates.ndim != 1:
            raise ValueError("rates must be one-dimensional")
        if not np.all(np.isfinite(rates)) or np.any(rates < 0):
            raise ValueError("rates must be finite and nonnegative")
        object.__setattr__(self, "rates_hz", rates)

    def __len__(self) -> int:
        return len(self.rates_hz)


class SpikeRaster:
    """Spike times of one word, stored flat.

    ``times`` holds every spike time within [0, window_s), grouped by
    dimension in order and ascending within each dimension; ``counts()[i]``
    is the number of spikes dimension i owns.
    """

    __slots__ = ("window_s", "times", "_counts")

    def __init__(self, window_s: float, times, counts):
        times = np.asarray(times, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.int64)
        if times.ndim != 1 or counts.ndim != 1:
            raise ValueError("times and counts must be one-dimensional")
        if np.any(counts < 0) or int(counts.sum()) != len(times):
            raise ValueError("counts must be nonnegative and sum to the number of spike times")
        self.window_s = window_s
        self.times = times
        self._counts = counts

    def __len__(self) -> int:
        return len(self._counts)

    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def trains(self) -> tuple[np.ndarray, ...]:
        """Per-dimension views into ``times``."""
        if len(self._counts) == 0:
            return ()
        return tuple(np.split(self.times, np.cumsum(self._counts[:-1])))

    def validate(self) -> None:
        """Full invariant check; O(total spikes), kept out of the hot path."""
        t = self.times
        dims = np.repeat(np.arange(len(self._counts)), self._counts)
        checks = (
            (~np.isfinite(t), "non-finite spike time"),
            ((t < 0) | (t >= self.window_s), "spike time outside [0, window)"),
        )
        for bad, message in checks:
            if bad.any():
                raise ValueError(f"dimension {dims[np.argmax(bad)]}: {message}")
        repeats = (dims[1:] == dims[:-1]) & (np.diff(t) <= 0)
        if repeats.any():
            raise ValueError(
                f"dimension {dims[1:][np.argmax(repeats)]}: spike times not strictly increasing"
            )


def rates_from_ternary(t: TernaryVector | np.ndarray, cfg: CodecConfig) -> RateVector:
    """Map ternary codes to firing rates: +1/0/-1 -> rate_plus/0/rate_minus."""
    values = t.values if isinstance(t, TernaryVector) else np.asarray(t)
    rates = np.zeros(len(values), dtype=np.float64)
    rates[values == 1] = cfg.rate_plus_hz
    rates[values == -1] = cfg.rate_minus_hz
    return RateVector(rates)


def generate_raster(rates: RateVector, cfg: CodecConfig, stream_id: int) -> SpikeRaster:
    """Generate one spike raster for a rate vector.

    Stochastic mode draws every dimension's count from Poisson(rate *
    window), then places that many sorted iid Uniform[0, window) times: a
    homogeneous Poisson process, by conditional uniformity.  It uses one
    RNG stream per (seed, stream_id), so results do not depend on word
    processing order or parallelism.  Lossless mode emits round(rate *
    window) evenly spaced spikes per dimension.
    """
    window = cfg.window_s
    if cfg.mode == "lossless":
        counts = np.rint(rates.rates_hz * window).astype(np.int64)
        dims = np.repeat(np.arange(len(counts)), counts)
        rank = np.arange(len(dims)) - (np.cumsum(counts) - counts)[dims]
        return SpikeRaster(window, (rank + 0.5) * (window / counts[dims]), counts)

    rng = np.random.default_rng([cfg.seed, stream_id])
    counts = rng.poisson(rates.rates_hz * window)
    times = rng.random(int(counts.sum())) * window
    # random() < 1, but do not rely on the rounded product staying below window
    np.minimum(times, np.nextafter(window, 0.0), out=times)
    # sort by time, then stably by dimension, so each dimension's times
    # ascend; dimension labels in the smallest integer type sort by radix
    dims = np.repeat(np.arange(len(counts), dtype=np.min_scalar_type(len(counts))), counts)
    by_time = np.argsort(times)
    by_dim = by_time[np.argsort(dims[by_time], kind="stable")]
    return SpikeRaster(window, times[by_dim], counts)


def estimate_rates(raster: SpikeRaster) -> RateVector:
    """Estimated firing rate per dimension: spike count / window."""
    return RateVector(raster.counts() / raster.window_s)


def decode(raster: SpikeRaster, cfg: CodecConfig) -> TernaryVector:
    """Count-threshold decode of a raster back to ternary codes.

    Zero spikes -> 0; count >= ceil(threshold * window) -> +1 with no
    upper cap; otherwise -1.  The decoded gamma is not recoverable and is
    reported as NaN.
    """
    if not math.isclose(raster.window_s, cfg.window_s, rel_tol=1e-9):
        raise ConfigError(
            f"raster window {raster.window_s} s does not match config window {cfg.window_s} s"
        )
    values = _decode_counts(raster.counts(), cfg.count_threshold)
    return TernaryVector(values, math.nan)


def _decode_counts(counts: np.ndarray, count_threshold: int) -> np.ndarray:
    return np.where(counts == 0, 0, np.where(counts >= count_threshold, 1, -1)).astype(np.int8)


@dataclass(frozen=True)
class RoundTripResult:
    ternary: TernarySet
    decoded: TernarySet
    matches: np.ndarray  # bool per word


def roundtrip(es, cfg: CodecConfig) -> RoundTripResult:
    """quantize -> rates -> Poisson rasters -> decode, for every word.

    stream_id is the word's vocabulary index, making per-word generation
    independent of processing order.
    """
    from .quantizer import quantize_all

    ternary = quantize_all(es)
    decoded = np.empty_like(ternary.values)
    k_star = cfg.count_threshold
    for i in range(len(ternary.words)):
        rates = rates_from_ternary(ternary.values[i], cfg)
        raster = generate_raster(rates, cfg, stream_id=i)
        decoded[i] = _decode_counts(raster.counts(), k_star)
    decoded_set = TernarySet(ternary.words, decoded, gammas=None)
    matches = np.all(decoded == ternary.values, axis=1)
    return RoundTripResult(ternary, decoded_set, matches)


# --- exact Poisson arithmetic -------------------------------------------------

def poisson_pmf(k: int, lam: float) -> float:
    if k < 0:
        return 0.0
    if lam == 0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_cdf(k: int, lam: float) -> float:
    """P(X <= k) by direct summation."""
    if k < 0:
        return 0.0
    return min(1.0, math.fsum(poisson_pmf(i, lam) for i in range(k + 1)))


def poisson_sf_ge(k: int, lam: float) -> float:
    """P(X >= k), summed upward from k so tiny tails keep full precision."""
    if k <= 0:
        return 1.0
    term = poisson_pmf(k, lam)
    total = term
    i = k
    while True:
        i += 1
        term *= lam / i
        total += term
        if i > lam and term < total * 1e-17:
            return min(1.0, total)


@dataclass(frozen=True)
class ErrorAnalysis:
    """Exact per-dimension misclassification probabilities for a config.

    All probabilities come from exact Poisson CDF summation.  A -1
    dimension fails by decoding +1 (count at or above the threshold) or 0
    (zero spikes); a +1 dimension fails by decoding -1 (nonzero count
    below threshold) or 0.  Zero dimensions never fail.
    """

    lambda_minus: float
    lambda_plus: float
    count_threshold: int
    p_minus_as_plus: float
    p_plus_as_minus: float
    p_minus_as_zero: float
    p_plus_as_zero: float

    @property
    def p_minus_error(self) -> float:
        return self.p_minus_as_plus + self.p_minus_as_zero

    @property
    def p_plus_error(self) -> float:
        return self.p_plus_as_minus + self.p_plus_as_zero

    @property
    def total_error(self) -> float:
        """Sum of the per-level failure probabilities (threshold quality)."""
        return self.p_minus_error + self.p_plus_error

    def expected_word_error(self, n_plus: int, n_minus: int, n_zero: int = 0) -> float:
        """Probability a word with the given symbol composition fails exact
        reconstruction; zero dimensions are noiseless and contribute nothing."""
        if min(n_plus, n_minus, n_zero) < 0:
            raise ValueError("symbol counts must be nonnegative")
        return 1.0 - (1.0 - self.p_plus_error) ** n_plus * (1.0 - self.p_minus_error) ** n_minus


def _error_analysis(lam_minus: float, lam_plus: float, k: int) -> ErrorAnalysis:
    """The four failure cells at count threshold k, by exact summation."""
    p_plus_as_zero = poisson_pmf(0, lam_plus)
    return ErrorAnalysis(
        lambda_minus=lam_minus,
        lambda_plus=lam_plus,
        count_threshold=k,
        p_minus_as_plus=poisson_sf_ge(k, lam_minus),
        p_plus_as_minus=max(0.0, poisson_cdf(k - 1, lam_plus) - p_plus_as_zero),
        p_minus_as_zero=poisson_pmf(0, lam_minus),
        p_plus_as_zero=p_plus_as_zero,
    )


def misclassification_probabilities(cfg: CodecConfig) -> ErrorAnalysis:
    return _error_analysis(cfg.lambda_minus, cfg.lambda_plus, cfg.count_threshold)


def threshold_curve(cfg: CodecConfig) -> list[ErrorAnalysis]:
    """Exact error analysis at every integer count threshold k with
    lambda_minus < k <= lambda_plus, in increasing k.

    The curve depends on the window and rates only, not on the
    configured threshold.
    """
    lam_minus, lam_plus = cfg.lambda_minus, cfg.lambda_plus
    lo = math.floor(lam_minus) + 1
    hi = math.floor(lam_plus + 1e-9)
    if hi < lo:
        raise ConfigError("no integer count threshold separates the two rates")
    return [_error_analysis(lam_minus, lam_plus, k) for k in range(lo, hi + 1)]


def rate_spread(cfg: CodecConfig) -> dict[str, tuple[float, float]]:
    """Mean and one-sigma spread of the estimated rate at each nonzero level.

    Counts are Poisson(rate * window), so the rate estimate count/window
    has sd sqrt(rate / window).
    """
    return {
        "+1": (cfg.rate_plus_hz, math.sqrt(cfg.rate_plus_hz / cfg.window_s)),
        "-1": (cfg.rate_minus_hz, math.sqrt(cfg.rate_minus_hz / cfg.window_s)),
    }


def suggest_threshold(cfg: CodecConfig) -> tuple[float, float]:
    """The count threshold on threshold_curve with the least total error.

    Returns (k / window in Hz, total_error at that k), the same total
    that misclassification_probabilities reports for k; ties go to the
    larger k.
    """
    best = min(threshold_curve(cfg), key=lambda a: (a.total_error, -a.count_threshold))
    return best.count_threshold / cfg.window_s, best.total_error


# --- serialization ------------------------------------------------------------

def write_raster_jsonl(path: str, words, rasters) -> None:
    """JSON Lines raster export: one record per word, times in ms (3 dp)."""
    with open(path, "w", encoding="utf-8") as fh:
        for word, raster in zip(words, rasters):
            ms = np.round(raster.times * 1000.0, 3).tolist()
            ends = np.cumsum(raster.counts()).tolist()
            record = {
                "word": word,
                "window_ms": round(raster.window_s * 1000.0, 6),
                "trains": [ms[start:end] for start, end in zip([0] + ends, ends)],
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_raster_jsonl(path: str) -> tuple[list[str], list[SpikeRaster]]:
    words, rasters = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                word = record["word"]
                window_s = float(record["window_ms"]) / 1000.0
                trains = record["trains"]
                if not isinstance(trains, list) or not all(isinstance(t, list) for t in trains):
                    raise ValueError("trains must be a list of lists of spike times")
                # exact types: a JSON true is a bool, and fromiter would read
                # both true and "1.5" as numbers
                if not set(map(type, itertools.chain.from_iterable(trains))) <= {int, float}:
                    raise ValueError("spike times must be JSON numbers")
                counts = np.fromiter(map(len, trains), dtype=np.int64, count=len(trains))
                times = np.fromiter(
                    itertools.chain.from_iterable(trains), dtype=np.float64, count=int(counts.sum())
                ) / 1000.0
                if not np.all(np.isfinite(times)):
                    raise ValueError("spike times must be finite numbers")
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad raster record: {exc}") from exc
            words.append(word)
            rasters.append(SpikeRaster(window_s, times, counts))
    return words, rasters


def write_counts_csv(path: str, words, rasters) -> None:
    """Compact export: word,c1,c2,...,cn spike counts per dimension."""
    with open(path, "w", encoding="utf-8") as fh:
        for word, raster in zip(words, rasters):
            fh.write(word + "," + ",".join(map(str, raster.counts().tolist())) + "\n")
