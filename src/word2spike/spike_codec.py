"""Rate mapping, Poisson raster generation, threshold decoding, and the
exact statistical analysis of decode errors.

Ternary codes map to firing rates (+1 -> rate_plus, 0 -> 0 Hz,
-1 -> rate_minus).  Stochastic mode draws each dimension as an exact
homogeneous Poisson process over the observation window: a Poisson(rate *
window) spike count, then that many sorted iid uniform spike times within
the window.  Lossless mode emits exactly round(rate * window) evenly spaced
spikes, and accepts only configs where those counts decode back to their
codes, so it guarantees perfect decode.  Decoding is purely count-based:
zero spikes -> 0, count >= ceil(threshold * window) -> +1, anything else
-> -1.  So a generated raster holds its counts only and makes its spike
times again at every read, and a raster read back from JSONL in the
writer's own form holds integer microsecond ticks and makes its times from
them at every read.

All error probabilities are computed by exact Poisson summation, never a
normal approximation.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .corpus_io import _blocks
from .quantizer import TernarySet, TernaryVector, _row_texts, quantize_all


class ConfigError(ValueError):
    """A codec configuration violates its invariants."""


_MODES = ("stochastic", "lossless")

# the largest mean spike count of a level, rate_plus_hz * window_s: the
# exact Poisson sums take about 9 * sqrt(mean) terms near the mean and
# lose accuracy as it grows (at 1e12 the pmf is 0.4% off scipy's), and
# rng.poisson refuses a mean above about 9.2e18
MAX_MEAN_COUNT = 1e9


def _check_setting(key: str, value) -> None:
    """Raise ConfigError if one setting breaks a rule that needs no other key."""
    if key == "mode":
        if value not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {value!r}")
    elif key == "seed":
        # a float or a bool would pass int(); numpy integers are Integral
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"seed must be an integer, got {value!r}")
        if not 0 <= value < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
    else:  # the window and the three rates
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{key} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        if value <= 0:
            raise ConfigError(f"{key} must be positive, got {value}")


@dataclass(frozen=True)
class CodecConfig:
    """Window length, rate assignments, decode threshold, mode and seed.

    The window and the three rates are finite positive real numbers.  The
    zero level always fires at 0 Hz; the decode threshold must lie
    strictly between the two nonzero rates, and the mean count of the
    larger, rate_plus_hz * window_s, is at most MAX_MEAN_COUNT.  In
    lossless mode the spike counts of the two levels must also decode
    exactly: 1 <= round(lambda_minus) < count_threshold <= round(lambda_plus).
    """

    window_s: float = 0.2
    rate_plus_hz: float = 100.0
    rate_minus_hz: float = 50.0
    threshold_hz: float = 72.0
    mode: str = "stochastic"
    seed: int = 0

    def __post_init__(self):
        for field in fields(self):
            _check_setting(field.name, getattr(self, field.name))
        if not 0 < self.rate_minus_hz < self.threshold_hz < self.rate_plus_hz:
            raise ConfigError(
                "rates must satisfy 0 < rate_minus < threshold < rate_plus, got "
                f"{self.rate_minus_hz}/{self.threshold_hz}/{self.rate_plus_hz} Hz"
            )
        if not self.lambda_plus <= MAX_MEAN_COUNT:
            raise ConfigError(
                f"rate_plus_hz * window_s is the mean spike count of a +1 and must be at most "
                f"{MAX_MEAN_COUNT:g}, got {self.lambda_plus}"
            )
        if self.mode == "lossless":
            n_minus, n_plus = _lossless_counts(np.array([self.lambda_minus, self.lambda_plus])).tolist()
            if not 1 <= n_minus < self.count_threshold <= n_plus:
                raise ConfigError(
                    f"lossless mode emits {n_minus} spikes for -1 and {n_plus} for +1, which "
                    f"decode exactly only if 1 <= {n_minus} < count threshold "
                    f"{self.count_threshold} <= {n_plus}"
                )

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


# config file key -> the type its value parses as
_CONFIG_TYPES = {field.name: type(field.default) for field in fields(CodecConfig)}


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
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in kwargs:
                raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
            kind = _CONFIG_TYPES[key]
            try:
                kwargs[key] = kind(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be {kind.__name__}, got {value!r}") from None
            try:
                _check_setting(key, kwargs[key])
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return kwargs


@dataclass(frozen=True)
class RateVector:
    """Per-dimension target firing rates in Hz."""

    rates_hz: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates_hz, dtype=np.float64)
        if rates.ndim != 1:
            raise ValueError("rates must be one-dimensional")
        # NaN fails both comparisons
        if rates.size and not (rates.min() >= 0 and rates.max() < np.inf):
            raise ValueError("rates must be finite and nonnegative")
        object.__setattr__(self, "rates_hz", rates)


class SpikeRaster:
    """Spike times of one word, stored flat.

    ``times`` holds every spike time within [0, window_s), grouped by
    dimension in order and ascending within each dimension; ``counts()[i]``
    is the number of spikes dimension i owns, so dimension i's train is
    the i-th piece of ``np.split(times, np.cumsum(counts()[:-1]))``.

    A raster holds one source of its times, the constructor's raster its
    float times.  One from ``generate_raster`` holds its counts only, and
    makes its times at every read of ``times`` (also in ``validate()``):
    a stochastic one draws them from its own stream after its counts, and
    the draw puts the stream back, so every read returns bit-equal times.
    One that ``read_raster_jsonl`` parses on its array path holds unsigned
    microsecond ticks, 4 bytes a spike below 2**32 µs, and makes its times
    from them at every read.  A read of a stochastic raster sets and
    restores state, so such a raster must not be read from two threads at
    once.  Counts are int32 in every raster but one made by ``_deferred``
    from other counts.  Every read of ``times`` returns a read-only array,
    so no caller can change a raster's times through it.
    """

    __slots__ = ("window_s", "_counts", "_source")

    def __init__(self, window_s: float, times, counts):
        times = np.asarray(times, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.int64)
        if times.ndim != 1 or counts.ndim != 1:
            raise ValueError("times and counts must be one-dimensional")
        if np.any(counts > np.iinfo(np.int32).max):
            raise ValueError("a count must be below 2**31, to be held as int32")
        if np.any(counts < 0) or int(counts.sum()) != len(times):
            raise ValueError("counts must be nonnegative and sum to the number of spike times")
        self.window_s = window_s
        self._counts = counts.astype(np.int32)
        self._source = times

    @classmethod
    def _deferred(cls, window_s: float, counts: np.ndarray, source=None) -> SpikeRaster:
        """A raster that makes its times at every read from ``source``: its
        unsigned microsecond ticks if it is an array, else ``_spike_times``'s,
        evenly spaced if it is None and drawn from it if it is a Generator."""
        raster = cls.__new__(cls)
        raster.window_s = window_s
        raster._counts = counts
        raster._source = source
        return raster

    @property
    def times(self) -> np.ndarray:
        source = self._source
        if not isinstance(source, np.ndarray):
            times = _spike_times(self._counts, self.window_s, source)
        elif source.dtype == np.float64:
            times = source.view()
        else:
            # (ticks / 1000.0) / 1000.0, the arithmetic of the reader's json path
            times = source / 1000.0
            times /= 1000.0
        times.flags.writeable = False
        return times

    def __len__(self) -> int:
        return len(self._counts)

    def counts(self) -> np.ndarray:
        return self._counts

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


def rates_from_ternary(codes: np.ndarray, cfg: CodecConfig) -> RateVector:
    """Map ternary codes to firing rates: +1/0/-1 -> rate_plus/0/rate_minus."""
    # the rates of codes -1, 0 and +1: code c's rate is at c + 1
    levels = np.array([cfg.rate_minus_hz, 0.0, cfg.rate_plus_hz])
    return RateVector(levels[np.asarray(codes, dtype=np.intp) + 1])


def _lossless_counts(means: np.ndarray) -> np.ndarray:
    """The spike counts lossless mode emits for mean counts rate * window:
    each rounded half to even, as int32."""
    return np.rint(means).astype(np.int32)


def generate_raster(rates: RateVector, cfg: CodecConfig, stream_id: int) -> SpikeRaster:
    """Generate one spike raster for a rate vector.

    Stochastic mode draws every dimension's count from Poisson(rate *
    window), then places that many sorted iid Uniform[0, window) times: a
    homogeneous Poisson process, by conditional uniformity.  It uses one
    RNG stream per (seed, stream_id), so results do not depend on word
    processing order or parallelism.  Lossless mode emits round(rate *
    window) evenly spaced spikes per dimension.

    Only the counts are drawn here.  The times are made at every read of
    ``times``: the stochastic ones continue the raster's own stream after
    its counts, which each read puts back, so they are the same whenever,
    how often and in whatever order rasters are read.  Decoding reads
    counts only, so ``roundtrip`` and ``eval`` make no spike times.  The
    counts are int32: a rate whose mean count rate * window is above
    MAX_MEAN_COUNT, which rates_from_ternary never gives, is refused.
    """
    window = cfg.window_s
    means = rates.rates_hz * window
    if not means.max(initial=0.0) <= MAX_MEAN_COUNT:
        raise ValueError(f"rate * window is a mean spike count and must be at most {MAX_MEAN_COUNT:g}")
    source = None if cfg.mode == "lossless" else np.random.default_rng([cfg.seed, stream_id])
    # a Poisson count of mean at most 1e9 stays far below 2**31
    counts = _lossless_counts(means) if source is None else source.poisson(means).astype(np.int32)
    return SpikeRaster._deferred(window, counts, source)


def _spike_times(counts: np.ndarray, window: float, rng) -> np.ndarray:
    """The flat spike times of a raster with these counts, grouped by
    dimension and ascending within each: evenly spaced when ``rng`` is
    None, else sorted iid Uniform[0, window) draws from ``rng``, whose
    state each call puts back."""
    if rng is None:
        dims = np.repeat(np.arange(len(counts)), counts)
        rank = np.arange(len(dims)) - (np.cumsum(counts) - counts)[dims]
        return (rank + 0.5) * (window / counts[dims])
    state = rng.bit_generator.state
    times = rng.random(int(counts.sum())) * window
    rng.bit_generator.state = state
    # random() < 1, but do not rely on the rounded product staying below window
    np.minimum(times, np.nextafter(window, 0.0), out=times)
    # sort by time, then stably by dimension, so each dimension's times
    # ascend; dimension labels in the smallest integer type sort by radix
    dims = np.repeat(np.arange(len(counts), dtype=np.min_scalar_type(len(counts))), counts)
    by_time = np.argsort(times)
    by_dim = by_time[np.argsort(dims[by_time], kind="stable")]
    return times[by_dim]


def decode(raster: SpikeRaster, cfg: CodecConfig) -> TernaryVector:
    """Count-threshold decode of a raster back to ternary codes.

    Zero spikes -> 0; count >= ceil(threshold * window) -> +1 with no
    upper cap; otherwise -1.
    """
    if not _same_window(raster.window_s, cfg.window_s):
        raise ConfigError(
            f"raster window {raster.window_s} s does not match config window {cfg.window_s} s"
        )
    values = _decode_counts(raster.counts(), cfg.count_threshold)
    return TernaryVector(values)


def _same_window(a: float, b: float) -> bool:
    """Whether decode takes a raster of window ``a`` under a config of window ``b``."""
    return math.isclose(a, b, rel_tol=1e-9)


def _decode_counts(counts: np.ndarray, count_threshold: int) -> np.ndarray:
    # 2 - 1 at or above the threshold, 0 - 1 below it, 0 - 0 at no spikes
    return (counts >= count_threshold).view(np.int8) * np.int8(2) - (counts > 0).view(np.int8)


@dataclass(frozen=True)
class RoundTripResult:
    ternary: TernarySet
    decoded: TernarySet
    matches: np.ndarray  # bool per word


def roundtrip(es, cfg: CodecConfig) -> RoundTripResult:
    """quantize -> rates -> Poisson spike counts -> decode, for every word.

    Lossless counts depend on the code only, so lossless mode generates one
    raster, of the three levels -1, 0 and +1, decodes it into a table of
    three codes, and looks every word's codes up in it.  Stochastic mode
    generates one raster per word, with the word's vocabulary index as
    stream_id, so generation does not depend on processing order; its
    counts fill one (n, d) int32 matrix, decoded in one pass.  Decoding
    reads counts only, so no spike time is made.
    """
    ternary = quantize_all(es)
    codes = ternary.values
    k_star = cfg.count_threshold
    if cfg.mode == "lossless":
        levels = rates_from_ternary(np.array([-1, 0, 1], np.int8), cfg)
        table = _decode_counts(generate_raster(levels, cfg, stream_id=0).counts(), k_star)
        # code c's decoded code is at c + 1
        decoded = table[codes + 1]
    else:
        counts = np.empty(codes.shape, dtype=np.int32)
        for i, row in enumerate(codes):
            counts[i] = generate_raster(rates_from_ternary(row, cfg), cfg, stream_id=i).counts()
        decoded = _decode_counts(counts, k_star)
    decoded_set = TernarySet(ternary.words, decoded)
    matches = np.all(decoded == codes, axis=1)
    return RoundTripResult(ternary, decoded_set, matches)


# --- exact Poisson arithmetic -------------------------------------------------

def poisson_pmf(k: int, lam: float) -> float:
    if k < 0:
        return 0.0
    if lam == 0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_cdf(k: int, lam: float) -> float:
    """P(X <= k).  Below the mean, by exact summation from k down: the terms
    shrink as i falls, so after the first that underflows to 0.0 all are
    0.0.  At or above the mean, 1 - P(X >= k + 1)."""
    if k >= lam:
        return max(0.0, 1.0 - poisson_sf_ge(k + 1, lam))
    terms = (poisson_pmf(i, lam) for i in range(k, -1, -1))
    return math.fsum(itertools.takewhile(lambda p: p > 0.0, terms))


def poisson_sf_ge(k: int, lam: float) -> float:
    """P(X >= k).  Above the mean, summed upward from k so tiny tails keep
    full precision; at or below it, 1 - P(X <= k - 1)."""
    if k <= lam:
        return max(0.0, 1.0 - poisson_cdf(k - 1, lam))
    term = total = poisson_pmf(k, lam)
    i = k
    while term > total * 1e-17:
        i += 1
        term *= lam / i
        total += term
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
    return [_error_analysis(cfg.lambda_minus, cfg.lambda_plus, k) for k in _thresholds(cfg)]


def _thresholds(cfg: CodecConfig) -> range:
    ks = range(math.floor(cfg.lambda_minus) + 1, math.floor(cfg.lambda_plus + 1e-9) + 1)
    if not ks:
        raise ConfigError("no integer count threshold separates the two rates")
    return ks


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

    Raising k by one changes the total by pmf(k; lambda_plus) -
    pmf(k; lambda_minus), which turns positive once k passes
    (lambda_plus - lambda_minus) / ln(lambda_plus / lambda_minus), so only
    the first k past that point and, against rounding, its neighbours are
    evaluated.  Returns (k / window in Hz, total_error at that k), the same
    total misclassification_probabilities reports for k; ties go to the
    larger k.
    """
    ks, lam_minus, lam_plus = _thresholds(cfg), cfg.lambda_minus, cfg.lambda_plus
    k = math.floor((lam_plus - lam_minus) / math.log(lam_plus / lam_minus)) + 1
    near = [_error_analysis(lam_minus, lam_plus, j) for j in range(max(ks.start, k - 1), min(ks.stop, k + 2))]
    best = min(near, key=lambda a: (a.total_error, -a.count_threshold))
    return best.count_threshold / cfg.window_s, best.total_error


# --- serialization ------------------------------------------------------------

# rasters are formatted in blocks of about this many spikes, each
# dimension counting as one more (an empty one takes a row of its own), and
# counts.csv in blocks of about this many counts, so the byte matrix and its
# index arrays stay at a few MB at any dimension
_BLOCK_SPIKES = 2**16


def _lanes(texts) -> np.ndarray:
    """Each text right-aligned in 4 bytes, padded with 0 bytes, as a uint32."""
    return np.frombuffer(b"".join(text.encode().rjust(4, b"\0") for text in texts), np.uint32)


# the decimal text of v < 1000 as a number's leading group of three digits,
# and as any later group
_LEAD_LANES = _lanes(str(v) for v in range(1000))
_GROUP_LANES = _lanes(f"{v:03d}" for v in range(1000))

# the decimals of f / 1000 ms for each f < 1000, as json.dumps writes a
# float: trailing zeros dropped, but ".0" for a whole number
_DECIMAL_LANES = np.frombuffer(
    b"".join(f".{f:03d}".rstrip("0").ljust(2, "0").encode().ljust(4, b"\0") for f in range(1000)), np.uint32
)

# "[" and "," in the first byte of a lane, which a number's lanes leave 0;
# and the end of a spike's row: its comma, or "]," if it closes its dimension
_OPEN, _COMMA = (np.frombuffer(text.ljust(4, b"\0"), np.uint32)[0] for text in (b"[", b","))
_NEXT, _CLOSE = np.frombuffer(b",\0],", np.uint16)


def _decimal_lanes(values: np.ndarray) -> np.ndarray:
    """The decimal text of nonnegative integers as (len, k) uint32 lanes of
    three digits each, most significant first; the lanes before the one
    with a value's first digit are 0, and k lanes hold the largest value."""
    n_lanes = (len(str(int(values.max()))) + 2) // 3 if values.size else 1
    if n_lanes == 1:
        return _LEAD_LANES[values][:, None]
    lanes = np.empty((len(values), n_lanes), np.uint32)
    rest = values
    for col in range(n_lanes - 1, -1, -1):
        part = rest
        rest, group = np.divmod(part, 1000)
        lanes[:, col] = np.where(rest > 0, _GROUP_LANES[group], _LEAD_LANES[group])
        if col < n_lanes - 1:
            lanes[part == 0, col] = 0
    return lanes


def _check_dimensions(n_dims: int, first: int) -> None:
    """ValueError unless a raster's n_dims is at least one and the first raster's."""
    if n_dims == 0:
        raise ValueError("a raster must hold at least one dimension")
    if n_dims != first:
        raise ValueError(f"{n_dims} dimensions, the first raster has {first}")


def _records(words, rasters):
    """The (word, raster) pairs to write; ValueError, before a byte is
    written, if there are not as many words as rasters, or naming the word
    of a raster that breaks the reader's dimension rules."""
    if len(words) != len(rasters):
        raise ValueError(f"{len(words)} words for {len(rasters)} rasters")
    for word, raster in zip(words, rasters):
        try:
            _check_dimensions(len(raster), len(rasters[0]))
        except ValueError as exc:
            raise ValueError(f"word {word!r}: {exc}") from None
    return zip(words, rasters)


def write_raster_jsonl(path: str, words, rasters) -> None:
    """JSON Lines raster export: one record per word, times in ms (3 dp).

    A record is ``{"word":..,"window_ms":..,"trains":[[t, ..], ..]}`` with
    no spaces, the window written as json.dumps writes
    ``round(window_s * 1000, 6)`` and each time as it writes the float
    ``np.round(t * 1000, 3)``.  Before the file is opened, ValueError
    names a record the reader would refuse (a word UTF-8 cannot encode,
    such as a lone surrogate, included), or whose written window decode
    would not take for the raster's.  Raises ValueError naming the word
    for a negative or non-finite time, or one that rounds to 1e9 ms or
    more.
    """
    records, seen = [], {}
    for n, (word, raster) in enumerate(_records(words, rasters), start=1):
        try:
            window_ms = _window_ms(raster.window_s)
            _check_head({"word": word, "window_ms": window_ms}, seen, f"record {n}")
        except ValueError as exc:
            raise ValueError(f"record {n}: {exc}") from None
        records.append((word, raster, json.dumps(window_ms)))
    with open(path, "wb") as fh:
        blocks = _blocks(records, lambda record: int(record[1].counts().sum()) + len(record[1]), _BLOCK_SPIKES)
        for block in blocks:
            fh.write(_format_records(block))


def _window_ms(window_s: float) -> float:
    """The window as a raster record writes it: in ms, rounded to 6
    decimals.  ConfigError if that reads back as a window decode would not
    take for ``window_s``."""
    window_ms = float(round(window_s * 1000.0, 6))
    if not _same_window(window_ms / 1000.0, window_s):
        raise ConfigError(f"window {window_s} s is written as {window_ms} ms, "
                          f"which reads back as {window_ms / 1000.0} s")
    return window_ms


def _format_records(block) -> bytes:
    """The JSONL bytes of a list of (word, raster, window_ms text) records.

    Each spike, and each empty dimension, is one row of a byte matrix: the
    lanes of the time's integer part, "[" in the first byte if the row
    opens its dimension, a lane of ".ddd", then "," or "],".  Unused bytes
    hold 0, which no output byte is, so dropping every 0 leaves the trains
    text with one comma too many at the end.
    """
    rasters = [raster for _, raster, _ in block]
    times = np.concatenate([r.times for r in rasters])
    counts = np.concatenate([r.counts() for r in rasters])
    # np.round(x, 3) is rint(x * 1000) / 1000, so with the products in this
    # order these are exactly the microsecond ticks behind each written value
    ticks = np.rint((times * 1000.0) * 1000.0)
    bad = np.signbit(times) | ~(ticks < 1e12)  # NaN compares false
    if bad.any():
        spikes = np.cumsum([r.counts().sum() for r in rasters])
        word = block[int(np.searchsorted(spikes, np.argmax(bad), side="right"))][0]
        raise ValueError(f"word {word!r}: spike times must be finite, nonnegative and below 1e9 ms")
    # below 1e12 ticks, the shortest repr of ticks / 1000 is its decimal
    # form: two 3-decimal values lie 0.001 apart, far more than one ulp,
    # and no exponent form applies
    ms, decimals = np.divmod(ticks.astype(np.int64), 1000)
    integer = _decimal_lanes(ms)

    rows = np.maximum(counts, 1)
    ends = np.cumsum(rows)
    spikes = np.repeat(counts > 0, rows)
    n_int = 4 * integer.shape[1]
    buf = np.zeros((len(spikes), n_int + 6), np.uint8)
    # one lane column at a time: 1-d indexed writes are several times faster
    lanes = buf[:, :n_int + 4].view(np.uint32)
    for col in range(integer.shape[1]):
        lanes[:, col][spikes] = integer[:, col]
    lanes[:, -1][spikes] = _DECIMAL_LANES[decimals]
    lanes[:, 0][ends - rows] |= _OPEN
    tail = buf[:, n_int + 4:].view(np.uint16)[:, 0]
    tail[:] = _NEXT
    tail[ends - 1] = _CLOSE

    word_ends = np.concatenate(([0], ends))[np.cumsum([len(r) for r in rasters])]
    parts = []
    for (word, _, window_ms), trains in zip(block, _row_texts(buf, word_ends.tolist())):
        parts += (f'{{"word":{json.dumps(word)},"window_ms":{window_ms},"trains":['.encode(),
                  trains[:-1], b"]}\n")
    return b"".join(parts)


def read_raster_jsonl(path: str) -> tuple[list[str], list[SpikeRaster]]:
    """Read a raster export back; every record must have a distinct word
    that is one whitespace-free token UTF-8 can encode, and the same
    nonzero number of dimensions.

    Lines are read in blocks.  A block whose trains are all in the form
    ``write_raster_jsonl`` writes is parsed with array operations, and
    any other block goes line by line through ``json``; both give the
    same words, windows, counts and times, and both run the same checks.
    A raster from the array path keeps its microsecond ticks and makes
    its times from them at each read; one from ``json`` keeps float times.
    """
    words, rasters = [], []
    seen: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        lines = ((lineno, line) for lineno, line in enumerate(fh, start=1) if not line.isspace())
        # a time and its comma take at least 4 characters, so the parsing
        # arrays of a block of _BLOCK_SPIKES characters stay small
        for block in _blocks(lines, lambda item: len(item[1]), _BLOCK_SPIKES):
            parsed = _parse_block([line for _, line in block]) or [None] * len(block)
            for (lineno, line), record in zip(block, parsed):
                try:
                    head, counts, spikes = record or _parse_record(line)
                    word, window_s = _check_head(head, seen, f"line {lineno}")
                    _check_dimensions(len(counts), len(rasters[0]) if rasters else len(counts))
                    # the array path gives microsecond ticks, json float times
                    raster = (SpikeRaster._deferred(window_s, counts, spikes) if record
                              else SpikeRaster(window_s, spikes, counts))
                # json.loads raises RecursionError on a deeply nested record
                except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
                    raise ValueError(f"{path}:{lineno}: bad raster record: {exc}") from exc
                words.append(word)
                rasters.append(raster)
    return words, rasters


def _check_head(head, seen: dict, where: str) -> tuple[str, float]:
    """A record's word and window in seconds, checked; ``seen`` maps each
    earlier word to ``where`` it was, and gains this one."""
    word = head["word"]
    # decoded codes are written as "word v1 ... vn" lines
    if not isinstance(word, str) or word.split() != [word]:
        raise ValueError(f"word must be one token without whitespace, got {word!r}")
    _check_utf8(word)
    window_ms = head["window_ms"]
    # exact types again: float() would take "200" and true
    if type(window_ms) not in (int, float) or not 0 < window_ms < math.inf:
        raise ValueError(f"window_ms must be a positive finite number, got {window_ms!r}")
    if word in seen:
        raise ValueError(f"word {word!r} repeats {seen[word]}")
    seen[word] = where
    return word, float(window_ms) / 1000.0


def _check_utf8(word: str) -> None:
    """ValueError naming a word that UTF-8 cannot encode, such as one
    holding a lone surrogate: no output file could hold it."""
    try:
        word.encode()
    except UnicodeEncodeError:
        raise ValueError(f"word {word!r}: UTF-8 cannot encode it") from None


def _parse_record(line: str) -> tuple[dict, np.ndarray, np.ndarray]:
    """The head, counts and times (s) of one record, read through
    ``json``: any JSON of the record's shape."""
    record = json.loads(line)
    trains = record["trains"]
    if not isinstance(trains, list) or not all(isinstance(t, list) for t in trains):
        raise ValueError("trains must be a list of lists of spike times")
    # exact types: a JSON true is a bool, and fromiter would read both
    # true and "1.5" as numbers
    if not set(map(type, itertools.chain.from_iterable(trains))) <= {int, float}:
        raise ValueError("spike times must be JSON numbers")
    counts = np.fromiter(map(len, trains), dtype=np.int64, count=len(trains))
    times = np.fromiter(
        itertools.chain.from_iterable(trains), dtype=np.float64, count=int(counts.sum())
    ) / 1000.0
    if not np.all(np.isfinite(times)):
        raise ValueError("spike times must be finite numbers")
    return record, counts, times


_TRAINS_KEY = ',"trains":['


def _parse_block(lines: list[str]) -> list | None:
    """(head, counts, ticks) for each line when every line ends in trains
    of the form ``write_raster_jsonl`` writes, else None; a head is the
    dict ``json`` reads from the text before ``"trains"``.

    A line must be ``<head>,"trains":[[..],..,[..]]}`` with ``<head>}``
    valid JSON, which ends in "}" and so is an object.  Then ``json`` reads
    the line to that object with these trains set last, over any earlier
    "trains".
    """
    heads, segments = [], []
    for line in lines:
        cut = line.find(_TRAINS_KEY)
        start, end = cut + len(_TRAINS_KEY), len(line) - line.endswith("\n")
        if cut < 0 or not (line.startswith("[", start) and line.endswith("]]}", start, end)):
            return None
        try:
            head = json.loads(line[:cut] + "}")
        except (ValueError, RecursionError):
            return None
        heads.append(head)
        segments.append(line[start:end - 2])
    # joined by commas, the lines' trains read as one list of trains; each
    # line starts with "[" and ends with "]", so it holds whole trains
    parsed = _parse_trains(",".join(segments).encode())
    if parsed is None:
        return None
    opens, counts, ticks = parsed
    line_starts = np.cumsum([0] + [len(segment) + 1 for segment in segments])
    train_bounds = np.searchsorted(opens, line_starts)
    spike_bounds = np.concatenate(([0], np.cumsum(counts)))[train_bounds].tolist()
    train_bounds = train_bounds.tolist()
    return [
        (head, counts[train_bounds[i]:train_bounds[i + 1]], ticks[spike_bounds[i]:spike_bounds[i + 1]])
        for i, head in enumerate(heads)
    ]


def _parse_trains(text: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The offsets of the trains, their int32 spike counts and the microsecond
    ticks of ``text``, which starts with "[" and ends with "]", when it is exactly
    ``[T,..,T],..,[T,..,T]``, a train possibly empty and each T matching
    ``(0|[1-9][0-9]{0,9})\\.[0-9]{1,3}``; else None.  The checks prove
    that form:

    - "[" and "]", the only bytes above "9", alternate from the first byte
      to the last, one byte apart between trains.
    - Each dot has 1 to 10 integer digits with no leading zero, and 1 to 3
      decimals followed by "," or "]".  A number that overlapped the next
      would hold that delimiter, so the numbers are disjoint.
    - The numbers and the delimiters add up to every byte, so no other
      byte is there: a train holds numbers and commas only, and the byte
      between two trains is a comma.
    - In a train, c commas leave c + 1 slots and a slot holds at most one
      number, so a train of s > 0 numbers has at least s - 1 commas and
      one of none at least 0.  The commas in trains add up to exactly
      these least values only if every train is ``[]`` or ``[T,..,T]``.

    A time I.FFF ms is the tick I * 1000 + FFF, below 10**13, returned as
    uint32 when every tick of ``text`` is below 2**32 and as uint64
    otherwise.  (tick / 1000.0) / 1000.0 is then the time ``json``'s path
    reads: both numbers are exact below 2**53, so the first division
    rounds to the float ``json`` reads in ms, and the second is the one
    that path makes.
    """
    # four zero bytes let the gathers after a dot run past the end
    buf = np.frombuffer(text + bytes(4), np.uint8)
    brackets = np.flatnonzero(buf > ord("9"))
    opens, closes = brackets[0::2], brackets[1::2]
    if (np.any(buf[opens] != ord("[")) or np.any(buf[closes] != ord("]"))
            or np.any(closes[:-1] + 2 != opens[1:])):
        return None
    dots = np.flatnonzero(buf == ord("."))
    zero = np.uint8(ord("0"))
    # digit values: any other byte reads as 10 or more
    d1, d2, d3 = (buf[dots + k] - zero for k in (1, 2, 3))
    two = d2 < 10
    three = two & (d3 < 10)
    ends = dots + 2 + two + three
    after = buf[ends]
    if not (np.all(d1 < 10) and np.all((after == ord(",")) | (after == ord("]")))):
        return None
    ticks = 100 * d1.astype(np.int64) + 10 * (d2 * two) + d3 * three
    # integer digits, read leftwards from each dot until a non-digit; a
    # run that has ended stays ended, whatever byte its index reaches
    n_int = np.zeros(len(dots), np.uint8)
    run = np.ones(len(dots), bool)
    at = dots.copy()
    for power in range(3, 13):
        at -= 1
        digit = buf[at] - zero
        run &= digit < 10
        if not run.any():
            break
        ticks += np.int64(10**power) * (digit * run)
        n_int += run
    if not np.all((n_int > 0) & ((n_int == 1) | (buf[dots - n_int] != zero))):
        return None
    counts = np.diff(np.searchsorted(dots, closes), prepend=0)
    n_commas = np.count_nonzero(buf == ord(","))
    if (n_commas + len(brackets) + int(n_int.sum(dtype=np.int64) + (ends - dots).sum()) != len(text)
            or n_commas - (len(opens) - 1) != len(dots) - np.count_nonzero(counts)):
        return None
    # numpy 1.x would divide a narrower integer type in float16 or float32
    wide = ticks.size and ticks.max() >= 2**32
    # a count of 2**31 would take a line of 8 GB
    return opens, counts.astype(np.int32), ticks.astype(np.uint64 if wide else np.uint32)


def write_counts_csv(path: str, words, rasters) -> None:
    """Compact export: word,c1,c2,...,cn spike counts per dimension.  The
    word is written by the csv module, so a word holding a comma or a quote
    is quoted by its rules; the counts come from lanes in blocks of about
    _BLOCK_SPIKES counts.  Before the file is opened, ValueError names a
    word that UTF-8 cannot encode, such as a lone surrogate."""
    records = _records(words, rasters)
    for word in words:
        _check_utf8(word)
    # writerow returns what its file's write returns: here the row's text
    csv_row = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    with open(path, "wb") as fh:
        for block in _blocks(records, lambda record: len(record[1]), _BLOCK_SPIKES):
            lanes = _decimal_lanes(np.concatenate([raster.counts() for _, raster in block]))
            lanes[:, 0] |= _COMMA
            texts = _row_texts(lanes.view(np.uint8), np.cumsum([len(raster) for _, raster in block]).tolist())
            # the word as csv writes a first field, then its counts, each
            # after a comma
            fh.write(b"".join(
                csv_row((word, ""))[:-2].encode() + counts + b"\n" for (word, _), counts in zip(block, texts)
            ))
