import csv
import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as st_h

from word2spike import spike_codec
from word2spike.corpus_io import EmbeddingSet
from word2spike.quantizer import quantize_all
from word2spike.spike_codec import (
    PRESETS,
    CodecConfig,
    ConfigError,
    RateVector,
    SpikeRaster,
    _read_config,
    decode,
    generate_raster,
    misclassification_probabilities,
    poisson_cdf,
    poisson_pmf,
    poisson_sf_ge,
    rate_spread,
    rates_from_ternary,
    read_raster_jsonl,
    roundtrip,
    suggest_threshold,
    threshold_curve,
    write_counts_csv,
    write_raster_jsonl,
)

ALT = PRESETS["paper-400ms"]


def trains(raster):
    """Each dimension's spike times, split out of the flat ``times``."""
    counts = raster.counts()
    return np.split(raster.times, np.cumsum(counts[:-1])) if len(counts) else []


def raster_from_counts(counts, window_s=0.2):
    spaced = [(np.arange(c, dtype=float) + 0.5) * (window_s / c) for c in counts if c]
    return SpikeRaster(window_s, np.concatenate([np.empty(0), *spaced]), counts)


class TestCodecConfig:
    def test_defaults(self):
        cfg = CodecConfig()
        assert (cfg.window_s, cfg.rate_plus_hz, cfg.rate_minus_hz, cfg.threshold_hz) == (
            0.2, 100.0, 50.0, 72.0,
        )
        assert cfg.count_threshold == 15

    def test_threshold_must_separate_rates(self):
        with pytest.raises(ConfigError):
            CodecConfig(threshold_hz=110.0)
        with pytest.raises(ConfigError):
            CodecConfig(rate_minus_hz=100.0)  # equal rates cannot be separated
        with pytest.raises(ConfigError):
            CodecConfig(window_s=0.0)
        with pytest.raises(ConfigError):
            CodecConfig(mode="quantum")

    @pytest.mark.parametrize("settings, message", [
        ({"rate_plus_hz": math.inf, "threshold_hz": 80.0}, "rate_plus_hz must be finite, got inf"),
        ({"threshold_hz": math.nan}, "threshold_hz must be finite, got nan"),
        ({"window_s": -math.inf}, "window_s must be finite, got -inf"),
        ({"window_s": -0.2}, "window_s must be positive, got -0.2"),
        ({"rate_minus_hz": 0}, "rate_minus_hz must be positive, got 0"),
        ({"window_s": True}, "window_s must be a real number, got True"),
        ({"rate_minus_hz": True, "threshold_hz": 1.5, "rate_plus_hz": 2},
         "rate_minus_hz must be a real number, got True"),
        ({"window_s": "0.2"}, "window_s must be a real number, got '0.2'"),
        ({"rate_plus_hz": None}, "rate_plus_hz must be a real number, got None"),
    ], ids=["inf-rate", "nan-threshold", "minus-inf-window", "negative-window", "zero-rate",
            "bool-window", "bool-rate", "string-window", "none-rate"])
    def test_numeric_setting_rejected(self, settings, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            CodecConfig(**settings)

    @pytest.mark.parametrize("value", [1, np.float64(0.2), np.float32(0.5), np.int64(2)])
    def test_numeric_window_types_accepted(self, value):
        assert CodecConfig(window_s=value, mode="stochastic").window_s == value

    @pytest.mark.parametrize("settings", [
        # 2 Hz x 0.2 s rounds to 0 spikes, so a -1 would decode as 0
        {"rate_minus_hz": 2.0, "threshold_hz": 50.0},
        # 100 Hz x 13 ms rounds to 1 spike, below the count threshold of 2
        {"window_s": 0.013, "threshold_hz": 99.0},
    ], ids=["minus-rounds-to-zero", "plus-below-threshold"])
    def test_lossless_rejects_counts_that_do_not_decode(self, settings):
        with pytest.raises(ConfigError, match="lossless mode emits"):
            CodecConfig(mode="lossless", **settings)
        CodecConfig(mode="stochastic", **settings)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_lossless_presets_decode_exactly(self, random_set, name):
        cfg = dataclasses.replace(PRESETS[name], mode="lossless")
        assert roundtrip(random_set, cfg).matches.all()

    def test_alt_preset(self):
        assert ALT.window_s == 0.4
        assert (ALT.rate_plus_hz, ALT.rate_minus_hz) == (200.0, 25.0)

    def test_integer_boundary_threshold(self):
        # 75 Hz * 0.2 s = 15 exactly; the ceil must not round up past it
        cfg = CodecConfig(threshold_hz=75.0)
        assert cfg.count_threshold == 15

    def test_mean_count_bound(self):
        # 100 Hz over 1e7 s is a mean of exactly MAX_MEAN_COUNT spikes
        assert CodecConfig(window_s=1e7).lambda_plus == spike_codec.MAX_MEAN_COUNT == 1e9
        with pytest.raises(ConfigError, match=r"mean spike count of a \+1 and must be at most 1e\+09"):
            CodecConfig(window_s=math.nextafter(1e7, math.inf))

    def test_config_file_roundtrip(self, tmp_path):
        cfg = CodecConfig(window_s=0.4, rate_plus_hz=200, rate_minus_hz=25,
                          threshold_hz=85, mode="lossless", seed=99)
        path = tmp_path / "codec.cfg"
        path.write_text("# the alternate preset, lossless\nwindow_s = 0.4\nrate_plus_hz = 200\n\n"
                        "rate_minus_hz=25\nthreshold_hz = 85.0\nmode = lossless\nseed = 99\n")
        assert CodecConfig(**_read_config(str(path))) == cfg

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("volume = 11\n")
        with pytest.raises(ConfigError, match="bad.cfg:1: unknown key 'volume'"):
            _read_config(str(path))

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer, got 1.5"),
        (2.0, "seed must be an integer, got 2.0"),
        (True, "seed must be an integer, got True"),
        (np.float64(3.0), "seed must be an integer, got np.float64"),
        ("4", "seed must be an integer, got '4'"),
        (-1, "seed must be a 64-bit unsigned integer"),
        (2**64, "seed must be a 64-bit unsigned integer"),
        (np.int64(-1), "seed must be a 64-bit unsigned integer"),
    ], ids=["fraction", "whole-float", "bool", "numpy-float", "string", "negative", "2**64", "numpy-negative"])
    def test_seed_rejected(self, seed, message):
        # int() takes every one of the first five; default_rng then fails
        # on the floats, and takes a bool or a string without complaint
        with pytest.raises(ConfigError, match=re.escape(message)):
            CodecConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.int64(7), np.uint64(2**64 - 1)])
    def test_integer_seeds_accepted(self, seed):
        assert CodecConfig(seed=seed).seed == seed


class TestRatesFromTernary:
    def test_default_mapping(self):
        rates = rates_from_ternary(np.array([1, 0, -1]), CodecConfig())
        assert rates.rates_hz.tolist() == [100.0, 0.0, 50.0]

    def test_all_zero(self):
        rates = rates_from_ternary(np.zeros(5, dtype=np.int8), CodecConfig())
        assert not rates.rates_hz.any()

    def test_alt_preset_mapping(self):
        rates = rates_from_ternary(np.array([1, -1]), ALT)
        assert rates.rates_hz.tolist() == [200.0, 25.0]


class TestGenerateRaster:
    def test_zero_rate_empty_both_modes(self):
        rates = RateVector(np.array([0.0]))
        for mode in ("stochastic", "lossless"):
            cfg = dataclasses.replace(CodecConfig(), mode=mode)
            assert len(trains(generate_raster(rates, cfg, 0))[0]) == 0

    def test_lossless_exact_counts(self):
        cfg = CodecConfig(mode="lossless")
        raster = generate_raster(RateVector(np.array([100.0, 50.0, 0.0])), cfg, 0)
        assert raster.counts().tolist() == [20, 10, 0]
        raster.validate()

    def test_lossless_spikes_evenly_spaced(self):
        cfg = CodecConfig(mode="lossless")
        train = trains(generate_raster(RateVector(np.array([100.0])), cfg, 0))[0]
        gaps = np.diff(train)
        assert np.allclose(gaps, gaps[0])
        assert 0 <= train[0] and train[-1] < cfg.window_s

    def test_stochastic_valid_and_deterministic(self):
        cfg = CodecConfig(seed=123)
        rates = RateVector(np.array([100.0, 50.0, 0.0]))
        a = generate_raster(rates, cfg, stream_id=7)
        b = generate_raster(rates, cfg, stream_id=7)
        a.validate()
        for ta, tb in zip(trains(a), trains(b)):
            assert np.array_equal(ta, tb)

    def test_stochastic_streams_differ(self):
        cfg = CodecConfig(seed=123)
        rates = RateVector(np.array([100.0]))
        a = trains(generate_raster(rates, cfg, stream_id=0))[0]
        b = trains(generate_raster(rates, cfg, stream_id=1))[0]
        c = trains(generate_raster(rates, dataclasses.replace(cfg, seed=124), stream_id=0))[0]
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stochastic_mean_and_variance(self):
        # moderate-size check here; the full calibration lives in acceptance
        cfg = CodecConfig(seed=5)
        counts = [
            len(trains(generate_raster(RateVector(np.array([100.0])), cfg, i))[0])
            for i in range(4000)
        ]
        lam = 20.0
        assert np.mean(counts) == pytest.approx(lam, abs=4 * math.sqrt(lam / 4000))
        assert np.var(counts) == pytest.approx(lam, rel=0.15)

    def test_stochastic_times_uniform_within_window(self):
        # given its count, a Poisson process places spikes as iid uniforms
        cfg = CodecConfig(seed=31)
        raster = generate_raster(RateVector(np.full(2000, 100.0)), cfg, 0)
        assert raster.times.size > 30_000
        _, pvalue = st.kstest(raster.times / cfg.window_s, "uniform")
        assert pvalue > 0.001

    def test_stochastic_gaps_exponential(self):
        rate = 50_000.0  # lambda * T = 1e4 spikes in one train
        cfg = CodecConfig(seed=32)
        train = generate_raster(RateVector(np.array([rate])), cfg, 0).times
        assert abs(train.size - 10_000) < 500
        _, pvalue = st.kstest(np.diff(train), "expon", args=(0.0, 1.0 / rate))
        assert pvalue > 0.001

    def test_stochastic_times_poisson_in_every_dimension(self, tmp_path):
        # in each dimension of rate r, a Poisson process on [0, T) places
        # its spikes as iid Uniform[0, T) times, Exponential(r) apart.  The
        # level, 1e-3 over all 32 KS tests (Bonferroni), was fixed before
        # the test first ran; a 100 s window gives 5,000 to 10,000 spikes a
        # dimension.  The raster read back from JSONL must pass too.
        cfg = CodecConfig(window_s=100.0, seed=35)
        codes = np.array([1, -1] * 4 + [0, 0])
        raster = generate_raster(rates_from_ternary(codes, cfg), cfg, 0)
        path = str(tmp_path / "r.jsonl")
        write_raster_jsonl(path, ["w"], [raster])
        level = 1e-3 / 32
        for source in (raster, read_raster_jsonl(path)[1][0]):
            for dim, (code, train) in enumerate(zip(codes, trains(source))):
                if code == 0:
                    assert train.size == 0
                    continue
                rate = cfg.rate_plus_hz if code == 1 else cfg.rate_minus_hz
                assert st.kstest(train / cfg.window_s, "uniform").pvalue > level, dim
                assert st.kstest(np.diff(train), "expon", args=(0.0, 1.0 / rate)).pvalue > level, dim

    def test_stochastic_rasters_valid_1000_words(self):
        rng = np.random.default_rng(33)
        words = tuple(f"w{i}" for i in range(1000))
        ternary = quantize_all(EmbeddingSet(words, rng.standard_normal((1000, 300))))
        for cfg in (CodecConfig(seed=33), ALT):
            for i, code in enumerate(ternary.values):
                raster = generate_raster(rates_from_ternary(code, cfg), cfg, i)
                raster.validate()
                assert len(raster) == 300


def eager_generate_raster(rates, cfg, stream_id):
    """generate_raster as it was when it drew counts and times in one call:
    the oracle of the times a generated raster makes at its first read."""
    window = cfg.window_s
    if cfg.mode == "lossless":
        counts = np.rint(rates.rates_hz * window).astype(np.int64)
        dims = np.repeat(np.arange(len(counts)), counts)
        rank = np.arange(len(dims)) - (np.cumsum(counts) - counts)[dims]
        return SpikeRaster(window, (rank + 0.5) * (window / counts[dims]), counts)
    rng = np.random.default_rng([cfg.seed, stream_id])
    counts = rng.poisson(rates.rates_hz * window)
    times = rng.random(int(counts.sum())) * window
    np.minimum(times, np.nextafter(window, 0.0), out=times)
    dims = np.repeat(np.arange(len(counts), dtype=np.min_scalar_type(len(counts))), counts)
    by_time = np.argsort(times)
    by_dim = by_time[np.argsort(dims[by_time], kind="stable")]
    return SpikeRaster(window, times[by_dim], counts)


MODES = ("stochastic", "lossless")


@st_h.composite
def raster_requests(draw):
    """A config in either mode and the (rates, stream_id) of a few rasters."""
    cfg = dataclasses.replace(
        PRESETS[draw(st_h.sampled_from(sorted(PRESETS)))],
        mode=draw(st_h.sampled_from(MODES)),
        seed=draw(st_h.integers(0, 2**64 - 1)),
    )
    n_dims = draw(st_h.integers(0, 8))
    rate = st_h.one_of(st_h.just(0.0), st_h.floats(0.0, 400.0))
    rates = st_h.lists(rate, min_size=n_dims, max_size=n_dims).map(lambda r: RateVector(np.array(r)))
    return cfg, draw(st_h.lists(st_h.tuples(rates, st_h.integers(0, 2**32)), min_size=1, max_size=6))


class TestDeferredTimes:
    @settings(max_examples=150, deadline=None)
    @given(raster_requests(), st_h.data())
    def test_times_equal_the_eager_oracle_in_any_read_order(self, requests, data):
        cfg, specs = requests
        rasters = [generate_raster(rates, cfg, stream_id) for rates, stream_id in specs]
        oracles = [eager_generate_raster(rates, cfg, stream_id) for rates, stream_id in specs]
        # every raster is generated before the first one is read
        for i in data.draw(st_h.permutations(range(len(specs)))):
            assert rasters[i].counts().tolist() == oracles[i].counts().tolist()
            assert rasters[i].times.tobytes() == oracles[i].times.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_times_are_made_once(self, mode):
        cfg = CodecConfig(mode=mode, seed=3)
        raster = generate_raster(RateVector(np.array([100.0, 0.0, 50.0])), cfg, 0)
        first = raster.times
        raster.validate()
        assert raster.times is first

    def test_counts_need_no_times(self, no_spike_times):
        raster = generate_raster(RateVector(np.array([100.0, 50.0])), CodecConfig(seed=3), 0)
        assert len(raster) == 2 and raster.counts().sum() > 0
        decode(raster, CodecConfig())
        with pytest.raises(AssertionError, match="spike times were made"):
            raster.times

    @pytest.mark.parametrize("mode", MODES)
    def test_roundtrip_makes_no_spike_times(self, random_set, no_spike_times, mode):
        assert roundtrip(random_set, CodecConfig(mode=mode, seed=3)).decoded.values.shape == (100, 16)

    @pytest.mark.parametrize("mode", MODES)
    def test_roundtrip_generates_one_raster_per_word(self, random_set, mode):
        # one generate_raster call per word, with the rates rates_from_ternary gives
        cfg = CodecConfig(mode=mode, seed=3)
        with mock.patch.object(spike_codec, "generate_raster", wraps=generate_raster) as spy:
            result = roundtrip(random_set, cfg)
        assert spy.call_count == len(random_set.words)
        for i, call in enumerate(spy.call_args_list):
            rates, call_cfg = call.args
            assert (call_cfg, call.kwargs) == (cfg, {"stream_id": i})
            expected = rates_from_ternary(result.ternary.values[i], cfg).rates_hz
            assert rates.rates_hz.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_writers_match_eager_rasters(self, tmp_path, mode):
        cfg = dataclasses.replace(CodecConfig(), mode=mode, seed=14)
        codes = np.random.default_rng(14).choice(np.array([-1, 0, 1], dtype=np.int8), size=(40, 300))
        words = [f"w{i}" for i in range(len(codes))]
        outputs = {}
        for name, generate in (("deferred", generate_raster), ("eager", eager_generate_raster)):
            rasters = [generate(rates_from_ternary(c, cfg), cfg, i) for i, c in enumerate(codes)]
            write_raster_jsonl(str(tmp_path / f"{name}.jsonl"), words, rasters)
            write_counts_csv(str(tmp_path / f"{name}.csv"), words, rasters)
            outputs[name] = [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("jsonl", "csv")]
        assert outputs["deferred"] == outputs["eager"]


class TestSpikeRaster:
    def test_trains_view(self):
        raster = SpikeRaster(0.2, [0.1, 0.05, 0.15], [1, 0, 2])
        assert [t.tolist() for t in trains(raster)] == [[0.1], [], [0.05, 0.15]]
        assert raster.counts().tolist() == [1, 0, 2]
        raster.validate()  # times may descend across a dimension boundary

    def test_counts_must_match_times(self):
        with pytest.raises(ValueError):
            SpikeRaster(0.2, [0.1, 0.2], [1])
        with pytest.raises(ValueError):
            SpikeRaster(0.2, [0.1], [2, -1])

    @pytest.mark.parametrize("times,counts,message", [
        ([0.1, math.nan], [0, 2], "dimension 1: non-finite"),
        ([0.1, 0.2], [1, 1], "dimension 1: spike time outside"),
        ([-0.01], [1], "dimension 0: spike time outside"),
        ([0.01, 0.05, 0.05], [1, 2], "dimension 1: spike times not strictly increasing"),
        ([0.01, 0.07, 0.06], [0, 3], "dimension 1: spike times not strictly increasing"),
    ])
    def test_validate_rejects(self, times, counts, message):
        with pytest.raises(ValueError, match=message):
            SpikeRaster(0.2, times, counts).validate()


class TestEstimateAndDecode:
    def test_decode_nominal(self):
        assert decode(raster_from_counts([20, 0, 10]), CodecConfig()).values.tolist() == [1, 0, -1]

    def test_decode_boundary_counts(self):
        cfg = CodecConfig()
        assert decode(raster_from_counts([14]), cfg).values.tolist() == [-1]
        assert decode(raster_from_counts([15]), cfg).values.tolist() == [1]

    def test_decode_no_upper_cap(self):
        assert decode(raster_from_counts([25]), CodecConfig()).values.tolist() == [1]

    def test_decode_window_mismatch(self):
        with pytest.raises(ConfigError):
            decode(raster_from_counts([20], window_s=0.4), CodecConfig())

    def test_decode_depends_only_on_counts(self):
        cfg = CodecConfig(seed=1)
        stochastic = generate_raster(RateVector(np.array([100.0, 50.0, 0.0])), cfg, 0)
        rebuilt = raster_from_counts(stochastic.counts())
        assert np.array_equal(decode(stochastic, cfg).values, decode(rebuilt, cfg).values)


class TestRoundtrip:
    def test_lossless_identity(self, random_set):
        result = roundtrip(random_set, CodecConfig(mode="lossless"))
        assert result.matches.all()
        assert np.array_equal(result.decoded.values, result.ternary.values)

    def test_zero_vectors_trivially_match(self):
        es = EmbeddingSet(("a", "b"), np.zeros((2, 8)))
        for mode in ("stochastic", "lossless"):
            result = roundtrip(es, CodecConfig(mode=mode, seed=3))
            assert result.matches.all()

    @settings(max_examples=30, deadline=None)
    @given(st_h.lists(st_h.sampled_from([-1, 0, 1]), min_size=1, max_size=20))
    def test_lossless_identity_all_ternary(self, code):
        # encode an arbitrary ternary word directly, bypassing quantization
        cfg = CodecConfig(mode="lossless")
        rates = rates_from_ternary(np.array(code, dtype=np.int8), cfg)
        decoded = decode(generate_raster(rates, cfg, 0), cfg)
        assert decoded.values.tolist() == code


class TestExactPoisson:
    # scipy is the independent oracle for the hand-rolled summations
    @pytest.mark.parametrize("lam", [0.5, 5.0, 10.0, 20.0, 80.0])
    @pytest.mark.parametrize("k", [0, 1, 5, 15, 34, 100])
    def test_against_scipy(self, k, lam):
        assert poisson_pmf(k, lam) == pytest.approx(st.poisson.pmf(k, lam), rel=1e-12, abs=1e-300)
        assert poisson_cdf(k, lam) == pytest.approx(st.poisson.cdf(k, lam), rel=1e-12)
        assert poisson_sf_ge(k, lam) == pytest.approx(st.poisson.sf(k - 1, lam), rel=1e-10)

    # k on both sides of lam; pmf(k) underflows to 0.0 in the first four cases
    @pytest.mark.parametrize("k, lam", [(15, 2e-22), (10**6, 2e5), (100, 5000.0), (1, 1e6),
                                        (400, 500.0), (600, 500.0), (40, 40.0), (3 * 10**6, 2e6)])
    def test_tails_on_both_sides_of_lam(self, k, lam):
        assert poisson_sf_ge(k, lam) == pytest.approx(st.poisson.sf(k - 1, lam), rel=1e-10, abs=1e-300)
        assert poisson_cdf(k - 1, lam) == pytest.approx(st.poisson.cdf(k - 1, lam), rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("k, lam", [(14, 20.0), (5, 80.0), (400, 500.0), (99_999, 2e5)])
    def test_cdf_below_the_mean_equals_the_sum_of_every_term(self, k, lam):
        assert poisson_cdf(k, lam) == math.fsum(poisson_pmf(i, lam) for i in range(k + 1))

    def test_misclassification_defaults(self):
        analysis = misclassification_probabilities(CodecConfig())
        assert analysis.count_threshold == 15
        assert analysis.p_minus_as_plus == pytest.approx(0.08345847293466, rel=1e-10)
        assert analysis.p_minus_as_zero == pytest.approx(math.exp(-10.0), rel=1e-12)
        # P(0 < Pois(20) < 15) = P(<=14) - P(=0)
        assert analysis.p_plus_as_minus == pytest.approx(
            st.poisson.cdf(14, 20) - st.poisson.pmf(0, 20), rel=1e-10
        )
        assert analysis.p_plus_as_zero == pytest.approx(math.exp(-20.0), rel=1e-12)

    def test_expected_word_error_formula(self):
        analysis = misclassification_probabilities(CodecConfig())
        expected = 1.0 - (1.0 - analysis.p_plus_error) ** 3 * (1.0 - analysis.p_minus_error) ** 2
        assert analysis.expected_word_error(3, 2, 100) == pytest.approx(expected)
        assert analysis.expected_word_error(0, 0, 50) == 0.0

    def test_probabilities_in_unit_interval(self):
        for cfg in (CodecConfig(), ALT):
            analysis = misclassification_probabilities(cfg)
            for p in (analysis.p_minus_as_plus, analysis.p_plus_as_minus,
                      analysis.p_minus_as_zero, analysis.p_plus_as_zero):
                assert 0.0 <= p <= 1.0


class TestRateSpread:
    def test_paper_values(self):
        spread = rate_spread(CodecConfig())
        assert spread["+1"][1] == pytest.approx(22.36, abs=0.005)
        assert spread["-1"][1] == pytest.approx(15.81, abs=0.005)

    def test_quadrupled_window_halves_sd(self):
        base = rate_spread(CodecConfig())
        wide = rate_spread(CodecConfig(window_s=0.8))
        assert wide["+1"][1] == pytest.approx(base["+1"][1] / 2)


class TestSuggestThreshold:
    def test_defaults_between_rates(self):
        hz, err = suggest_threshold(CodecConfig())
        assert 50.0 < hz < 100.0
        # brute-force the same search with scipy
        best = min(
            range(11, 21),
            key=lambda k: (st.poisson.sf(k - 1, 10) + st.poisson.cdf(k - 1, 20)
                           - st.poisson.pmf(0, 20), -k),
        )
        assert hz == best / 0.2
        # the total per-dimension error, zero-count terms included
        assert err == pytest.approx(
            st.poisson.sf(best - 1, 10) + st.poisson.cdf(best - 1, 20) - st.poisson.pmf(0, 20)
            + st.poisson.pmf(0, 10) + st.poisson.pmf(0, 20),
            rel=1e-9,
        )

    def test_alt_preset_tiny_error(self):
        hz, err = suggest_threshold(ALT)
        assert 25.0 < hz < 200.0
        assert err < 1e-3

    @pytest.mark.parametrize("name, best_hz", [("paper-200ms", 75.0), ("paper-400ms", 85.0)])
    def test_error_equals_analysis_at_suggested_threshold(self, name, best_hz):
        cfg = PRESETS[name]
        hz, err = suggest_threshold(cfg)
        assert hz == best_hz
        at_k = dataclasses.replace(cfg, threshold_hz=hz)
        assert err == misclassification_probabilities(at_k).total_error


    @pytest.mark.parametrize("window_s, rate_minus, rate_plus", [
        (0.2, 50.0, 100.0), (0.4, 25.0, 200.0), (1.0, 0.7, 3.0), (0.05, 10.0, 400.0),
        (2.0, 21.25, 195.8), (0.25, 11.4, 566.8), (0.4, 90.86, 3502.3), (1.0, 60.0, 1877.0),
    ])
    def test_error_is_the_curve_minimum(self, window_s, rate_minus, rate_plus):
        # the last four have float plateaus, where several k share the least total
        cfg = CodecConfig(window_s=window_s, rate_minus_hz=rate_minus, rate_plus_hz=rate_plus,
                          threshold_hz=(rate_minus + rate_plus) / 2)
        hz, err = suggest_threshold(cfg)
        totals = {a.count_threshold: a.total_error for a in threshold_curve(cfg)}
        assert err == min(totals.values()) == totals[round(hz * window_s)]


class TestThresholdCurve:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_matches_scipy_on_every_row(self, name):
        cfg = PRESETS[name]
        lm, lp = cfg.lambda_minus, cfg.lambda_plus
        curve = threshold_curve(cfg)
        assert [a.count_threshold for a in curve] == list(range(math.floor(lm) + 1, math.floor(lp) + 1))
        for a in curve:
            k = a.count_threshold
            assert (a.lambda_minus, a.lambda_plus) == (lm, lp)
            assert a.p_minus_as_plus == pytest.approx(st.poisson.sf(k - 1, lm), rel=1e-9)
            assert a.p_plus_as_minus == pytest.approx(
                st.poisson.cdf(k - 1, lp) - st.poisson.pmf(0, lp), rel=1e-9
            )
            assert a.p_minus_as_zero == pytest.approx(st.poisson.pmf(0, lm), rel=1e-12)
            assert a.p_plus_as_zero == pytest.approx(st.poisson.pmf(0, lp), rel=1e-12)

    def test_no_integer_threshold_between_rates(self):
        cfg = CodecConfig(window_s=0.01, rate_plus_hz=40.0, rate_minus_hz=10.0, threshold_hz=20.0)
        with pytest.raises(ConfigError):
            threshold_curve(cfg)
        with pytest.raises(ConfigError):
            suggest_threshold(cfg)


def reference_jsonl(words, rasters):
    """The per-spike formatting the bulk writer must reproduce byte for byte.

    Each t is a numpy float64, so round() here is numpy's rounding."""
    lines = []
    for word, raster in zip(words, rasters):
        record = {
            "word": word,
            "window_ms": round(raster.window_s * 1000.0, 6),
            "trains": [[round(t * 1000.0, 3) for t in train] for train in trains(raster)],
        }
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(lines)


GOOD_RECORD = '{"word":"a","window_ms":200.0,"trains":[[1.0,2.5],[]]}'

BAD_RECORDS = {
    "non-numeric time": '{"word":"b","window_ms":200.0,"trains":[[1.0,"x"]]}',
    "null time": '{"word":"b","window_ms":200.0,"trains":[[1.0,null]]}',
    "numeric-string time": '{"word":"b","window_ms":200.0,"trains":[["1.5"]]}',
    "boolean time": '{"word":"b","window_ms":200.0,"trains":[[true]]}',
    "missing trains": '{"word":"b","window_ms":200.0}',
    "non-list train": '{"word":"b","window_ms":200.0,"trains":[[1.0],5]}',
    "string train": '{"word":"b","window_ms":200.0,"trains":["123"]}',
    "non-list trains": '{"word":"b","window_ms":200.0,"trains":7}',
    "non-string word": '{"word":5,"window_ms":200.0,"trains":[[],[]]}',
    "word with whitespace": '{"word":"a b","window_ms":200.0,"trains":[[],[]]}',
    "repeated word": '{"word":"a","window_ms":200.0,"trains":[[],[]]}',
    "unequal dimension": '{"word":"b","window_ms":200.0,"trains":[[]]}',
    "NaN window": '{"word":"b","window_ms":NaN,"trains":[[],[]]}',
    "string window": '{"word":"b","window_ms":"200","trains":[[],[]]}',
    "boolean window": '{"word":"b","window_ms":true,"trains":[[],[]]}',
    "negative window": '{"word":"b","window_ms":-3,"trains":[[],[]]}',
    "oversized time": '{"word":"b","window_ms":200.0,"trains":[[1' + "0" * 400 + '],[]]}',
}

# no dimensions at all: on line 1 no earlier record has a dimension count
NO_DIMENSIONS = '{"word":"b","window_ms":200.0,"trains":[]}'


def spike_times(window_s):
    """Spike times in [0, window_s) s, often on a formatting edge."""
    last_tick = int(window_s * 1e6) - 1
    return st_h.one_of(
        st_h.floats(0.0, window_s, exclude_max=True),
        # microsecond ticks ending in 000, 100, 010 and 001
        st_h.builds(lambda ms, tail: (ms * 1000 + tail) / 1e6,
                    st_h.integers(0, last_tick // 1000), st_h.sampled_from([0, 100, 10, 1])),
        # just below a tick's rounding boundary at .0005 ms, and on it
        st_h.builds(lambda n, below: float(np.nextafter((n + 0.5) / 1e6, 0.0)) if below else (n + 0.5) / 1e6,
                    st_h.integers(0, last_tick), st_h.booleans()),
        st_h.just(float(np.nextafter(window_s, 0.0))),
    )


SPIKE_TIMES = {window_s: spike_times(window_s) for window_s in (0.2, 0.4, 1.0, 123.456)}


@st_h.composite
def raster_records(draw):
    """Rasters with any dimension, zero and all-empty ones included."""
    n_dims = draw(st_h.integers(0, 6))
    rasters = []
    for _ in range(draw(st_h.integers(1, 5))):
        window_s = draw(st_h.sampled_from(sorted(SPIKE_TIMES)))
        counts = draw(st_h.lists(st_h.integers(0, 4), min_size=n_dims, max_size=n_dims))
        times = draw(st_h.lists(SPIKE_TIMES[window_s], min_size=sum(counts), max_size=sum(counts)))
        rasters.append(SpikeRaster(window_s, times, counts))
    return rasters


class TestSerialization:
    def test_jsonl_roundtrip(self, tmp_path):
        cfg = CodecConfig(seed=11)
        words = ["alpha", "beta"]
        rasters = [
            generate_raster(RateVector(np.array([100.0, 0.0, 50.0])), cfg, i)
            for i in range(2)
        ]
        path = str(tmp_path / "r.jsonl")
        write_raster_jsonl(path, words, rasters)
        back_words, back_rasters = read_raster_jsonl(path)
        assert back_words == words
        for orig, back in zip(rasters, back_rasters):
            assert back.window_s == pytest.approx(orig.window_s)
            assert np.array_equal(back.counts(), orig.counts())
            for t_orig, t_back in zip(trains(orig), trains(back)):
                # export rounds to 3 decimal places in ms
                assert np.allclose(t_back, t_orig, atol=5.01e-7)
            assert np.array_equal(decode(back, cfg).values, decode(orig, cfg).values)

    def test_counts_csv(self, tmp_path):
        path = str(tmp_path / "c.csv")
        write_counts_csv(path, ["w"], [raster_from_counts([20, 0, 10])])
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "w,20,0,10\n"

    @pytest.mark.parametrize("mode", ["stochastic", "lossless"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_jsonl_bytes_match_reference(self, tmp_path, mode, preset):
        cfg = dataclasses.replace(PRESETS[preset], mode=mode, seed=12)
        rng = np.random.default_rng(12)
        codes = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(30, 300), p=[0.2, 0.6, 0.2])
        codes[0] = 0  # a word with no spikes at all
        rasters = [generate_raster(rates_from_ternary(c, cfg), cfg, i) for i, c in enumerate(codes)]
        words = [f"w{i}" for i in range(len(codes))]
        path = tmp_path / "r.jsonl"
        write_raster_jsonl(str(path), words, rasters)
        assert path.read_text(encoding="utf-8") == reference_jsonl(words, rasters)

    @settings(max_examples=200, deadline=None)
    @given(raster_records(), st_h.sampled_from([1, 3, 7, 2**16]))
    def test_jsonl_bytes_match_reference_on_edges(self, tmp_path_factory, rasters, block):
        words = [f"w{i}" for i in range(len(rasters))]
        path = tmp_path_factory.mktemp("jsonl") / "r.jsonl"
        with mock.patch.object(spike_codec, "_BLOCK_SPIKES", block):
            write_raster_jsonl(str(path), words, rasters)
        assert path.read_text(encoding="utf-8") == reference_jsonl(words, rasters)

    def test_jsonl_words_that_need_escapes(self, tmp_path):
        words = ["\u00e9t\u00e9", 'say"hi', "back\\slash", "\u65e5\u672c"]
        rasters = [raster_from_counts(c) for c in ([1, 0], [0, 0], [2, 3], [0, 1])]
        path = tmp_path / "r.jsonl"
        write_raster_jsonl(str(path), words, rasters)
        assert path.read_text(encoding="utf-8") == reference_jsonl(words, rasters)
        assert read_raster_jsonl(str(path))[0] == words

    # 11 words of 6 dimensions and 807 rows: blocks of 1 and 3 hold one
    # word each, 7 joins the word without spikes to the next, and 150 holds
    # two or three words and leaves one word over
    @pytest.mark.parametrize("block", [1, 3, 7, 150])
    def test_jsonl_block_boundaries(self, tmp_path, monkeypatch, block):
        cfg = CodecConfig(seed=13)
        codes = np.random.default_rng(13).choice(np.array([-1, 0, 1], dtype=np.int8), size=(11, 6))
        codes[4] = 0
        rasters = [generate_raster(rates_from_ternary(c, cfg), cfg, i) for i, c in enumerate(codes)]
        words = [f"w{i}" for i in range(len(codes))]
        monkeypatch.setattr(spike_codec, "_BLOCK_SPIKES", block)
        path = tmp_path / "r.jsonl"
        write_raster_jsonl(str(path), words, rasters)
        assert path.read_text(encoding="utf-8") == reference_jsonl(words, rasters)

    def test_jsonl_rounds_half_ticks_as_np_round(self, tmp_path):
        # on and just below each .0005 ms boundary, rint(t * 1e6) and
        # rint(t * 1000 * 1000) differ for about one time in ten
        half = (np.arange(2000) + 0.5) / 1e6
        times = np.sort(np.concatenate([half, np.nextafter(half, 0.0)]))
        rasters = [SpikeRaster(0.2, times, [len(times)])]
        path = tmp_path / "r.jsonl"
        write_raster_jsonl(str(path), ["w"], rasters)
        assert path.read_text(encoding="utf-8") == reference_jsonl(["w"], rasters)

    def test_jsonl_largest_writable_time(self, tmp_path):
        rasters = [SpikeRaster(1e7, [0.0, 999_999.999999], [2])]
        path = tmp_path / "r.jsonl"
        write_raster_jsonl(str(path), ["w"], rasters)
        assert path.read_text(encoding="utf-8") == reference_jsonl(["w"], rasters)
        assert "999999999.999]" in path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("bad_time", [-0.001, -0.0, math.nan, math.inf, 1e6, 1e300])
    def test_jsonl_rejects_unwritable_time(self, tmp_path, bad_time):
        rasters = [raster_from_counts([1, 2]), SpikeRaster(1e7, [0.1, bad_time], [1, 1])]
        with pytest.raises(ValueError, match="word 'second'"):
            write_raster_jsonl(str(tmp_path / "r.jsonl"), ["first", "second"], rasters)

    def test_counts_csv_quotes_commas_and_quotes(self, tmp_path):
        path = str(tmp_path / "c.csv")
        words = ["a,b", 'say"hi', "plain"]
        write_counts_csv(path, words, [raster_from_counts([20, 0, 10])] * 3)
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
            fh.seek(0)
            rows = list(csv.reader(fh))
        assert text.splitlines()[2] == "plain,20,0,10"
        assert rows == [[w, "20", "0", "10"] for w in words]

    @pytest.mark.parametrize("bad", sorted(BAD_RECORDS))
    def test_malformed_record_names_line(self, tmp_path, bad):
        path = tmp_path / "r.jsonl"
        path.write_text(GOOD_RECORD + "\n" + BAD_RECORDS[bad] + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"r\.jsonl:2: bad raster record"):
            read_raster_jsonl(str(path))

    def test_record_without_dimensions_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(NO_DIMENSIONS + "\n" + GOOD_RECORD + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"r\.jsonl:1: bad raster record: trains must hold at least one"):
            read_raster_jsonl(str(path))


def read_through_json(path):
    """read_raster_jsonl with every block sent line by line through
    ``json``: the reference the array parser must equal."""
    with mock.patch.object(spike_codec, "_parse_block", lambda lines: None):
        return read_raster_jsonl(path)


def outcome(read, path):
    """What ``read`` gives for ``path``, exactly: its error and message, or
    its words and, per raster, the bits of the window, counts and times."""
    try:
        words, rasters = read(path)
    except (ValueError, RecursionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return words, [(r.window_s.hex(), r.counts().dtype, r.counts().tobytes(), r.times.dtype, r.times.tobytes())
                   for r in rasters]


def writer_lines(n_words, seed=14):
    """The JSONL lines write_raster_jsonl writes for n_words stochastic
    200 ms rasters of 6 dimensions, newline included."""
    cfg = CodecConfig(seed=seed)
    codes = np.random.default_rng(seed).choice(np.array([-1, 0, 1], dtype=np.int8), size=(n_words, 6))
    rasters = [generate_raster(rates_from_ternary(c, cfg), cfg, i) for i, c in enumerate(codes)]
    return reference_jsonl([f"w{i}" for i in range(n_words)], rasters).splitlines(keepends=True)


# records json reads but the writer does not write, each of word "b" and 2
# dimensions unless it is bad; each must read as the json reference reads it
OTHER_RECORDS = {
    "spaces": '{"word": "b", "window_ms": 200.0, "trains": [[1.0, 2.5], []]}',
    "space in a train": '{"word":"b","window_ms":200.0,"trains":[[1.0, 2.5],[]]}',
    "space in an empty train": '{"word":"b","window_ms":200.0,"trains":[[1.0,2.5],[ ]]}',
    "int-only train": '{"word":"b","window_ms":200.0,"trains":[[1.0],[12]]}',
    "crlf": '{"word":"b","window_ms":200.0,"trains":[[1.0,2.5],[]]}\r',
    "cr between records": '{"word":"b","window_ms":200.0,"trains":[[1.0],[]]}\r{"word":"c","window_ms":200.0,"trains":[[],[2.0]]}',
    "blank lines": '\n \n{"word":"b","window_ms":200.0,"trains":[[1.0,2.5],[]]}\n\t',
    "int time": '{"word":"b","window_ms":200.0,"trains":[[1,2.5],[]]}',
    "exponent": '{"word":"b","window_ms":200.0,"trains":[[1e3,2.5],[]]}',
    "four decimals": '{"word":"b","window_ms":200.0,"trains":[[1.2345,2.5],[]]}',
    "trailing zero decimals": '{"word":"b","window_ms":200.0,"trains":[[1.50,2.500],[0.00]]}',
    "ten integer digits": '{"word":"b","window_ms":200.0,"trains":[[1234567890.5],[]]}',
    "eleven integer digits": '{"word":"b","window_ms":200.0,"trains":[[12345678901.5],[]]}',
    "nine integer digits": '{"word":"b","window_ms":200.0,"trains":[[999999999.999],[]]}',
    "overlapping numbers": '{"word":"b","window_ms":200.0,"trains":[[1.2345.5,777],[]]}',
    "open for a close": '{"word":"b","window_ms":200.0,"trains":[[[,[2.0]]}',
    "close for an open": '{"word":"b","window_ms":200.0,"trains":[[1.0],]2.0]]}',
    "no decimals before a digit": '{"word":"b","window_ms":200.0,"trains":[[1.],[5]]}',
    "number between trains": '{"word":"b","window_ms":200.0,"trains":[[1.0],5.0,[2.0]]}',
    "digit between trains": '{"word":"b","window_ms":200.0,"trains":[[1.0]5[2.0]]}',
    "negative": '{"word":"b","window_ms":200.0,"trains":[[-1.0,2.5],[]]}',
    "leading zero": '{"word":"b","window_ms":200.0,"trains":[[01.5],[]]}',
    "no decimals after dot": '{"word":"b","window_ms":200.0,"trains":[[1.,2.5],[]]}',
    "no digits before dot": '{"word":"b","window_ms":200.0,"trains":[[.5,2.5],[]]}',
    "leading comma": '{"word":"b","window_ms":200.0,"trains":[[,1.0],[]]}',
    "trailing comma": '{"word":"b","window_ms":200.0,"trains":[[1.0,],[]]}',
    "double comma": '{"word":"b","window_ms":200.0,"trains":[[1.0],,[2.0]]}',
    "comma only": '{"word":"b","window_ms":200.0,"trains":[[,],[]]}',
    "nested train": '{"word":"b","window_ms":200.0,"trains":[[[1.0]],[]]}',
    "NaN time": '{"word":"b","window_ms":200.0,"trains":[[NaN],[]]}',
    "reordered keys": '{"window_ms":200.0,"word":"b","trains":[[1.0,2.5],[]]}',
    "trains first": '{"trains":[[1.0,2.5],[]],"word":"b","window_ms":200.0}',
    "extra key": '{"word":"b","window_ms":200.0,"x":[1.0],"trains":[[1.0,2.5],[]]}',
    "no window key": '{"word":"b","trains":[[1.0,2.5],[]]}',
    "string head": '","trains":[[1.0,2.5],[]]}',
    "extra key last": '{"word":"b","window_ms":200.0,"trains":[[1.0,2.5],[]],"x":1}',
    "repeated trains key": '{"word":"b","window_ms":200.0,"trains":[[9.0],[]],"trains":[[1.0,2.5],[]]}',
    "earlier trains key": '{"word":"b","trains":7,"window_ms":200.0,"trains":[[1.0,2.5],[]]}',
    "repeated word key": '{"word":"q","word":"b","window_ms":200.0,"trains":[[1.0,2.5],[]]}',
    "trailing space": '{"word":"b","window_ms":200.0,"trains":[[1.0,2.5],[]]}  ',
    "escaped word": '{"word":"b\\u00e9\\"q\\\\","window_ms":200.0,"trains":[[1.0,2.5],[]]}',
    "non-ASCII word": '{"word":"bé日","window_ms":200.0,"trains":[[1.0,2.5],[]]}',
    "trains key in the word": '{"word":"b,\\"trains\\":[","window_ms":200.0,"trains":[[1.0,2.5],[]]}',
    "int window": '{"word":"b","window_ms":200,"trains":[[1.0,2.5],[]]}',
    "huge int window": '{"word":"b","window_ms":1' + "0" * 400 + ',"trains":[[1.0,2.5],[]]}',
    "word as bad as its trains": '{"word":"a b","window_ms":200.0,"trains":[[1.0,"x"],[]]}',
    "not an object": '[{"word":"b","window_ms":200.0,"trains":[[1.0],[]]}]',
    "deep head": '{"word":' + "[" * 100_000 + ',"trains":[[1.0],[]]}',
    "canonical repeated word": '{"word":"a","window_ms":200.0,"trains":[[1.0,2.5],[]]}',
    "canonical bad word": '{"word":"b c","window_ms":200.0,"trains":[[1.0,2.5],[]]}',
    "canonical bad window": '{"word":"b","window_ms":-200.0,"trains":[[1.0,2.5],[]]}',
    "canonical unequal dimension": '{"word":"b","window_ms":200.0,"trains":[[1.0,2.5]]}',
    "canonical no dimensions": '{"word":"b","window_ms":200.0,"trains":[]}',
}


class TestRasterReader:
    @settings(max_examples=200, deadline=None)
    @given(raster_records(), st_h.sampled_from([1, 3, 7, 2**16]))
    def test_matches_json_reference(self, tmp_path_factory, rasters, block):
        words = [f"w{i}" for i in range(len(rasters))]
        path = str(tmp_path_factory.mktemp("jsonl") / "r.jsonl")
        write_raster_jsonl(path, words, rasters)
        with mock.patch.object(spike_codec, "_BLOCK_SPIKES", block):
            assert outcome(read_raster_jsonl, path) == outcome(read_through_json, path)
        # the writer's own lines take the array path whenever they have a dimension
        with open(path, encoding="utf-8") as fh:
            parsed = spike_codec._parse_block(fh.readlines())
        assert (parsed is not None) == (len(rasters[0]) > 0)

    @pytest.mark.parametrize("block", [1, 3, 7, 2**16])
    def test_stochastic_file_matches_json_reference(self, tmp_path, block):
        path = tmp_path / "r.jsonl"
        path.write_text("".join(writer_lines(40)), encoding="utf-8")
        with mock.patch.object(spike_codec, "_BLOCK_SPIKES", block):
            assert outcome(read_raster_jsonl, str(path)) == outcome(read_through_json, str(path))

    @pytest.mark.parametrize("name", sorted(OTHER_RECORDS))
    def test_other_json_matches_json_reference(self, tmp_path, name):
        path = tmp_path / "r.jsonl"
        lines = [GOOD_RECORD, OTHER_RECORDS[name], '{"word":"z","window_ms":200.0,"trains":[[],[3.0]]}']
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
        expected = outcome(read_through_json, str(path))
        assert outcome(read_raster_jsonl, str(path)) == expected
        if name.startswith("canonical"):
            assert re.fullmatch(r"ValueError: .*r\.jsonl:2: bad raster record: .*", expected)

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("".join(writer_lines(5)).rstrip("\n"), encoding="utf-8")
        assert spike_codec._parse_block(path.read_text(encoding="utf-8").splitlines(keepends=True)) is not None
        assert outcome(read_raster_jsonl, str(path)) == outcome(read_through_json, str(path))

    @pytest.mark.parametrize("bad", sorted(BAD_RECORDS))
    def test_bad_record_mid_block_names_its_line(self, tmp_path, bad):
        # 30 short lines make one block at the default size
        lines = writer_lines(30)
        # the repeated word repeats line 4
        lines[11] = BAD_RECORDS[bad].replace('"word":"a"', '"word":"w3"') + "\n"
        path = tmp_path / "r.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        message = outcome(read_raster_jsonl, str(path))
        assert message == outcome(read_through_json, str(path))
        assert re.fullmatch(r"ValueError: .*r\.jsonl:12: bad raster record: .*", message)
