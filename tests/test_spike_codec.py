import csv
import dataclasses
import json
import math
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
    decode,
    estimate_rates,
    generate_raster,
    load_codec_config,
    misclassification_probabilities,
    poisson_cdf,
    poisson_pmf,
    poisson_sf_ge,
    rate_spread,
    rates_from_ternary,
    read_raster_jsonl,
    roundtrip,
    save_codec_config,
    suggest_threshold,
    threshold_curve,
    write_counts_csv,
    write_raster_jsonl,
)

ALT = PRESETS["paper-400ms"]


def raster_from_counts(counts, window_s=0.2):
    trains = [(np.arange(c, dtype=float) + 0.5) * (window_s / c) for c in counts if c]
    return SpikeRaster(window_s, np.concatenate([np.empty(0), *trains]), counts)


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

    def test_alt_preset(self):
        assert ALT.window_s == 0.4
        assert (ALT.rate_plus_hz, ALT.rate_minus_hz) == (200.0, 25.0)

    def test_integer_boundary_threshold(self):
        # 75 Hz * 0.2 s = 15 exactly; the ceil must not round up past it
        cfg = CodecConfig(threshold_hz=75.0)
        assert cfg.count_threshold == 15

    def test_config_file_roundtrip(self, tmp_path):
        cfg = CodecConfig(window_s=0.4, rate_plus_hz=200, rate_minus_hz=25,
                          threshold_hz=85, mode="lossless", seed=99)
        path = str(tmp_path / "codec.cfg")
        save_codec_config(cfg, path)
        assert load_codec_config(path) == cfg

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("volume = 11\n")
        with pytest.raises(ConfigError):
            load_codec_config(str(path))


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
            assert len(generate_raster(rates, cfg, 0).trains[0]) == 0

    def test_lossless_exact_counts(self):
        cfg = CodecConfig(mode="lossless")
        raster = generate_raster(RateVector(np.array([100.0, 50.0, 0.0])), cfg, 0)
        assert raster.counts().tolist() == [20, 10, 0]
        raster.validate()

    def test_lossless_spikes_evenly_spaced(self):
        cfg = CodecConfig(mode="lossless")
        train = generate_raster(RateVector(np.array([100.0])), cfg, 0).trains[0]
        gaps = np.diff(train)
        assert np.allclose(gaps, gaps[0])
        assert 0 <= train[0] and train[-1] < cfg.window_s

    def test_stochastic_valid_and_deterministic(self):
        cfg = CodecConfig(seed=123)
        rates = RateVector(np.array([100.0, 50.0, 0.0]))
        a = generate_raster(rates, cfg, stream_id=7)
        b = generate_raster(rates, cfg, stream_id=7)
        a.validate()
        for ta, tb in zip(a.trains, b.trains):
            assert np.array_equal(ta, tb)

    def test_stochastic_streams_differ(self):
        cfg = CodecConfig(seed=123)
        rates = RateVector(np.array([100.0]))
        a = generate_raster(rates, cfg, stream_id=0).trains[0]
        b = generate_raster(rates, cfg, stream_id=1).trains[0]
        c = generate_raster(rates, dataclasses.replace(cfg, seed=124), stream_id=0).trains[0]
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stochastic_mean_and_variance(self):
        # moderate-size check here; the full calibration lives in acceptance
        cfg = CodecConfig(seed=5)
        counts = [
            len(generate_raster(RateVector(np.array([100.0])), cfg, i).trains[0])
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

    def test_stochastic_rasters_valid_1000_words(self):
        rng = np.random.default_rng(33)
        words = tuple(f"w{i}" for i in range(1000))
        ternary = quantize_all(EmbeddingSet(words, rng.standard_normal((1000, 300))))
        for cfg in (CodecConfig(seed=33), ALT):
            for i, code in enumerate(ternary.values):
                raster = generate_raster(rates_from_ternary(code, cfg), cfg, i)
                raster.validate()
                assert len(raster) == 300


class TestSpikeRaster:
    def test_trains_view(self):
        raster = SpikeRaster(0.2, [0.1, 0.05, 0.15], [1, 0, 2])
        assert [t.tolist() for t in raster.trains] == [[0.1], [], [0.05, 0.15]]
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
    def test_estimate_rates(self):
        raster = raster_from_counts([14, 0, 21])
        assert estimate_rates(raster).rates_hz.tolist() == [70.0, 0.0, 105.0]

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
            "trains": [[round(t * 1000.0, 3) for t in train] for train in raster.trains],
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
            for t_orig, t_back in zip(orig.trains, back.trains):
                # export rounds to 3 decimal places in ms
                assert np.allclose(t_back, t_orig, atol=5.01e-7)
            assert np.array_equal(decode(back, cfg).values, decode(orig, cfg).values)

    def test_counts_csv(self, tmp_path):
        path = str(tmp_path / "c.csv")
        write_counts_csv(path, ["w"], [raster_from_counts([20, 0, 10])])
        assert open(path).read() == "w,20,0,10\n"

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
