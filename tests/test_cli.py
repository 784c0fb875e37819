import argparse
import dataclasses
import errno
import json
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import word2spike
from word2spike import cli
from word2spike.cli import build_parser, main
from word2spike.corpus_io import load_embeddings
from word2spike.quantizer import quantize_all
from word2spike.spike_codec import CodecConfig, generate_raster, rates_from_ternary

from conftest import write_lines
from test_spike_codec import BAD_RECORDS, DEEP_RECORD, GOOD_RECORD, NO_DIMENSIONS

EMB = [
    "cat 1.0 0.2 -2.0 0.1",
    "dog 0.5 -1.5 0.3 0.0",
    "fox -0.4 0.9 0.0 2.2",
    "owl 0.1 0.1 0.1 -1.9",
]


@pytest.fixture
def emb_file(tmp_path):
    return write_lines(tmp_path / "emb.txt", EMB)


@pytest.fixture
def fake_matplotlib(monkeypatch):
    """A matplotlib whose figure records its calls and saves b"<svg/>";
    returns the list of calls and the figure."""
    calls = []

    class Axes:
        def eventplot(self, trains, **kwargs):
            calls.append(("eventplot", trains, kwargs))

        def __getattr__(self, name):  # set_xlabel, set_ylabel, set_title
            return lambda *args, **kwargs: None

    class Figure:
        def savefig(self, path, **kwargs):
            calls.append(("savefig", path, kwargs))
            Path(path).write_bytes(b"<svg/>")

    matplotlib = types.ModuleType("matplotlib")
    pyplot = types.ModuleType("matplotlib.pyplot")
    matplotlib.use = lambda backend: calls.append(("use", backend))
    matplotlib.pyplot = pyplot
    figure = Figure()
    pyplot.subplots = lambda **kwargs: (figure, Axes())
    pyplot.close = lambda fig: calls.append(("close", fig))
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return calls, figure


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestQuantizeCmd:
    def test_writes_ternary_and_manifest(self, tmp_path, emb_file):
        out = str(tmp_path / "q")
        assert main(["quantize", "--embeddings", emb_file, "--out-dir", out]) == 0
        assert os.path.exists(os.path.join(out, "ternary.txt"))
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["tool_version"]
        assert set(manifest["inputs"]) == {"embeddings"}

    def test_malformed_file_exit_2(self, tmp_path):
        bad = write_lines(tmp_path / "bad.txt", ["a 1 2", "b 1"])
        assert main(["quantize", "--embeddings", bad, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("first", ["\u00b2 3", "\u0661\u0660 \u0663"], ids=["superscript", "arabic-indic"])
    def test_non_ascii_digit_header_names_its_line(self, tmp_path, capsys, first):
        bad = write_lines(tmp_path / "bad.txt", [first, *EMB])
        assert main(["quantize", "--embeddings", bad, "--out-dir", str(tmp_path / "q")]) == 2
        assert f"{bad}:2: line has 4 values, expected 1" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["quantize", "--embeddings", str(tmp_path / "nope.txt"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_empty_restrict_exit_3(self, tmp_path, emb_file):
        wl = write_lines(tmp_path / "wl.txt", ["zebra"])
        assert main(["quantize", "--embeddings", emb_file, "--wordlist", wl,
                     "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_outputs_get_the_umask_permissions(self, tmp_path, emb_file, umask, mode):
        out = tmp_path / "q"
        old = os.umask(umask)
        try:
            assert main(["quantize", "--embeddings", emb_file, "--out-dir", str(out)]) == 0
        finally:
            os.umask(old)
        assert {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()} == {
            "ternary.txt": mode, "manifest.json": mode,
        }

    def test_no_partial_output_on_failure(self, tmp_path):
        bad = write_lines(tmp_path / "bad.txt", ["a 1 2", "b 1"])
        out = tmp_path / "q"
        out.mkdir()
        main(["quantize", "--embeddings", bad, "--out-dir", str(out)])
        assert list(out.iterdir()) == []


class TestEncodeCmd:
    def test_lossless_counts(self, tmp_path, emb_file):
        out = str(tmp_path / "e")
        rc = main(["encode", "--embeddings", emb_file, "--mode", "lossless",
                   "--out-dir", out, "--counts"])
        assert rc == 0
        first = read(os.path.join(out, "counts.csv")).splitlines()[0]
        # cat quantizes to [1, 0, -1, 0] -> counts 20, 0, 10, 0
        assert first == "cat,20,0,10,0"

    def test_seed_determinism_bytes(self, tmp_path, emb_file):
        outs = []
        for name in ("e1", "e2"):
            out = str(tmp_path / name)
            assert main(["encode", "--embeddings", emb_file, "--seed", "1",
                         "--out-dir", out]) == 0
            outs.append(read(os.path.join(out, "rasters.jsonl")))
        assert outs[0] == outs[1]

    def test_thread_count_does_not_change_output(self, tmp_path, emb_file):
        outs = []
        for name, threads in (("t1", "1"), ("t4", "4")):
            out = str(tmp_path / name)
            assert main(["encode", "--embeddings", emb_file, "--seed", "7",
                         "--threads", threads, "--out-dir", out]) == 0
            outs.append(read(os.path.join(out, "rasters.jsonl")))
        assert outs[0] == outs[1]

    def test_stochastic_without_seed_exit_4(self, tmp_path, emb_file):
        assert main(["encode", "--embeddings", emb_file, "--out-dir", str(tmp_path)]) == 4

    def test_bad_threshold_exit_4(self, tmp_path, emb_file):
        assert main(["encode", "--embeddings", emb_file, "--seed", "1",
                     "--threshold", "150", "--out-dir", str(tmp_path)]) == 4

    def test_environment_seed_is_ignored(self, tmp_path, emb_file, monkeypatch):
        monkeypatch.setenv("WORD2SPIKE_SEED", "1")
        assert main(["encode", "--embeddings", emb_file, "--out-dir", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("flag, value, error", [("--seed", "abc", "invalid int value"),
                                                    ("--threads", "two", "invalid int value"),
                                                    ("--window-ms", "wide", "invalid float value"),
                                                    ("--mode", "quantum", "invalid choice")],
                             ids=["seed", "threads", "window-ms", "mode"])
    def test_bad_flag_value_exit_2(self, tmp_path, emb_file, capsys, flag, value, error):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--embeddings", emb_file, flag, value, "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"{error}: '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_reports_wordlist_misses(self, tmp_path, emb_file, capsys):
        wl = write_lines(tmp_path / "wl.txt", ["cat", "zebra", "owl", "yak"])
        assert main(["encode", "--embeddings", emb_file, "--wordlist", wl, "--mode", "lossless",
                     "--out-dir", str(tmp_path / "e")]) == 0
        assert "encoded 2 words, 2 wordlist misses" in capsys.readouterr().out

    def test_one_dimension_digit_words_round_trip(self, tmp_path):
        # absmean codes of one dimension are all 0, so quantize writes "7 0"
        # first, which is a word and its code, not a header of dim 0
        emb = write_lines(tmp_path / "e.txt", ["7 0.5", "8 -0.3"])
        q, e = str(tmp_path / "q"), str(tmp_path / "e")
        assert main(["quantize", "--embeddings", emb, "--out-dir", q]) == 0
        assert read(os.path.join(q, "ternary.txt")) == "7 0\n8 0\n"
        assert main(["encode", "--ternary", os.path.join(q, "ternary.txt"), "--mode", "lossless",
                     "--out-dir", e, "--counts"]) == 0
        assert read(os.path.join(e, "counts.csv")) == "7,0\n8,0\n"

    @pytest.mark.parametrize("flag", ["--embeddings", "--wordlist", "--lowercase"])
    def test_ternary_rejects_corpus_flags(self, tmp_path, emb_file, capsys, flag):
        qdir, out = str(tmp_path / "q"), tmp_path / "e"
        assert main(["quantize", "--embeddings", emb_file, "--out-dir", qdir]) == 0
        extra = [flag] if flag == "--lowercase" else [flag, emb_file]
        assert main(["encode", "--ternary", os.path.join(qdir, "ternary.txt"), *extra,
                     "--mode", "lossless", "--out-dir", str(out)]) == 2
        assert f"--ternary cannot be combined with {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines, rc", [(["seed = 3"], 0), (["# seed = 3", "window_s = 0.2"], 4)])
    def test_config_file_seed_counts_as_explicit(self, tmp_path, emb_file, lines, rc):
        cfg = write_lines(tmp_path / "codec.cfg", lines)
        assert main(["encode", "--embeddings", emb_file, "--config", cfg,
                     "--out-dir", str(tmp_path / "o")]) == rc

    def test_config_file_input(self, tmp_path, emb_file):
        cfg = write_lines(
            tmp_path / "codec.cfg",
            ["window_s = 0.2", "rate_plus_hz = 100", "rate_minus_hz = 50",
             "threshold_hz = 72", "mode = lossless", "seed = 3"],
        )
        out = str(tmp_path / "c")
        assert main(["encode", "--embeddings", emb_file, "--config", cfg,
                     "--out-dir", out, "--counts"]) == 0

    @pytest.mark.parametrize("lines, lineno, message", [
        (["seed = 1.5"], 1, "seed must be int, got '1.5'"),
        (["mode = lossless", "window_s = abc"], 2, "window_s must be float, got 'abc'"),
        (["seed = 1", "seed = 2"], 2, "repeated key 'seed'"),
    ], ids=["fractional-seed", "unparsable-window", "repeated-key"])
    def test_config_file_value_error_exit_4(self, tmp_path, emb_file, capsys, lines, lineno, message):
        cfg = write_lines(tmp_path / "codec.cfg", lines)
        out = tmp_path / "o"
        assert main(["encode", "--embeddings", emb_file, "--config", cfg,
                     "--out-dir", str(out)]) == 4
        assert f"config error: {cfg}:{lineno}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_plot_word_leaves_no_outputs(self, tmp_path, emb_file, capsys):
        out = tmp_path / "e"
        out.mkdir()
        assert main(["encode", "--embeddings", emb_file, "--mode", "lossless", "--counts",
                     "--plot-word", "nosuch", "--out-dir", str(out)]) == 3
        assert "'nosuch' not in vocabulary" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_plot_word_without_matplotlib_exit_2(self, tmp_path, emb_file, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "matplotlib", None)  # import raises ImportError
        out = tmp_path / "e"
        assert main(["encode", "--embeddings", emb_file, "--mode", "lossless",
                     "--plot-word", "cat", "--out-dir", str(out)]) == 2
        assert "matplotlib is required" in capsys.readouterr().err
        assert not (out / "rasters.jsonl").exists()

    def test_plot_word_draws_each_dimension_in_ms(self, tmp_path, emb_file, fake_matplotlib):
        calls, figure = fake_matplotlib
        out = tmp_path / "e"
        assert main(["encode", "--embeddings", emb_file, "--seed", "5",
                     "--plot-word", "fox", "--out-dir", str(out)]) == 0

        cfg = CodecConfig(seed=5)
        codes = quantize_all(load_embeddings(emb_file)).values
        raster = generate_raster(rates_from_ternary(codes[2], cfg), cfg, stream_id=2)
        counts = raster.counts()
        assert 0 in counts  # an empty dimension keeps its row
        expected = np.split(raster.times, np.cumsum(counts[:-1]))
        assert [name for name, *_ in calls] == ["use", "eventplot", "savefig", "close"]
        trains = calls[1][1]
        assert len(trains) == len(counts) == 4
        for got, want in zip(trains, expected):
            assert np.array_equal(got, want * 1000.0)
        # drawn under its own name into a stage in the nearest existing
        # directory, then renamed into place
        tmp = Path(calls[2][1])
        assert (tmp.parent.parent, tmp.parent.name[:5], tmp.name) == (tmp_path, ".w2s-", "raster_fox.svg")
        assert calls[2][2] == {"format": "svg"}
        assert (out / "raster_fox.svg").read_bytes() == b"<svg/>"
        assert not tmp.parent.exists()
        assert calls[3][1] is figure

    @pytest.mark.parametrize("word", ["a/b", "w" * 300], ids=["slash", "too-long"])
    def test_plot_word_that_names_no_file_changes_no_file(self, tmp_path, capsys, fake_matplotlib, word):
        emb = write_lines(tmp_path / "emb.txt", [*EMB, f"{word} 0.3 -0.2 1.1 -0.7"])
        out = tmp_path / "o"
        assert main(["encode", "--embeddings", emb, "--seed", "1", "--out-dir", str(out)]) == 0
        before = out_files(out)
        assert main(["encode", "--embeddings", emb, "--seed", "2", "--plot-word", word,
                     "--out-dir", str(out)]) == 2
        assert f"raster_{word}.svg" in capsys.readouterr().err
        assert out_files(out) == before  # no .w2s-* stage left either


class TestDecodeCmd:
    def test_file_level_roundtrip(self, tmp_path, emb_file):
        qdir, edir, ddir = (str(tmp_path / n) for n in ("q", "e", "d"))
        assert main(["quantize", "--embeddings", emb_file, "--out-dir", qdir]) == 0
        assert main(["encode", "--ternary", os.path.join(qdir, "ternary.txt"),
                     "--mode", "lossless", "--out-dir", edir]) == 0
        assert main(["decode", "--rasters", os.path.join(edir, "rasters.jsonl"),
                     "--out-dir", ddir]) == 0
        assert read(os.path.join(ddir, "decoded.txt")) == read(
            os.path.join(qdir, "ternary.txt")
        )

    def test_missing_rasters_exit_2(self, tmp_path):
        assert main(["decode", "--rasters", str(tmp_path / "no.jsonl"),
                     "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("bad", sorted(BAD_RECORDS))
    def test_malformed_rasters_exit_2(self, tmp_path, capsys, bad):
        path = tmp_path / "r.jsonl"
        path.write_text(GOOD_RECORD + "\n" + BAD_RECORDS[bad] + "\n", encoding="utf-8")
        out = tmp_path / "d"
        assert main(["decode", "--rasters", str(path), "--out-dir", str(out)]) == 2
        assert "r.jsonl:2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lineno", [1, 2])
    def test_deeply_nested_record_exit_2(self, tmp_path, capsys, lineno):
        path = tmp_path / "r.jsonl"
        lines = [GOOD_RECORD.replace('"a"', '"z"'), GOOD_RECORD]
        lines[lineno - 1] = DEEP_RECORD
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "d"
        assert main(["decode", "--rasters", str(path), "--out-dir", str(out)]) == 2
        assert f"r.jsonl:{lineno}: bad raster record: maximum recursion depth" in capsys.readouterr().err
        assert not out.exists()

    def test_raster_without_dimensions_exit_2(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        path.write_text(NO_DIMENSIONS + "\n" + GOOD_RECORD + "\n", encoding="utf-8")
        out = tmp_path / "d"
        assert main(["decode", "--rasters", str(path), "--out-dir", str(out)]) == 2
        assert "r.jsonl:1" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyzeCmd:
    def test_default_report_values(self, capsys, tmp_path):
        out = str(tmp_path / "a")
        assert main(["analyze", "--out-dir", out, "--composition", "5,3,292"]) == 0
        text = capsys.readouterr().out
        assert "22.36" in text and "15.81" in text
        payload = json.loads(read(os.path.join(out, "analysis.json")))
        assert payload["p_minus_as_plus"] == pytest.approx(0.0834584729, rel=1e-6)
        assert payload["count_threshold"] == 15

    def test_alt_preset_error_below_1e3(self, tmp_path):
        out = str(tmp_path / "alt")
        assert main(["analyze", "--preset", "paper-400ms", "--out-dir", out]) == 0
        payload = json.loads(read(os.path.join(out, "analysis.json")))
        assert payload["total_error"] < 1e-3

    def test_equal_rates_exit_4(self):
        assert main(["analyze", "--rate-minus", "100"]) == 4

    def test_unknown_preset_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--preset", "paper-1s"])
        assert exc.value.code == 2
        assert "invalid choice: 'paper-1s'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, flags", [("rate_minus_hz = 80", ["--threshold", "90"]),
                                             ("threshold_hz = 90", ["--rate-minus", "80"])],
                             ids=["file-rate-flag-threshold", "file-threshold-flag-rate"])
    def test_config_file_checked_after_flags(self, tmp_path, capsys, line, flags):
        # 80 Hz is above the file or default threshold until the flag applies
        cfg = write_lines(tmp_path / "codec.cfg", [line])
        assert main(["analyze", "--config", cfg, *flags]) == 0
        assert "-1 -> 80.0 Hz   threshold: 90.0 Hz" in capsys.readouterr().out

    @pytest.mark.parametrize("line, message", [
        ("mode = quantum", "mode must be one of ('stochastic', 'lossless'), got 'quantum'"),
        ("seed = -1", "seed must be a 64-bit unsigned integer"),
        ("window_s = -0.2", "window_s must be positive, got -0.2"),
        ("rate_plus_hz = inf", "rate_plus_hz must be finite, got inf"),
        ("threshold_hz = nan", "threshold_hz must be finite, got nan"),
        ("rate_minus_hz = 0", "rate_minus_hz must be positive, got 0.0"),
    ], ids=["mode", "seed", "window", "infinite-rate", "nan-threshold", "zero-rate"])
    def test_config_file_bad_setting_names_line(self, tmp_path, capsys, line, message):
        cfg = write_lines(tmp_path / "codec.cfg", ["# codec", line])
        assert main(["analyze", "--config", cfg]) == 4
        assert f"config error: {cfg}:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["analyze", "--rate-plus", "inf", "--threshold", "80"],
                                      ["encode", "--rate-plus", "inf", "--seed", "1"]],
                             ids=["analyze", "encode"])
    def test_infinite_rate_flag_exit_4(self, tmp_path, emb_file, capsys, argv):
        if argv[0] == "encode":
            argv = [*argv, "--embeddings", emb_file, "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 4
        assert "config error: rate_plus_hz must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, mean", [(["analyze", "--window-ms", "1e308"], "1e+307"),
                                            (["encode", "--rate-plus", "1e300", "--seed", "1"], "2e+299")],
                             ids=["analyze-window", "encode-rate"])
    def test_huge_mean_count_exit_4(self, tmp_path, emb_file, capsys, argv, mean):
        if argv[0] == "encode":
            argv = [*argv, "--embeddings", emb_file, "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 4
        assert (f"config error: rate_plus_hz * window_s is the mean spike count of a +1 and must be "
                f"at most 1e+09, got {mean}") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mean_count_at_the_bound_runs(self, capsys):
        # 100 Hz over 1e7 s is a mean of exactly 1e9 spikes
        assert main(["analyze", "--window-ms", "1e10"]) == 0
        assert "suggested threshold" in capsys.readouterr().out

    def test_config_file_mode_and_seed_still_load(self, tmp_path):
        cfg = write_lines(tmp_path / "codec.cfg", ["mode = stochastic", "seed = 3"])
        assert main(["analyze", "--config", cfg]) == 0

    @pytest.mark.parametrize("rates", [["--rate-minus", "1e-21"],
                                       ["--rate-plus", "1e7", "--rate-minus", "1e6",
                                        "--threshold", "5e6"]],
                             ids=["tiny-rate-minus", "huge-rates"])
    def test_extreme_rates_finish(self, rates):
        # the first term of a Poisson tail underflows to 0.0 here; run in a
        # subprocess so a hang fails on the timeout
        src = os.path.dirname(os.path.dirname(word2spike.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "word2spike.cli", "analyze", *rates],
                              env=env, capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        assert "suggested threshold" in done.stdout


class TestEvalCmd:
    @pytest.fixture
    def datasets(self, tmp_path):
        simlex = write_lines(
            tmp_path / "simlex.tsv",
            ["word1\tword2\tSimLex999", "cat\tdog\t7.0", "cat\tfox\t3.0",
             "dog\towl\t1.0", "fox\towl\t5.0"],
        )
        analogies = write_lines(tmp_path / "ana.txt", ["cat dog fox owl"])
        return simlex, analogies

    def test_lossless_columns_match(self, tmp_path, emb_file, datasets):
        simlex, analogies = datasets
        out = str(tmp_path / "r")
        rc = main(["eval", "--embeddings", emb_file, "--simlex", simlex,
                   "--analogies", analogies, "--mode", "lossless", "--out-dir", out])
        assert rc == 0
        report = json.loads(read(os.path.join(out, "report.json")))
        for key in ("simlex_rho", "analogy_accuracy", "overlap_at_10"):
            assert report["quantized"][key] == report["spike"][key]
        assert report["spike"]["reconstruction_accuracy"] == 1.0

    def test_stochastic_emits_confusion(self, tmp_path, emb_file, datasets):
        simlex, analogies = datasets
        out = str(tmp_path / "rs")
        rc = main(["eval", "--embeddings", emb_file, "--simlex", simlex,
                   "--analogies", analogies, "--seed", "2", "--out-dir", out])
        assert rc == 0
        report = json.loads(read(os.path.join(out, "report.json")))
        confusion = np.array(report["confusion"])
        assert confusion.shape == (3, 3)
        assert confusion.sum() == 4 * 4  # words x dims

    def test_manifest_keys_inputs_by_role(self, tmp_path, emb_file):
        # two inputs with the same file name still get one digest each
        (tmp_path / "a").mkdir()
        simlex = write_lines(tmp_path / "a" / "emb.txt",
                             ["word1\tword2\tSimLex999", "cat\tdog\t7.0", "fox\towl\t5.0"])
        out = str(tmp_path / "r")
        assert main(["eval", "--embeddings", emb_file, "--simlex", simlex,
                     "--mode", "lossless", "--out-dir", out]) == 0
        inputs = json.loads(read(os.path.join(out, "manifest.json")))["inputs"]
        assert set(inputs) == {"embeddings", "simlex"}
        assert inputs["embeddings"] != inputs["simlex"]

    def test_reports_wordlist_misses(self, tmp_path, emb_file, capsys):
        wl = write_lines(tmp_path / "wl.txt", ["cat", "zebra", "owl", "yak"])
        assert main(["eval", "--embeddings", emb_file, "--wordlist", wl, "--mode", "lossless",
                     "--out-dir", str(tmp_path / "r")]) == 0
        assert "evaluated 2 words, 2 wordlist misses" in capsys.readouterr().out

    def test_lossless_counts_that_do_not_decode_exit_4(self, tmp_path, emb_file, capsys):
        # 2 Hz x 0.2 s rounds to no spikes, so a -1 would decode as 0
        assert main(["eval", "--embeddings", emb_file, "--mode", "lossless", "--rate-minus", "2",
                     "--threshold", "50", "--out-dir", str(tmp_path / "r")]) == 4
        assert "config error: lossless mode emits 0 spikes for -1" in capsys.readouterr().err

    def test_missing_dataset_exit_2(self, tmp_path, emb_file):
        assert main(["eval", "--embeddings", emb_file, "--simlex",
                     str(tmp_path / "no.tsv"), "--mode", "lossless",
                     "--out-dir", str(tmp_path)]) == 2


CONFIG_FLAGS = {"--config", "--preset", "--window-ms", "--rate-plus", "--rate-minus", "--threshold"}
CORPUS_FLAGS = {"--embeddings", "--wordlist", "--lowercase"}
GENERATION_FLAGS = {"--mode", "--seed"}
FLAGS = {
    "quantize": CORPUS_FLAGS | {"--out-dir"},
    "encode": CORPUS_FLAGS | CONFIG_FLAGS | GENERATION_FLAGS
              | {"--ternary", "--out-dir", "--threads", "--counts", "--plot-word"},
    "decode": CONFIG_FLAGS | {"--rasters", "--out-dir"},
    "analyze": CONFIG_FLAGS | {"--composition", "--out-dir"},
    "eval": CORPUS_FLAGS | CONFIG_FLAGS | GENERATION_FLAGS | {"--simlex", "--analogies", "--out-dir"},
}


def test_output_files_of_each_command(tmp_path, emb_file):
    # every file a command leaves in its out-dir, temp files included
    simlex = write_lines(tmp_path / "simlex.tsv", ["word1\tword2\tSimLex999", "cat\tdog\t7.0", "fox\towl\t5.0"])
    q, e, d, a, r = (tmp_path / name for name in ("q", "e", "d", "a", "r"))
    runs = {
        q: (["quantize", "--embeddings", emb_file], {"ternary.txt"}),
        e: (["encode", "--ternary", str(q / "ternary.txt"), "--seed", "5", "--counts"],
            {"rasters.jsonl", "counts.csv"}),
        d: (["decode", "--rasters", str(e / "rasters.jsonl")], {"decoded.txt"}),
        a: (["analyze"], {"analysis.json"}),
        r: (["eval", "--embeddings", emb_file, "--simlex", simlex, "--mode", "lossless"],
            {"report.json", "report.txt"}),
    }
    for out, (argv, files) in runs.items():
        assert main([*argv, "--out-dir", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == files | {"manifest.json"}, argv[0]


EMB_OTHER = [
    "cat -1.0 0.4 0.2 2.0",
    "dog 0.3 1.5 -0.9 0.0",
    "fox 2.4 -0.9 0.0 -0.2",
    "owl -0.1 -1.1 0.6 1.9",
]


# one run of each command that writes into an out-dir, on a given corpus
# and rasters
RUN_TEMPLATES = [
    ["quantize", "--embeddings", "{emb}"],
    ["encode", "--embeddings", "{emb}", "--counts", "--seed", "1"],
    ["decode", "--rasters", "{rasters}"],
    ["eval", "--embeddings", "{emb}", "--mode", "lossless"],
]


def two_runs(tmp_path, emb_file, template):
    """The argv of a first and a second run of ``template`` into the same
    out-dir, tmp_path / "out", on other inputs."""
    runs = []
    for name, emb in (("first", emb_file), ("second", write_lines(tmp_path / "other.txt", EMB_OTHER))):
        rasters = tmp_path / name / "rasters.jsonl"
        assert main(["encode", "--embeddings", emb, "--mode", "lossless", "--out-dir", str(rasters.parent)]) == 0
        runs.append([arg.format(emb=emb, rasters=rasters) for arg in template] + ["--out-dir", str(tmp_path / "out")])
    return runs


def out_files(out):
    """Every entry of ``out``: a file's bytes, a directory's listing."""
    return {p.name: p.read_bytes() if p.is_file() else sorted(os.listdir(p)) for p in out.iterdir()}


@pytest.mark.parametrize("template", RUN_TEMPLATES, ids=lambda template: template[0])
def test_failed_run_changes_no_file(tmp_path, emb_file, monkeypatch, template):
    # a second run into the same out-dir, on other inputs, that fails
    # before its renames leaves the first run's files, all of them, as they were
    first_run, second_run = two_runs(tmp_path, emb_file, template)
    out = tmp_path / "out"
    assert main(first_run) == 0
    first = out_files(out)

    def no_space(path):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(cli, "_sha256", no_space)
        assert main(second_run) == 2
    assert out_files(out) == first  # no .w2s-* stage left either
    # the second run does change an output when it succeeds
    assert main(second_run) == 0
    assert {name for name, data in out_files(out).items() if first.get(name) != data} - {"manifest.json"}


@pytest.mark.parametrize("template", RUN_TEMPLATES, ids=lambda template: template[0])
def test_directory_at_the_manifest_changes_no_file(tmp_path, emb_file, capsys, template):
    # the manifest is renamed last, so a directory in its place must fail
    # the run before any output is replaced
    first_run, second_run = two_runs(tmp_path, emb_file, template)
    out = tmp_path / "out"
    assert main(first_run) == 0
    (out / "manifest.json").unlink()
    (out / "manifest.json" / "kept").mkdir(parents=True)
    before = out_files(out)
    assert main(second_run) == 2
    assert f"input error: [Errno {errno.EISDIR}] output name is a directory" in capsys.readouterr().err
    assert out_files(out) == before  # no .w2s-* stage left either


def test_directory_at_counts_csv_changes_no_file(tmp_path, emb_file):
    out = tmp_path / "o"
    assert main(["encode", "--embeddings", emb_file, "--seed", "1", "--out-dir", str(out)]) == 0
    (out / "counts.csv").mkdir()
    before = out_files(out)
    assert main(["encode", "--embeddings", emb_file, "--seed", "2", "--counts", "--out-dir", str(out)]) == 2
    assert out_files(out) == before


def test_unwritable_out_dir_exit_2(tmp_path, emb_file, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    assert main(["quantize", "--embeddings", emb_file, "--out-dir", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["emb.txt", "file"]


# the window and rates of a window rasters.jsonl cannot carry: 0.1234567 ms
# is written as 0.123457 ms, which decode would not take
UNCARRIED_WINDOW = ["--window-ms", "0.1234567", "--rate-plus", "1e6", "--rate-minus", "1e5", "--threshold", "5e5"]


# the last run fails while its manifest is staged, after every other output
@pytest.mark.parametrize("argv, rc, manifest_fails", [
    (["encode", *UNCARRIED_WINDOW, "--seed", "1", "--out-dir", "enc/sub"], 4, False),
    (["encode", "--mode", "lossless", "--plot-word", "fox", "--out-dir", "p/q"], 2, False),
    (["encode", "--seed", "1", "--out-dir", "m/n"], 2, True),
], ids=["uncarried-window", "plot-without-matplotlib", "manifest-write"])
def test_failed_run_leaves_no_directory(tmp_path, emb_file, monkeypatch, argv, rc, manifest_fails):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # import raises ImportError

    def no_space(path):
        raise OSError(errno.ENOSPC, "No space left on device")

    if manifest_fails:
        monkeypatch.setattr(cli, "_sha256", no_space)
    before = sorted(os.listdir(tmp_path))
    assert main([*argv, "--embeddings", emb_file]) == rc
    assert sorted(os.listdir(tmp_path)) == before  # no out-dir and no .w2s-* stage


def test_uncarried_window_exit_4_before_any_work(tmp_path, emb_file, capsys):
    out = tmp_path / "e"
    with mock.patch.object(cli, "load_embeddings", wraps=load_embeddings) as loads, \
            mock.patch.object(cli, "generate_raster", wraps=generate_raster) as generates:
        assert main(["encode", "--embeddings", emb_file, *UNCARRIED_WINDOW, "--seed", "1",
                     "--out-dir", str(out)]) == 4
    assert (loads.call_count, generates.call_count) == (0, 0)
    assert "config error: window 0.0001234567 s is written as 0.123457 ms" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["analyze"], ["eval", "--embeddings", "{emb}", "--seed", "1"]],
                         ids=["analyze", "eval"])
def test_uncarried_window_runs_where_no_raster_is_written(tmp_path, emb_file, argv):
    argv = [arg.format(emb=emb_file) for arg in argv]
    assert main([*argv, *UNCARRIED_WINDOW, "--out-dir", str(tmp_path / "o")]) == 0


def test_every_command_publishes_the_umask_mode_without_setting_modes(tmp_path, emb_file, monkeypatch,
                                                                       fake_matplotlib):
    # the writers' own open() gives each file its mode: the publish step
    # neither reads the umask nor sets a mode
    def refuse(*args, **kwargs):
        raise AssertionError("the publish step read the umask or set a mode")

    runs = [
        ["quantize", "--embeddings", emb_file],
        ["encode", "--embeddings", emb_file, "--seed", "1", "--counts", "--plot-word", "fox"],
        ["decode", "--rasters", str(tmp_path / "encode" / "rasters.jsonl")],
        ["analyze"],
        ["eval", "--embeddings", emb_file, "--seed", "1"],
    ]
    old = os.umask(0o027)
    try:
        with monkeypatch.context() as m:
            m.setattr(os, "umask", refuse)
            m.setattr(os, "chmod", refuse)
            for argv in runs:
                assert main([*argv, "--out-dir", str(tmp_path / argv[0])]) == 0
    finally:
        os.umask(old)
    modes = {p.relative_to(tmp_path).as_posix(): p.stat().st_mode & 0o777 for p in tmp_path.glob("*/*")}
    assert modes == {f"{argv[0]}/{name}": 0o640 for argv, names in zip(runs, [
        ["ternary.txt"], ["rasters.jsonl", "counts.csv", "raster_fox.svg"], ["decoded.txt"],
        ["analysis.json"], ["report.json", "report.txt"],
    ]) for name in [*names, "manifest.json"]}


def test_manifest_records_the_parsed_command(tmp_path, emb_file):
    out = tmp_path / "q r"  # a space the command line must quote
    argv = ["quantize", "--embeddings", emb_file, "--out-dir", str(out)]
    assert main(argv) == 0
    command = json.loads(read(out / "manifest.json"))["command"]
    assert shlex.split(command) == ["word2spike", *argv]


def test_manifest_command_replays(tmp_path, emb_file):
    # no setting comes from elsewhere, so the recorded command is the whole run
    out = tmp_path / "e"
    assert main(["encode", "--embeddings", emb_file, "--seed", "9", "--counts", "--out-dir", str(out)]) == 0
    names = ("rasters.jsonl", "counts.csv")
    first = [(out / name).read_bytes() for name in names]
    command = json.loads(read(out / "manifest.json"))["command"]
    assert main(shlex.split(command)[1:]) == 0
    assert [(out / name).read_bytes() for name in names] == first


def test_manifest_cwd_replays_relative_paths(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    write_lines(a / "emb.txt", EMB)
    monkeypatch.chdir(a)
    assert main(["encode", "--embeddings", "emb.txt", "--seed", "3", "--counts", "--out-dir", "o"]) == 0
    out = a / "o"
    names = ("rasters.jsonl", "counts.csv")
    first = [(out / name).read_bytes() for name in names]
    manifest = json.loads(read(out / "manifest.json"))
    for name in names:
        (out / name).unlink()
    argv = shlex.split(manifest["command"])[1:]
    monkeypatch.chdir(b)
    assert main(argv) == 2  # the relative paths do not resolve here
    assert "emb.txt" in capsys.readouterr().err
    monkeypatch.chdir(manifest["cwd"])
    assert main(argv) == 0
    assert [(out / name).read_bytes() for name in names] == first


def test_flag_set_of_each_subcommand():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {opt for a in p._actions if not isinstance(a, argparse._HelpAction) for opt in a.option_strings}
        for name, p in sub.choices.items()
    }
    assert flags == FLAGS


# every codec flag at a value other than its default, and the field it sets
CODEC_FLAGS = {
    "--window-ms": ("300", "window_s", 0.3),
    "--rate-plus": ("120", "rate_plus_hz", 120.0),
    "--rate-minus": ("40", "rate_minus_hz", 40.0),
    "--threshold": ("80", "threshold_hz", 80.0),
    "--mode": ("lossless", "mode", "lossless"),
    "--seed": ("7", "seed", 7),
}


@pytest.mark.parametrize("config_file", [False, True], ids=["flags", "flags-over-file"])
def test_each_codec_flag_reaches_its_field(tmp_path, emb_file, config_file):
    simlex = write_lines(tmp_path / "simlex.tsv", ["word1\tword2\tSimLex999", "cat\tdog\t7.0", "fox\towl\t5.0"])
    # every key in the file, each at a value no flag gives
    file_settings = {"window_s": 0.5, "rate_plus_hz": 90.0, "rate_minus_hz": 20.0,
                     "threshold_hz": 30.0, "mode": "stochastic", "seed": 11}
    base = dataclasses.asdict(CodecConfig())
    argv_config = []
    if config_file:
        base.update(file_settings)
        lines = [f"{key} = {value}" for key, value in file_settings.items()]
        argv_config = ["--config", write_lines(tmp_path / "codec.cfg", lines)]
    e, d, a, r = (tmp_path / name for name in "edar")
    runs = {
        e: ["encode", "--embeddings", emb_file],
        d: ["decode", "--rasters", str(e / "rasters.jsonl")],
        a: ["analyze"],
        r: ["eval", "--embeddings", emb_file, "--simlex", simlex],
    }
    for out, argv in runs.items():
        taken = {flag: CODEC_FLAGS[flag] for flag in FLAGS[argv[0]] if flag in CODEC_FLAGS}
        flags = [arg for flag, (value, _, _) in taken.items() for arg in (flag, value)]
        assert main([*argv, *argv_config, *flags, "--out-dir", str(out)]) == 0, argv[0]
        manifest = json.loads(read(out / "manifest.json"))
        expected = {**base, **{field: value for _, field, value in taken.values()}}
        # a command without --seed records neither the mode nor the seed
        if "--seed" not in FLAGS[argv[0]]:
            del expected["mode"], expected["seed"]
        assert manifest["config"] == expected, argv[0]
        assert manifest["seed"] == expected.get("seed"), argv[0]


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_of_each_subcommand_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--out-dir" in capsys.readouterr().out


def test_standin_analogy_file_parses():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(here, "data", "analogies_standin.txt")
    from word2spike.corpus_io import load_analogies

    quads = load_analogies(path)
    assert len(quads) == 25
