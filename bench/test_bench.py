"""Smoke tests for the benchmark harness: every workload at toy size,
plain and traced, with its correctness checks.

    python3 -m pytest bench/
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import workloads  # noqa: E402

import word2spike.cli as cli  # noqa: E402
import word2spike.spike_codec as spike_codec  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Span, Tracer, self_times, union_length  # noqa: E402
from workloads import (  # noqa: E402
    CHANNEL_FAIL_Z,
    CliStochastic,
    EvalLossless,
    WORKLOADS,
    RoundtripLossless,
    channel_z_scores,
    check_pass,
)
from word2spike.spike_codec import CodecConfig, misclassification_probabilities  # noqa: E402

TOY = {
    "cli-stochastic-1k": lambda: CliStochastic(n_words=40),
    "roundtrip-lossless-10k": lambda: RoundtripLossless(n_words=200),
    "eval-lossless-2k": lambda: EvalLossless(n_words=60, n_pairs=50, n_quads=20),
}

# per-layer metrics each workload must see as nonzero in a traced pass
EXPECTED_LAYERS = {
    "cli-stochastic-1k": ["corpus_io.load_embeddings_s", "quantizer.save_ternary_s",
                          "quantizer.load_ternary_s", "spike_codec.generate_raster_s",
                          "spike_codec.write_raster_jsonl_s", "spike_codec.read_raster_jsonl_s",
                          "spike_codec.write_counts_csv_s", "spike_codec.decode_s",
                          "cli.quantize_s", "cli.encode_s", "cli.decode_s", "cli.write_manifest_s"],
    "roundtrip-lossless-10k": ["spike_codec.roundtrip_s", "quantizer.quantize_all_s",
                               "spike_codec.generate_raster_s", "spike_codec.spikes"],
    "eval-lossless-2k": ["evaluator.full_report_s", "evaluator.overlap_at_k_s",
                         "evaluator.analogy_eval_s", "evaluator.simlex_eval_s",
                         "evaluator.reconstruction_accuracy_s", "evaluator.neighbor_queries",
                         "evaluator.index_builds", "spike_codec.roundtrip_s", "cli.eval_s"],
}


def test_toy_covers_every_workload():
    assert set(TOY) == set(WORKLOADS)
    assert {w["name"] for w in run.BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TOY))
def test_workload_smoke(name, tmp_path):
    workload = TOY[name]()
    workload.prepare(tmp_path, seed=0)
    plain = run.run_passes(workload, 0.0)
    traced = run.run_passes(workload, 0.0, Tracer())
    assert len(plain) == len(traced) == 1

    verdicts = [workload.check(p.detail) for p in plain + traced]
    assert [v.problems for v in verdicts] == [[], []]

    e2e = run.end_to_end(workload, plain, setup_s=0.1)
    e2e["valid_raster_frac"] = workload.valid_raster_frac(plain[0].detail)
    assert set(e2e) == {m["name"] for m in run.BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in e2e.values())

    layers = run.per_layer(traced)
    assert set(layers) == {m["name"] for m in run.BENCHMARK["per_layer"]}
    assert [m for m in EXPECTED_LAYERS[name] if not layers[m] > 0] == []
    wall = traced[0].wall_s
    layer_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert layer_self + layers["trace.unattributed_s"] == pytest.approx(wall, rel=1e-6)
    assert 0 < layers["trace.overhead_s"] < wall


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_holds_every_metric_with_its_unit(trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "eval-lossless-2k", TOY["eval-lossless-2k"])
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "eval-lossless-2k", "--seed", "0",
                                      "--seconds", "0", "--trace", str(trace)])
    run.main()
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in run.BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_layer_counters_on_cli_workload(tmp_path):
    workload = CliStochastic(n_words=20)
    workload.prepare(tmp_path, seed=1)
    layers = run.per_layer(run.run_passes(workload, 0.0, Tracer()))
    assert layers["spike_codec.generate_raster_calls"] == 20
    assert layers["spike_codec.rng_streams"] == int((workload.truth != 0).sum())
    assert layers["spike_codec.raster_bytes"] > 0
    assert layers["cli.encode_s"] > layers["spike_codec.write_raster_jsonl_s"] > 0


def test_unreadable_output_fails_the_pass(tmp_path):
    workload = CliStochastic(n_words=10)
    workload.prepare(tmp_path, seed=2)
    (result,) = run.run_passes(workload, 0.0)
    (result.detail[0] / "encode" / "rasters.jsonl").unlink()
    assert check_pass(workload, result.detail).problems


def test_channel_check_flags_a_miscalibrated_cell():
    cfg = CodecConfig()
    p = misclassification_probabilities(cfg).p_minus_as_plus
    truth = -np.ones((100, 100), dtype=np.int8)
    decoded = truth.copy()
    decoded.flat[: round(p * truth.size)] = 1
    assert channel_z_scores(truth, decoded, cfg)[0] < 1.0
    decoded.flat[: round(2 * p * truth.size)] = 1
    assert channel_z_scores(truth, decoded, cfg)[0] > CHANNEL_FAIL_Z


def test_tracer_restores_every_binding():
    originals = (cli.main, cli.generate_raster, spike_codec.generate_raster)
    tracer = Tracer()
    tracer.install()
    assert cli.generate_raster is not originals[1]
    assert spike_codec.generate_raster is not originals[2]
    tracer.uninstall()
    assert (cli.main, cli.generate_raster, spike_codec.generate_raster) == originals
    assert tracer.missing == set()


def _span(name, start, end, parent=None):
    span = Span(name, start, parent)
    span.end = end
    return span


def test_self_times_split_parallel_leaves():
    root = _span(ROOT_SPAN, 0.0, 10.0)
    encode = _span("cli.encode", 1.0, 9.0, root)
    a = _span("spike_codec.generate_raster", 2.0, 6.0, encode)
    b = _span("spike_codec.generate_raster", 4.0, 8.0, encode)
    times = self_times([root, encode, a, b])
    assert times[ROOT_SPAN] == pytest.approx(2.0)
    assert times["cli.encode"] == pytest.approx(2.0)
    assert times["spike_codec.generate_raster"] == pytest.approx(6.0)
    assert sum(times.values()) == pytest.approx(10.0)
    assert union_length([(2.0, 6.0), (4.0, 8.0)]) == pytest.approx(6.0)
    assert union_length([(0.0, 1.0), (2.0, 3.0), (2.5, 2.7)]) == pytest.approx(2.0)


def test_pool_thread_spans_attach_to_submitter():
    tracer = Tracer()

    def work():
        span = tracer._open("cli.encode")
        worker = threading.Thread(target=lambda: tracer._close(tracer._open("spike_codec.decode")))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        tracer._close(span)

    _, spans, _ = tracer.run_pass(work)
    parents = {s.name: s.parent.name if s.parent else None for s in spans}
    assert parents == {ROOT_SPAN: None, "cli.encode": ROOT_SPAN, "spike_codec.decode": "cli.encode"}


def test_refuses_to_run_without_sources(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-lossless-2k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
