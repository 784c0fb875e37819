#!/usr/bin/env python3
"""word2spike benchmark: three batch workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from its
``src/``.  Each workload runs in one process, one client in a closed
loop: passes run back to back, and new ones start until ``--seconds``
have elapsed.  With ``--trace 0`` the end-to-end metrics are measured
with nothing patched.  With ``--trace 1`` every pass is traced and gives
the per-layer metrics; ``trace.overhead_s`` is the tracer's own time,
timed at each wrapped call.  The last line of standard
output is one JSON object: correct, attempted (passes), failed (passes
whose checks failed) and metrics, each as ``{"value": v, "unit": u}``.
``--workload all`` runs every workload
in its own process, relays each one's table and ends with one JSON line
holding every result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import Tracer, analyse

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# fresh interpreters timed before the first pass and again after every
# pass: on a shared 2-vCPU VM the CPU speed can swing by up to 2x within
# a minute, so samples spread over the whole run give a steadier median
# than one burst
SETUP_RUNS = 3

def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import word2spike from this checkout's src/ and nowhere else."""
    if not (SRC / "word2spike" / "__init__.py").is_file():
        fail(f"no word2spike sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import word2spike

    if Path(word2spike.__file__).resolve().parent != SRC / "word2spike":
        fail(f"imported word2spike from {word2spike.__file__}, not {SRC}")
    return word2spike


def time_setup(runs: int) -> list[float]:
    """Wall times of ``runs`` fresh interpreters importing word2spike.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import word2spike.cli"]
    times = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return times


@dataclass
class PassResult:
    wall_s: float
    output_bytes: int
    detail: object
    layers: dict | None  # per-layer values of a traced pass


def run_passes(workload, seconds: float, tracer=None, after_pass=lambda: None) -> list[PassResult]:
    """Run passes back to back, traced when a tracer is given, starting new
    ones until ``seconds`` have elapsed; at least one pass runs.
    ``after_pass`` runs after each pass, outside the pass's time."""
    passes = []
    start = perf_counter()
    while True:
        index = len(passes)
        layers = None
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                tracer.install()
                try:
                    raw, spans, counts = tracer.run_pass(lambda: workload.run(index))
                finally:
                    tracer.uninstall()
                wall = spans[0].end - spans[0].start
                layers = analyse(spans, counts)
            else:
                t0 = perf_counter()
                raw = workload.run(index)
                wall = perf_counter() - t0
        output_bytes, detail = workload.summarize(index, raw)
        del raw
        passes.append(PassResult(wall, output_bytes, detail, layers))
        after_pass()
        if perf_counter() - start >= seconds:
            return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, passes: list[PassResult], setup_s: float) -> dict[str, float]:
    walls = [p.wall_s for p in passes]
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "wall_s_max": max(walls),
        "words_per_s": workload.n_words / wall,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "output_bytes": statistics.median(p.output_bytes for p in passes),
    }


def per_layer(passes: list[PassResult]) -> dict[str, float]:
    traced = [p.layers for p in passes]
    values = {}
    for name in (m["name"] for m in BENCHMARK["per_layer"]):
        if name == "trace.unattributed_s":
            values[name] = statistics.median(layer.get("bench.self_s", 0.0) for layer in traced)
        elif name == "spike_codec.spikes_per_s":
            values[name] = statistics.median(
                layer.get("spike_codec.spikes", 0) / layer["spike_codec.generate_raster_s"]
                if layer.get("spike_codec.generate_raster_s") else 0.0
                for layer in traced
            )
        else:
            values[name] = statistics.median(layer.get(name, 0) for layer in traced)
    return values


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    program = import_program()
    import numpy
    from workloads import WORKLOADS, check_pass

    if name not in WORKLOADS:
        fail(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]()
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
          f"word2spike={program.__version__} {platform.platform()}")

    setup_times = []
    if not trace:
        time_setup(1)  # writes the bytecode cache
        setup_times += time_setup(SETUP_RUNS)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        workload.prepare(work, seed)
        why = next((w["why"] for w in BENCHMARK["workloads"] if w["name"] == name),
                   "run by name only, not listed in BENCHMARK.json (see bench/README.md)")
        print(f"workload {name}, seed {seed}, corpus {workload.shape[0]} x {workload.shape[1]}: {why}")
        print(f"peak RSS after input generation: {peak_rss_mb():.1f} MB")
        tracer = Tracer() if trace else None
        after_pass = (lambda: None) if trace else (lambda: setup_times.extend(time_setup(SETUP_RUNS)))
        passes = run_passes(workload, seconds, tracer, after_pass)
        metrics = per_layer(passes) if trace else end_to_end(workload, passes, statistics.median(setup_times))
        verdicts = [check_pass(workload, p.detail) for p in passes]
        if not trace:
            # every pass encodes with the same seed, so the first pass's
            # rasters stand for all of them
            try:
                metrics["valid_raster_frac"] = workload.valid_raster_frac(passes[0].detail)
            except (OSError, ValueError):  # pass 0's check says why
                metrics["valid_raster_frac"] = 0.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.rmdir()

    failed = sum(1 for v in verdicts if v.problems)
    for i, v in enumerate(verdicts):
        status = "FAIL " + "; ".join(v.problems) if v.problems else "ok"
        print(f"pass {i} ({'traced' if trace else 'plain'}, {passes[i].wall_s:.3f} s): {status}"
              + (f" [{v.notes}]" if v.notes else ""))
    if trace and (tracer.missing or tracer.hook_errors):
        print(f"not traced: {sorted(tracer.missing)}; counter hooks failed: {sorted(tracer.hook_errors)}")
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print_table(name, result, trace, [p.wall_s for p in passes])
    return result


def print_table(name: str, result: dict, trace: bool, walls: list[float]) -> None:
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"== {name}: {verdict}, {result['failed']} of {result['attempted']} passes failed "
          f"(n={len(walls)} {'traced' if trace else 'plain'} passes)")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<38} {m['value']:>16.6g} {m['unit']}")
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"  median traced pass {statistics.median(walls):.3f} s; layer self times {layer_self:.3f} s "
              f"+ trace.unattributed_s {metrics['trace.unattributed_s']:.3f} s, of which "
              f"trace.overhead_s {metrics['trace.overhead_s']:.3f} s is the tracer's own time")


def run_all(args) -> None:
    """Run every workload in its own process; relay each one's table and
    end with one JSON line mapping workload name to its result."""
    results = {}
    for name in (w["name"] for w in BENCHMARK["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        run_all(args)
        return
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
