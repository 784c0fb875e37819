"""Command-line entry point: quantize / encode / decode / analyze / eval.

Each subcommand runs one stage of the pipeline (continuous vectors ->
ternary codes -> spike rasters -> decoded codes -> metrics) as a
reproducible batch job.  Every run writes a manifest (resolved config,
input digests, seed, command, working directory, version, timestamp) next
to its outputs; two runs with equal manifests produce identical outputs.

Exit codes: 0 success, 2 input error (an unwritable out-dir included),
3 empty result, 4 config error.  A run publishes its files in one step:
every output and then the manifest is written into one staging directory,
and only then is the out-dir made and are they renamed into it, manifest
last.  So a run that fails before its renames changes no file and leaves
no directory, and a target that is a directory, or not one plain file
name, fails the run before the first rename.  Outputs get the mode their
writers' own open() gives them: 0o666 less the umask.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import os
import shlex
import shutil
import stat
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .corpus_io import (
    CorpusFormatError,
    EmptyResultError,
    load_analogies,
    load_embeddings,
    load_simlex,
    load_wordlist,
    restrict,
)
from .evaluator import full_report
from .quantizer import TernarySet, load_ternary, quantize_all, save_ternary
from .spike_codec import (
    CodecConfig,
    ConfigError,
    PRESETS,
    _read_config,
    _window_ms,
    decode,
    generate_raster,
    misclassification_probabilities,
    rate_spread,
    rates_from_ternary,
    read_raster_jsonl,
    suggest_threshold,
    write_counts_csv,
    write_raster_jsonl,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_CONFIG = 4


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# the flags that name an input file, hashed in this order when set
_INPUT_FLAGS = ("embeddings", "ternary", "wordlist", "rasters", "simlex", "analogies")


def write_manifest(args, cfg: CodecConfig | None) -> str:
    """The text of manifest.json, recording args.command_line."""
    config = dataclasses.asdict(cfg) if cfg is not None else None
    # a command without --seed (decode, analyze) reads neither the mode nor the seed
    if config is not None and not hasattr(args, "seed"):
        del config["mode"], config["seed"]
    manifest = {
        "command": args.command_line,
        # relative paths in the command resolve against this directory
        "cwd": os.getcwd(),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "seed": config.get("seed") if config is not None else None,
        "inputs": {flag: _sha256(getattr(args, flag)) for flag in _INPUT_FLAGS if getattr(args, flag, None)},
    }
    return json.dumps(manifest, indent=2) + "\n"


def _text(text: str):
    """A writer of ``text`` to a given path."""
    return lambda path: Path(path).write_text(text, encoding="utf-8")


def _publish(args, cfg: CodecConfig | None, outputs: dict) -> None:
    """Write ``outputs`` (file name -> writer of a given path) and then the
    manifest into args.out_dir as one step.

    Each file is written under its own name, with the mode its writer's
    open() gives it, into one stage made in the nearest existing directory
    on the out-dir's path.  Only then is the out-dir made, on the stage's
    file system, and, if no target is a directory, are the files renamed
    into it, manifest last.  Each name must be one plain file name.
    """
    for name in outputs:
        if os.path.basename(name) != name:
            raise OSError(errno.EINVAL, "output name is not a plain file name",
                          os.path.join(args.out_dir, name))
    # staged last, so it hashes the inputs after every output is written
    # and before any rename could replace one
    outputs = {**outputs, "manifest.json": lambda path: _text(write_manifest(args, cfg))(path)}
    parent = args.out_dir
    while not os.path.isdir(parent):
        parent = os.path.dirname(parent) or os.curdir
    stage = tempfile.mkdtemp(dir=parent, prefix=".w2s-")
    try:
        for name, write in outputs.items():
            write(os.path.join(stage, name))
        os.makedirs(args.out_dir, exist_ok=True)
        # os.replace fails on a directory or a name the file system refuses:
        # fail before the first rename rather than after some
        for name in outputs:
            path = os.path.join(args.out_dir, name)
            try:
                mode = os.lstat(path).st_mode
            except FileNotFoundError:
                continue
            if stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, "output name is a directory", path)
        for name in outputs:
            os.replace(os.path.join(stage, name), os.path.join(args.out_dir, name))
    finally:
        shutil.rmtree(stage)


def build_config(args) -> CodecConfig:
    """Resolve the codec config: the preset or file values with the flags
    over them, checked once as a whole."""
    if args.preset and args.config:
        raise ConfigError("--preset and --config are mutually exclusive")
    settings = _read_config(args.config) if args.config else {}
    # each flag is stored under its field's name, except --window-ms
    settings.update((field.name, getattr(args, field.name)) for field in dataclasses.fields(CodecConfig)
                    if getattr(args, field.name, None) is not None)
    if args.window_ms is not None:
        settings["window_s"] = args.window_ms / 1000.0
    cfg = dataclasses.replace(PRESETS[args.preset] if args.preset else CodecConfig(), **settings)
    if cfg.mode == "stochastic" and hasattr(args, "seed") and "seed" not in settings:
        raise ConfigError(
            "stochastic mode requires an explicit --seed; refusing to run with silent nondeterminism"
        )
    return cfg


def _load_input_set(args):
    es = load_embeddings(args.embeddings, lowercase=args.lowercase)
    missing = 0
    if args.wordlist:
        wl = load_wordlist(args.wordlist, lowercase=args.lowercase)
        es, missing = restrict(es, wl)
    return es, missing


def cmd_quantize(args) -> int:
    es, missing = _load_input_set(args)
    ternary = quantize_all(es)
    _publish(args, None, {"ternary.txt": lambda path: save_ternary(ternary, path)})
    print(f"quantized {len(ternary)} words (dim {ternary.dim}), {missing} wordlist misses")
    return EXIT_OK


def cmd_encode(args) -> int:
    corpus_flags = [flag for flag in ("--embeddings", "--wordlist", "--lowercase") if getattr(args, flag[2:])]
    if args.ternary and corpus_flags:
        raise CorpusFormatError(f"--ternary cannot be combined with {', '.join(corpus_flags)}")
    if not args.ternary and not args.embeddings:
        raise CorpusFormatError("encode needs --embeddings or --ternary")
    cfg = build_config(args)
    # a window rasters.jsonl cannot carry is refused before any work
    _window_ms(cfg.window_s)
    if args.ternary:
        ternary, missing = load_ternary(args.ternary), 0
    else:
        es, missing = _load_input_set(args)
        ternary = quantize_all(es)
    if args.plot_word and args.plot_word not in ternary.words:
        raise EmptyResultError(f"--plot-word {args.plot_word!r} not in vocabulary")
    rasters = [
        generate_raster(rates_from_ternary(row, cfg), cfg, stream_id=i)
        for i, row in enumerate(ternary.values)
    ]

    outputs = {"rasters.jsonl": lambda path: write_raster_jsonl(path, ternary.words, rasters)}
    if args.counts:
        outputs["counts.csv"] = lambda path: write_counts_csv(path, ternary.words, rasters)
    if args.plot_word:
        raster = rasters[ternary.words.index(args.plot_word)]
        outputs[f"raster_{args.plot_word}.svg"] = lambda path: _plot_raster(path, args.plot_word, raster)
    _publish(args, cfg, outputs)
    print(f"encoded {len(ternary)} words, {missing} wordlist misses -> "
          f"{os.path.join(args.out_dir, 'rasters.jsonl')}")
    return EXIT_OK


def _plot_raster(path: str, word: str, raster) -> None:
    """Draw one word's raster to ``path`` as SVG."""
    try:
        import matplotlib
        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise CorpusFormatError("matplotlib is required for --plot-word") from exc
    fig, ax = plt.subplots(figsize=(8, 4))
    # one train per dimension, in ms; a dimension without spikes keeps its row
    trains = np.split(raster.times * 1000.0, np.cumsum(raster.counts()[:-1]))
    ax.eventplot(trains, linewidths=0.8, colors="black")
    ax.set_xlabel("time (ms)")
    ax.set_ylabel("dimension")
    ax.set_title(f"spike raster: {word}")
    fig.savefig(path, format="svg")
    plt.close(fig)


def cmd_decode(args) -> int:
    cfg = build_config(args)
    words, rasters = read_raster_jsonl(args.rasters)
    if not words:
        raise EmptyResultError(f"{args.rasters}: no raster records")
    rows = []
    for word, raster in zip(words, rasters):
        try:
            rows.append(decode(raster, cfg).values)
        except ConfigError as exc:
            raise ConfigError(f"{args.rasters}: word {word!r}: {exc}") from None
    ternary = TernarySet(tuple(words), np.stack(rows))
    _publish(args, cfg, {"decoded.txt": lambda path: save_ternary(ternary, path)})
    print(f"decoded {len(words)} words -> {os.path.join(args.out_dir, 'decoded.txt')}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = build_config(args)
    analysis = misclassification_probabilities(cfg)
    spread = rate_spread(cfg)
    best_hz, best_err = suggest_threshold(cfg)

    lines = [
        f"window: {cfg.window_s * 1000:.0f} ms   rates: +1 -> {cfg.rate_plus_hz} Hz, "
        f"-1 -> {cfg.rate_minus_hz} Hz   threshold: {cfg.threshold_hz} Hz "
        f"(count >= {analysis.count_threshold})",
        "",
        "rate spread (mean +/- 1 sd):",
    ]
    for level in ("+1", "-1"):
        mean, sd = spread[level]
        lines.append(f"  {level}: {mean:.1f} +/- {sd:.2f} Hz")
    lines += [
        "",
        "exact misclassification probabilities:",
        f"  P(-1 decoded as +1) = {analysis.p_minus_as_plus:.6g}",
        f"  P(-1 decoded as  0) = {analysis.p_minus_as_zero:.6g}",
        f"  P(+1 decoded as -1) = {analysis.p_plus_as_minus:.6g}",
        f"  P(+1 decoded as  0) = {analysis.p_plus_as_zero:.6g}",
        f"  total per-dimension error (sum of level errors) = {analysis.total_error:.6g}",
        "",
        f"suggested threshold: {best_hz:.1f} Hz (total error {best_err:.6g})",
    ]
    if args.composition:
        n_plus, n_minus, n_zero = args.composition
        word_err = analysis.expected_word_error(n_plus, n_minus, n_zero)
        lines.append(
            f"expected word error for composition (+1 x{n_plus}, -1 x{n_minus}, "
            f"0 x{n_zero}) = {word_err:.6g}"
        )
    print("\n".join(lines))

    if args.out_dir:
        payload = dataclasses.asdict(analysis)
        payload.update(
            rate_spread=spread,
            suggested_threshold_hz=best_hz,
            suggested_threshold_error=best_err,
            total_error=analysis.total_error,
        )
        _publish(args, cfg, {"analysis.json": _text(json.dumps(payload, indent=2) + "\n")})
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = build_config(args)
    es, missing = _load_input_set(args)
    pairs = load_simlex(args.simlex, lowercase=args.lowercase) if args.simlex else None
    quads = load_analogies(args.analogies, lowercase=args.lowercase) if args.analogies else None
    report = full_report(es, cfg, pairs=pairs, quads=quads)

    _publish(args, cfg, {"report.json": _text(report.to_json() + "\n"),
                         "report.txt": _text(report.to_table() + "\n")})
    print(report.to_table())
    print(f"evaluated {len(es)} words, {missing} wordlist misses")
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--window-ms", type=float)
    p.add_argument("--rate-plus", dest="rate_plus_hz", type=float)
    p.add_argument("--rate-minus", dest="rate_minus_hz", type=float)
    p.add_argument("--threshold", dest="threshold_hz", type=float)


def _add_generation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("stochastic", "lossless"))
    p.add_argument("--seed", type=int)


def _add_corpus_flags(p: argparse.ArgumentParser, embeddings_required: bool = True) -> None:
    p.add_argument("--embeddings", required=embeddings_required)
    p.add_argument("--wordlist")
    p.add_argument("--lowercase", action="store_true")


def _parse_composition(raw: str) -> tuple[int, int, int]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("composition must be n_plus,n_minus,n_zero")
    return tuple(int(p) for p in parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="word2spike",
        description="Rate-coded Poisson spike codec for word embeddings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", help="ternarize an embedding file")
    _add_corpus_flags(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("encode", help="generate spike rasters")
    _add_corpus_flags(p, embeddings_required=False)
    p.add_argument("--ternary", help="pre-quantized input instead of --embeddings")
    _add_config_flags(p)
    _add_generation_flags(p)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--threads", type=int, default=1, help="ignored; encoding runs on one thread")
    p.add_argument("--counts", action="store_true", help="also write counts.csv")
    p.add_argument("--plot-word", help="render one word's raster to SVG")
    p.set_defaults(func=cmd_encode)

    # decoding and the error analysis read neither the mode nor the seed, so
    # their manifests record neither
    p = sub.add_parser("decode", help="decode rasters back to ternary codes")
    p.add_argument("--rasters", required=True)
    _add_config_flags(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("analyze", help="exact decode-error analysis for a config")
    _add_config_flags(p)
    p.add_argument("--composition", type=_parse_composition,
                   help="n_plus,n_minus,n_zero for expected word error")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("eval", help="full metric report over three representations")
    _add_corpus_flags(p)
    p.add_argument("--simlex")
    p.add_argument("--analogies")
    _add_config_flags(p)
    _add_generation_flags(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    # the parsed argv, not sys.argv, which is the host's when main runs in-process
    args.command_line = shlex.join([parser.prog, *argv])
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EmptyResultError as exc:
        print(f"empty result: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (CorpusFormatError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
