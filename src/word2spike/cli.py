"""Command-line entry point: quantize / encode / decode / analyze / eval.

Each subcommand runs one stage of the pipeline (continuous vectors ->
ternary codes -> spike rasters -> decoded codes -> metrics) as a
reproducible batch job.  Every run writes a manifest (resolved config,
input digests, seed, command, working directory, version, timestamp) next
to its outputs; two runs with equal manifests produce identical outputs.

Exit codes: 0 success, 2 input error (an unwritable out-dir included),
3 empty result, 4 config error.  A run publishes its files in one step:
every output and then the manifest is written to a temp name in the
out-dir, and only then are they renamed into place, manifest last.  So a
run that fails before its renames changes no file, and a target that is
a directory fails the run before the first rename.  Outputs get the
umask's permissions.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import os
import shlex
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


def write_manifest(args, cfg: CodecConfig | None, inputs: dict[str, str]) -> str:
    """The text of manifest.json, recording args.command_line."""
    manifest = {
        "command": args.command_line,
        # relative paths in the command resolve against this directory
        "cwd": os.getcwd(),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": dataclasses.asdict(cfg) if cfg is not None else None,
        "seed": cfg.seed if cfg is not None else None,
        "inputs": {role: _sha256(p) for role, p in inputs.items() if p},
    }
    return json.dumps(manifest, indent=2) + "\n"


def _text(text: str):
    """A writer of ``text`` to a given path."""
    return lambda path: Path(path).write_text(text, encoding="utf-8")


def _publish(args, cfg: CodecConfig | None, inputs: dict[str, str], outputs: dict) -> None:
    """Write ``outputs`` (file name -> writer of a given path) and then the
    manifest into args.out_dir as one step.

    Each file is first written to a temp name in the out-dir with the mode
    a plain open() would give it, 0o666 less the umask (mkstemp makes
    0o600).  Only when all are written, and no target is a directory,
    are they renamed into place, manifest last; on any failure every temp
    file is removed.
    """
    os.makedirs(args.out_dir, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    # staged last, so it hashes the inputs after every output is written
    # and before any rename could replace one
    outputs = {**outputs, "manifest.json": lambda path: _text(write_manifest(args, cfg, inputs))(path)}
    staged = []
    try:
        for name, write in outputs.items():
            fd, tmp = tempfile.mkstemp(dir=args.out_dir, prefix=".w2s-", suffix=".tmp")
            os.close(fd)
            staged.append((tmp, os.path.join(args.out_dir, name)))
            write(tmp)
            os.chmod(tmp, 0o666 & ~umask)
        # os.replace cannot put a file over a directory: fail before the
        # first rename rather than after some
        for _, path in staged:
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, "output name is a directory", path)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def build_config(args) -> CodecConfig:
    """Resolve the codec config: the preset or file values with the flags
    over them, checked once as a whole."""
    if args.preset and args.config:
        raise ConfigError("--preset and --config are mutually exclusive")
    settings = _read_config(args.config) if args.config else {}
    flags = {
        "window_s": None if args.window_ms is None else args.window_ms / 1000.0,
        "rate_plus_hz": args.rate_plus,
        "rate_minus_hz": args.rate_minus,
        "threshold_hz": args.threshold,
        "mode": args.mode,
        "seed": args.seed,
    }
    settings.update((key, value) for key, value in flags.items() if value is not None)
    cfg = dataclasses.replace(PRESETS[args.preset] if args.preset else CodecConfig(), **settings)
    if cfg.mode == "stochastic" and args.needs_seed and "seed" not in settings:
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
    _publish(args, None, {"embeddings": args.embeddings, "wordlist": args.wordlist},
             {"ternary.txt": lambda path: save_ternary(ternary, path)})
    print(f"quantized {len(ternary)} words (dim {ternary.dim}), {missing} wordlist misses")
    return EXIT_OK


def cmd_encode(args) -> int:
    corpus_flags = [flag for flag in ("--embeddings", "--wordlist", "--lowercase") if getattr(args, flag[2:])]
    if args.ternary and corpus_flags:
        raise CorpusFormatError(f"--ternary cannot be combined with {', '.join(corpus_flags)}")
    if not args.ternary and not args.embeddings:
        raise CorpusFormatError("encode needs --embeddings or --ternary")
    cfg = build_config(args)
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
    _publish(args, cfg, {"embeddings": args.embeddings, "ternary": args.ternary, "wordlist": args.wordlist},
             outputs)
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
    decoded = np.stack([decode(r, cfg).values for r in rasters])
    ternary = TernarySet(tuple(words), decoded)
    _publish(args, cfg, {"rasters": args.rasters}, {"decoded.txt": lambda path: save_ternary(ternary, path)})
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
        _publish(args, cfg, {}, {"analysis.json": _text(json.dumps(payload, indent=2) + "\n")})
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = build_config(args)
    es, missing = _load_input_set(args)
    pairs = load_simlex(args.simlex, lowercase=args.lowercase) if args.simlex else None
    quads = load_analogies(args.analogies, lowercase=args.lowercase) if args.analogies else None
    report = full_report(es, cfg, pairs=pairs, quads=quads)

    _publish(
        args,
        cfg,
        {"embeddings": args.embeddings, "wordlist": args.wordlist, "simlex": args.simlex,
         "analogies": args.analogies},
        {"report.json": _text(report.to_json() + "\n"), "report.txt": _text(report.to_table() + "\n")},
    )
    print(report.to_table())
    print(f"evaluated {len(es)} words, {missing} wordlist misses")
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--window-ms", type=float)
    p.add_argument("--rate-plus", type=float)
    p.add_argument("--rate-minus", type=float)
    p.add_argument("--threshold", type=float)


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
    p.set_defaults(func=cmd_quantize, needs_seed=False)

    p = sub.add_parser("encode", help="generate spike rasters")
    _add_corpus_flags(p, embeddings_required=False)
    p.add_argument("--ternary", help="pre-quantized input instead of --embeddings")
    _add_config_flags(p)
    _add_generation_flags(p)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--threads", type=int, default=1, help="ignored; encoding runs on one thread")
    p.add_argument("--counts", action="store_true", help="also write counts.csv")
    p.add_argument("--plot-word", help="render one word's raster to SVG")
    p.set_defaults(func=cmd_encode, needs_seed=True)

    # decoding and the error analysis read neither the mode nor the seed
    p = sub.add_parser("decode", help="decode rasters back to ternary codes")
    p.add_argument("--rasters", required=True)
    _add_config_flags(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_decode, needs_seed=False, mode=None, seed=None)

    p = sub.add_parser("analyze", help="exact decode-error analysis for a config")
    _add_config_flags(p)
    p.add_argument("--composition", type=_parse_composition,
                   help="n_plus,n_minus,n_zero for expected word error")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_analyze, needs_seed=False, mode=None, seed=None)

    p = sub.add_parser("eval", help="full metric report over three representations")
    _add_corpus_flags(p)
    p.add_argument("--simlex")
    p.add_argument("--analogies")
    _add_config_flags(p)
    _add_generation_flags(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_eval, needs_seed=True)

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
