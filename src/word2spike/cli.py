"""Command-line entry point: quantize / encode / decode / analyze / eval.

Each subcommand runs one stage of the pipeline (continuous vectors ->
ternary codes -> spike rasters -> decoded codes -> metrics) as a
reproducible batch job.  Every run writes a manifest (resolved config,
input digests, seed, command, working directory, version, timestamp) next
to its outputs; two runs with equal manifests produce identical outputs.

Exit codes: 0 success, 2 input error, 3 empty result, 4 config error.
Output files are written to a temp name and atomically renamed, so a
failed run leaves no partial outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _atomic_writer(path: str, write_fn) -> None:
    """Run write_fn against a temp path, then atomically rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".w2s-", suffix=".tmp")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(args, cfg: CodecConfig | None, inputs: dict[str, str]) -> None:
    """Write manifest.json into args.out_dir, recording args.command_line."""
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
    text = json.dumps(manifest, indent=2) + "\n"
    _atomic_writer(
        os.path.join(args.out_dir, "manifest.json"), lambda tmp: Path(tmp).write_text(text, encoding="utf-8")
    )


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
    os.makedirs(args.out_dir, exist_ok=True)
    _atomic_writer(os.path.join(args.out_dir, "ternary.txt"), lambda tmp: save_ternary(ternary, tmp))
    write_manifest(args, None, {"embeddings": args.embeddings, "wordlist": args.wordlist})
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
    # a plot that cannot be drawn fails the run before anything is written
    plt = _pyplot_for(args.plot_word, ternary.words) if args.plot_word else None
    rasters = [
        generate_raster(rates_from_ternary(row, cfg), cfg, stream_id=i)
        for i, row in enumerate(ternary.values)
    ]

    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "rasters.jsonl")
    _atomic_writer(out, lambda tmp: write_raster_jsonl(tmp, ternary.words, rasters))
    if args.counts:
        counts = os.path.join(args.out_dir, "counts.csv")
        _atomic_writer(counts, lambda tmp: write_counts_csv(tmp, ternary.words, rasters))
    if plt is not None:
        _plot_raster(plt, args.out_dir, args.plot_word, rasters[ternary.words.index(args.plot_word)])
    write_manifest(
        args, cfg, {"embeddings": args.embeddings, "ternary": args.ternary, "wordlist": args.wordlist}
    )
    print(f"encoded {len(ternary)} words, {missing} wordlist misses -> {out}")
    return EXIT_OK


def _pyplot_for(word: str, words: tuple[str, ...]):
    """matplotlib's pyplot set to SVG, once ``word`` is known to be in ``words``."""
    if word not in words:
        raise EmptyResultError(f"--plot-word {word!r} not in vocabulary")
    try:
        import matplotlib
        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise CorpusFormatError("matplotlib is required for --plot-word") from exc
    return plt


def _plot_raster(plt, out_dir: str, word: str, raster) -> None:
    fig, ax = plt.subplots(figsize=(8, 4))
    ax.eventplot([t * 1000.0 for t in raster.trains], linewidths=0.8, colors="black")
    ax.set_xlabel("time (ms)")
    ax.set_ylabel("dimension")
    ax.set_title(f"spike raster: {word}")
    path = os.path.join(out_dir, f"raster_{word}.svg")
    _atomic_writer(path, lambda tmp: fig.savefig(tmp, format="svg"))
    plt.close(fig)


def cmd_decode(args) -> int:
    cfg = build_config(args)
    words, rasters = read_raster_jsonl(args.rasters)
    if not words:
        raise EmptyResultError(f"{args.rasters}: no raster records")
    decoded = np.stack([decode(r, cfg).values for r in rasters])
    ternary = TernarySet(tuple(words), decoded)
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "decoded.txt")
    _atomic_writer(out, lambda tmp: save_ternary(ternary, tmp))
    write_manifest(args, cfg, {"rasters": args.rasters})
    print(f"decoded {len(words)} words -> {out}")
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
        os.makedirs(args.out_dir, exist_ok=True)
        payload = dataclasses.asdict(analysis)
        payload.update(
            rate_spread=spread,
            suggested_threshold_hz=best_hz,
            suggested_threshold_error=best_err,
            total_error=analysis.total_error,
        )
        text = json.dumps(payload, indent=2) + "\n"
        _atomic_writer(
            os.path.join(args.out_dir, "analysis.json"),
            lambda tmp: Path(tmp).write_text(text, encoding="utf-8"),
        )
        write_manifest(args, cfg, {})
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = build_config(args)
    es, missing = _load_input_set(args)
    pairs = load_simlex(args.simlex, lowercase=args.lowercase) if args.simlex else None
    quads = load_analogies(args.analogies, lowercase=args.lowercase) if args.analogies else None
    report = full_report(es, cfg, pairs=pairs, quads=quads)

    os.makedirs(args.out_dir, exist_ok=True)
    for name, text in (("report.json", report.to_json()), ("report.txt", report.to_table())):
        _atomic_writer(
            os.path.join(args.out_dir, name),
            lambda tmp: Path(tmp).write_text(text + "\n", encoding="utf-8"),
        )
    write_manifest(
        args,
        cfg,
        {
            "embeddings": args.embeddings,
            "wordlist": args.wordlist,
            "simlex": args.simlex,
            "analogies": args.analogies,
        },
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
    except (CorpusFormatError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
