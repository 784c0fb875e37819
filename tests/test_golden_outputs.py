"""Golden SHA-256 digests of every command's outputs on small fixed corpora.

A change that keeps every output byte the same leaves this table as it is.
Each manifest is compared without its ``command``, ``cwd`` and
``timestamp``, so the resolved config and the input digests are pinned
too.  The corpora come from Python's ``random`` with fixed seeds, so only
the stochastic rows depend on numpy: their Poisson counts come from
numpy's ``Generator`` streams, which numpy does not promise to keep across
feature releases (NEP 19).
"""

import hashlib
import json
import random

import numpy as np

from word2spike.cli import main

from conftest import write_lines

# the numpy version the stochastic rows were made with
TABLE_NUMPY = "2.4.6"

N_WORDS, DIM, N_PAIRS, N_QUADS = 40, 12, 30, 10
PRESETS = ("paper-200ms", "paper-400ms")
MODES = ("lossless", "stochastic")

# out-dir name -> argv without --out-dir; {emb}, {simlex}, {analogies} and
# {out} are the corpus files and the parent of every out-dir
RUNS = {"quantize": ["quantize", "--embeddings", "{emb}"]}
for _preset in PRESETS:
    for _mode in MODES:
        RUNS[f"encode-{_preset}-{_mode}"] = [
            "encode", "--embeddings", "{emb}", "--preset", _preset, "--mode", _mode,
            "--seed", "3", "--counts",
        ]
        RUNS[f"decode-{_preset}-{_mode}"] = [
            "decode", "--rasters", f"{{out}}/encode-{_preset}-{_mode}/rasters.jsonl", "--preset", _preset,
        ]
for _preset in PRESETS:
    RUNS[f"analyze-{_preset}"] = ["analyze", "--preset", _preset, "--composition", "4,4,4"]
for _mode in MODES:
    RUNS[f"eval-{_mode}"] = [
        "eval", "--embeddings", "{emb}", "--simlex", "{simlex}", "--analogies", "{analogies}",
        "--mode", _mode, "--seed", "3",
    ]

GOLDEN = {
    "quantize/manifest.json": "188d9c78fcbacd441690424abce54f9b6ad1c3796510c01bc492293d32ce4acd",
    "quantize/ternary.txt": "6b608c6223333080d27e8953c5b0dcbc8f9b81ae06fc8b9780543d27791b6441",
    "encode-paper-200ms-lossless/counts.csv": "2314ecf2931ec626a33e06af15fad18254ac876eea9c9d93c1c07380ea3b0a4a",
    "encode-paper-200ms-lossless/manifest.json": "805bd5712037926177d56433391246c466c590a13ac2d8e5fc3c99a4ec1cf578",
    "encode-paper-200ms-lossless/rasters.jsonl": "fbdf3e94b97c71e51185127fda171692f0ecf0195a3bc399a1655a0ceba6516b",
    "decode-paper-200ms-lossless/decoded.txt": "6b608c6223333080d27e8953c5b0dcbc8f9b81ae06fc8b9780543d27791b6441",
    "decode-paper-200ms-lossless/manifest.json": "2c9ed955745b06120ef4c752ef3e602d85f121a4e13061d79874ea98fb3d509b",
    "encode-paper-200ms-stochastic/counts.csv": "2ef4a4ffedaff1579aeb4febbb4384cad0cf145c2ffc22635bd2d24d347457c2",
    "encode-paper-200ms-stochastic/manifest.json": "2b261c7401981abfaa64eefb5f3b8576e57a76f827bb227d11c56c38ae14b835",
    "encode-paper-200ms-stochastic/rasters.jsonl": "69d6df9c7cf447c4f943fb9a20c5a9874c00ab37a92f1ce7f0f28330aa976d59",
    "decode-paper-200ms-stochastic/decoded.txt": "2e4801a31ddfcb4291144177d9cc0655ca02af3ae97d5df3363b3367f79640c1",
    "decode-paper-200ms-stochastic/manifest.json": "c69cd745d2159ceffe2d56fba8e570ce9b548eefd11ca78ea07e0aa616295f23",
    "encode-paper-400ms-lossless/counts.csv": "dab4321c0692f2966a22ae3a87ab31a023a93a9463f2f2c57dd519564d634ecd",
    "encode-paper-400ms-lossless/manifest.json": "9b5e7ff57e8b3080b5129d260488b0d238bbd3110cf85f8bdc2cf0e8ee0781ea",
    "encode-paper-400ms-lossless/rasters.jsonl": "2d38d33d3af7ab0a97cb46540b7e8aeec60f2d5564d25922b298eba92d3f81ce",
    "decode-paper-400ms-lossless/decoded.txt": "6b608c6223333080d27e8953c5b0dcbc8f9b81ae06fc8b9780543d27791b6441",
    "decode-paper-400ms-lossless/manifest.json": "f282802690877bc33307001cc40e4ad9628d9324e5269992a5ddd71adc737d42",
    "encode-paper-400ms-stochastic/counts.csv": "4b882e1d90615ee4ee29350b2159784de1760caafe4dc68a3cd402a5f902d889",
    "encode-paper-400ms-stochastic/manifest.json": "7a83c263bbc9e29edc8b0f29d186f965056ecb711a1dd398e1be894d9c15893f",
    "encode-paper-400ms-stochastic/rasters.jsonl": "aa558b5e834c5d7f4dca2a955f6451ed2d76c2376bf6d00e21085b229115b47d",
    "decode-paper-400ms-stochastic/decoded.txt": "6b608c6223333080d27e8953c5b0dcbc8f9b81ae06fc8b9780543d27791b6441",
    "decode-paper-400ms-stochastic/manifest.json": "bb83c9232541aa9d071bd5a9f8a79320d032b2aae9609559075d5b7dec81e0ab",
    "analyze-paper-200ms/analysis.json": "e646c1201f101746b611c72c9ebc1965dd6529eeaa67e89bd033b9d8b0fb0f77",
    "analyze-paper-200ms/manifest.json": "444870a94d901ad733aa452996e62d298dd425c59c416b36a6962eec4157827b",
    "analyze-paper-400ms/analysis.json": "6f0539688ce3655aa17a2283b6c9e1880d53245a1fe2042296af78cc3278a8d9",
    "analyze-paper-400ms/manifest.json": "9f393548851e4a93a71436cec2be9bdc91ae2d6bf81b332f9b36ac05fdff6917",
    "eval-lossless/manifest.json": "ad0a5ef893d29c93e8ac4e311e99b881ff17691ebbcf61980474472c1e4c3af1",
    "eval-lossless/report.json": "743a9e96f31d48c659a03fb3a2b2fc3c71195f8f6af7be6fd20636ab9eeb9721",
    "eval-lossless/report.txt": "c25408d3f55582e08de0d8e17d15f5f2bc6b33d6a34522cf70de3a143940b31c",
    "eval-stochastic/manifest.json": "0013d5ef3bd5ecf56f7120a9e5d1ad947f0133e1fdacebe55c51e837266f88c7",
    "eval-stochastic/report.json": "3aff0bcb61e95687e9182b8d45f8110d70d1a829c7bd4d4889deac0a3c29eacd",
    "eval-stochastic/report.txt": "7c8465890b6568a7d693b896edff83fa302757467559f177c8bb24f1946bda08",
}


def write_corpora(tmp_path) -> dict[str, str]:
    """The embeddings, SimLex and analogy files, from fixed seeds.

    Quad i is words 4i..4i+3, and in every other quad d lies near b - a + c,
    so the analogy accuracies are not all zero."""
    rng = random.Random(1)
    words = [f"w{i:02d}" for i in range(N_WORDS)]
    vectors = [[rng.uniform(-1.0, 1.0) for _ in range(DIM)] for _ in words]
    for i in range(0, N_QUADS, 2):
        a, b, c, d = range(4 * i, 4 * i + 4)
        vectors[d] = [vb - va + vc + rng.uniform(-0.1, 0.1)
                      for va, vb, vc in zip(vectors[a], vectors[b], vectors[c])]
    emb = [" ".join([w, *(f"{v:.4f}" for v in vec)]) for w, vec in zip(words, vectors)]
    rng = random.Random(2)
    pairs = ["word1\tword2\tSimLex999"] + [
        "\t".join([*rng.sample(words, 2), f"{rng.uniform(0.0, 10.0):.2f}"]) for _ in range(N_PAIRS)
    ]
    quads = [" ".join(words[4 * i : 4 * i + 4]) for i in range(N_QUADS)]
    return {
        "emb": write_lines(tmp_path / "emb.txt", emb),
        "simlex": write_lines(tmp_path / "simlex.tsv", pairs),
        "analogies": write_lines(tmp_path / "analogies.txt", quads),
    }


def digest(path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        for key in ("command", "cwd", "timestamp"):
            del manifest[key]
        data = json.dumps(manifest, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def run_all(tmp_path) -> dict[str, str]:
    """Run every command of RUNS; "<out-dir>/<file>" -> its digest."""
    names = {**write_corpora(tmp_path), "out": str(tmp_path / "out")}
    digests = {}
    for run, template in RUNS.items():
        out = tmp_path / "out" / run
        assert main([arg.format(**names) for arg in template] + ["--out-dir", str(out)]) == 0, run
        digests.update((f"{run}/{p.name}", digest(p)) for p in sorted(out.iterdir()))
    return digests


def test_every_output_matches_its_golden_digest(tmp_path, capsys):
    got = run_all(tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    note = ""
    if any("stochastic" in name for name in changed):
        note = (f"; the stochastic rows were made with numpy {TABLE_NUMPY} and this is numpy "
                f"{np.__version__}, whose Generator streams may differ (NEP 19)")
    assert not changed, f"outputs changed: {changed}{note}"
