"""Word2Spike: rate-coded Poisson spike codec for word embeddings."""

__version__ = "0.2.0"

from .corpus_io import (
    AnalogyQuad,
    CorpusFormatError,
    EmbeddingSet,
    EmptyResultError,
    SimilarityPair,
    WordList,
    load_analogies,
    load_embeddings,
    load_simlex,
    load_wordlist,
    restrict,
)
from .quantizer import TernarySet, TernaryVector, quantize_all
from .spike_codec import (
    CodecConfig,
    ConfigError,
    ErrorAnalysis,
    PRESETS,
    RateVector,
    SpikeRaster,
    decode,
    generate_raster,
    misclassification_probabilities,
    rate_spread,
    rates_from_ternary,
    roundtrip,
    suggest_threshold,
    threshold_curve,
)
from .evaluator import (
    EvalReport,
    analogy_eval,
    cosine,
    full_report,
    overlap_at_k,
    reconstruction_accuracy,
    simlex_eval,
    spearman,
)
