import tracemalloc

import numpy as np
import pytest

from word2spike import spike_codec
from word2spike.corpus_io import EmbeddingSet


@pytest.fixture
def tiny_set():
    return EmbeddingSet(
        ("cat", "dog", "fox"),
        np.array(
            [
                [1.0, 0.2, -2.0, 0.1],
                [0.5, -1.5, 0.3, 0.0],
                [-0.4, 0.9, 0.0, 2.2],
            ]
        ),
    )


@pytest.fixture
def no_spike_times(monkeypatch):
    """Make any read of a generated raster's times fail."""
    def refuse(*args):
        raise AssertionError("spike times were made")

    monkeypatch.setattr(spike_codec, "_spike_times", refuse)


@pytest.fixture
def random_set():
    rng = np.random.default_rng(42)
    words = tuple(f"w{i:03d}" for i in range(100))
    return EmbeddingSet(words, rng.standard_normal((100, 16)))


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def traced(call):
    """call()'s result, the most memory traced above the start while it
    ran, and the memory it allocated that is still held when it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, held - before


def word_lists(index, top):
    """A neighbour index's (m, k) table of rows as m lists of its words,
    the -1 padding dropped."""
    return [[index.words[j] for j in row if j >= 0] for row in top]
