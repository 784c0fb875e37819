import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from word2spike.corpus_io import (
    CorpusFormatError,
    EmbeddingSet,
    EmptyResultError,
    WordList,
    load_analogies,
    load_embeddings,
    load_simlex,
    load_wordlist,
    restrict,
    save_embeddings,
)

from conftest import write_lines


class TestLoadEmbeddings:
    def test_basic(self, tmp_path):
        path = write_lines(tmp_path / "e.txt", ["cat 1.0 0.0", "dog 0.0 1.0"])
        es = load_embeddings(path)
        assert es.dim == 2
        assert es.words == ("cat", "dog")
        assert np.array_equal(es.vector("cat"), [1.0, 0.0])

    def test_header(self, tmp_path):
        path = write_lines(tmp_path / "e.txt", ["2 3", "a 1 2 3", "b 4 5 6"])
        es = load_embeddings(path)
        assert es.dim == 3
        assert len(es) == 2

    def test_inconsistent_dim_names_line(self, tmp_path):
        path = write_lines(tmp_path / "e.txt", ["a 1 2", "b 1 2 3"])
        with pytest.raises(CorpusFormatError, match=":2"):
            load_embeddings(path)

    def test_duplicate_token(self, tmp_path):
        path = write_lines(tmp_path / "e.txt", ["a 1", "a 2"])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_embeddings(path)

    def test_non_finite_rejected(self, tmp_path):
        path = write_lines(tmp_path / "e.txt", ["a 1.0 nan"])
        with pytest.raises(CorpusFormatError, match="non-finite"):
            load_embeddings(path)

    # the messages the per-value parser gave before values were parsed in bulk
    @pytest.mark.parametrize("token, message", [
        ("abc", "unparsable number 'abc'"),
        ("nan", "non-finite value 'nan'"),
        ("-inf", "non-finite value '-inf'"),
        ("1e999", "non-finite value '1e999'"),
    ])
    @pytest.mark.parametrize("header", [[], ["3 2"]])
    def test_bad_token_message_names_line(self, tmp_path, token, message, header):
        lines = header + ["a 1 2", "", "   ", f"b 0.5 {token}", "c 1 x"]
        path = write_lines(tmp_path / "e.txt", lines)
        with pytest.raises(CorpusFormatError) as exc:
            load_embeddings(path)
        assert str(exc.value) == f"{path}:{len(header) + 4}: {message}"

    @pytest.mark.parametrize("lines, lineno, message", [
        # the first value that fails on a line wins, as it did value by value
        (["a nan abc"], 1, "non-finite value 'nan'"),
        (["a abc nan"], 1, "unparsable number 'abc'"),
        # a non-finite value comes before a wrong count on the same line
        (["a 1 2", "b inf 2 3"], 2, "non-finite value 'inf'"),
        (["2 3", "a 1 nan"], 2, "non-finite value 'nan'"),
    ])
    def test_first_error_wins(self, tmp_path, lines, lineno, message):
        path = write_lines(tmp_path / "e.txt", lines)
        with pytest.raises(CorpusFormatError) as exc:
            load_embeddings(path)
        assert str(exc.value) == f"{path}:{lineno}: {message}"

    def test_overflowing_sum_is_not_an_error(self, tmp_path):
        path = write_lines(tmp_path / "e.txt", ["a 1e308 1e308 -1e308"])
        assert load_embeddings(path).vectors.tolist() == [[1e308, 1e308, -1e308]]

    # str.splitlines broke lines at these too; a file line now ends at
    # \n, \r or \r\n only, and str.split takes them as token whitespace
    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_unicode_line_break_separates_tokens_of_one_line(self, tmp_path, brk):
        path = tmp_path / "e.txt"
        path.write_text(f"a 1{brk}2\r\nb 3 4\nc 5 x\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            load_embeddings(str(path))
        assert str(exc.value) == f"{path}:3: unparsable number 'x'"
        path.write_text(f"a 1{brk}2\r\nb 3 4\n", encoding="utf-8")
        es = load_embeddings(str(path))
        assert es.words == ("a", "b")
        assert es.vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_peak_memory_stays_near_the_matrix(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((1000, 300))
        path = tmp_path / "e.txt"
        path.write_text(
            "".join(f"w{i} " + " ".join(f"{v:.6f}" for v in row) + "\n" for i, row in enumerate(values)),
            encoding="utf-8",
        )
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            es = load_embeddings(str(path))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the text and one Python float per value are never all held at once
        assert peak < 3 * es.vectors.nbytes

    def test_values_equal_float_of_each_token(self, tmp_path):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((50, 40)) * 10.0 ** rng.integers(-12, 12, (50, 40))
        tokens = [[f"{v:.{p}g}" for v, p in zip(row, rng.integers(1, 18, 40))] for row in values]
        tokens[0][:4] = ["3", "-0", "+1e-5", "1_000"]  # all float() syntax
        path = write_lines(tmp_path / "e.txt", [f"w{i} " + " ".join(row) for i, row in enumerate(tokens)])
        assert np.array_equal(load_embeddings(path).vectors, [[float(t) for t in row] for row in tokens])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("")
        with pytest.raises(CorpusFormatError):
            load_embeddings(str(path))

    def test_header_row_count_mismatch(self, tmp_path):
        path = write_lines(tmp_path / "e.txt", ["3 2", "a 1 2", "b 3 4"])
        with pytest.raises(CorpusFormatError, match="header"):
            load_embeddings(path)

    def test_lowercase_folding(self, tmp_path):
        path = write_lines(tmp_path / "e.txt", ["Cat 1 2"])
        assert load_embeddings(path, lowercase=True).words == ("cat",)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcdefgh", min_size=1, max_size=6),
                st.lists(
                    st.floats(
                        allow_nan=False, allow_infinity=False, width=64,
                        min_value=-1e12, max_value=1e12,
                    ),
                    min_size=3, max_size=3,
                ),
            ),
            min_size=1, max_size=8,
            unique_by=lambda t: t[0],
        )
    )
    def test_save_load_roundtrip_exact(self, tmp_path_factory, rows):
        es = EmbeddingSet(
            tuple(w for w, _ in rows), np.array([v for _, v in rows], dtype=np.float64)
        )
        path = tmp_path_factory.mktemp("rt") / "e.txt"
        save_embeddings(es, str(path))
        back = load_embeddings(str(path))
        assert back.words == es.words
        assert np.array_equal(back.vectors, es.vectors)


class TestLoadSimlex:
    HEADER = "word1\tword2\tPOS\tSimLex999\tconc(w1)"

    def test_basic_row(self, tmp_path):
        path = write_lines(tmp_path / "s.tsv", [self.HEADER, "old\tnew\tA\t1.58\t2.72"])
        pairs = load_simlex(path)
        assert len(pairs) == 1
        assert (pairs[0].word_a, pairs[0].word_b, pairs[0].human_score) == ("old", "new", 1.58)

    def test_header_only(self, tmp_path):
        path = write_lines(tmp_path / "s.tsv", [self.HEADER])
        assert load_simlex(path) == []

    def test_bad_score_reports_row(self, tmp_path):
        path = write_lines(tmp_path / "s.tsv", [self.HEADER, "a\tb\tA\toops\t1"])
        with pytest.raises(CorpusFormatError, match=":2"):
            load_simlex(path)

    def test_missing_column(self, tmp_path):
        path = write_lines(tmp_path / "s.tsv", ["word1\tword2\tscore", "a\tb\t1"])
        with pytest.raises(CorpusFormatError, match="SimLex999"):
            load_simlex(path)


class TestLoadAnalogies:
    def test_parse_and_comments(self, tmp_path):
        path = write_lines(
            tmp_path / "a.txt",
            [": capital-common", "# a comment", "man king woman queen"],
        )
        quads = load_analogies(path)
        assert len(quads) == 1
        assert quads[0].d == "queen"

    def test_wrong_arity(self, tmp_path):
        path = write_lines(tmp_path / "a.txt", ["a b c"])
        with pytest.raises(CorpusFormatError, match="4 tokens"):
            load_analogies(path)


class TestLoadWordlist:
    def test_dedup_keeps_first(self, tmp_path):
        path = write_lines(tmp_path / "w.txt", ["the", "of", "the"])
        assert load_wordlist(path).tokens == ("the", "of")

    def test_single(self, tmp_path):
        path = write_lines(tmp_path / "w.txt", ["a"])
        assert load_wordlist(path).tokens == ("a",)

    def test_empty(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("")
        with pytest.raises(CorpusFormatError):
            load_wordlist(str(path))


class TestRestrict:
    def test_keeps_list_order(self, tiny_set):
        restricted, missing = restrict(tiny_set, WordList(("fox", "cat")))
        assert restricted.words == ("fox", "cat")
        assert missing == 0
        assert np.array_equal(restricted.vector("cat"), tiny_set.vector("cat"))

    def test_counts_missing(self, tiny_set):
        restricted, missing = restrict(tiny_set, WordList(("emu", "cat")))
        assert restricted.words == ("cat",)
        assert missing == 1

    def test_empty_result(self, tiny_set):
        with pytest.raises(EmptyResultError):
            restrict(tiny_set, WordList(("emu",)))

    def test_idempotent(self, tiny_set):
        wl = WordList(("dog", "cat", "emu"))
        once, _ = restrict(tiny_set, wl)
        twice, missing = restrict(once, wl)
        assert twice.words == once.words
        assert np.array_equal(twice.vectors, once.vectors)
        assert missing == 1
