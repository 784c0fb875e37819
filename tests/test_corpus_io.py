import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from word2spike import corpus_io
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
)

from conftest import write_lines


class TestLoadEmbeddings:
    def test_basic(self, tmp_path):
        path = write_lines(tmp_path / "e.txt", ["cat 1.0 0.0", "dog 0.0 1.0"])
        es = load_embeddings(path)
        assert es.dim == 2
        assert es.words == ("cat", "dog")
        assert np.array_equal(es.as_map()["cat"], [1.0, 0.0])

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

    # str.isdigit() holds for these, and int() reads "١٠ ٣" but not "²"
    @pytest.mark.parametrize("first", ["\u00b2 3", "\u0661\u0660 \u0663"], ids=["superscript", "arabic-indic"])
    def test_non_ascii_digits_are_data_not_a_header(self, tmp_path, first):
        path = write_lines(tmp_path / "e.txt", [first, "a 1"])
        es = load_embeddings(path)
        assert es.words == (first.split()[0], "a")
        assert np.array_equal(es.vectors, [[3.0], [1.0]])
        path = write_lines(tmp_path / "e.txt", [first, "a 1 2 3"])
        with pytest.raises(CorpusFormatError, match=f"^{path}:2: line has 3 values, expected 1$"):
            load_embeddings(path)

    # no header declares 0 dimensions
    @pytest.mark.parametrize("first", ["7 0", "0 0"])
    def test_a_count_0_line_is_data_not_a_header(self, tmp_path, first):
        path = write_lines(tmp_path / "e.txt", [first, "8 -1"])
        es = load_embeddings(path)
        assert es.words == (first.split()[0], "8")
        assert np.array_equal(es.vectors, [[0.0], [-1.0]])

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
        # shortest-repr floats name the exact binary value
        path.write_text(
            "".join(w + " " + " ".join(repr(float(v)) for v in row) + "\n" for w, row in zip(es.words, es.vectors)),
            encoding="utf-8",
        )
        back = load_embeddings(str(path))
        assert back.words == es.words
        assert np.array_equal(back.vectors, es.vectors)


# a valid file with single spaces, and then a few edits, each of which can
# send a block to the per-line loop
FLOAT_TEXTS = st.floats(allow_nan=False, allow_infinity=False, width=64).flatmap(
    lambda v: st.sampled_from([repr(v), f"{v:.6f}", f"{v:.3e}", f"{v:.17g}"])
)
ODD_VALUES = st.sampled_from(["-0", "+1", ".5", "5.", "1E3", "nan", "-NaN", "inf", "-Infinity", "1e999",
                              "1_000", "#", "x", "", "0x10", "\u0661", "\u00b2", "1\x00"])
SPACES = st.sampled_from(["  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028",
                          "\u3000"])
LINE_ENDS = st.sampled_from(["\r\n", "\r", " \n", "\t\n", "\u2029\n", "\x85\n"])


@st.composite
def embedding_texts(draw):
    """The text of an embedding file: rows of one dimension, sometimes a
    header, then edits that make odd values, other whitespace, blank
    lines, repeated tokens and other dimensions, anywhere in the file."""
    dim = draw(st.integers(1, 3))
    words = draw(st.lists(st.text(alphabet="abB#\u00e912", min_size=1, max_size=3), max_size=8, unique=True))
    # [lead, token, [separator + value, ..], end] per line
    rows = [["", word, [" " + draw(FLOAT_TEXTS) for _ in range(dim)], "\n"] for word in words]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        lead, token, values, end = row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["value", "space", "lead", "end", "dim", "repeat", "blank"]))
        at = draw(st.integers(0, len(values) - 1)) if values else 0
        if kind == "value" and values:
            values[at] = values[at][0] + draw(ODD_VALUES)
        elif kind == "space" and values:
            values[at] = draw(SPACES) + values[at][1:]
        elif kind == "lead":
            row[0] = draw(st.sampled_from([" ", "\t", "\u2028"]))
        elif kind == "end":
            row[3] = draw(LINE_ENDS)
        elif kind == "dim":
            row[2] = values[1:] if draw(st.booleans()) else values + [" 1"]
        elif kind == "repeat":
            row[1] = draw(st.sampled_from(rows))[1]
        else:
            rows.insert(rows.index(row), ["", draw(st.sampled_from(["", "  ", "\t"])), [], "\n"])
    header = draw(st.sampled_from(["", f"{len(words)} {dim}\n", f"{len(words)} {dim + 1}\n", "9 9\n",
                                   f"{len(words)}  {dim}\n", "\u00b2 3\n"]))
    text = header + "".join(lead + token + "".join(values) + end for lead, token, values, end in rows)
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


def load_outcome(path, lowercase):
    """The words and vectors of a file, or the text of its format error."""
    try:
        es = load_embeddings(path, lowercase=lowercase)
    except CorpusFormatError as exc:
        return str(exc)
    return es.words, es.vectors


class TestBulkParse:
    @settings(max_examples=400, deadline=None)
    @given(embedding_texts(), st.booleans(), st.sampled_from([1, 3, 7, corpus_io._BLOCK_CHARS]))
    def test_same_result_as_the_per_line_loop(self, tmp_path_factory, text, lowercase, block):
        path = tmp_path_factory.mktemp("bulk") / "e.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(corpus_io, "_BLOCK_CHARS", block):
            # np.loadtxt warns of input without data; no block reaches it so
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bulk = load_outcome(str(path), lowercase)
            with mock.patch.object(corpus_io, "_parse_plain_block", lambda *args: None):
                per_line = load_outcome(str(path), lowercase)
        if isinstance(per_line, str):
            assert bulk == per_line
        else:
            assert bulk[0] == per_line[0]
            # bit-equal, so -0.0 and 0.0 differ
            assert bulk[1].tobytes() == per_line[1].tobytes()

    def test_plain_block_is_parsed_in_bulk(self):
        lines = ["a 1 -0 2.5e-3\n", "B 1_0 3 4\n", "c 5 6 7"]
        assert _parse(lines) is None  # 1_000 is float() syntax that np.loadtxt refuses
        lines[1] = "B 10 3 4\n"
        tokens, values = _parse(lines, lowercase=True)
        assert tokens == ["a", "b", "c"]
        assert values.tobytes() == np.array([[1, -0.0, 2.5e-3], [10, 3, 4], [5, 6, 7]]).tobytes()

    @pytest.mark.parametrize("line", [
        "b 1\t2\n", "b 1\u20282\n", "b 1\xa02\n", "b 1  2\n", " b 1 2\n", "b 1 2 \n", "b\n", "b \n",
        " \n", "b 1 nan\n", "b 1 1e999\n", "a 1 2\n", "b 1\n", "b 1 x\n",
    ])
    def test_any_other_block_goes_line_by_line(self, line):
        assert _parse(["a 1 2\n", line]) is None

    def test_dimension_and_tokens_are_checked_against_earlier_blocks(self):
        assert _parse(["b 1 2\n"], dim=2) is not None
        assert _parse(["b 1 2\n"], dim=3) is None
        assert _parse(["b 1 2\n"], seen={"b"}) is None

    # str.split() breaks tokens at these, so the bulk parse must send them
    # to the per-line loop; universal newlines leave no "\r" in a line
    def test_whitespace_lists_hold_every_other_isspace_character(self):
        spaces = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
        assert set(corpus_io._ASCII_SPACES + corpus_io._UNICODE_SPACES) == spaces - {" ", "\n", "\r"}
        assert all(ch.isascii() for ch in corpus_io._ASCII_SPACES)
        assert not any(ch.isascii() for ch in corpus_io._UNICODE_SPACES)


def _parse(lines, lowercase=False, seen=(), dim=None):
    return corpus_io._parse_plain_block(lines, lowercase, set(seen), dim)


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

    @pytest.mark.parametrize("row, lowercase, word", [
        ("W1\tW1\tA\t3.0\t1", False, "W1"),
        ("W1\tw1\tA\t3.0\t1", True, "w1"),
    ], ids=["same", "same-lowercased"])
    def test_identical_words_name_their_line(self, tmp_path, row, lowercase, word):
        path = write_lines(tmp_path / "s.tsv", [self.HEADER, "old\tnew\tA\t1.58\t2.72", row])
        with pytest.raises(CorpusFormatError) as exc:
            load_simlex(path, lowercase=lowercase)
        assert str(exc.value) == f"{path}:3: similarity pair with identical words: {word!r}"

    def test_header_is_first_line_with_more_than_whitespace(self, tmp_path):
        path = write_lines(tmp_path / "s.tsv", [" ", self.HEADER, "", "W1\tw1\tA\t3.0\t1"])
        assert [(p.word_a, p.word_b) for p in load_simlex(path)] == [("W1", "w1")]
        path = write_lines(tmp_path / "s.tsv", ["\t", " "])
        with pytest.raises(CorpusFormatError, match="empty file"):
            load_simlex(path)

    # a file line ends at \n, \r or \r\n only, as in the other loaders, so
    # an error names the line an editor shows
    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_unicode_line_break_stays_inside_its_line(self, tmp_path, brk):
        path = tmp_path / "s.tsv"
        path.write_text(f"{self.HEADER}\r\nold\tnew\tA\t1.5\t2{brk}\nc\td\tA\toops\t1\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            load_simlex(str(path))
        assert str(exc.value) == f"{path}:3: unparsable number 'oops'"
        path.write_text(f"{self.HEADER}\rold\tnew\tA\t1.5\t{brk}2{brk}\r\nc\td\tA\t3\t1\n", encoding="utf-8")
        pairs = load_simlex(str(path))
        assert [(p.word_a, p.word_b, p.human_score) for p in pairs] == [("old", "new", 1.5), ("c", "d", 3.0)]


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


def with_bom(path):
    """A copy of the file at ``path`` that starts with a UTF-8 byte-order mark."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes("\ufeff".encode() + path.read_bytes())
    return str(copy)


def comparable(result):
    return (result.words, result.vectors.tolist()) if isinstance(result, EmbeddingSet) else result


class TestTextLines:
    def test_numbers_every_line_and_yields_those_with_more_than_whitespace(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("\ufeffa\r\n \t\x0c\u3000\n\rb\x0bc\r\ufeffd".encode())
        # only a leading mark is dropped; one inside the file is a character
        assert list(corpus_io._text_lines(str(path))) == [(1, "a\n"), (4, "b\x0bc\n"), (5, "\ufeffd")]

    READS = {
        "embeddings": (load_embeddings, ["cat 1.0 0.5", "dog -1 2"]),
        "embeddings with header": (load_embeddings, ["2 2", "cat 1.0 0.5", "dog -1 2"]),
        "simlex": (load_simlex, ["word1\tword2\tSimLex999", "old\tnew\t1.58"]),
        "analogies": (load_analogies, [": family", "man king woman queen"]),
        "wordlist": (load_wordlist, ["the", "of"]),
    }

    @pytest.mark.parametrize("name", sorted(READS))
    def test_bom_reads_like_no_bom(self, tmp_path, name):
        read, lines = self.READS[name]
        path = tmp_path / "f.txt"
        write_lines(path, lines)
        assert comparable(read(with_bom(path))) == comparable(read(str(path)))

    # each error is on a line after a blank one, which still counts
    ERRORS = {
        "embeddings": (load_embeddings, ["cat 1 2", "", "dog 1"], 3, "line has 1 values, expected 2"),
        "embeddings with header": (load_embeddings, ["2 2", " ", "cat 1 x"], 3, "unparsable number 'x'"),
        "simlex": (load_simlex, ["", "word1\tword2\tSimLex999", "\t", "a\tb\toops"], 4,
                   "unparsable number 'oops'"),
        "analogies": (load_analogies, [": family", "", "a b c"], 3, "expected 4 tokens, got 3"),
    }

    @pytest.mark.parametrize("name", sorted(ERRORS))
    def test_bom_keeps_error_line_numbers(self, tmp_path, name):
        read, lines, lineno, message = self.ERRORS[name]
        path = tmp_path / "f.txt"
        write_lines(path, lines)
        for target in (str(path), with_bom(path)):
            with pytest.raises(CorpusFormatError) as exc:
                read(target)
            assert str(exc.value) == f"{target}:{lineno}: {message}"

    @pytest.mark.parametrize("name", sorted(ERRORS))
    def test_file_closed_when_reader_raises(self, tmp_path, monkeypatch, name):
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(corpus_io, "open", tracking_open, raising=False)
        read, lines, _, _ = self.ERRORS[name]
        path = write_lines(tmp_path / "f.txt", lines)
        with pytest.raises(CorpusFormatError) as exc:
            read(path)
        # closed while the traceback still holds the reader's frame
        assert exc.traceback and len(opened) == 1 and opened[0].closed


class TestRestrict:
    def test_keeps_list_order(self, tiny_set):
        restricted, missing = restrict(tiny_set, WordList(("fox", "cat")))
        assert restricted.words == ("fox", "cat")
        assert missing == 0
        assert np.array_equal(restricted.vectors, tiny_set.vectors[[2, 0]])

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
