
import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import flatm
import oracles
from flatm import (
    InputFormatError,
    RawDocument,
    TermDocMatrix,
    TokenizerConfig,
    Vocabulary,
    build_matrix,
    default_stopwords,
    generate_synthetic,
    iter_corpus,
    load_corpus,
    load_stopwords,
    tokenize,
)
from flatm import corpus


class TestTokenize:
    def test_stopwords_and_short_tokens_dropped(self):
        assert tokenize("The patient has a fever.") == ["patient", "fever"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_short_and_numeric_dropped(self):
        assert tokenize("X 42") == []

    def test_lowercases_by_default(self):
        assert tokenize("Fever FEVER fever") == ["fever", "fever", "fever"]

    def test_no_lowercase_keeps_case(self):
        config = TokenizerConfig(lowercase=False, stopwords=frozenset())
        assert tokenize("Fever fever", config) == ["Fever", "fever"]

    def test_stopword_match_happens_after_lowercasing(self):
        assert tokenize("THE The the patient") == ["patient"]

    def test_min_token_length(self):
        config = TokenizerConfig(min_token_length=5, stopwords=frozenset())
        assert tokenize("scan kidney ct", config) == ["kidney"]

    def test_keep_numeric(self):
        config = TokenizerConfig(drop_numeric=False, stopwords=frozenset())
        assert tokenize("ward 42", config) == ["ward", "42"]

    def test_mixed_alphanumeric_kept(self):
        assert tokenize("c0w12 sw3") == ["c0w12", "sw3"]

    def test_punctuation_and_underscores_split(self):
        assert tokenize("knee-deep knee_deep") == ["knee", "deep", "knee", "deep"]

    def test_custom_stopwords(self):
        config = TokenizerConfig(stopwords=frozenset({"fever"}))
        assert tokenize("patient fever", config) == ["patient"]

    def test_min_token_length_validation(self):
        with pytest.raises(ValueError):
            TokenizerConfig(min_token_length=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_token_length", 2.5),
            ("min_token_length", 2.0),
            ("min_token_length", "2"),
            ("min_token_length", True),
            ("lowercase", "no"),
            ("lowercase", 0),
            ("lowercase", None),
            ("drop_numeric", 1),
            ("drop_numeric", "yes"),
        ],
    )
    def test_field_types_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            TokenizerConfig(**{field: value})

    def test_numpy_integer_length_becomes_int(self):
        config = TokenizerConfig(min_token_length=np.int64(3))
        assert type(config.min_token_length) is int
        assert tokenize("ab abc", config) == ["abc"]


# No filter: every raw token is kept, so tokenize gives the regex's tokens.
_UNFILTERED = {"min_token_length": 1, "drop_numeric": False, "stopwords": frozenset()}


@pytest.mark.parametrize("lowercase", [True, False])
def test_every_pair_of_ascii_characters_tokenizes_as_the_regex(lowercase):
    # Each pair sits beside letters of both cases, digits and underscores.
    config = TokenizerConfig(lowercase=lowercase, **_UNFILTERED)
    ascii = [chr(i) for i in range(128)]
    for a in ascii:
        for b in ascii:
            text = f"Aa{a}{b}9_{a}Z{b}0{a}{b}_b"
            want = oracles.reference_tokens(text, config)
            assert tokenize(text, config) == want, repr(text)


# Characters that lowercase to ASCII or to more than one character, that
# are whitespace or a word character only outside ASCII, or are an ASCII
# separator that is not a space.
_EDGE_CHARACTERS = ["\u212a", "\u0130", "\xa0", "\x85", "\u2028", "\xb2", "\x1c"]
_ASCII_TEXT = st.text(alphabet=st.characters(max_codepoint=127))
_ANY_TEXT = st.lists(
    st.one_of(st.text(max_size=6), _ASCII_TEXT, st.sampled_from(_EDGE_CHARACTERS)),
    max_size=8,
).map("".join)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(text=st.one_of(_ASCII_TEXT, _ANY_TEXT), lowercase=st.booleans())
def test_tokens_equal_the_regex_on_any_text(text, lowercase):
    config = TokenizerConfig(lowercase=lowercase, **_UNFILTERED)
    assert tokenize(text, config) == oracles.reference_tokens(text, config)


class TestStopwordFiles:
    def test_defaults_include_function_words(self):
        words = default_stopwords()
        assert {"the", "has", "a", "of"} <= words
        assert "patient" not in words

    def test_default_configs_read_the_bundled_file_once(self, monkeypatch):
        parse, calls = corpus._parse_stopwords, []

        def counting(lines):
            calls.append(None)
            return parse(lines)

        monkeypatch.setattr(corpus, "_parse_stopwords", counting)
        default_stopwords.cache_clear()
        first, second = TokenizerConfig(), TokenizerConfig()
        assert len(calls) == 1
        assert first.stopwords is second.stopwords

    def test_load_file_with_comments(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# comment\nfoo\n\nbar\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"foo", "bar"})

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_bytes("\ufeffthe\nand\n".encode("utf-8"))
        words = load_stopwords(path)
        assert words == frozenset({"the", "and"})
        config = TokenizerConfig(stopwords=words)
        assert tokenize("the fever and", config) == ["fever"]


class TestLoadCorpus:
    def test_dir_of_txt_sorted_by_path(self, tmp_path):
        (tmp_path / "b.txt").write_text("beta text", encoding="utf-8")
        (tmp_path / "a.txt").write_text("alpha text", encoding="utf-8")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.txt").write_text("gamma text", encoding="utf-8")
        docs = load_corpus(tmp_path, "dir-of-txt")
        assert [d.doc_id for d in docs] == ["a", "b", "c"]
        assert docs[0].text == "alpha text"
        assert all(d.label is None for d in docs)

    def test_dir_of_txt_duplicate_stem_rejected(self, tmp_path):
        (tmp_path / "a.txt").write_text("one", encoding="utf-8")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "a.txt").write_text("two", encoding="utf-8")
        with pytest.raises(InputFormatError, match="duplicate"):
            load_corpus(tmp_path, "dir-of-txt")

    def test_dir_of_txt_on_file_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("text", encoding="utf-8")
        with pytest.raises(InputFormatError, match="not a directory"):
            load_corpus(path, "dir-of-txt")

    def test_labeled_tsv(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text(
            "surgery\tknee arthroscopy note\ncardio\tstress test\n",
            encoding="utf-8",
        )
        docs = load_corpus(path, "labeled-tsv")
        assert [(d.doc_id, d.label) for d in docs] == [
            ("1", "surgery"),
            ("2", "cardio"),
        ]
        assert docs[0].text == "knee arthroscopy note"

    def test_labeled_tsv_missing_tab_names_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("surgery\tfine\nbroken line\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="line 2"):
            load_corpus(path, "labeled-tsv")

    def test_labeled_tsv_text_may_contain_tabs(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("surgery\tknee\tnote\n", encoding="utf-8")
        docs = load_corpus(path, "labeled-tsv")
        assert docs[0].text == "knee\tnote"

    def test_lines_format(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("first doc\nsecond doc\n", encoding="utf-8")
        docs = load_corpus(path, "lines")
        assert [d.doc_id for d in docs] == ["1", "2"]
        assert docs[1].text == "second doc"

    def test_only_line_feeds_separate_documents(self, tmp_path):
        # Form feeds (common in text extracted from PDFs), vertical tabs,
        # \x1c-\x1e, NEL and U+2028/U+2029 stay inside their line.
        inside = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        path = tmp_path / "corpus.txt"
        path.write_text(
            "alpha beta\x0cgamma delta\r\nepsilon zeta\n", encoding="utf-8"
        )
        docs = load_corpus(path, "lines")
        assert [(d.doc_id, d.text) for d in docs] == [
            ("1", "alpha beta\x0cgamma delta"),
            ("2", "epsilon zeta"),
        ]
        for char in inside:
            path.write_text(f"one{char}two\nthree\n", encoding="utf-8")
            assert [d.text for d in load_corpus(path, "lines")] == [
                f"one{char}two",
                "three",
            ], repr(char)
        tsv = tmp_path / "corpus.tsv"
        tsv.write_text(
            "renal\tkidney\u2028stone\ncardio\tstress\x0ctest\r\n",
            encoding="utf-8",
        )
        docs = load_corpus(tsv, "labeled-tsv")
        assert [(d.doc_id, d.label, d.text) for d in docs] == [
            ("1", "renal", "kidney\u2028stone"),
            ("2", "cardio", "stress\x0ctest"),
        ]

    @pytest.mark.parametrize(
        "format, files",
        [
            ("labeled-tsv", {"corpus.tsv": "class0\tknee note\nclass1\tstress test\n"}),
            ("lines", {"corpus.txt": "knee note\nstress test\n"}),
            ("dir-of-txt", {"a.txt": "knee note", "b.txt": "stress test"}),
        ],
    )
    def test_byte_order_mark_skipped(self, tmp_path, format, files):
        loaded = []
        for name, bom in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            root = tmp_path / name
            root.mkdir()
            for file, text in files.items():
                (root / file).write_bytes(bom + text.encode("utf-8"))
            path = root if format == "dir-of-txt" else root / next(iter(files))
            loaded.append(load_corpus(path, format))
        assert loaded[1] == loaded[0]

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("", encoding="utf-8")
        assert load_corpus(path, "lines") == []

    @pytest.mark.parametrize("blank", ["   ", "\x85\u2028"])
    def test_empty_document_rejected_unless_allowed(self, tmp_path, blank):
        path = tmp_path / "corpus.txt"
        path.write_text(f"first\n{blank}\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match="line 2"):
            load_corpus(path, "lines")
        docs = load_corpus(path, "lines", allow_empty=True)
        assert len(docs) == 2

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown corpus format"):
            load_corpus(tmp_path, "parquet")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_corpus(tmp_path / "nope.tsv", "lines")


class TestIterCorpus:
    def test_path_and_format_checked_at_the_call(self, tmp_path):
        with pytest.raises(InputFormatError, match="not a file"):
            iter_corpus(tmp_path / "nope.txt", "lines")
        with pytest.raises(InputFormatError, match="not a directory"):
            iter_corpus(tmp_path / "nope", "dir-of-txt")
        with pytest.raises(ValueError, match="unknown corpus format"):
            iter_corpus(tmp_path, "parquet")

    def test_documents_before_a_bad_line_are_yielded(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("renal\tkidney stone\nno tab\n", encoding="utf-8")
        docs = iter_corpus(path, "labeled-tsv")
        assert next(docs) == RawDocument("1", "kidney stone", "renal")
        with pytest.raises(InputFormatError, match="line 2"):
            next(docs)

    def test_dir_of_txt_matches_sorted_files(self, tmp_path):
        for name, text in (("b.txt", "beta"), ("a.txt", "\ufeffalpha\r\n")):
            (tmp_path / name).write_bytes(text.encode("utf-8"))
        docs = list(iter_corpus(tmp_path, "dir-of-txt"))
        assert docs == [RawDocument("a", "alpha\n"), RawDocument("b", "beta")]

    @pytest.mark.parametrize("filler", ["x", "\u00e9", "\u20ac"])
    def test_line_break_across_read_buffer_matches_whole_file_reader(
        self, tmp_path, filler
    ):
        # Text files are decoded in blocks of 8192 bytes; a \r\n split
        # between two blocks is still one line break.
        path = tmp_path / "corpus.txt"
        for size in range(8186, 8196):
            head = filler * (size // len(filler.encode("utf-8")))
            path.write_text(
                head + "\r\nsecond\rthird\r", encoding="utf-8", newline=""
            )
            texts = [d.text for d in iter_corpus(path, "lines")]
            assert texts == oracles.reference_lines(path), size
            assert texts[1:] == ["second", "third"]


# Line breaks of every kind, characters that look like one, a mark that is a
# byte-order mark only at the start, a tab for labeled-tsv, and text.
_LINE_PIECES = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029",
    "\ufeff", "\t", " ", "knee", "kidney stone",
]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    pieces=st.lists(st.sampled_from(_LINE_PIECES), max_size=25),
    bom=st.booleans(),
)
def test_streamed_lines_match_whole_file_reader(tmp_path_factory, pieces, bom):
    path = tmp_path_factory.getbasetemp() / "streamed.txt"
    path.write_bytes(b"\xef\xbb\xbf" * bom + "".join(pieces).encode("utf-8"))
    lines = oracles.reference_lines(path)
    docs = list(iter_corpus(path, "lines", allow_empty=True))
    assert [(d.doc_id, d.text, d.label) for d in docs] == [
        (str(i), line, None) for i, line in enumerate(lines, start=1)
    ]
    # A labeled line needs a tab after a non-empty label.
    bad = [
        i for i, line in enumerate(lines, start=1) if not all(line.partition("\t")[:2])
    ]
    labeled = iter_corpus(path, "labeled-tsv", allow_empty=True)
    if bad:
        with pytest.raises(InputFormatError, match=f"line {bad[0]}: "):
            list(labeled)
    else:
        assert [(d.label, d.text) for d in labeled] == [
            tuple(line.split("\t", 1)) for line in lines
        ]


def _parsed_blocks(path, format, allow_empty):
    """The documents of :func:`corpus._read_blocks`'s blocks, parsed in
    order, and the error that ended them, if any."""
    docs = []
    try:
        for block in corpus._read_blocks(path, format, allow_empty):
            docs += corpus._parse_block(block)
    except InputFormatError as exc:
        return docs, str(exc)
    return docs, None


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    pieces=st.lists(
        st.sampled_from(_LINE_PIECES + ["", "na\u00efve", "\u533b\u9662"]), max_size=30
    ),
    bom=st.booleans(),
    size=st.integers(1, 5),
)
def test_blocks_parse_to_the_whole_file_reader(tmp_path_factory, pieces, bom, size):
    path = tmp_path_factory.getbasetemp() / "blocks.txt"
    path.write_bytes(b"\xef\xbb\xbf" * bom + "".join(pieces).encode("utf-8"))
    lines = oracles.reference_lines(path)
    with mock.patch.object(corpus, "_CHUNK_DOCS", size):
        blocks = list(corpus._read_blocks(path, "lines", True))
        assert [len(b.items) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
        docs, error = _parsed_blocks(path, "lines", True)
        assert error is None
        assert [(d.doc_id, d.text, d.label) for d in docs] == [
            (str(i), line, None) for i, line in enumerate(lines, start=1)
        ]
        docs, error = _parsed_blocks(path, "labeled-tsv", True)
    # Up to the first line without a tab after a non-empty label.
    good = list(itertools.takewhile(lambda line: all(line.partition("\t")[:2]), lines))
    assert [(d.doc_id, d.label, d.text) for d in docs] == [
        (str(i), *line.split("\t", 1)) for i, line in enumerate(good, start=1)
    ]
    if len(good) < len(lines):
        with pytest.raises(InputFormatError) as serial:
            load_corpus(path, "labeled-tsv", allow_empty=True)
        assert error == str(serial.value)
        assert f"line {len(good) + 1}: " in error
    else:
        assert error is None


def test_empty_file_ahead_of_a_duplicate_id_in_one_block(tmp_path):
    for name, text in (("d/a.txt", "renal"), ("d/b.txt", " \n"), ("e/a.txt", "colic")):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(InputFormatError) as serial:
        load_corpus(tmp_path, "dir-of-txt")
    assert str(serial.value).endswith("b.txt: empty document")
    with mock.patch.object(corpus, "_CHUNK_DOCS", 4):
        docs, error = _parsed_blocks(tmp_path, "dir-of-txt", False)
    assert docs == [RawDocument("a", "renal")]
    assert error == str(serial.value)
    # Empty documents allowed, the duplicate is the first fault.
    with mock.patch.object(corpus, "_CHUNK_DOCS", 4):
        docs, error = _parsed_blocks(tmp_path, "dir-of-txt", True)
    assert [d.doc_id for d in docs] == ["a", "b"]
    assert error.startswith("duplicate document id 'a'")


class TestVocabulary:
    def test_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            Vocabulary(terms=("b", "a"))
        with pytest.raises(ValueError):
            Vocabulary(terms=("a", "a"))

    def test_requires_string_terms(self):
        # Sorted and unique, but no token can ever match a number.
        with pytest.raises(ValueError, match="strings"):
            Vocabulary((1, 2))

    def test_index_and_contains(self):
        vocab = Vocabulary(terms=("cat", "dog"))
        assert vocab.index == {"cat": 0, "dog": 1}
        assert "cat" in vocab
        assert "fox" not in vocab
        assert len(vocab) == 2


def _docs(*texts: str) -> list[RawDocument]:
    return [RawDocument(doc_id=str(i + 1), text=t) for i, t in enumerate(texts)]


def _matrix(docs, vocabulary, config=None, min_df=1):
    """``build_matrix``'s result or, given a ``vocabulary``, the documents
    counted and mapped onto it as fold-in maps them."""
    if vocabulary is None:
        return build_matrix(docs, config, min_df)
    config = config or TokenizerConfig()
    return corpus._count_documents(docs, config).matrix(min_df, vocabulary)


class TestBuildMatrix:
    def test_counts_exact(self):
        vocab, tdm = build_matrix(_docs("cat dog", "dog dog"))
        assert vocab.terms == ("cat", "dog")
        np.testing.assert_array_equal(
            tdm.counts.toarray(), [[1.0, 0.0], [1.0, 2.0]]
        )
        assert tdm.doc_ids == ("1", "2")

    def test_vocabulary_lexicographic(self):
        vocab, _ = build_matrix(_docs("zebra ant mole", "ant yak"))
        assert vocab.terms == ("ant", "mole", "yak", "zebra")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_matrix([])

    def test_all_stopword_corpus_rejected(self):
        with pytest.raises(ValueError, match="tokenized to nothing"):
            build_matrix(_docs("the of and", "has was"))

    def test_some_empty_documents_allowed(self):
        vocab, tdm = build_matrix(_docs("cat dog", "the of"))
        assert np.asarray(tdm.counts.sum(axis=0)).ravel().tolist() == [2.0, 0.0]

    def test_min_df_prunes_rare_terms(self):
        docs = _docs("cat dog", "cat fox", "cat dog")
        vocab, tdm = build_matrix(docs, min_df=2)
        assert vocab.terms == ("cat", "dog")

    def test_min_df_validation(self):
        with pytest.raises(ValueError):
            build_matrix(_docs("cat dog"), min_df=0)

    def test_min_df_that_prunes_every_term_is_named(self):
        with pytest.raises(
            ValueError, match="^no term is in at least 3 documents; no vocabulary$"
        ):
            build_matrix(_docs("cat dog", "cat fox"), min_df=3)

    def test_column_sums_match_token_counts(self):
        rng = np.random.default_rng(42)
        pool = [f"w{t}" for t in range(30)]
        docs = []
        for i in range(25):
            length = int(rng.integers(3, 40))
            words = [pool[int(p)] for p in rng.integers(0, len(pool), length)]
            docs.append(RawDocument(doc_id=str(i), text=" ".join(words)))
        config = TokenizerConfig(stopwords=frozenset())
        vocab, tdm = build_matrix(docs, config)
        col_sums = np.asarray(tdm.counts.sum(axis=0)).ravel()
        expected = [len(tokenize(d.text, config)) for d in docs]
        np.testing.assert_array_equal(col_sums, expected)

    def test_document_permutation_permutes_columns(self):
        docs = _docs("cat dog", "dog dog fox", "fox cat")
        vocab_a, tdm_a = build_matrix(docs)
        vocab_b, tdm_b = build_matrix(docs[::-1])
        assert vocab_a.terms == vocab_b.terms
        np.testing.assert_array_equal(
            tdm_a.counts.toarray(), tdm_b.counts.toarray()[:, ::-1]
        )

    def test_rebuild_is_identical(self):
        docs = _docs("cat dog", "dog dog fox")
        _, tdm_a = build_matrix(docs)
        _, tdm_b = build_matrix(docs)
        assert (tdm_a.counts != tdm_b.counts).nnz == 0

    def test_vocabulary_counts_only_its_terms(self):
        vocab = Vocabulary(terms=("cat", "dog", "yak"))
        docs = _docs("dog cat fox dog", "", "fox owl", "yak")
        got_vocab, tdm = _matrix(docs, vocab)
        assert got_vocab is vocab
        np.testing.assert_array_equal(
            tdm.counts.toarray(),
            [[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        )
        assert tdm.tokens.tolist() == [4, 0, 2, 1]
        assert tdm.doc_ids == ("1", "2", "3", "4")

    def test_vocabulary_ignores_min_df_and_allows_no_documents(self):
        vocab = Vocabulary(terms=("cat",))
        _, tdm = _matrix(_docs("cat"), vocab, min_df=5)
        assert tdm.counts.toarray().tolist() == [[1.0]]
        _, empty = _matrix([], vocab)
        assert empty.counts.shape == (1, 0)
        assert empty.tokens.shape == (0,)

    def test_token_totals_include_pruned_terms(self):
        docs = _docs("cat dog", "cat fox fox", "cat dog")
        vocab, tdm = build_matrix(docs, min_df=2)
        assert vocab.terms == ("cat", "dog")
        assert tdm.tokens.tolist() == [2, 3, 2]
        assert np.asarray(tdm.counts.sum(axis=0)).ravel().tolist() == [2, 1, 2]

    def test_own_vocabulary_reproduces_the_matrix(self):
        docs = _docs("cat dog", "dog dog fox", "fox cat yak", "the of")
        vocab, tdm = build_matrix(docs)
        _, again = _matrix(docs, vocab)
        assert (tdm.counts != again.counts).nnz == 0
        np.testing.assert_array_equal(tdm.tokens, again.tokens)

    def test_token_totals_default_to_column_sums(self):
        counts = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
        tdm = TermDocMatrix(counts=counts, doc_ids=("a", "b"))
        assert tdm.tokens.tolist() == [3, 3]


def _same_result(got, want):
    (got_vocab, got_tdm), (want_vocab, want_tdm) = got, want
    assert got_vocab == want_vocab
    assert got_tdm.counts.shape == want_tdm.counts.shape
    assert got_tdm.doc_ids == want_tdm.doc_ids
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got_tdm.counts, name), getattr(want_tdm.counts, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got_tdm.tokens.dtype == want_tdm.tokens.dtype
    assert got_tdm.tokens.tobytes() == want_tdm.tokens.tobytes()


class TestBuildMatrixStream:
    """A one-shot stream of documents gives the matrix of the same list."""

    @pytest.mark.parametrize("docs_per_class", [3, 400])
    @pytest.mark.parametrize("own_vocabulary", [False, True])
    def test_generator_equals_list(self, docs_per_class, own_vocabulary):
        docs = generate_synthetic(
            seed=9, n_classes=4, vocab_per_class=60, docs_per_class=docs_per_class,
            doc_length=50, overlap_fraction=0.2,
        )
        if docs_per_class > 3:
            raw = sum(len(doc.text.split()) for doc in docs)
            assert raw > corpus._BLOCK_TOKENS
        # A vocabulary of half the documents leaves terms of the rest out.
        vocabulary = build_matrix(docs[::2])[0] if own_vocabulary else None
        want = _matrix(docs, vocabulary, min_df=2)
        got = _matrix((doc for doc in docs), vocabulary, min_df=2)
        _same_result(got, want)

    def test_empty_stream(self):
        with pytest.raises(ValueError, match="corpus is empty"):
            build_matrix(iter([]))
        vocab = Vocabulary(terms=("cat", "dog"))
        got = _matrix(iter([]), vocab)
        assert got[0] is vocab
        assert got[1].counts.shape == (2, 0)
        _same_result(got, _matrix([], vocab))


# Words that exercise the tokenizer: stop-words, digits, mixed case,
# underscores, non-ASCII letters.
_WORDS = st.sampled_from(
    [
        "The", "the", "and", "fever", "Fever", "FEVER", "kidney", "naïve",
        "Straße", "x_ray", "c3po", "42", "2024", "a", "ct", "édema", "Édema",
        "ß", "ΔΣ", "医院",
    ]
)
_SEPARATORS = st.sampled_from([" ", "  ", "\r\n", "\t", ", ", "-", "_", ". "])
_TEXTS = st.lists(
    st.one_of(_WORDS, st.text(max_size=6)), max_size=25
).flatmap(
    lambda words: st.lists(
        _SEPARATORS, min_size=len(words), max_size=len(words)
    ).map(lambda seps: "".join(w + s for w, s in zip(words, seps)))
)


def _same_as_oracle(vocab, tdm, reference):
    terms, data, indices, indptr, tokens = reference
    assert vocab.terms == terms
    for got, want in (
        (tdm.counts.data, data),
        (tdm.counts.indices, indices),
        (tdm.counts.indptr, indptr),
        (tdm.tokens, tokens),
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(
    texts=st.lists(_TEXTS, max_size=6),
    vocab_texts=st.lists(_TEXTS, min_size=1, max_size=4),
    lowercase=st.booleans(),
    min_token_length=st.integers(1, 3),
    drop_numeric=st.booleans(),
    min_df=st.integers(1, 3),
)
def test_vocabulary_counts_equal_counter_of_tokens(
    texts, vocab_texts, lowercase, min_token_length, drop_numeric, min_df
):
    config = TokenizerConfig(
        lowercase=lowercase,
        min_token_length=min_token_length,
        drop_numeric=drop_numeric,
    )
    docs = _docs(*texts)
    reference = oracles.reference_count_matrix(texts, config, min_df)
    if reference[0]:
        _same_as_oracle(*build_matrix(docs, config, min_df=min_df), reference)
    else:
        with pytest.raises(ValueError):
            build_matrix(docs, config, min_df=min_df)
    # A stop-word, a term too short for min_token_length 2 and 3, and a
    # numeral: the filter drops each of them before the vocabulary is seen.
    never = {"the", "x", "42"}
    terms = {t for text in vocab_texts for t in oracles.reference_tokens(text, config)}
    vocab = Vocabulary(terms=tuple(sorted(terms | never | {"fever"})))
    got_vocab, tdm = _matrix(docs, vocab, config, min_df)
    assert got_vocab is vocab
    _same_as_oracle(
        vocab, tdm, oracles.reference_count_matrix(texts, config, terms=vocab.terms)
    )
    dropped = [t for t in never if not oracles.reference_tokens(t, config)]
    assert "the" in dropped
    for term in dropped:
        assert tdm.counts[vocab.index[term]].nnz == 0
    for text in texts:
        assert tokenize(text, config) == oracles.reference_tokens(text, config)


# Terms of _WORDS as the default tokenizer gives them, for a given vocabulary.
_SOME_TERMS = Vocabulary(
    terms=tuple(
        sorted({"c3po", "ct", "fever", "kidney", "naïve", "straße", "édema", "δσ"})
    )
)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(
    texts=st.lists(_TEXTS, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), max_size=10),
    min_df=st.integers(1, 2),
    own_vocabulary=st.booleans(),
)
def test_selected_columns_map_to_rows_as_build_matrix(
    texts, picks, min_df, own_vocabulary
):
    # The corpus is counted once; any selection of its columns, in any
    # order and with repeats, maps to the bits build_matrix gives those
    # documents, and leaves the counted corpus as it was.
    docs = _docs(*texts)
    config = TokenizerConfig()
    vocabulary = _SOME_TERMS if own_vocabulary else None
    counted = corpus._count_documents(docs, config)
    for indices in (picks, picks[::-1]):
        indices = [i % len(docs) for i in indices]
        selection = counted.columns(indices)
        try:
            want = _matrix([docs[i] for i in indices], vocabulary, config, min_df)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                selection.matrix(min_df, vocabulary)
            assert str(raised.value) == str(exc)
            continue
        got = selection.matrix(min_df, vocabulary)
        if own_vocabulary:
            assert got[0] is vocabulary
        _same_result(got, want)


@pytest.mark.parametrize("lowercase", [True, False])
def test_ascii_and_other_documents_counted_in_one_block(lowercase):
    # ASCII documents are split by translate, the others by the regex; here
    # they are interleaved in one counting block.
    texts = [
        "Fever, kidney_stone (CT) 42",
        "Fi\u00e8vre FEVER na\u00efve \u212aelvin 37\u00b0C",
        "x-ray:KIDNEY\tfever",
        "Stra\u00dfe\xa0fever\u2028Kidney \u0130stanbul",
        "",
        "kidney_Fever",
    ]
    assert sum(len(t.split()) for t in texts) < corpus._BLOCK_TOKENS
    config = TokenizerConfig(lowercase=lowercase)
    reference = oracles.reference_count_matrix(texts, config)
    vocab, tdm = build_matrix(_docs(*texts), config)
    _same_as_oracle(vocab, tdm, reference)
    _same_as_oracle(
        vocab,
        _matrix(_docs(*texts), vocab, config)[1],
        oracles.reference_count_matrix(texts, config, terms=vocab.terms),
    )


def test_filter_sees_each_distinct_token_once_per_call(monkeypatch):
    seen = []
    kept_tokens = corpus._kept_tokens

    def recording(tokens, config):
        tokens = list(tokens)
        seen.extend(tokens)
        return kept_tokens(tokens, config)

    monkeypatch.setattr(corpus, "_kept_tokens", recording)
    texts = ["Fever the fever FEVER 42 x", "kidney fever the", "", "kidney stone"]
    # Each distinct raw token once, in the order it was first met.
    raw = list(dict.fromkeys(t for text in texts for t in text.lower().split()))
    vocab, _ = build_matrix(_docs(*texts))
    assert seen == raw
    assert vocab.terms == ("fever", "kidney", "stone")
    seen.clear()
    _matrix(_docs(*texts), vocab)
    assert seen == raw


# Enough distinct tokens in one document that a set of them is all but sure
# to iterate in another order than they were met.
_FIRST_MET_TEXTS = [
    "renal colic kidney stone fever ache biopsy nephron urea scan ultrasound",
    "fever lithotripsy kidney stent creatinine renal dialysis",
]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_terms_are_in_first_met_order_at_any_hash_seed(hash_seed):
    # String hashes change with PYTHONHASHSEED, so the order of a set of
    # tokens does; the codes, and so the term list, must not.
    script = (
        "import sys\n"
        "from flatm import RawDocument, TokenizerConfig\n"
        "from flatm.corpus import _count_documents\n"
        "docs = [RawDocument(str(i), t) for i, t in enumerate(sys.argv[1:])]\n"
        "print(' '.join(_count_documents(docs, TokenizerConfig()).terms))\n"
    )
    path = [str(Path(flatm.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, path)),
        PYTHONHASHSEED=hash_seed,
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *_FIRST_MET_TEXTS],
        capture_output=True, text=True, env=env, check=True,
    )
    first_met = dict.fromkeys(t for text in _FIRST_MET_TEXTS for t in tokenize(text))
    assert proc.stdout.split() == list(first_met)
