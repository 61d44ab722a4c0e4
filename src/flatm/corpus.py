"""Corpus loading, tokenization, and term-document count matrices.

Documents come in as raw text, leave as a sparse matrix of exact term
counts ``f`` with shape (n_terms, n_docs): rows are vocabulary terms in
lexicographic order, columns are documents in input order.
"""

from __future__ import annotations

import functools
import importlib.resources
import itertools
import re
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np
import scipy.sparse as sp

from .fcm import SettingError, _checked, _require

__all__ = [
    "InputFormatError",
    "RawDocument",
    "TokenizerConfig",
    "Vocabulary",
    "TermDocMatrix",
    "default_stopwords",
    "load_stopwords",
    "tokenize",
    "iter_corpus",
    "load_corpus",
    "build_matrix",
]

CORPUS_FORMATS = ("dir-of-txt", "labeled-tsv", "lines")

_T = TypeVar("_T")

# Runs of word characters, underscore excluded. Unicode-aware.
_TOKEN_RE = re.compile(r"[^\W_]+")
# str.translate tables for ASCII text: letters and digits stay, every other
# character becomes a space; the second also maps A-Z to a-z.
_ASCII_SPACED = "".join(c if c.isalnum() else " " for c in map(chr, range(128)))
_ASCII_SPACED_LOWER = _ASCII_SPACED.lower()


class InputFormatError(Exception):
    """Input data is malformed: bad TSV line, duplicate ids, empty text."""


@dataclass(frozen=True)
class RawDocument:
    """One input document before tokenization.

    ``label`` is optional; classification protocols require it, everything
    else ignores it. A field of another type raises :class:`SettingError`
    naming it, so a bad document fails before any work is done on it.
    """

    doc_id: str
    text: str
    label: str | None = None

    def __post_init__(self) -> None:
        _checked("doc_id", self.doc_id, str)
        _checked("text", self.text, str)
        if self.label is not None:
            _checked("label", self.label, str)


@functools.cache
def default_stopwords() -> frozenset[str]:
    """Return the bundled English stop-word list, read once per process."""
    data = importlib.resources.files("flatm").joinpath("stopwords.txt")
    return _parse_stopwords(data.read_text(encoding="utf-8").splitlines())


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a stop-word file: UTF-8, one word per line, '#' comments allowed.

    A leading byte-order mark is skipped.
    """
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    return _parse_stopwords(lines)


def _parse_stopwords(lines: Iterable[str]) -> frozenset[str]:
    words = set()
    for line in lines:
        word = line.strip()
        if not word or word.startswith("#"):
            continue
        words.add(word)
    return frozenset(words)


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenizer knobs.

    Tokens are maximal runs of word characters (underscore excluded).
    Filters apply after optional lowercasing, in this order: minimum
    length, purely-numeric drop, stop-word removal. Stop-word entries are
    matched against the (possibly lowercased) token text verbatim.
    """

    lowercase: bool = True
    min_token_length: int = 2
    drop_numeric: bool = True
    stopwords: frozenset[str] = field(default_factory=default_stopwords)

    def __post_init__(self) -> None:
        _require(self, int, "min_token_length")
        _require(self, bool, "lowercase", "drop_numeric")
        _require(self, frozenset, "stopwords")
        for word in self.stopwords:
            _checked("stopwords", word, str)
        if self.min_token_length < 1:
            raise SettingError("min_token_length must be >= 1")


def tokenize(text: str, config: TokenizerConfig | None = None) -> list[str]:
    """Split ``text`` into filtered tokens. Deterministic, order-preserving.

    Raw tokens are the maximal runs of characters for which
    ``str.isalnum`` holds (``_TOKEN_RE``), found by one ``str.translate``
    and split when the text is ASCII and by the regex otherwise.
    ``build_matrix`` applies the same filter, but once per distinct token
    of a call rather than once per occurrence.
    """
    if config is None:
        config = TokenizerConfig()
    return _kept_tokens(_raw_tokens(text, config), config)


def _raw_tokens(text: str, config: TokenizerConfig) -> list[str]:
    """Tokens of ``text`` before the filter, after optional lowercasing.

    ASCII text (``str.isascii`` reads a flag, so the check is O(1)) is
    copied once by ``str.translate`` and split at spaces; any other text is
    lowercased if asked and matched by ``_TOKEN_RE``. Both give the same
    tokens: on ASCII text the regex matches exactly the runs of A-Z, a-z
    and 0-9, and ``str.lower`` maps only A-Z. The check is made on the text
    as given, so text that only lowercases to ASCII (U+212A KELVIN SIGN
    becomes ``k``) takes the regex.
    """
    if text.isascii():
        table = _ASCII_SPACED_LOWER if config.lowercase else _ASCII_SPACED
        return text.translate(table).split()
    return _TOKEN_RE.findall(text.lower() if config.lowercase else text)


def _kept_tokens(tokens: Iterable[str], config: TokenizerConfig) -> list[str]:
    """The filter rule: ``tokens`` that pass it, in order."""
    n, drop_numeric, stopwords = (
        config.min_token_length,
        config.drop_numeric,
        config.stopwords,
    )
    return [
        token
        for token in tokens
        if len(token) >= n
        and not (drop_numeric and token.isdigit())
        and token not in stopwords
    ]


@dataclass(frozen=True)
class Vocabulary:
    """Immutable string term list in lexicographic order with a reverse index."""

    terms: tuple[str, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(term, str) for term in self.terms):
            raise ValueError("vocabulary terms must be strings")
        if list(self.terms) != sorted(set(self.terms)):
            raise ValueError("vocabulary terms must be unique and sorted")

    @cached_property
    def index(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index


@dataclass(frozen=True)
class TermDocMatrix:
    """Sparse term-document count matrix.

    ``counts`` is CSR with shape (n_terms, n_docs) and float64 values that
    are exact nonnegative integers. Row order matches the vocabulary,
    column order matches ``doc_ids``. ``tokens`` holds each document's
    filtered token total, counted or not; a column's out-of-vocabulary
    tokens are ``tokens`` minus its column sum. It defaults to the column
    sums, i.e. no token left out.
    """

    counts: sp.csr_matrix
    doc_ids: tuple[str, ...]
    tokens: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.counts.shape[1] != len(self.doc_ids):
            raise ValueError("column count does not match doc_ids")
        if self.tokens is None:
            column_sums = np.asarray(self.counts.sum(axis=0)).ravel()
            object.__setattr__(self, "tokens", column_sums.astype(np.int64))
        elif len(self.tokens) != len(self.doc_ids):
            raise ValueError("token totals do not match doc_ids")

    @property
    def n_docs(self) -> int:
        return self.counts.shape[1]


def iter_corpus(
    path: str | Path,
    format: str = "dir-of-txt",
    allow_empty: bool = False,
) -> Iterator[RawDocument]:
    """Read documents from disk one at a time.

    Formats:
      * ``dir-of-txt``: every ``*.txt`` under ``path`` (recursive), one
        document per file, id = file stem, files in sorted path order.
      * ``labeled-tsv``: one ``label<TAB>text`` line per document,
        ids are 1-based line numbers.
      * ``lines``: one unlabeled document per line, same ids.

    Files are UTF-8; a leading byte-order mark is skipped. Empty
    documents raise ``InputFormatError`` unless ``allow_empty``. An empty
    directory or file yields nothing, not an error.

    The format, and whether ``path`` is a file or directory as the format
    needs, are checked at the call; everything else as the documents are
    read. Only one document's text, and for ``dir-of-txt`` the file list
    and the ids seen so far, are held at a time.
    """
    # One block of the whole input, its lines or paths read as it is parsed.
    path, items = _open_corpus(path, format)
    return _parse_block(_Block(format, path, allow_empty, 1, items))


def load_corpus(
    path: str | Path,
    format: str = "dir-of-txt",
    allow_empty: bool = False,
) -> list[RawDocument]:
    """All of :func:`iter_corpus`'s documents, as a list."""
    return list(iter_corpus(path, format, allow_empty))


# Documents per block that `_read_blocks` reads, per chunk that
# `model.fold_in_many` counts and folds in, and per chunk of test columns
# that an eval job selects and folds in. A chunk's counts and matrices (its
# counts, their weighted copy and P(W|D)) take a few KB per document and are
# held one chunk at a time, so fold-in's memory does not grow with its
# input; `flatm infer` reads at most two blocks of raw text ahead per worker.
_CHUNK_DOCS = 256


def _chunks(items: Iterable[_T]) -> Iterator[list[_T]]:
    """Successive lists of ``_CHUNK_DOCS`` items, read as they are asked
    for, so a stream is never held whole. An error in reading the stream
    comes after a list of the items read before it."""
    items = iter(items)
    while True:
        chunk: list[_T] = []
        try:
            # list.extend keeps the items it took before the error.
            chunk.extend(itertools.islice(items, _CHUNK_DOCS))
        except Exception:
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk


class _Block(NamedTuple):
    """Consecutive documents of a corpus, read but not parsed.

    ``items`` are the raw lines of a ``lines`` or ``labeled-tsv`` file
    ``path``, each with its line break (``\\n``; the file's last line may
    have none), the first of them line ``first``; or the paths of
    ``dir-of-txt`` files under ``path``. :func:`_read_blocks` gives them as
    lists, which pickle as their text, so a worker process can parse them
    (:func:`_parse_block`).
    """

    format: str
    path: Path
    allow_empty: bool
    first: int
    items: Iterable


def _open_corpus(path: str | Path, format: str) -> tuple[Path, Iterator]:
    """``path`` and its raw lines or file paths, read as they are asked for,
    after :func:`iter_corpus`'s checks at the call. The reader itself checks
    only that ``dir-of-txt`` ids are unique."""
    if format not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format: {format!r}")
    path = Path(path)
    if format == "dir-of-txt":
        if not path.is_dir():
            raise InputFormatError(f"not a directory: {path}")
        files = sorted(path.rglob("*.txt"), key=lambda p: p.as_posix())
        return path, _unique_stems(files)
    if not path.is_file():
        raise InputFormatError(f"not a file: {path}")
    return path, _file_lines(path)


def _read_blocks(
    path: str | Path, format: str, allow_empty: bool
) -> Iterator[_Block]:
    """:func:`iter_corpus`'s input as blocks of ``_CHUNK_DOCS`` documents,
    with the same checks at the call. An error in reading comes after a
    block of the documents before it, so parsing the blocks in order meets
    the faults in input order."""
    path, items = _open_corpus(path, format)
    # Only the last block can hold fewer than _CHUNK_DOCS lines.
    return (
        _Block(format, path, allow_empty, 1 + k * _CHUNK_DOCS, chunk)
        for k, chunk in enumerate(_chunks(items))
    )


def _file_lines(path: Path) -> Iterator[str]:
    # Universal-newline reading turns \r\n and \r into \n; only \n then
    # separates documents. str.splitlines would also split at form feeds,
    # vertical tabs, \x1c-\x1e, \x85, U+2028 and U+2029 inside a line.
    with open(path, encoding="utf-8-sig") as f:
        yield from f


def _unique_stems(files: list[Path]) -> Iterator[Path]:
    seen: dict[str, Path] = {}
    for file in files:
        doc_id = file.stem
        if doc_id in seen:
            raise InputFormatError(
                f"duplicate document id {doc_id!r}: {seen[doc_id]} and {file}"
            )
        seen[doc_id] = file
        yield file


def _parse_block(block: _Block) -> Iterator[RawDocument]:
    """The documents of a block, one at a time, by :func:`iter_corpus`'s
    rules and with its messages."""
    allow_empty = block.allow_empty
    if block.format == "dir-of-txt":
        for file in block.items:
            text = file.read_text(encoding="utf-8-sig")
            if not allow_empty and (not text or text.isspace()):
                raise InputFormatError(f"{file}: empty document")
            yield RawDocument(doc_id=file.stem, text=text)
        return
    labeled, path = block.format == "labeled-tsv", block.path
    for lineno, line in enumerate(block.items, start=block.first):
        line = line.removesuffix("\n")
        if labeled:
            label, sep, body = line.partition("\t")
            if not sep:
                raise InputFormatError(
                    f"{path}: line {lineno}: expected label<TAB>text"
                )
            if not label:
                raise InputFormatError(f"{path}: line {lineno}: empty label")
        else:
            label, body = None, line
        if not allow_empty and (not body or body.isspace()):
            raise InputFormatError(f"{path}: line {lineno}: empty document")
        yield RawDocument(doc_id=str(lineno), text=body, label=label)


# Code of a raw token the filter removes; kept ones index _TokenCodes.terms.
_DROPPED = -1
# Token codes gathered before a block of documents is counted, which bounds
# the block's numpy scratch arrays to ~2 MB unless one document is longer.
# Counting 1M tokens of 10000 documents took the same time with 8k to 64k.
_BLOCK_TOKENS = 1 << 16


class _TokenCodes(dict):
    """Raw token -> code, for one :func:`_count_documents` call: ``_DROPPED``
    for a token the filter removes, else the token's index in ``terms``,
    which lists the kept tokens in the order they were first met.

    :meth:`read` looks each token up in C. The first token it has not
    seen runs the filter over all of that document's unseen distinct
    tokens at once, so each distinct token is filtered once per call.
    """

    def __init__(self, config: TokenizerConfig):
        super().__init__()
        self.config = config
        self.terms: list[str] = []
        self.document: list[str] = []

    def read(self, raw: list[str]) -> Iterator[int]:
        """Codes of one document's raw tokens; consume before the next call."""
        self.document = raw
        return map(self.__getitem__, raw)

    def __missing__(self, token: str) -> int:
        new = [raw for raw in dict.fromkeys(self.document) if raw not in self]
        kept = _kept_tokens(new, self.config)
        self.update(dict.fromkeys(new, _DROPPED))
        self.update(zip(kept, range(len(self.terms), len(self.terms) + len(kept))))
        self.terms += kept
        return self[token]


def _count_block(
    codes: array, lengths: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Count the (document, term) pairs of consecutive documents.

    ``codes`` holds the documents' token codes one after another and
    ``lengths`` how many belong to each. Returns the codes and counts of
    each document's distinct kept tokens in code order (int32), each
    document's number of them, and its token total without dropped tokens.
    """
    codes = np.frombuffer(codes, dtype=np.intc)
    lengths = np.array(lengths, dtype=np.int64)
    doc = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    tokens = lengths - np.bincount(doc[codes == _DROPPED], minlength=len(lengths))
    counted = codes >= 0
    pairs, counts = np.unique((doc[counted] << 32) | codes[counted], return_counts=True)
    terms = np.bincount(pairs >> 32, minlength=len(lengths))
    ids = (pairs & 0xFFFFFFFF).astype(np.intc)
    return ids, counts.astype(np.intc), terms, tokens


def _code_blocks(
    docs: Iterable[RawDocument], config: TokenizerConfig, codes: _TokenCodes
) -> Iterator[tuple[array, list[int], list[str]]]:
    """Consecutive documents in blocks of about ``_BLOCK_TOKENS`` token
    codes: each block's codes and lengths for :func:`_count_block`, and
    its documents' ids."""
    block, lengths, ids = array("i"), [], []
    for doc in docs:
        raw = _raw_tokens(doc.text, config)
        block.extend(codes.read(raw))
        lengths.append(len(raw))
        ids.append(doc.doc_id)
        if len(block) >= _BLOCK_TOKENS:
            yield block, lengths, ids
            block, lengths, ids = array("i"), [], []
    if lengths:
        yield block, lengths, ids


@dataclass
class _Counts:
    """Documents counted into first-seen token codes: the first half of
    :func:`build_matrix`, before any code has a row.

    ``terms`` lists the kept tokens in the order they were first met, and a
    code indexes it. Column j's distinct codes, ascending, and their counts
    (int32) are ``codes[indptr[j]:indptr[j + 1]]`` and the same slice of
    ``counts``; ``tokens[j]`` is document j's filtered token total and
    ``doc_ids[j]`` its id.
    """

    terms: list[str]
    codes: np.ndarray | None
    counts: np.ndarray | None
    indptr: np.ndarray
    tokens: np.ndarray
    doc_ids: tuple[str, ...]

    def columns(self, indices: Sequence[int]) -> _Counts:
        """A copy of the columns at ``indices``, in that order. Codes keep
        their meaning, so ``terms`` is shared."""
        indices = np.asarray(indices, dtype=np.int64)
        starts = self.indptr[indices]
        lengths = self.indptr[indices + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        at = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return _Counts(
            self.terms,
            self.codes[at],
            self.counts[at],
            indptr,
            self.tokens[indices],
            tuple(map(self.doc_ids.__getitem__, indices.tolist())),
        )

    def matrix(
        self, min_df: int = 1, vocabulary: Vocabulary | None = None
    ) -> tuple[Vocabulary, TermDocMatrix]:
        """Map codes to rows: the second half of :func:`build_matrix`, by
        its rules when ``vocabulary`` is None. With ``vocabulary`` (fold-in's
        one path onto a model's rows) only its terms are counted, ``min_df``
        is ignored and the vocabulary is returned as given; empty and fully
        out-of-vocabulary documents give empty columns, and no documents
        zero columns. It takes the codes and counts, which leaves this
        object spent, so each of their buffers is freed once the array made
        from it has replaced it."""
        if vocabulary is None and not self.doc_ids:
            raise ValueError("corpus is empty")
        # The counts stay int32 until the CSR is built and become float64 last;
        # they are small integers, so no value changes.
        row, data, indptr = self.codes, self.counts, self.indptr
        self.codes = self.counts = None
        # Each code's row in the vocabulary, or -1 for a term outside it.
        found = self.terms
        if vocabulary is None:
            df = np.bincount(row, minlength=len(found))
            kept = np.array(sorted(np.flatnonzero(df >= min_df), key=found.__getitem__))
            if not row.size:
                raise ValueError("every document tokenized to nothing; no vocabulary")
            if not kept.size:
                raise ValueError(
                    f"no term is in at least {min_df} documents; no vocabulary"
                )
            vocabulary = Vocabulary(terms=tuple(map(found.__getitem__, kept)))
            code_rows = np.full(len(found), -1, dtype=np.intc)
            code_rows[kept] = np.arange(len(kept))
        else:
            index = vocabulary.index
            code_rows = np.fromiter(
                map(index.get, found, itertools.repeat(-1)), np.intc, count=len(found)
            )
        row = code_rows[row]
        known = row >= 0
        if not known.all():
            row, data = row[known], data[known]
            indptr = np.concatenate(([0], np.cumsum(known)))[indptr]
        del known
        # A column's rows need not ascend: tocsr writes each row's columns in
        # order, so the CSR does not depend on which codes the tokens got.
        shape = (len(vocabulary), len(self.doc_ids))
        counts = sp.csc_matrix((data, row, indptr), shape=shape).tocsr()
        del data, row
        counts.data = counts.data.astype(np.float64)
        return vocabulary, TermDocMatrix(
            counts=counts, doc_ids=self.doc_ids, tokens=self.tokens
        )


def _count_documents(docs: Iterable[RawDocument], config: TokenizerConfig) -> _Counts:
    """Count ``docs``, read once and in order: the first half of
    :func:`build_matrix`."""
    codes = _TokenCodes(config)
    # Codes and counts, column after column; per block, each document's
    # number of distinct terms (after indptr's leading zero) and token total.
    ids, values = array("i"), array("i")
    terms, tokens = [np.zeros(1, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    doc_ids: list[str] = []
    for block, lengths, block_doc_ids in _code_blocks(docs, config, codes):
        doc_ids += block_doc_ids
        block_ids, counts, block_terms, block_tokens = _count_block(block, lengths)
        ids.frombytes(block_ids.tobytes())
        values.frombytes(counts.tobytes())
        terms.append(block_terms)
        tokens.append(block_tokens)
    # Each buffer lives as long as the array viewing it.
    return _Counts(
        codes.terms,
        np.frombuffer(ids, dtype=np.intc),
        np.frombuffer(values, dtype=np.intc),
        np.cumsum(np.concatenate(terms)),
        np.concatenate(tokens),
        tuple(doc_ids),
    )


def _check_min_df(min_df: int) -> None:
    if min_df < 1:
        raise SettingError("min_df must be >= 1")


def build_matrix(
    docs: Iterable[RawDocument],
    config: TokenizerConfig | None = None,
    min_df: int = 1,
) -> tuple[Vocabulary, TermDocMatrix]:
    """Tokenize ``docs`` and build the count matrix.

    This is the one place text becomes counts, in two halves:
    ``_count_documents`` counts documents into token codes and
    ``_Counts.matrix`` maps the codes to rows. ``train`` calls this
    function. Fold-in (``fold_in_many``, ``doc_log_likelihood``) and the
    ``eval`` jobs call the halves: ``fold_in_many`` counts a chunk of
    documents at a time, and a job selects its documents' columns of the
    corpus counted once. ``docs`` may be any iterable, a one-shot stream
    included; it is read once, in order. A call
    runs the tokenizer's filter once per distinct raw token; each
    occurrence costs its share of the tokenizer's one pass over the text
    and one dictionary lookup, and codes, given as tokens are first met,
    map to rows once at the end.
    Documents are counted in blocks of about 65k tokens: only one block's
    token codes are held at a time, and only codes and counts (int32)
    and each document's id and totals outlive it, so no document's text is
    kept. The result's ``tokens`` holds every document's filtered token
    total, as ``len(tokenize(doc.text))``.

    The vocabulary is every term found in at least ``min_df`` documents,
    sorted; raises ``ValueError`` if no documents were given or no term
    survives.
    """
    if config is None:
        config = TokenizerConfig()
    _check_min_df(_checked("min_df", min_df, int))
    return _count_documents(docs, config).matrix(min_df)
