"""The full topic-modeling pipeline.

Training runs: tokenize and count, weight the matrix globally, reduce the
document dimension with a cascade of fuzzy clusterings of the term rows,
cluster the reduced rows into K topics, and assemble the probability
tables. Every stage is seeded from one master seed, so a run is a pure
function of (documents, config).

Probability assembly from the weighted matrix ``a`` and the topic
memberships P(T|W):

    P(W_i)        = sum_j a_ij / sum_ij a_ij
    P(W_i, T_k)   = P(T_k | W_i) P(W_i)
    P(W_i | T_k)  = P(W_i, T_k) / sum_i P(W_i, T_k)
    P(W_i | D_j)  = a_ij / sum_i a_ij
    P(T_k | D_j)  = sum_i P(T_k | W_i) P(W_i | D_j)

The weighted matrix stays sparse (CSR) throughout training: stage 0 of
the cascade, or the topic run without a cascade, clusters it as CSR,
and P(W|D) is that matrix column-normalized, so P(T|D) is a sparse
product. Memory follows the non-zeros, not terms x documents. Training
reads its documents as a stream, so ``flatm train`` never holds the
corpus text whole: only the counting block at hand. It weights the count
matrix and then normalizes its columns in place, a block of rows at a
time, so it holds one matrix as long as the non-zeros; the public
``apply_gtw`` and ``word_given_doc`` run the same kernels on a copy.

Fold-in is the same assembly applied to new columns: unseen documents are
counted as training counts them, a chunk of documents at a time, mapped
onto the model vocabulary, weighted with the stored global weights,
column-normalized and mixed through the stored P(T|W) by the functions
training uses, in O(nnz * K). A document with no known term has an empty
column, which stays zero in P(W|D) and P(T|D).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import secrets
import shutil
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np
import scipy.sparse as sp

from .corpus import (
    InputFormatError,
    RawDocument,
    TermDocMatrix,
    TokenizerConfig,
    Vocabulary,
    _check_min_df,
    _chunks,
    _count_documents,
    _Counts,
    build_matrix,
)
from .fcm import (
    FcmConfig,
    FcmResult,
    SettingError,
    _checked,
    _require,
    _row_blocks,
    fcm_run,
)
from .weighting import (
    DEFAULT_EPSILON,
    IDF_VARIANTS,
    GlobalWeightVector,
    GtwMethod,
    _check_epsilon,
    _check_gtw,
    _check_idf_variant,
    _weigh,
    apply_gtw,
    compute_global_weights,
)

__all__ = [
    "CascadeSchedule",
    "TrainConfig",
    "TopicModel",
    "OutOfVocabularyError",
    "ScheduleError",
    "MODEL_FORMAT_VERSION",
    "stage_seed",
    "cascade_reduce",
    "word_probabilities",
    "word_given_topic",
    "word_given_doc",
    "topic_given_doc",
    "train",
    "fold_in",
    "fold_in_many",
    "top_words",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1

_DEFAULT_COUNTS = (10, 9, 8, 7, 6, 5, 4, 3, 2)


class OutOfVocabularyError(ValueError):
    """A document shares no terms with the model vocabulary."""

    def __init__(self, doc_id: str):
        super().__init__(f"document {doc_id!r} has no in-vocabulary terms")
        self.doc_id = doc_id


class ScheduleError(ValueError):
    """The cascade schedule needs more terms than the corpus has."""


@dataclass(frozen=True)
class CascadeSchedule:
    """Cluster counts for the successive reduction stages.

    Counts must be strictly descending and end at 2 or more; each stage
    clusters the rows of the previous stage's membership matrix, so the
    column count shrinks to ``counts[-1]``.
    """

    counts: tuple[int, ...] = _DEFAULT_COUNTS

    def __post_init__(self) -> None:
        if not isinstance(self.counts, (list, tuple)):
            raise SettingError(
                f"schedule must be a list or tuple, got {self.counts!r}"
            )
        if not self.counts:
            raise SettingError("schedule must have at least one stage")
        counts = [_checked("schedule entries", c, float) for c in self.counts]
        if not all(float(c).is_integer() for c in counts):
            raise SettingError("schedule entries must be integers")
        object.__setattr__(self, "counts", tuple(int(c) for c in counts))
        if self.counts[-1] < 2:
            raise SettingError("schedule must end at 2 or more clusters")
        if any(a <= b for a, b in zip(self.counts, self.counts[1:])):
            raise SettingError("schedule must be strictly descending")

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True, kw_only=True)
class TrainConfig:
    """Everything that determines a trained model besides the corpus.

    Built by keyword only. The fields are in the model file's key order.
    """

    gtw: GtwMethod = GtwMethod.ENTROPY
    n_topics: int
    schedule: CascadeSchedule = CascadeSchedule()
    cascade: bool = True
    fuzzifier: float = FcmConfig.fuzzifier
    threshold: float = FcmConfig.threshold
    max_iterations: int = FcmConfig.max_iterations
    seed: int = FcmConfig.seed
    epsilon: float = DEFAULT_EPSILON
    idf_variant: str = IDF_VARIANTS[0]
    min_df: int = 1
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gtw", _check_gtw("gtw", self.gtw))
        # Clustering settings are stored as plain numbers; fcm_config() checks them.
        _require(self, int, "n_topics", "max_iterations", "seed", "min_df")
        _require(self, CascadeSchedule, "schedule")
        _require(self, bool, "cascade")
        _require(self, float, "fuzzifier", "threshold", "epsilon")
        _require(self, TokenizerConfig, "tokenizer")
        if self.n_topics < 2:
            raise SettingError("n_topics must be >= 2")
        self.fcm_config()
        _check_epsilon(self.epsilon)
        _check_idf_variant(self.idf_variant)
        _check_min_df(self.min_df)

    def fcm_config(self) -> FcmConfig:
        """The topic run's clustering settings, seeded with the master seed;
        building them checks the settings by :class:`FcmConfig`'s rules."""
        return FcmConfig(
            n_clusters=self.n_topics,
            fuzzifier=self.fuzzifier,
            threshold=self.threshold,
            max_iterations=self.max_iterations,
            seed=self.seed,
        )


# Slack for rounding in stored probabilities: a column of P(T|D) mixing
# P(T|W) rows that are all 1.0 can sum to 1.0000000000000002.
_TABLE_TOLERANCE = 1e-9


def _check_table(name: str, a, shape: tuple[int, ...], axis: int) -> None:
    """Float64 of ``shape``, entries in [0, 1] (so finite), sums of 1 on ``axis``."""
    if getattr(a, "dtype", None) != np.float64 or a.shape != shape:
        raise ValueError(f"{name} must be a float64 array of shape {shape}")
    if not np.all((a >= -_TABLE_TOLERANCE) & (a <= 1.0 + _TABLE_TOLERANCE)):
        raise ValueError(f"{name} has an entry outside [0, 1]")
    if not np.all(np.abs(a.sum(axis=axis) - 1.0) <= _TABLE_TOLERANCE):
        raise ValueError(f"{name} does not sum to 1")


@dataclass(frozen=True)
class TopicModel:
    """A trained model: vocabulary, probability tables, and provenance.

    Shapes, with m terms, K = ``config.n_topics`` topics, n training
    documents: ``topic_given_word`` (m, K) rows sum to 1; ``word_prob``
    (m,) sums to 1; ``word_given_topic`` (K, m) is :func:`word_given_topic`
    of those two, bit for bit; ``topic_given_doc`` (K, n) columns sum to 1.
    Construction raises ``ValueError`` unless these hold (entries float64
    in [0, 1]), the weights are of the config's ``gtw`` and ``epsilon``
    with one per term, and the ``doc_ids`` are strings.
    """

    vocabulary: Vocabulary
    config: TrainConfig
    global_weights: GlobalWeightVector
    topic_given_word: np.ndarray
    word_prob: np.ndarray
    word_given_topic: np.ndarray
    topic_given_doc: np.ndarray
    doc_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        w, m, k = self.global_weights, len(self.vocabulary), self.config.n_topics
        if (w.method, w.epsilon, len(w)) != (self.config.gtw, self.config.epsilon, m):
            raise ValueError(
                "global weights must be of the config's gtw and epsilon, one per term"
            )
        if not all(isinstance(doc_id, str) for doc_id in self.doc_ids):
            raise ValueError("doc_ids must be strings")
        n, pwt = len(self.doc_ids), self.word_given_topic
        _check_table("topic_given_word", self.topic_given_word, (m, k), axis=1)
        _check_table("word_prob", self.word_prob, (m,), axis=0)
        _check_table("word_given_topic", pwt, (k, m), axis=1)
        _check_table("topic_given_doc", self.topic_given_doc, (k, n), axis=0)
        # Compared as bits, so that not even the sign of a zero may differ.
        expected = word_given_topic(self.topic_given_word, self.word_prob)
        if not np.array_equal(pwt.view(np.uint64), expected.view(np.uint64)):
            raise ValueError("word_given_topic is not P(T|W) inverted against P(W)")

    @property
    def n_topics(self) -> int:
        return self.topic_given_word.shape[1]

    @property
    def n_terms(self) -> int:
        return len(self.vocabulary)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)


def stage_seed(master_seed: int, *indices: int) -> int:
    """Derive an independent child seed from the master seed and a path."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(indices))
    return int(seq.generate_state(1, np.uint64)[0])


def _cluster_stages(
    values: sp.spmatrix | np.ndarray,
    counts: tuple[int, ...],
    fcm: FcmConfig,
    on_stage: Callable[[int, FcmResult], None] | None,
) -> np.ndarray:
    """Cluster the rows into ``counts[0]`` clusters, those memberships into
    ``counts[1]``, and so on; return the last membership matrix.

    Stage s runs ``fcm`` with its cluster count and the seed
    ``stage_seed(fcm.seed, s)``, and is reported to ``on_stage``. Stage 0
    clusters ``values`` as CSR.
    """
    x = sp.csr_matrix(values, dtype=np.float64)
    if x.shape[0] <= counts[0]:
        raise ScheduleError(
            f"cascade needs more terms than the first stage's clusters: "
            f"{x.shape[0]} terms, schedule starts at {counts[0]}"
        )
    for stage, n_clusters in enumerate(counts):
        config = replace(fcm, n_clusters=n_clusters, seed=stage_seed(fcm.seed, stage))
        result = fcm_run(x, config)
        if on_stage is not None:
            on_stage(stage, result)
        x = result.membership
    return x


def cascade_reduce(
    values: sp.spmatrix | np.ndarray,
    schedule: CascadeSchedule,
    *,
    fuzzifier: float = FcmConfig.fuzzifier,
    threshold: float = FcmConfig.threshold,
    max_iterations: int = FcmConfig.max_iterations,
    seed: int = FcmConfig.seed,
    on_stage: Callable[[int, FcmResult], None] | None = None,
) -> np.ndarray:
    """Shrink the document dimension by clustering term rows repeatedly.

    Stage s clusters the current (m, d) matrix rows into
    ``schedule.counts[s]`` clusters and keeps the membership matrix as the
    next input, so the result has shape (m, schedule.counts[-1]). Stage
    seeds derive from ``seed`` by stage index. Requires more terms than
    the first stage's cluster count; raises :class:`ScheduleError`
    otherwise.

    Stage 0 always clusters ``values`` in CSR form, so dense and sparse
    inputs give identical results; later stages cluster dense memberships.
    """
    fcm = FcmConfig(schedule.counts[0], fuzzifier, threshold, max_iterations, seed)
    return _cluster_stages(values, schedule.counts, fcm, on_stage)


def word_probabilities(values: sp.spmatrix | np.ndarray) -> np.ndarray:
    """Marginal P(W_i): row mass over total mass of the weighted matrix."""
    a = sp.csr_matrix(values, dtype=np.float64)
    total = a.sum()
    if not total > 0:
        raise ValueError("weighted matrix has zero total mass")
    return np.asarray(a.sum(axis=1)).ravel() / total


def word_given_topic(
    topic_given_word: np.ndarray, word_prob: np.ndarray
) -> np.ndarray:
    """Bayes inversion of P(T|W) against P(W); rows are topics, sum to 1."""
    # C order, so that the column sums add in one order whatever the layout.
    ptw = np.ascontiguousarray(topic_given_word, dtype=np.float64)
    pw = np.asarray(word_prob, dtype=np.float64)
    joint = ptw * pw[:, None]
    topic_mass = joint.sum(axis=0)
    empty = np.flatnonzero(topic_mass == 0.0)
    if empty.size:
        raise ValueError(f"topic {int(empty[0])} has zero probability mass")
    joint /= topic_mass
    return joint.T


def word_given_doc(values: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """Column-normalized weighted matrix: P(W_i|D_j). CSR (m, n).

    A column with no mass, such as a document without a known term, stays
    all zero.
    """
    a = sp.csr_matrix(values, dtype=np.float64)
    return _normalize_columns(a.copy(), _doc_mass(a))


def _doc_mass(a: sp.csr_matrix) -> np.ndarray:
    """Each column's sum, its entries added in row order as
    ``a.sum(axis=0)`` and ``bincount`` add them: ``add.at`` adds one
    entry at a time, in order, a block of rows at a time."""
    mass = np.zeros(a.shape[1])
    for _, entries, _ in _row_blocks(a.indptr):
        np.add.at(mass, a.indices[entries], a.data[entries])
    return mass


def _normalize_columns(a: sp.csr_matrix, mass: np.ndarray) -> sp.csr_matrix:
    """Divide each entry of ``a`` by its column's ``mass``, in place, a
    block of rows at a time; a column without mass is left as it is.
    Returns ``a``."""
    mass = np.where(mass == 0.0, 1.0, mass)
    for _, entries, _ in _row_blocks(a.indptr):
        a.data[entries] /= mass[a.indices[entries]]
    return a


def topic_given_doc(
    topic_given_word: np.ndarray, word_given_doc: sp.spmatrix | np.ndarray
) -> np.ndarray:
    """Mix P(T|W) over each document's word distribution; columns sum to 1,
    except that an all-zero column of P(W|D) gives an all-zero column.

    Computed as the sparse product P(W|D)^T P(T|W); dense (K, n).
    """
    ptw = np.asarray(topic_given_word, dtype=np.float64)
    pwd = sp.csr_matrix(word_given_doc, dtype=np.float64)
    return np.ascontiguousarray((pwd.T @ ptw).T)


def train(
    docs: Iterable[RawDocument],
    config: TrainConfig,
    on_stage: Callable[[int, FcmResult], None] | None = None,
) -> TopicModel:
    """Run the whole pipeline on ``docs``.

    ``docs`` may be any iterable, a one-shot stream included; it is
    consumed once, by ``build_matrix``, before any weighting or clustering.
    ``on_stage`` sees every clustering run: cascade stages first (indices
    0..len(schedule)-1), then the topic run with the next index. With
    ``cascade=False`` the topic clustering runs directly on the weighted
    matrix and is stage 0. A document left without a counted term raises
    ``ValueError`` naming it, before any clustering.
    """
    vocab, tdm = build_matrix(docs, config.tokenizer, min_df=config.min_df)
    return _fit(vocab, tdm, config, on_stage)


def _fit(
    vocab: Vocabulary,
    tdm: TermDocMatrix,
    config: TrainConfig,
    on_stage: Callable[[int, FcmResult], None] | None = None,
) -> TopicModel:
    """:func:`train` once its documents are counted: weight, cluster and
    assemble. It owns ``tdm``, whose counts it weighs in place."""
    m = len(vocab)
    if config.n_topics >= m:
        raise ValueError(
            f"n_topics={config.n_topics} needs a vocabulary larger than K; "
            f"corpus has {m} terms"
        )
    weights = compute_global_weights(
        tdm, config.gtw, epsilon=config.epsilon, idf_variant=config.idf_variant
    )
    # The counts are weighted in place, and after the clustering normalized
    # in place into P(W|D), so that one matrix as long as the non-zeros is
    # held at a time.
    weighted = _weigh(tdm.counts, weights.clamped)
    doc_ids = tdm.doc_ids
    # Every weight and every count is positive, so a document has mass
    # exactly when it has a counted term.
    mass = _doc_mass(weighted)
    empty = np.flatnonzero(mass == 0.0)
    if empty.size:
        doc_id = doc_ids[empty[0]]
        raise ValueError(f"document {doc_id!r} has no term in the vocabulary")
    cascade = config.schedule.counts if config.cascade else ()
    ptw = _cluster_stages(
        weighted, cascade + (config.n_topics,), config.fcm_config(), on_stage
    )
    pw = word_probabilities(weighted)
    pwt = word_given_topic(ptw, pw)
    ptd = topic_given_doc(ptw, _normalize_columns(weighted, mass))
    return TopicModel(
        vocabulary=vocab,
        config=config,
        global_weights=weights,
        topic_given_word=ptw,
        word_prob=pw,
        word_given_topic=pwt,
        topic_given_doc=ptd,
        doc_ids=doc_ids,
    )


def _fold_in(
    model: TopicModel, counts: _Counts
) -> tuple[TermDocMatrix, np.ndarray, np.ndarray]:
    """Fold one batch of counted columns in: its counts over the model
    vocabulary, P(T|D) (K, n) and the known mask. Columns of documents
    without a known term are all zero in P(T|D). Like ``_Counts.matrix``,
    it leaves ``counts`` spent."""
    _, tdm = counts.matrix(vocabulary=model.vocabulary)
    # The callers read the counts, so they are weighted on a copy; as in
    # train, a document is known exactly when its column has mass.
    weighted = apply_gtw(tdm, model.global_weights)
    mass = _doc_mass(weighted)
    pwd = _normalize_columns(weighted, mass)
    return tdm, topic_given_doc(model.topic_given_word, pwd), mass > 0.0


def fold_in_many(
    model: TopicModel, docs: Iterable[RawDocument]
) -> tuple[np.ndarray, np.ndarray]:
    """Infer P(T|D) for unseen documents without retraining.

    Returns P(T|D) of shape (K, n) and a boolean mask of shape (n,) that
    is False for documents with no in-vocabulary term; their columns are
    zero. ``docs`` may be any iterable, a one-shot stream included. Fold-in
    is the training assembly applied to new columns: the documents are
    read a chunk at a time, counted by ``build_matrix``'s first half,
    mapped onto the model vocabulary, weighted by ``apply_gtw`` with the
    stored global weights, normalized by ``_normalize_columns`` (as in
    ``word_given_doc``) and mixed through the stored P(T|W) by
    ``topic_given_doc``, in O(nnz * K). Only one chunk's counts and
    matrices are held at a time, besides the (K, n) result. A column's
    arithmetic depends only on that document, so a training document gets
    back its stored P(T|D) column bit for bit, and a document gets the
    same bits alone or inside any batch.
    """
    ptd, known = [np.zeros((model.n_topics, 0))], [np.zeros(0, dtype=bool)]
    for chunk in _chunks(docs):
        counts = _count_documents(chunk, model.config.tokenizer)
        _, chunk_ptd, chunk_known = _fold_in(model, counts)
        ptd.append(chunk_ptd)
        known.append(chunk_known)
    return np.hstack(ptd), np.concatenate(known)


def fold_in(model: TopicModel, doc: RawDocument) -> np.ndarray:
    """P(T|D) of one unseen document: :func:`fold_in_many` on a batch of one.

    Unknown terms are ignored; a document with no known terms raises
    :class:`OutOfVocabularyError`.
    """
    ptd, known = fold_in_many(model, [doc])
    if not known[0]:
        raise OutOfVocabularyError(doc.doc_id)
    return ptd[:, 0]


def top_words(
    model: TopicModel, topic: int, count: int = 10
) -> list[tuple[str, float]]:
    """Highest-probability terms under P(W|T_k), ties broken alphabetically."""
    topic, count = _checked("topic", topic, int), _checked("count", count, int)
    if not 0 <= topic < model.n_topics:
        raise SettingError(f"topic must be in [0, {model.n_topics}), got {topic}")
    if count < 1:
        raise SettingError("count must be >= 1")
    row = model.word_given_topic[topic]
    order = sorted(zip(model.vocabulary.terms, row), key=lambda p: (-p[1], p[0]))
    return [(term, float(prob)) for term, prob in order[:count]]


def _config_to_dict(config: TrainConfig) -> dict:
    data = asdict(config)
    return {
        **data,
        "gtw": config.gtw.value,
        "schedule": list(config.schedule.counts),
        "tokenizer": {
            **data["tokenizer"],
            "stopwords": sorted(config.tokenizer.stopwords),
        },
    }


def _stored_fields(cls: type, name: str, data) -> dict:
    """A stored config ``name``: a JSON object keyed by exactly ``cls``'s fields."""
    wrong = set(_checked(name, data, dict)) ^ {f.name for f in fields(cls)}
    if wrong:
        raise InputFormatError(
            f"model file {name} keys differ from {cls.__name__}'s fields: "
            + ", ".join(sorted(wrong))
        )
    return data


def _config_from_dict(data) -> TrainConfig:
    data = _stored_fields(TrainConfig, "config", data)
    tok = _stored_fields(TokenizerConfig, "tokenizer", data["tokenizer"])
    stopwords = frozenset(_checked("stopwords", tok["stopwords"], list))
    return TrainConfig(**{
        **data,
        "schedule": CascadeSchedule(data["schedule"]),
        "tokenizer": TokenizerConfig(**{**tok, "stopwords": stopwords}),
    })


# Items per piece of a stored array or list: floats of a table, a vector
# or the raw weights, terms of the vocabulary, document ids. Each piece is
# encoded and written before the next, so saving adds well under 1 MB to
# the trained model instead of the whole document's Python floats and text
# (~25 MB for 10100 terms x 10000 documents, K=10). Pieces of 65536 floats
# raised `flatm train`'s peak RSS by up to 6 MB whenever the heap had not
# been trimmed after training. Rows and lists longer than a piece are cut
# too: encoded whole, the 10100-item rows and lists of the 10100 x 10000
# corpus's model raised that peak by 1.1 MB in 7 of 10 runs, above the
# 74-75 MB at the end of training; cut, by at most 0.5 MB.
_JSON_PIECE_FLOATS = 4096

_dumps = functools.partial(json.dumps, ensure_ascii=False, allow_nan=False)


def _json_pieces(value) -> Iterator[str]:
    """``_dumps(value)`` in pieces of at most ``_JSON_PIECE_FLOATS`` items.

    A table goes by blocks of whole rows, or row by row in pieces when a
    row is longer than a piece; a vector or list goes by runs of items.
    Joined, the pieces equal the one-shot encoding byte for byte: a float
    is written as its repr and list items are separated by ", " in both.
    """
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield (", " if i else "") + _dumps(key) + ": "
            yield from _json_pieces(item)
        yield "}"
    elif isinstance(value, np.ndarray) and value.ndim == 2:
        yield "["
        if value.shape[1] > _JSON_PIECE_FLOATS:
            for i, row in enumerate(value):
                if i:
                    yield ", "
                yield from _json_pieces(row)
        else:
            yield from _item_runs(value, _JSON_PIECE_FLOATS // max(1, value.shape[1]))
        yield "]"
    elif isinstance(value, (list, np.ndarray)):
        yield "["
        yield from _item_runs(value, _JSON_PIECE_FLOATS)
        yield "]"
    else:
        yield _dumps(value)


def _item_runs(items, size: int) -> Iterator[str]:
    """``items`` encoded ``size`` at a time, without the list's brackets."""
    for start in range(0, len(items), size):
        run = items[start : start + size]
        text = _dumps(run.tolist() if isinstance(run, np.ndarray) else run)
        yield (", " if start else "") + text[1:-1]


def _model_json_pieces(model: TopicModel) -> Iterator[str]:
    weights = model.global_weights
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "config": _config_to_dict(model.config),
        "vocabulary": list(model.vocabulary.terms),
        "word_prob": model.word_prob,
        "topic_given_word": model.topic_given_word,
        "word_given_topic": model.word_given_topic,
        "topic_given_doc": {
            "doc_ids": list(model.doc_ids),
            "values": model.topic_given_doc,
        },
        "global_weights": {
            "method": weights.method.value,
            "epsilon": weights.epsilon,
            "raw": ["-inf" if x == -np.inf else float(x) for x in weights.raw],
            "clamped": weights.clamped,
        },
    }
    yield from _json_pieces(doc)
    yield "\n"


def model_to_json(model: TopicModel) -> str:
    """Serialize to a JSON document that round-trips floats exactly.

    Nested float lists rely on the shortest-round-trip repr json uses;
    -inf raw weights are encoded as the string "-inf" to stay inside
    standard JSON.
    """
    return "".join(_model_json_pieces(model))


def _numbers(name: str, values) -> np.ndarray:
    """A stored vector or table of JSON numbers as a float64 array.

    numpy would read ``true``, ``false`` and numeric strings as numbers.
    """
    a = np.array(values, dtype=np.float64)
    entries = itertools.chain.from_iterable(values) if a.ndim == 2 else values
    if not set(map(type, entries)) <= {int, float}:
        raise InputFormatError(f"model file {name} has an entry that is not a number")
    return a


def model_from_json(text: str) -> TopicModel:
    """Inverse of :func:`model_to_json`; arrays come back bit-identical.

    Maps the JSON onto the constructors, which hold the model's rules.
    Raises :class:`InputFormatError` for bad JSON, another version, a
    missing field or one of the wrong JSON type (``true`` or a string for
    a number, apart from the raw weights' ``"-inf"``), a number too large
    for a float, config or tokenizer keys other than its class's fields,
    stored clamped weights other than ``max(raw, epsilon)``, or any value
    that :class:`TrainConfig`, :class:`~flatm.corpus.Vocabulary`,
    :class:`~flatm.weighting.GlobalWeightVector` or :class:`TopicModel`
    rejects.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError("model file must hold a JSON object")
    version = doc.get("version")
    if isinstance(version, bool) or version != MODEL_FORMAT_VERSION:
        raise InputFormatError(f"unsupported model format version: {version!r}")
    try:
        gw, ptd = doc["global_weights"], doc["topic_given_doc"]
        raw = [-np.inf if x == "-inf" else _checked("raw", x, float) for x in gw["raw"]]
        weights = GlobalWeightVector(gw["method"], raw, gw["epsilon"])
        if not np.array_equal(_numbers("clamped", gw["clamped"]), weights.clamped):
            raise ValueError("clamped weights are not max(raw, epsilon)")
        terms = _checked("vocabulary", doc["vocabulary"], list)
        return TopicModel(
            vocabulary=Vocabulary(tuple(terms)),
            config=_config_from_dict(doc["config"]),
            global_weights=weights,
            topic_given_word=_numbers("topic_given_word", doc["topic_given_word"]),
            word_prob=_numbers("word_prob", doc["word_prob"]),
            word_given_topic=_numbers("word_given_topic", doc["word_given_topic"]),
            topic_given_doc=_numbers("topic_given_doc", ptd["values"]),
            doc_ids=tuple(_checked("doc_ids", ptd["doc_ids"], list)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"model file missing or malformed field: {exc}") from exc


@contextlib.contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file that takes ``path``'s place when the block completes.

    Where ``path`` names a regular file or nothing yet, the text is written
    beside it and renamed over it, so a block that raises leaves no partial
    file and an existing ``path`` as it was. As with ``open(path, "w")``, a
    symlink is written through and the file keeps an existing file's mode,
    else gets 0o666 less the umask. Any other target (a device, a FIFO, a
    directory) or one whose directory takes no new file is opened with
    ``open(path, "w")`` itself, before the block runs.
    """
    real = Path(os.path.realpath(path))
    temp = real.with_name(f".{real.name}.{secrets.token_hex(6)}.tmp")
    f = None
    if not real.exists() or real.is_file():
        with contextlib.suppress(OSError):
            f = open(temp, "x", encoding="utf-8")
    if f is None:
        with open(path, "w", encoding="utf-8") as direct:
            yield direct
        return
    try:
        with f:
            if real.exists():
                shutil.copymode(real, temp)
            yield f
        os.replace(temp, real)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_model(model: TopicModel, path: str | Path) -> None:
    """Write :func:`model_to_json`'s text piece by piece through :func:`_replacing`."""
    with _replacing(path) as f:
        f.writelines(_model_json_pieces(model))


def load_model(path: str | Path) -> TopicModel:
    return model_from_json(Path(path).read_text(encoding="utf-8"))
