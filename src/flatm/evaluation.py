"""Evaluation protocols: cross-validated classification and held-out
log-likelihood, plus a synthetic corpus generator for controlled runs.

Classification trains one model per class on that class's training
documents only (each class gets its own vocabulary) and labels a test
document by the class whose model gives it the highest smoothed
log-likelihood

    L_c(d) = sum_w f_w log(delta + sum_k P(w|T_k) P(T_k|d)),

where P(T|d) comes from folding the document into class c's model.
Tokens unknown to a model contribute log(delta) each, so a fully
out-of-vocabulary document is scored, not skipped. Ties go to the
lexicographically smallest class label.

Scoring runs on whole document sets: the documents are counted and folded
in as a batch, and the mixture is formed only at each document's non-zero
counts, O(nnz * K). Per-document totals are exact ``math.fsum`` sums, so a
score has the same bits alone or inside any batch. A protocol's jobs take
their documents' columns from the corpus counted once per process, which
gives the matrices counting those documents alone would.
"""

from __future__ import annotations

import collections
import gc
import itertools
import math
import multiprocessing
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np
import scipy.sparse as sp

from .corpus import RawDocument, TermDocMatrix, _chunks, _count_documents, _Counts
from .fcm import SettingError, _check_seed, _checked, _require
from .model import (
    TopicModel,
    TrainConfig,
    _config_to_dict,
    _fit,
    _fold_in,
    stage_seed,
)

__all__ = [
    "SplitPlan",
    "EvalReport",
    "DEFAULT_DELTA",
    "make_folds",
    "doc_log_likelihood",
    "classify",
    "heldout_loglik",
    "generate_synthetic",
]

DEFAULT_DELTA = 1e-9

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class SplitPlan:
    """How to split a corpus for evaluation.

    ``folds`` is the number of cross-validation folds for classification,
    or the number of independent repeated splits for held-out likelihood.
    ``train_fraction`` only matters for the latter; fold splits divide the
    corpus evenly.
    """

    seed: int = 0
    train_fraction: float = 0.8
    folds: int = 5
    stratified: bool = True

    def __post_init__(self) -> None:
        _require(self, int, "seed", "folds")
        _require(self, float, "train_fraction")
        _require(self, bool, "stratified")
        _check_seed(self.seed)
        if not 0.0 < self.train_fraction < 1.0:
            raise SettingError("train_fraction must be in (0, 1)")
        if self.folds < 1:
            raise SettingError("folds must be >= 1")


@dataclass(frozen=True)
class EvalReport:
    """Per-fold metric values plus their mean and sample stdev.

    ``config`` echoes everything needed to reproduce the run. ``details``
    carries one dict of protocol-specific extras per fold.
    """

    protocol: str
    metric: str
    per_fold: tuple[float, ...]
    mean: float
    stdev: float
    config: dict
    details: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        rows = [("fold", self.metric)]
        for i, value in enumerate(self.per_fold):
            rows.append((str(i), repr(value)))
        rows.append(("mean", repr(self.mean)))
        rows.append(("stdev", repr(self.stdev)))
        width0 = max(len(r[0]) for r in rows)
        width1 = max(len(r[1]) for r in rows)
        lines = [f"protocol: {self.protocol}"]
        lines += [f"{a.ljust(width0)}  {b.rjust(width1)}" for a, b in rows]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["fold,metric,value"]
        for i, value in enumerate(self.per_fold):
            lines.append(f"{i},{self.metric},{value!r}")
        lines.append(f"mean,{self.metric},{self.mean!r}")
        lines.append(f"stdev,{self.metric},{self.stdev!r}")
        return "\n".join(lines) + "\n"


def _shuffled_groups(
    docs: Sequence[RawDocument], plan: SplitPlan, rng: np.random.Generator
) -> tuple[bool, list[list[int]]]:
    """(stratified, groups): document indices grouped by sorted label, each
    group shuffled by ``rng``. One group of all documents when the plan is
    unstratified or any document lacks a label; then stratified is False.
    """
    stratified = plan.stratified and all(d.label is not None for d in docs)
    if stratified:
        labels = sorted({d.label for d in docs})
        groups = [[i for i, d in enumerate(docs) if d.label == lab] for lab in labels]
    else:
        groups = [list(range(len(docs)))]
    return stratified, [
        [idxs[p] for p in rng.permutation(len(idxs)).tolist()] for idxs in groups
    ]


def make_folds(docs: Sequence[RawDocument], plan: SplitPlan) -> list[tuple[int, ...]]:
    """Partition document indices into ``plan.folds`` disjoint folds.

    Stratified folding deals each label's shuffled documents round-robin,
    so every fold's share of a label is within one document of even.
    Falls back to unstratified when any document lacks a label.
    """
    if len(docs) < plan.folds:
        raise ValueError(f"{len(docs)} documents cannot fill {plan.folds} folds")
    rng = np.random.default_rng(plan.seed)
    folds: list[list[int]] = [[] for _ in range(plan.folds)]
    _, groups = _shuffled_groups(docs, plan, rng)
    for li, group in enumerate(groups):
        for pos, i in enumerate(group):
            folds[(pos + li) % plan.folds].append(i)
    return [tuple(sorted(fold)) for fold in folds]


def _check_delta(delta: float) -> float:
    """``delta`` as a plain number, once it passes its rule."""
    delta = _checked("delta", delta, float)
    if not 0 < delta < math.inf:
        raise SettingError(f"delta must be a positive finite number, got {delta!r}")
    return delta


def _score_chunk(
    counts: sp.csc_matrix,
    tokens: np.ndarray,
    word_table: np.ndarray,
    doc_table: np.ndarray,
    delta: float,
) -> list[tuple[float, int, int]]:
    """(loglik, oov_tokens, total_tokens) of each document (column) of the
    known tokens' ``counts`` (m, n), with ``tokens`` (n,) in all, under the
    mixture sum_k word_table[k, w] doc_table[k, d] of (K, m) and (K, n)."""
    log_delta = math.log(delta)
    rows = counts.indices
    cols = np.repeat(np.arange(counts.shape[1]), np.diff(counts.indptr))
    mix = np.zeros(counts.nnz)
    for k in range(len(word_table)):
        mix += word_table[k, rows] * doc_table[k, cols]
    shifted = delta + mix
    scores = []
    for j in range(counts.shape[1]):
        entries = slice(counts.indptr[j], counts.indptr[j + 1])
        doc_counts = counts.data[entries].tolist()
        terms = [
            c * math.log(x) for c, x in zip(doc_counts, shifted[entries].tolist())
        ]
        total = int(tokens[j])
        oov = total - int(sum(doc_counts))
        if oov:
            terms.append(oov * log_delta)
        scores.append((math.fsum(terms), oov, total))
    return scores


# What fold-in gives a scoring routine per chunk: the counts over the model
# vocabulary, P(T|D) (K, n) and the known mask.
_Folded = Iterable[tuple[TermDocMatrix, np.ndarray, np.ndarray]]


def _score_many(
    model: TopicModel, folded: _Folded, delta: float
) -> list[tuple[float, int, int]]:
    """(loglik, oov_tokens, total_tokens) for each document of the
    folded-in chunks, in order: :func:`_score_chunk` under the topic
    mixture."""
    scores = []
    for tdm, ptd, _ in folded:
        counts = tdm.counts.tocsc()
        scores += _score_chunk(counts, tdm.tokens, model.word_given_topic, ptd, delta)
    return scores


def doc_log_likelihood(
    model: TopicModel, doc: RawDocument, delta: float = DEFAULT_DELTA
) -> tuple[float, int, int]:
    """Smoothed log-likelihood of one document under the model.

    Returns (loglik, oov_tokens, total_tokens). Each known token w
    contributes log(delta + sum_k P(w|T_k) P(T_k|d)) with P(T|d) from
    fold-in. Unknown tokens and fully out-of-vocabulary documents
    contribute log(delta) per token. The result has the same bits as this
    document's score inside any batch.
    """
    delta = _check_delta(delta)
    counts = _count_documents([doc], model.config.tokenizer)
    return _score_many(model, [_fold_in(model, counts)], delta)[0]


def _loglik_totals(model: TopicModel, folded: _Folded, delta: float) -> dict:
    """Totals over the documents of the folded-in chunks; order-invariant
    thanks to exact sums.

    ``unigram_loglik`` scores the corpus-wide P(w) in place of each
    document's topic mixture, in the same pass.
    """
    scores, unigram, known_docs = [], [], 0
    for tdm, ptd, known in folded:
        counts, tokens = tdm.counts.tocsc(), tdm.tokens
        scores += _score_chunk(counts, tokens, model.word_given_topic, ptd, delta)
        ones = np.ones((1, tdm.n_docs))
        unigram += _score_chunk(counts, tokens, model.word_prob[None, :], ones, delta)
        known_docs += int(known.sum())
    return {
        "loglik": math.fsum(ll for ll, _, _ in scores),
        "oov_tokens": sum(oov for _, oov, _ in scores),
        "n_tokens": sum(total for _, _, total in scores),
        "docs_with_known_terms": known_docs,
        "unigram_loglik": math.fsum(ll for ll, _, _ in unigram),
    }


# A job is (name, train_indices, config, test_indices): fit one model on the
# training documents and score the test documents with it by the protocol's
# ``score``, a routine of the model and its folded-in chunks. A job returns
# only numbers, so a worker process sends back a few kilobytes and the
# caller never holds the models.
_Job = tuple[str, Sequence[int], TrainConfig, Sequence[int]]


def _run_job(
    counts: Callable[[], _Counts], score: Callable[..., _R], job: _Job
) -> _R:
    """Train as ``train`` would on the job's training documents, with the
    job's name before any ``ValueError`` (which keeps its type, so a
    :class:`ScheduleError` stays one), then score its test documents, each
    chunk of their columns folded in by ``fold_in_many``'s routine.

    ``counts`` is a cached call that counts the protocol's documents on its
    first call in each process; a pool's workers are forked before any job
    runs, so each gets the documents through the fork. The job's matrices
    are selected columns of those counts, which give the bits of counting
    its documents alone.
    """
    name, train_indices, config, test_indices = job
    try:
        model = _fit(*counts().columns(train_indices).matrix(config.min_df), config)
    except ValueError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    folded = (_fold_in(model, counts().columns(c)) for c in _chunks(test_indices))
    return score(model, folded)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_threads(threads: int) -> None:
    if _checked("threads", threads, int) < 1:
        raise SettingError(f"threads must be >= 1, got {threads}")


# The function a pool's worker applies: set in each worker as it starts,
# never in the process that made the pool.
_worker_fn: Callable | None = None


def _set_worker_fn(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(item):
    return _worker_fn(item)


def _run_jobs(
    fn: Callable[[_T], _R], items: Iterable[_T], threads: int
) -> Iterator[_R]:
    """``fn(item)`` for every item of a stream, yielded in input order.

    ``threads`` is checked at the call; the items are read as the results
    are consumed. With more than one worker the items run in a pool of
    processes forked from this one (the POSIX ``fork`` start method; on a
    platform without it, every item runs in this process), so a
    worker starts without importing numpy and scipy again, and ``fn``,
    with whatever it holds, such as a model, reaches the workers through
    the fork rather than by pickle. Each item and its result travel by
    pickle. Threads cannot share the work: FCM iterations and fold-in are
    many small numpy and Python steps that hold the GIL.

    At most ``2 * workers`` items are read ahead of the results consumed,
    so memory stays flat in the input size. Workers are capped by
    ``threads``, the CPUs this process may run on and the items read
    before the pool starts; the pool is forked only once two items have
    been read, and fewer run serially in this process. The first item, in
    input order, whose ``fn`` raises decides the error, as it would
    serially; an error in reading the stream comes after the results of
    the items read before it.
    """
    _check_threads(threads)
    if "fork" not in multiprocessing.get_all_start_methods():
        threads = 1
    return _ordered_map(fn, iter(items), min(threads, _usable_cpus()))


def _ordered_map(
    fn: Callable[[_T], _R], items: Iterator[_T], workers: int
) -> Iterator[_R]:
    """:func:`_run_jobs` once ``threads`` has become a worker count."""
    read_error = None

    def read() -> Iterator[_T]:
        # A failed read is raised after the results of the items before it.
        nonlocal read_error
        try:
            yield from items
        except Exception as exc:
            read_error = exc

    source = read()
    head = list(itertools.islice(source, 2 * workers))
    workers = min(workers, len(head))
    if workers <= 1:
        yield from map(fn, itertools.chain(head, source))
    else:
        # multiprocessing flushes stdout and stderr before it forks, so no
        # worker writes out text this process buffered. Frozen objects are
        # left alone by the workers' garbage collections, which would
        # otherwise write to, and so copy, every page of them that a worker
        # shares with this process: with two workers, infer's summed
        # proportional set size peaked at 72 rather than 93 MB. A caller
        # that froze objects itself keeps them frozen.
        thaw = gc.get_freeze_count() == 0
        if thaw:
            gc.freeze()
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_set_worker_fn,
            initargs=(fn,),
        )
        try:
            pending = collections.deque(
                pool.submit(_call_worker_fn, item) for item in head
            )
            head.clear()
            while pending:
                result = pending.popleft().result()
                pending.extend(
                    pool.submit(_call_worker_fn, item)
                    for item in itertools.islice(source, 1)
                )
                yield result
        finally:
            pool.shutdown(cancel_futures=True)
            if thaw:
                gc.unfreeze()
    if read_error is not None:
        raise read_error


def classify(
    docs: Sequence[RawDocument],
    config: TrainConfig,
    plan: SplitPlan,
    delta: float = DEFAULT_DELTA,
    threads: int = 1,
) -> EvalReport:
    """Cross-validated per-class-likelihood classification accuracy.

    Every document needs a label and every class at least ``plan.folds``
    documents. Each (fold, class) job trains its model and scores the
    fold's test documents; up to ``threads`` forked worker processes run
    the jobs. Per-model seeds derive from ``config.seed`` and the
    (fold, class) pair, so the worker count never changes results.
    """
    delta = _check_delta(delta)
    if plan.folds < 2:
        raise SettingError("folds must be >= 2 for classification")
    unlabeled = [d.doc_id for d in docs if d.label is None]
    if unlabeled:
        raise ValueError(f"document {unlabeled[0]!r} has no label")
    labels = sorted({d.label for d in docs})
    for label in labels:
        count = sum(1 for d in docs if d.label == label)
        if count < plan.folds:
            raise ValueError(
                f"class {label!r} has {count} documents; needs at least "
                f"{plan.folds} for {plan.folds}-fold evaluation"
            )
    folds = make_folds(docs, plan)
    jobs = []
    for f in range(plan.folds):
        test_set = set(folds[f])
        for li, label in enumerate(labels):
            class_indices = [
                i
                for i, d in enumerate(docs)
                if i not in test_set and d.label == label
            ]
            job_config = replace(config, seed=stage_seed(config.seed, f, li))
            jobs.append((f"class {label!r}", class_indices, job_config, folds[f]))
    score = partial(_score_many, delta=delta)
    counts = cache(partial(_count_documents, docs, config.tokenizer))
    run = partial(_run_job, counts, score)
    job_scores = list(_run_jobs(run, jobs, threads))
    class_of = {label: li for li, label in enumerate(labels)}
    per_fold = []
    details = []
    for f, fold in enumerate(folds):
        # (classes, documents): each class model's scores of the fold.
        scores = job_scores[f * len(labels) : (f + 1) * len(labels)]
        ll = np.array([[s for s, _, _ in class_scores] for class_scores in scores])
        own = [class_of[docs[i].label] for i in fold]
        # argmax takes the first of equal maxima: the smallest label.
        correct = int(np.count_nonzero(ll.argmax(axis=0) == own))
        oov_tokens = sum(scores[c][t][1] for t, c in enumerate(own))
        per_fold.append(correct / len(fold))
        details.append(
            {
                "fold": f,
                "correct": correct,
                "total": len(fold),
                "oov_tokens_own_class": oov_tokens,
            }
        )
    return _report("classify", "accuracy", per_fold, details, config, plan, delta)


def _split_indices(
    docs: Sequence[RawDocument], plan: SplitPlan, split_seed: int
) -> tuple[list[int], list[int]]:
    rng = np.random.default_rng(split_seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    stratified, groups = _shuffled_groups(docs, plan, rng)
    for group in groups:
        k = int(round(plan.train_fraction * len(group)))
        # A stratified split may put a whole label in training; an
        # unstratified one keeps at least one test document.
        k = min(max(k, 1), len(group) if stratified else len(group) - 1)
        train_idx += group[:k]
        test_idx += group[k:]
    if not test_idx or not train_idx:
        raise ValueError("split leaves an empty train or test set")
    return sorted(train_idx), sorted(test_idx)


def heldout_loglik(
    docs: Sequence[RawDocument],
    config: TrainConfig,
    plan: SplitPlan,
    delta: float = DEFAULT_DELTA,
    threads: int = 1,
) -> EvalReport:
    """Held-out log-likelihood over repeated train/test splits.

    Each of ``plan.folds`` rounds draws an independent split from the plan
    seed, trains on the train side, and sums the smoothed log-likelihood
    of the test side. Details include a unigram baseline that replaces the
    per-document topic mixture with the corpus-wide P(w). Fails if a round
    leaves no test document with any in-vocabulary term. Up to ``threads``
    forked worker processes train and score the rounds; per-round seeds
    derive from ``config.seed``, so the worker count never changes results.
    """
    delta = _check_delta(delta)
    splits = [
        _split_indices(docs, plan, stage_seed(plan.seed, f))
        for f in range(plan.folds)
    ]
    jobs = [
        (
            f"round {f}",
            train_idx,
            replace(config, seed=stage_seed(config.seed, f)),
            test_idx,
        )
        for f, (train_idx, test_idx) in enumerate(splits)
    ]
    score = partial(_loglik_totals, delta=delta)
    counts = cache(partial(_count_documents, docs, config.tokenizer))
    run = partial(_run_job, counts, score)
    results = list(_run_jobs(run, jobs, threads))
    per_fold = []
    details = []
    for f, ((train_idx, test_idx), stats) in enumerate(zip(splits, results)):
        if stats["docs_with_known_terms"] == 0:
            raise ValueError(
                f"round {f}: every held-out document is fully out of vocabulary"
            )
        per_fold.append(stats["loglik"])
        details.append(
            {
                "fold": f,
                "n_train": len(train_idx),
                "n_test": len(test_idx),
                "oov_tokens": stats["oov_tokens"],
                "n_tokens": stats["n_tokens"],
                "baseline_loglik": stats["unigram_loglik"],
            }
        )
    return _report("loglik", "loglik", per_fold, details, config, plan, delta)


def _report(
    protocol: str,
    metric: str,
    per_fold: list[float],
    details: list[dict],
    config: TrainConfig,
    plan: SplitPlan,
    delta: float,
) -> EvalReport:
    """The report of a run: per-fold values, their mean and sample stdev, and
    everything needed to reproduce it."""
    return EvalReport(
        protocol=protocol,
        metric=metric,
        per_fold=tuple(per_fold),
        mean=statistics.fmean(per_fold),
        stdev=statistics.stdev(per_fold) if len(per_fold) > 1 else 0.0,
        config={
            "model": _config_to_dict(config),
            "plan": asdict(plan),
            "delta": delta,
        },
        details=tuple(details),
    )


def generate_synthetic(
    seed: int = 0,
    n_classes: int = 3,
    vocab_per_class: int = 50,
    docs_per_class: int = 100,
    doc_length: int = 50,
    overlap_fraction: float = 0.0,
) -> list[RawDocument]:
    """Build a labeled corpus with known class structure.

    Class c draws tokens uniformly from its own pool of
    ``vocab_per_class`` terms (named ``c{c}w{t}``) plus a shared pool of
    ``round(overlap_fraction * vocab_per_class)`` terms (named ``sw{t}``)
    common to all classes. Token names survive the default tokenizer.
    Labels are ``class0``..; ids are ``class0-000``..
    """
    _check_seed(_checked("seed", seed, int))
    for name in ("n_classes", "vocab_per_class", "docs_per_class", "doc_length"):
        if _checked(name, locals()[name], int) < 1:
            raise SettingError(f"{name} must be >= 1")
    if not 0.0 <= _checked("overlap_fraction", overlap_fraction, float) < 1.0:
        raise SettingError("overlap_fraction must be in [0, 1)")
    shared = [f"sw{t}" for t in range(int(round(overlap_fraction * vocab_per_class)))]
    rng = np.random.default_rng(seed)
    docs = []
    for ci in range(n_classes):
        label = f"class{ci}"
        pool = [f"c{ci}w{t}" for t in range(vocab_per_class)] + shared
        for d in range(docs_per_class):
            picks = rng.integers(0, len(pool), size=doc_length)
            text = " ".join(map(pool.__getitem__, picks.tolist()))
            docs.append(
                RawDocument(doc_id=f"{label}-{d:03d}", text=text, label=label)
            )
    return docs
