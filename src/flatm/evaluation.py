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
counts, O(nnz * K). Per-document totals are exact ``math.fsum`` sums.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence, TypeVar

import numpy as np

from .corpus import RawDocument
from .model import (
    ScheduleError,
    TopicModel,
    TrainConfig,
    _config_to_dict,
    _fold_chunks,
    stage_seed,
    train,
)

__all__ = [
    "SplitPlan",
    "EvalReport",
    "DEFAULT_DELTA",
    "make_folds",
    "doc_log_likelihood",
    "corpus_log_likelihood",
    "classify",
    "heldout_loglik",
    "generate_synthetic",
]

DEFAULT_DELTA = 1e-9

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
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.folds < 1:
            raise ValueError("folds must be >= 1")


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
        return {
            "protocol": self.protocol,
            "metric": self.metric,
            "per_fold": list(self.per_fold),
            "mean": self.mean,
            "stdev": self.stdev,
            "config": self.config,
            "details": list(self.details),
        }

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


def _summary(values: Sequence[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    stdev = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, stdev


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
    stratified = plan.stratified and all(d.label is not None for d in docs)
    if stratified:
        labels = sorted({d.label for d in docs})
        for li, label in enumerate(labels):
            idxs = [i for i, d in enumerate(docs) if d.label == label]
            perm = rng.permutation(len(idxs))
            for pos, p in enumerate(perm):
                folds[(pos + li) % plan.folds].append(idxs[int(p)])
    else:
        perm = rng.permutation(len(docs))
        for pos, p in enumerate(perm):
            folds[pos % plan.folds].append(int(p))
    return [tuple(sorted(fold)) for fold in folds]


def _check_delta(delta: float) -> None:
    if not delta > 0:
        raise ValueError("delta must be positive")


def _score_many(
    model: TopicModel,
    docs: Sequence[RawDocument],
    delta: float,
    word_dist: np.ndarray | None = None,
) -> list[tuple[float, int, int]]:
    """(loglik, oov_tokens, total_tokens) for each document, in order.

    Documents are counted and folded in by the model's batch fold-in. The
    mixture sum_k P(w|T_k) P(T_k|d), or ``word_dist[w]``, is formed only
    at each document's non-zero counts, O(nnz * K); a length-m mixture is
    never built. Every step is elementwise or confined to one document,
    and each document's terms are summed exactly by ``math.fsum``, so a
    score has the same bits alone or inside any batch.
    """
    _check_delta(delta)
    log_delta = math.log(delta)
    scores = []
    for _, tdm, ptd, _ in _fold_chunks(model, docs):
        counts = tdm.counts.tocsc()
        rows = counts.indices
        if word_dist is None:
            cols = np.repeat(np.arange(tdm.n_docs), np.diff(counts.indptr))
            mix = np.zeros(counts.nnz)
            for k in range(model.n_topics):
                mix += model.word_given_topic[k, rows] * ptd[k, cols]
        else:
            mix = np.asarray(word_dist, dtype=np.float64)[rows]
        shifted = delta + mix
        for j in range(tdm.n_docs):
            entries = slice(counts.indptr[j], counts.indptr[j + 1])
            doc_counts = counts.data[entries].tolist()
            terms = [
                c * math.log(x)
                for c, x in zip(doc_counts, shifted[entries].tolist())
            ]
            total = int(tdm.tokens[j])
            oov = total - int(sum(doc_counts))
            if oov:
                terms.append(oov * log_delta)
            scores.append((math.fsum(terms), oov, total))
    return scores


def doc_log_likelihood(
    model: TopicModel,
    doc: RawDocument,
    delta: float = DEFAULT_DELTA,
    word_dist: np.ndarray | None = None,
) -> tuple[float, int, int]:
    """Smoothed log-likelihood of one document under the model.

    Returns (loglik, oov_tokens, total_tokens). By default each known
    token w contributes log(delta + sum_k P(w|T_k) P(T_k|d)) with P(T|d)
    from fold-in; pass ``word_dist`` (length m) to score against a fixed
    word distribution instead, e.g. the unigram P(w). Unknown tokens and
    fully out-of-vocabulary documents contribute log(delta) per token.
    The result has the same bits as this document's score inside
    :func:`corpus_log_likelihood`.
    """
    return _score_many(model, [doc], delta, word_dist)[0]


def corpus_log_likelihood(
    model: TopicModel,
    docs: Sequence[RawDocument],
    delta: float = DEFAULT_DELTA,
    word_dist: np.ndarray | None = None,
) -> dict:
    """Totals over a document set; order-invariant thanks to exact sums."""
    scores = _score_many(model, docs, delta, word_dist)
    return {
        "loglik": math.fsum(ll for ll, _, _ in scores),
        "oov_tokens": sum(oov for _, oov, _ in scores),
        "n_tokens": sum(total for _, _, total in scores),
        "docs_with_known_terms": sum(1 for _, oov, total in scores if oov < total),
    }


def _train_named(
    name: str, docs: Sequence[RawDocument], config: TrainConfig
) -> TopicModel:
    try:
        return train(docs, config)
    except ScheduleError as exc:
        raise ScheduleError(f"{name}: {exc}") from exc


# A job is (name, train_docs, config, test_docs, delta): train one model and
# score the test documents with it. A job returns only numbers, so a worker
# process sends back a few kilobytes and the caller never holds the models.
_Job = tuple[str, Sequence[RawDocument], TrainConfig, Sequence[RawDocument], float]


def _classify_job(job: _Job) -> list[tuple[float, int, int]]:
    name, train_docs, config, test_docs, delta = job
    return _score_many(_train_named(name, train_docs, config), test_docs, delta)


def _loglik_job(job: _Job) -> tuple[dict, dict]:
    """Topic-mixture totals and unigram-baseline totals over the test set."""
    name, train_docs, config, test_docs, delta = job
    model = _train_named(name, train_docs, config)
    return (
        corpus_log_likelihood(model, test_docs, delta),
        corpus_log_likelihood(model, test_docs, delta, word_dist=model.word_prob),
    )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(
    fn: Callable[[_Job], _R], jobs: Sequence[_Job], threads: int
) -> list[_R]:
    """``fn(job)`` for every job, in index order.

    With more than one worker the jobs run in a pool of processes forked
    from this one (the POSIX ``fork`` start method), so a worker starts
    without importing numpy and scipy again; each job and its result
    travel by pickle. Threads cannot share the work: each FCM iteration is
    many small numpy calls that hold the GIL. Workers are capped by
    ``threads``, the job count and the CPUs this process may run on. Every
    job's seed is fixed in its config, so the worker count never changes a
    result. The first job, in index order, that raises decides the error,
    as it would serially: a job too small for its schedule raises a
    :class:`ScheduleError` that names the job.
    """
    workers = min(threads, len(jobs), _usable_cpus())
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        return list(pool.map(fn, jobs))


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
    _check_delta(delta)
    if plan.folds < 2:
        raise ValueError("classification needs at least 2 folds")
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
    fold_docs = [[docs[i] for i in fold] for fold in folds]
    jobs = []
    for f in range(plan.folds):
        test_set = set(folds[f])
        for li, label in enumerate(labels):
            class_docs = [
                d
                for i, d in enumerate(docs)
                if i not in test_set and d.label == label
            ]
            seed = stage_seed(config.seed, f, li)
            jobs.append(
                (
                    f"class {label!r}",
                    class_docs,
                    replace(config, seed=seed),
                    fold_docs[f],
                    delta,
                )
            )
    job_scores = _run_jobs(_classify_job, jobs, threads)
    per_fold = []
    details = []
    for f in range(plan.folds):
        scores = dict(
            zip(labels, job_scores[f * len(labels) : (f + 1) * len(labels)])
        )
        correct = 0
        oov_tokens = 0
        for t, doc in enumerate(fold_docs[f]):
            best_label = None
            best_ll = -math.inf
            for label in labels:
                ll, oov, _ = scores[label][t]
                if ll > best_ll:
                    best_ll, best_label = ll, label
                if label == doc.label:
                    oov_tokens += oov
            if best_label == doc.label:
                correct += 1
        accuracy = correct / len(folds[f])
        per_fold.append(accuracy)
        details.append(
            {
                "fold": f,
                "correct": correct,
                "total": len(folds[f]),
                "oov_tokens_own_class": oov_tokens,
            }
        )
    mean, stdev = _summary(per_fold)
    return EvalReport(
        protocol="classify",
        metric="accuracy",
        per_fold=tuple(per_fold),
        mean=mean,
        stdev=stdev,
        config=_echo_config(config, plan, delta),
        details=tuple(details),
    )


def _split_indices(
    docs: Sequence[RawDocument], plan: SplitPlan, split_seed: int
) -> tuple[list[int], list[int]]:
    rng = np.random.default_rng(split_seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    stratified = plan.stratified and all(d.label is not None for d in docs)
    if stratified:
        for label in sorted({d.label for d in docs}):
            idxs = [i for i, d in enumerate(docs) if d.label == label]
            perm = [idxs[int(p)] for p in rng.permutation(len(idxs))]
            k = int(round(plan.train_fraction * len(idxs)))
            k = min(max(k, 1), len(idxs))
            train_idx += perm[:k]
            test_idx += perm[k:]
    else:
        perm = [int(p) for p in rng.permutation(len(docs))]
        k = int(round(plan.train_fraction * len(docs)))
        k = min(max(k, 1), len(docs) - 1)
        train_idx, test_idx = perm[:k], perm[k:]
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
    _check_delta(delta)
    splits = [
        _split_indices(docs, plan, stage_seed(plan.seed, f))
        for f in range(plan.folds)
    ]
    jobs = [
        (
            f"round {f}",
            [docs[i] for i in train_idx],
            replace(config, seed=stage_seed(config.seed, f)),
            [docs[i] for i in test_idx],
            delta,
        )
        for f, (train_idx, test_idx) in enumerate(splits)
    ]
    results = _run_jobs(_loglik_job, jobs, threads)
    per_fold = []
    details = []
    for f, ((train_idx, test_idx), (stats, baseline)) in enumerate(
        zip(splits, results)
    ):
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
                "baseline_loglik": baseline["loglik"],
            }
        )
    mean, stdev = _summary(per_fold)
    return EvalReport(
        protocol="loglik",
        metric="loglik",
        per_fold=tuple(per_fold),
        mean=mean,
        stdev=stdev,
        config=_echo_config(config, plan, delta),
        details=tuple(details),
    )


def _echo_config(config: TrainConfig, plan: SplitPlan, delta: float) -> dict:
    return {
        "model": _config_to_dict(config),
        "plan": {
            "seed": plan.seed,
            "train_fraction": plan.train_fraction,
            "folds": plan.folds,
            "stratified": plan.stratified,
        },
        "delta": delta,
    }


def generate_synthetic(
    seed: int,
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
    if n_classes < 1 or vocab_per_class < 1 or docs_per_class < 1 or doc_length < 1:
        raise ValueError("all synthetic corpus sizes must be >= 1")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError("overlap_fraction must be in [0, 1)")
    shared = [f"sw{t}" for t in range(int(round(overlap_fraction * vocab_per_class)))]
    rng = np.random.default_rng(seed)
    docs = []
    for ci in range(n_classes):
        label = f"class{ci}"
        pool = [f"c{ci}w{t}" for t in range(vocab_per_class)] + shared
        for d in range(docs_per_class):
            picks = rng.integers(0, len(pool), size=doc_length)
            text = " ".join(pool[int(p)] for p in picks)
            docs.append(
                RawDocument(doc_id=f"{label}-{d:03d}", text=text, label=label)
            )
    return docs
