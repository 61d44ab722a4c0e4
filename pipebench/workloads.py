"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed, names the flatm
command that is timed, checks that command's outputs, and re-composes the
command from flatm's public functions for the traced run. Checks are
invariants, not pinned hashes, so a legitimate rounding change still
passes; determinism is checked by comparing a workload's own outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from flatm.corpus import load_corpus
from flatm.evaluation import (
    SplitPlan,
    doc_log_likelihood,
    generate_synthetic,
    make_folds,
)
from flatm.model import (
    OutOfVocabularyError,
    TrainConfig,
    fold_in,
    load_model,
    save_model,
    stage_seed,
)

from traced import Tracer, traced_train

# Rounding slack for "in [0, 1]" and "sums to 1". Exact bounds would fail on
# legitimate rounding: train-large at seed 109 writes P(T|D) entries of
# 1.0000000000000002 where a topic's P(T|W) rows are all 1.0.
TOLERANCE = 1e-9
# Every fold of eval-classify measures accuracy 1.0 on this corpus.
ACCURACY_FLOOR = 0.95

# run_flatm(argv, tag) runs one flatm command in a child process and returns
# its result record, or None when it crashed or ran out of time.
RunFlatm = Callable[[list[str], str], "dict | None"]


class SetupError(RuntimeError):
    """Making a workload's inputs failed."""


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _write_labeled(docs, path: Path) -> None:
    path.write_text("".join(f"{d.label}\t{d.text}\n" for d in docs), encoding="utf-8")


def _check_table(name: str, values, axis: int) -> list[str]:
    """Finite, inside [0, 1], and summing to 1 along ``axis``, within TOLERANCE."""
    a = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        return [f"{name}: non-finite entry"]
    if a.min() < -TOLERANCE or a.max() > 1.0 + TOLERANCE:
        return [f"{name}: entry outside [0, 1]: {a.min()!r}..{a.max()!r}"]
    off = float(np.abs(a.sum(axis=axis) - 1.0).max())
    if off > TOLERANCE:
        return [f"{name}: sums miss 1 by {off:.3g}"]
    return []


def check_model_file(path: Path) -> list[str]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return (
        _check_table("topic_given_word", doc["topic_given_word"], 1)
        + _check_table("word_prob", doc["word_prob"], 0)
        + _check_table("word_given_topic", doc["word_given_topic"], 1)
        + _check_table("topic_given_doc", doc["topic_given_doc"]["values"], 0)
    )


def _same_bytes(a: Path, b: Path, what: str) -> list[str]:
    return [] if a.read_bytes() == b.read_bytes() else [f"{what}: {a.name} != {b.name}"]


class Workload:
    name = ""

    def __init__(self, seed: int, data: Path, run_flatm: RunFlatm):
        self.data = data
        self.run_flatm = run_flatm

    def prepare(self) -> None:
        """Make the command's inputs from the seed and write them to disk."""
        raise NotImplementedError

    def command(self, op: int) -> list[str]:
        """The flatm argv of timed command ``op``; outputs go to op's own files."""
        raise NotImplementedError

    def check(self, op: int) -> list[str]:
        """Errors found in the outputs of timed command ``op``."""
        raise NotImplementedError

    def final_checks(self) -> tuple[int, list[str]]:
        """Extra commands run after the timed ones: (count, errors)."""
        return 0, []

    def traced(self, tracer: Tracer) -> list[str]:
        """Re-run command 0 from public functions; errors if outputs differ."""
        raise NotImplementedError


class TrainLarge(Workload):
    name = "train-large"

    def __init__(self, seed, data, run_flatm):
        super().__init__(seed, data, run_flatm)
        self.corpus_seed, self.model_seed = _seeds(seed, 2)
        self.corpus = data / "corpus.tsv"
        self.config = TrainConfig(n_topics=10, gtw="entropy", seed=self.model_seed)

    def model(self, op: int) -> Path:
        return self.data / f"model-{op}.json"

    def prepare(self):
        docs = generate_synthetic(
            self.corpus_seed,
            n_classes=20,
            vocab_per_class=500,
            docs_per_class=500,
            doc_length=100,
            overlap_fraction=0.2,
        )
        _write_labeled(docs, self.corpus)

    def command(self, op):
        return [
            "train", "--input", str(self.corpus), "--format", "labeled-tsv",
            "--topics", "10", "--gtw", "entropy", "--seed", str(self.model_seed),
            "--output", str(self.model(op)),
        ]

    def check(self, op):
        errors = check_model_file(self.model(op))
        if op > 0:
            errors += _same_bytes(self.model(0), self.model(op), "model file")
        return errors

    def traced(self, tracer):
        path = self.data / "model-traced.json"
        with tracer.span("load_corpus"):
            docs = load_corpus(self.corpus, "labeled-tsv")
        model = traced_train(tracer, docs, self.config)
        with tracer.span("save_model") as record:
            save_model(model, path)
        record["bytes"] = path.stat().st_size
        return _same_bytes(self.model(0), path, "traced model file")


class InferBatch(Workload):
    name = "infer-batch"
    oov_share = 0.01

    def __init__(self, seed, data, run_flatm):
        super().__init__(seed, data, run_flatm)
        self.train_seed, self.model_seed, self.docs_seed, self.oov_seed = _seeds(seed, 4)
        self.train_corpus = data / "train.tsv"
        self.model = data / "model.json"
        self.lines = data / "unseen.txt"
        self.oov_lines: set[int] = set()
        self.n_lines = 0

    def csv(self, op: int) -> Path:
        return self.data / f"topics-{op}.csv"

    def prepare(self):
        docs = generate_synthetic(
            self.train_seed,
            n_classes=10,
            vocab_per_class=300,
            docs_per_class=300,
            doc_length=100,
            overlap_fraction=0.2,
        )
        _write_labeled(docs, self.train_corpus)
        result = self.run_flatm(
            [
                "train", "--input", str(self.train_corpus), "--format", "labeled-tsv",
                "--topics", "10", "--gtw", "entropy", "--seed", str(self.model_seed),
                "--output", str(self.model),
            ],
            "setup-train",
        )
        if result is None or result["rc"] != 0:
            raise SetupError("training the model to infer with failed")
        texts = [
            d.text
            for d in generate_synthetic(
                self.docs_seed,
                n_classes=10,
                vocab_per_class=300,
                docs_per_class=2000,
                doc_length=100,
                overlap_fraction=0.2,
            )
        ]
        # Lines made only of terms no training document has.
        rng = np.random.default_rng(self.oov_seed)
        n_oov = round(self.oov_share * len(texts))
        self.oov_lines = {int(i) for i in rng.choice(len(texts), n_oov, replace=False)}
        for i in sorted(self.oov_lines):
            texts[i] = " ".join(f"unseen{t}" for t in rng.integers(0, 1000, 100))
        self.n_lines = len(texts)
        self.lines.write_text("\n".join(texts) + "\n", encoding="utf-8")

    def command(self, op):
        return [
            "infer", "--model", str(self.model), "--input", str(self.lines),
            "--format", "lines", "--output", str(self.csv(op)),
        ]

    def check(self, op):
        errors = check_model_file(self.model)
        rows = list(csv.reader(io.StringIO(self.csv(op).read_text(encoding="utf-8"))))
        header, rows = rows[0], rows[1:]
        n_topics = len(header) - 1
        if len(rows) != self.n_lines:
            return errors + [f"{len(rows)} rows for {self.n_lines} input lines"]
        flagged = {i for i, row in enumerate(rows) if row[1:] == ["ERROR_OOV"]}
        if flagged != self.oov_lines:
            errors.append(
                f"ERROR_OOV on {len(flagged)} lines, planted on {len(self.oov_lines)}"
            )
        if any(row[0] != str(i + 1) for i, row in enumerate(rows)):
            errors.append("row ids do not follow input line numbers")
        mixed = [row[1:] for i, row in enumerate(rows) if i not in flagged]
        if any(len(values) != n_topics for values in mixed):
            errors.append("a topic row has the wrong width")
        else:
            errors += _check_table("P(T|D) rows", [[float(v) for v in r] for r in mixed], 1)
        if op > 0:
            errors += _same_bytes(self.csv(0), self.csv(op), "infer CSV")
        return errors

    def traced(self, tracer):
        with tracer.span("load_model"):
            model = load_model(self.model)
        with tracer.span("load_corpus"):
            docs = load_corpus(self.lines, "lines", allow_empty=True)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["doc_id"] + [f"topic_{k}" for k in range(model.n_topics)])
        for doc in docs:
            with tracer.span("fold_in") as record:
                try:
                    vec = fold_in(model, doc)
                except OutOfVocabularyError:
                    vec = None
            if vec is None:
                record["oov"] = 1
                writer.writerow([doc.doc_id, "ERROR_OOV"])
            else:
                writer.writerow([doc.doc_id] + [repr(float(v)) for v in vec])
        path = self.data / "topics-traced.csv"
        path.write_text(buffer.getvalue(), encoding="utf-8")
        return _same_bytes(self.csv(0), path, "traced infer CSV")


class EvalClassify(Workload):
    name = "eval-classify"
    threads = 2

    def __init__(self, seed, data, run_flatm):
        super().__init__(seed, data, run_flatm)
        self.corpus_seed, self.eval_seed = _seeds(seed, 2)
        self.corpus = data / "corpus.tsv"
        self.config = TrainConfig(n_topics=5, seed=self.eval_seed)
        self.plan = SplitPlan(seed=self.eval_seed, folds=5)

    def report(self, op) -> Path:
        return self.data / f"report-{op}.json"

    def _argv(self, report: Path, threads: int) -> list[str]:
        return [
            "eval", "classify", "--input", str(self.corpus), "--topics", "5",
            "--folds", "5", "--threads", str(threads), "--seed", str(self.eval_seed),
            "--output", str(report),
        ]

    def prepare(self):
        docs = generate_synthetic(
            self.corpus_seed,
            n_classes=4,
            vocab_per_class=300,
            docs_per_class=300,
            doc_length=100,
            overlap_fraction=0.2,
        )
        _write_labeled(docs, self.corpus)
        self.n_docs = len(docs)

    def command(self, op):
        return self._argv(self.report(op), self.threads)

    def check(self, op):
        report = json.loads(self.report(op).read_text(encoding="utf-8"))
        errors = []
        per_fold = report["per_fold"]
        if len(per_fold) != self.plan.folds or min(per_fold) < ACCURACY_FLOOR:
            errors.append(f"per-fold accuracy {per_fold} below {ACCURACY_FLOOR}")
        if sum(d["total"] for d in report["details"]) != self.n_docs:
            errors.append("folds do not cover every document once")
        if op > 0:
            errors += _same_bytes(self.report(0), self.report(op), "classify report")
        return errors

    def final_checks(self):
        serial = self.data / "report-serial.json"
        result = self.run_flatm(self._argv(serial, 1), "threads-1")
        if result is None or result["rc"] != 0:
            return 1, ["eval classify --threads 1 failed"]
        return 1, _same_bytes(self.report(0), serial, "classify report at 1 vs 2 threads")

    def traced(self, tracer):
        with tracer.span("load_corpus"):
            docs = load_corpus(self.corpus, "labeled-tsv")
        with tracer.span("make_folds"):
            folds = make_folds(docs, self.plan)
        labels = sorted({d.label for d in docs})
        models = []
        for f, fold in enumerate(folds):
            test_set = set(fold)
            for li, label in enumerate(labels):
                class_docs = [
                    d for i, d in enumerate(docs) if i not in test_set and d.label == label
                ]
                config = replace(self.config, seed=stage_seed(self.config.seed, f, li))
                with tracer.span("train"):
                    models.append(traced_train(tracer, class_docs, config))
        per_fold = []
        details = []
        for f, fold in enumerate(folds):
            fold_models = models[f * len(labels) : (f + 1) * len(labels)]
            correct = 0
            oov_tokens = 0
            for i in fold:
                doc = docs[i]
                best_label, best_ll = None, -math.inf
                for label, model in zip(labels, fold_models):
                    with tracer.span("doc_log_likelihood") as record:
                        ll, oov, _ = doc_log_likelihood(model, doc)
                    if ll > best_ll:
                        best_ll, best_label = ll, label
                    if label == doc.label:
                        record["own_oov"] = oov
                        oov_tokens += oov
                correct += best_label == doc.label
            per_fold.append(correct / len(fold))
            details.append(
                {
                    "fold": f,
                    "correct": correct,
                    "total": len(fold),
                    "oov_tokens_own_class": oov_tokens,
                }
            )
        report = json.loads(self.report(0).read_text(encoding="utf-8"))
        if json.dumps(per_fold) != json.dumps(report["per_fold"]):
            return [f"traced per-fold accuracies {per_fold} != {report['per_fold']}"]
        if details != report["details"]:
            return ["traced fold details differ from the report"]
        return []


WORKLOADS = {w.name: w for w in (TrainLarge, InferBatch, EvalClassify)}
