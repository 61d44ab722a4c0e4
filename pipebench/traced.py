"""Spans around flatm's public functions, and the per-layer metrics they give.

A traced run calls, from this file, the same public functions a flatm
command composes and records a span around each call: name, start, end,
parent span and run id. Counts the layer reports (tokens, iterations,
bytes) ride on the span as extra fields. Spans stay in memory and are
written out as JSON Lines when the run ends.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

from flatm.corpus import build_matrix
from flatm.fcm import FcmConfig, fcm_run
from flatm.model import (
    TopicModel,
    TrainConfig,
    cascade_reduce,
    stage_seed,
    topic_given_doc,
    word_given_doc,
    word_given_topic,
    word_probabilities,
)
from flatm.weighting import apply_gtw, compute_global_weights, local_weights

# Every per-layer metric, with its unit. A workload that does not exercise a
# layer reports 0 for it.
LAYER_UNITS = {
    "corpus.load_s": "s",
    "corpus.build_matrix_s": "s",
    "corpus.tokens": "count",
    "corpus.terms": "count",
    "corpus.nnz": "count",
    "weighting.local_s": "s",
    "weighting.global_s": "s",
    "weighting.apply_s": "s",
    "fcm.stage0_s": "s",
    "fcm.cascade_rest_s": "s",
    "fcm.topic_s": "s",
    "fcm.runs": "count",
    "fcm.iterations": "count",
    "fcm.stage0_iterations": "count",
    "fcm.cap_hits": "count",
    "model.assembly_s": "s",
    "model.save_s": "s",
    "model.json_bytes": "bytes",
    "model.load_s": "s",
    "model.fold_in_calls": "count",
    "model.fold_in_p50_us": "us",
    "model.fold_in_p99_us": "us",
    "model.oov_docs": "count",
    "evaluation.train_jobs": "count",
    "evaluation.train_jobs_s": "s",
    "evaluation.train_job_p50_s": "s",
    "evaluation.score_calls": "count",
    "evaluation.score_p50_us": "us",
    "evaluation.score_p99_us": "us",
    "evaluation.oov_tokens": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_ASSEMBLY = ("word_probabilities", "word_given_topic", "word_given_doc", "topic_given_doc")


class Tracer:
    """Collects spans for one run; nesting follows the ``span`` blocks."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _new(self, name: str, start: float, fields: dict) -> dict:
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "name": name,
            "start": start,
            "end": None,
            **fields,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, **fields):
        """Time the block; the yielded record takes extra count fields."""
        record = self._new(name, time.perf_counter(), fields)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, **fields) -> None:
        """Record an already finished interval under the open span."""
        self._new(name, start, fields)["end"] = end

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for record in self.spans:
                f.write(json.dumps(record) + "\n")


def traced_train(tracer: Tracer, docs, config: TrainConfig) -> TopicModel:
    """``flatm.model.train`` for a cascade config, one span per call.

    The cascade's ``on_stage`` callback closes one ``fcm.stage`` span per
    stage, so stage 0 includes densifying the weighted matrix.
    """
    with tracer.span("build_matrix") as record:
        vocab, tdm = build_matrix(docs, config.tokenizer, min_df=config.min_df)
    record.update(
        tokens=int(tdm.counts.sum()), terms=len(vocab), nnz=int(tdm.counts.nnz)
    )
    with tracer.span("local_weights"):
        lw = local_weights(tdm)
    with tracer.span("compute_global_weights"):
        weights = compute_global_weights(
            lw, config.gtw, epsilon=config.epsilon, idf_variant=config.idf_variant
        )
    with tracer.span("apply_gtw"):
        weighted = apply_gtw(tdm, weights)
    with tracer.span("cascade_reduce") as record:
        mark = record["start"]

        def on_stage(stage, result):
            nonlocal mark
            now = time.perf_counter()
            tracer.add(
                "fcm.stage",
                mark,
                now,
                stage=stage,
                iterations=result.iterations,
                converged=result.converged,
            )
            mark = now

        reduced = cascade_reduce(
            weighted,
            config.schedule,
            fuzzifier=config.fuzzifier,
            threshold=config.threshold,
            max_iterations=config.max_iterations,
            seed=config.seed,
            on_stage=on_stage,
        )
    # train() runs the topic stage through fcm_run itself, which also gives
    # the iteration count that topic_memberships() would drop.
    topic_config = FcmConfig(
        n_clusters=config.n_topics,
        fuzzifier=config.fuzzifier,
        threshold=config.threshold,
        max_iterations=config.max_iterations,
        seed=stage_seed(config.seed, len(config.schedule)),
    )
    with tracer.span("fcm_run") as record:
        result = fcm_run(reduced, topic_config)
    record.update(iterations=result.iterations, converged=result.converged)
    ptw = result.membership
    with tracer.span("word_probabilities"):
        pw = word_probabilities(weighted)
    with tracer.span("word_given_topic"):
        pwt = word_given_topic(ptw, pw)
    with tracer.span("word_given_doc"):
        pwd = word_given_doc(weighted)
    with tracer.span("topic_given_doc"):
        ptd = topic_given_doc(ptw, pwd)
    return TopicModel(
        vocabulary=vocab,
        config=config,
        global_weights=weights,
        topic_given_word=ptw,
        word_prob=pw,
        word_given_topic=pwt,
        topic_given_doc=ptd,
        doc_ids=tdm.doc_ids,
    )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_metrics(spans: list[dict], untraced_wall_s: float) -> dict[str, float]:
    """Fold spans into the per-layer metrics of ``LAYER_UNITS``."""

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def seconds(items):
        return sum(s["end"] - s["start"] for s in items)

    def total(items, field):
        return sum(s.get(field, 0) for s in items)

    stages = named("fcm.stage")
    stage0 = [s for s in stages if s["stage"] == 0]
    fcm_runs = stages + named("fcm_run")
    matrices = named("build_matrix")
    folds_in = named("fold_in")
    jobs = named("train")
    scores = named("doc_log_likelihood")
    saves = named("save_model")
    traced_wall = seconds(named("traced_command"))
    metrics = {
        "corpus.load_s": seconds(named("load_corpus")),
        "corpus.build_matrix_s": seconds(matrices),
        "corpus.tokens": total(matrices, "tokens"),
        "corpus.terms": total(matrices, "terms"),
        "corpus.nnz": total(matrices, "nnz"),
        "weighting.local_s": seconds(named("local_weights")),
        "weighting.global_s": seconds(named("compute_global_weights")),
        "weighting.apply_s": seconds(named("apply_gtw")),
        "fcm.stage0_s": seconds(stage0),
        "fcm.cascade_rest_s": seconds(stages) - seconds(stage0),
        "fcm.topic_s": seconds(named("fcm_run")),
        "fcm.runs": len(fcm_runs),
        "fcm.iterations": total(fcm_runs, "iterations"),
        "fcm.stage0_iterations": total(stage0, "iterations"),
        "fcm.cap_hits": sum(1 for s in fcm_runs if not s["converged"]),
        "model.assembly_s": seconds(named(*_ASSEMBLY)),
        "model.save_s": seconds(saves),
        "model.json_bytes": total(saves, "bytes"),
        "model.load_s": seconds(named("load_model")),
        "model.fold_in_calls": len(folds_in),
        "model.fold_in_p50_us": 1e6 * percentile(_durations(folds_in), 50),
        "model.fold_in_p99_us": 1e6 * percentile(_durations(folds_in), 99),
        "model.oov_docs": total(folds_in, "oov"),
        "evaluation.train_jobs": len(jobs),
        "evaluation.train_jobs_s": seconds(jobs),
        "evaluation.train_job_p50_s": percentile(_durations(jobs), 50),
        "evaluation.score_calls": len(scores),
        "evaluation.score_p50_us": 1e6 * percentile(_durations(scores), 50),
        "evaluation.score_p99_us": 1e6 * percentile(_durations(scores), 99),
        "evaluation.oov_tokens": total(scores, "own_oov"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall_s,
    }
    assert metrics.keys() == LAYER_UNITS.keys()
    return metrics


def _durations(items: list[dict]) -> list[float]:
    return [s["end"] - s["start"] for s in items]
