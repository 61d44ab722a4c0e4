"""End-to-end acceptance gates.

One test per gate, in order: weighting-formula fidelity, clustering
correctness, pipeline normalization, mixture oracle, topic recovery,
classification quality, weighting-scheme ordering, held-out likelihood,
byte determinism, and serialization. Each runs at a pinned tolerance and,
where stated, a wall-clock budget.
"""
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import flatm
from flatm import (
    CascadeSchedule,
    FcmConfig,
    GtwMethod,
    RawDocument,
    SplitPlan,
    TrainConfig,
    classify,
    fcm_run,
    generate_synthetic,
    heldout_loglik,
    load_model,
    local_weights,
    model_from_json,
    model_to_json,
    top_words,
    topic_given_doc,
    train,
    update_memberships,
)
from flatm.corpus import TermDocMatrix, build_matrix
from flatm.weighting import compute_global_weights

import scipy.sparse as sp

from oracles import (
    entropy_weights,
    fuzzy_memberships,
    gfidf_weights,
    idf_weights_total,
    mixed_topic_given_doc,
    normal_weights,
    probidf_weights,
    random_count_matrix,
)


def make_tdm(f: np.ndarray) -> TermDocMatrix:
    return TermDocMatrix(
        counts=sp.csr_matrix(f.astype(np.float64)),
        doc_ids=tuple(f"d{j}" for j in range(f.shape[1])),
    )


def test_01_term_weights_match_hand_evaluated_formulas():
    started = time.perf_counter()
    oracle_by_method = {
        GtwMethod.ENTROPY: entropy_weights,
        GtwMethod.IDF: idf_weights_total,
        GtwMethod.PROBIDF: probidf_weights,
        GtwMethod.NORMAL: normal_weights,
        GtwMethod.GFIDF: gfidf_weights,
    }
    rng = np.random.default_rng(20260816)
    for _ in range(20):
        f = random_count_matrix(rng)
        lw = local_weights(make_tdm(f))
        for method, oracle in oracle_by_method.items():
            got = compute_global_weights(lw, method).raw
            np.testing.assert_allclose(
                got, oracle(f), atol=1e-12, rtol=0,
                err_msg=f"{method.value} disagrees with direct evaluation",
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"formula check took {elapsed:.2f}s (budget 1s)"


def test_02_fcm_constraints_descent_update_and_blob_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(512)

    # (a) after every iteration: per-point sums 1 within 1e-9, values in
    # [0, 1], per-cluster mass strictly inside (0, n).
    def check_iteration(iteration, membership, centers, objective, max_delta):
        n = membership.shape[0]
        np.testing.assert_allclose(membership.sum(axis=1), 1.0, atol=1e-9)
        assert membership.min() >= 0.0 and membership.max() <= 1.0
        col = membership.sum(axis=0)
        assert np.all(col > 0.0) and np.all(col < n)

    for _ in range(5):
        data = rng.normal(size=(40, 4))
        fcm_run(
            data,
            FcmConfig(n_clusters=3, seed=int(rng.integers(2**32))),
            on_iteration=check_iteration,
        )

    # (b) objective trace never increases beyond 1e-9 slack, 50 seeded runs.
    for seed in range(50):
        data = np.random.default_rng(seed).normal(size=(30, 3))
        trace = fcm_run(data, FcmConfig(n_clusters=3, seed=seed)).objective_trace
        diffs = np.diff(np.asarray(trace))
        assert diffs.max(initial=-np.inf) <= 1e-9, (
            f"seed {seed}: objective rose by {diffs.max()}"
        )

    # (c) membership update equals its direct evaluation to 1e-12.
    for _ in range(25):
        n = int(rng.integers(2, 11))
        c = int(rng.integers(2, 4))
        q = float(rng.uniform(1.3, 3.0))
        data = rng.normal(size=(n, 3))
        centers = rng.normal(size=(c, 3))
        np.testing.assert_allclose(
            update_memberships(data, centers, q),
            fuzzy_memberships(data, centers, q),
            atol=1e-12, rtol=0,
        )

    # (d) two blobs 10 sigma apart: centers within 0.5 sigma of the true
    # means for at least 19 of 20 seeds.
    true_means = np.array([[0.0, 0.0], [10.0, 0.0]])
    hits = 0
    for seed in range(20):
        blob_rng = np.random.default_rng(seed)
        data = np.vstack([
            blob_rng.normal(loc=true_means[0], size=(100, 2)),
            blob_rng.normal(loc=true_means[1], size=(100, 2)),
        ])
        centers = fcm_run(data, FcmConfig(n_clusters=2, seed=seed)).centers
        order = np.argsort(centers[:, 0])
        err = np.linalg.norm(centers[order] - true_means, axis=1).max()
        hits += err < 0.5
    assert hits >= 19, f"blob centers recovered for only {hits}/20 seeds"

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"clustering checks took {elapsed:.2f}s (budget 10s)"


def test_03_trained_probabilities_normalize_for_every_scheme_and_k():
    started = time.perf_counter()
    docs = generate_synthetic(seed=11)  # 3 classes x 100 docs, length 50
    assert len(docs) == 300
    schemes = (
        GtwMethod.ENTROPY,
        GtwMethod.IDF,
        GtwMethod.PROBIDF,
        GtwMethod.NORMAL,
        GtwMethod.NONE,
    )
    for gtw in schemes:
        for k in (2, 5, 10):
            model = train(docs, TrainConfig(n_topics=k, gtw=gtw, seed=1))
            label = f"gtw={gtw.value} K={k}"
            assert abs(model.word_prob.sum() - 1.0) <= 1e-9, label
            np.testing.assert_allclose(
                model.word_given_topic.sum(axis=1), 1.0, atol=1e-9,
                err_msg=label,
            )
            np.testing.assert_allclose(
                model.topic_given_doc.sum(axis=0), 1.0, atol=1e-9,
                err_msg=label,
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"normalization sweep took {elapsed:.2f}s (budget 60s)"


def test_04_topic_document_mixture_matches_triple_loop():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(1, 9))
        k = int(rng.integers(2, 6))
        ptw = rng.random((m, k))
        ptw /= ptw.sum(axis=1, keepdims=True)
        pwd = rng.random((m, n))
        pwd /= pwd.sum(axis=0, keepdims=True)
        np.testing.assert_allclose(
            topic_given_doc(ptw, pwd),
            mixed_topic_given_doc(ptw, pwd),
            atol=1e-12, rtol=0,
        )


def test_05_topics_recover_disjoint_class_pools():
    # A deep reduction cascade oversmooths memberships on corpora this
    # small, so the recovery gate runs the cascade at a practical depth.
    hits = 0
    for seed in range(10):
        docs = generate_synthetic(
            seed=seed, n_classes=2, vocab_per_class=20, docs_per_class=50,
            doc_length=30,
        )
        model = train(
            docs,
            TrainConfig(
                n_topics=2,
                seed=seed,
                schedule=CascadeSchedule(counts=(5, 4, 3, 2)),
            ),
        )
        pure = True
        for topic in range(2):
            pools = {term[:2] for term, _ in top_words(model, topic, count=5)}
            pure = pure and len(pools) == 1
        hits += pure
    assert hits >= 9, f"topics separated class pools for only {hits}/10 seeds"


def _shuffle_labels(docs, seed):
    perm = np.random.default_rng(seed).permutation(len(docs))
    return [
        RawDocument(d.doc_id, d.text, label=docs[int(p)].label)
        for d, p in zip(docs, perm)
    ]


def test_06_cross_validated_accuracy_on_disjoint_classes():
    started = time.perf_counter()
    docs = generate_synthetic(seed=2026)  # disjoint pools, 100/class, len 50
    config = TrainConfig(n_topics=5, gtw=GtwMethod.ENTROPY, seed=1)
    plan = SplitPlan(seed=2026, folds=5)
    report = classify(docs, config, plan, threads=4)
    assert report.mean >= 0.90, f"mean accuracy {report.mean:.3f} < 0.90"

    shuffled = classify(_shuffle_labels(docs, 2026), config, plan, threads=4)
    assert abs(shuffled.mean - 1 / 3) <= 0.15, (
        f"shuffled-label accuracy {shuffled.mean:.3f} not within 0.33 +/- 0.15"
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"classification took {elapsed:.2f}s (budget 120s)"


def test_07_entropy_accuracy_exceeds_gfidf_on_the_disjoint_corpus():
    docs = generate_synthetic(seed=2026)
    plan = SplitPlan(seed=2026, folds=5)
    entropy = classify(
        docs, TrainConfig(n_topics=5, gtw=GtwMethod.ENTROPY, seed=1),
        plan, threads=4,
    )
    gfidf = classify(
        docs, TrainConfig(n_topics=5, gtw=GtwMethod.GFIDF, seed=1),
        plan, threads=4,
    )
    assert entropy.mean > gfidf.mean, (
        f"entropy {entropy.mean:.3f} vs gfidf {gfidf.mean:.3f}: with fully "
        "disjoint class vocabularies, per-class likelihoods are decided by "
        "which tokens are in-vocabulary, which no weighting scheme changes, "
        "so both schemes classify perfectly and a strict ordering cannot "
        "appear; see tests/test_evaluation.py::TestWeightingQuality for the "
        "ordering on a corpus with shared background noise"
    )


def test_08_heldout_likelihood_beats_unigram_baseline():
    docs = generate_synthetic(seed=2026)
    wins = 0
    for seed in range(10):
        report = heldout_loglik(
            docs,
            TrainConfig(n_topics=5, gtw=GtwMethod.ENTROPY, seed=seed),
            SplitPlan(seed=seed, train_fraction=0.9, folds=1),
        )
        value = report.per_fold[0]
        assert math.isfinite(value)
        wins += value > report.details[0]["baseline_loglik"]
    assert wins >= 8, f"model beat the unigram baseline on only {wins}/10 seeds"


# Children run the same flatm package that these tests import.
FLATM_PATH = os.pathsep.join(
    filter(None, [str(Path(flatm.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


def _cli(*args, threads=None):
    env = dict(os.environ, PYTHONPATH=FLATM_PATH)
    env.pop("FLATM_THREADS", None)
    if threads is not None:
        env["FLATM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "flatm", *map(str, args)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_09_identical_seeds_reproduce_bytes_even_across_threads(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    _cli(
        "gen-synth", "--classes", "2", "--vocab-per-class", "10",
        "--docs-per-class", "10", "--doc-length", "10", "--seed", "4",
        "--output", corpus,
    )
    train_args = (
        "train", "--input", corpus, "--format", "labeled-tsv",
        "--topics", "2", "--schedule", "4,2", "--seed", "9",
    )
    model_a, model_b = tmp_path / "a.json", tmp_path / "b.json"
    _cli(*train_args, "--output", model_a)
    _cli(*train_args, "--output", model_b)
    assert model_a.read_bytes() == model_b.read_bytes()

    eval_args = (
        "eval", "classify", "--input", corpus, "--topics", "2",
        "--schedule", "4,2", "--seed", "9", "--folds", "2",
    )
    report_1 = _cli(*eval_args, "--threads", "1").stdout
    report_4 = _cli(*eval_args, "--threads", "4").stdout
    report_env = _cli(*eval_args, threads=4).stdout
    assert report_1 == report_4 == report_env
    assert json.loads(report_1)["protocol"] == "classify"


def test_10_serialization_preserves_all_matrices_bit_exactly(tmp_path):
    docs = generate_synthetic(
        seed=6, n_classes=2, vocab_per_class=8, docs_per_class=10,
        doc_length=12,
    )
    # The second config forces a term into every document elsewhere-tested
    # paths: probidf emits -inf raw weights for such terms.
    configs = [
        TrainConfig(n_topics=2, seed=5, schedule=CascadeSchedule(counts=(4, 2))),
        TrainConfig(n_topics=2, seed=5, gtw=GtwMethod.PROBIDF, cascade=False),
    ]
    for config in configs:
        model = train(docs, config)
        text = model_to_json(model)
        back = model_from_json(text)
        for name in (
            "topic_given_word",
            "word_prob",
            "word_given_topic",
            "topic_given_doc",
        ):
            assert getattr(back, name).tobytes() == getattr(model, name).tobytes(), name
        assert back.global_weights.raw.tobytes() == model.global_weights.raw.tobytes()
        assert back.global_weights.clamped.tobytes() == (
            model.global_weights.clamped.tobytes()
        )
        assert model_to_json(back) == text
        path = tmp_path / f"{config.gtw.value}.json"
        path.write_text(text, encoding="utf-8")
        assert model_to_json(load_model(path)) == text
