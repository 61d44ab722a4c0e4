import json
import math
import operator
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatm import (
    CascadeSchedule,
    EvalReport,
    RawDocument,
    SplitPlan,
    TokenizerConfig,
    TrainConfig,
    classify,
    corpus_log_likelihood,
    doc_log_likelihood,
    fold_in,
    generate_synthetic,
    heldout_loglik,
    make_folds,
    tokenize,
    train,
)
from flatm import evaluation
from flatm import model as model_module
from flatm.evaluation import DEFAULT_DELTA, _score_many


def small_corpus(**overrides):
    """Tiny labeled corpus with clear class structure; fast to train on."""
    params = dict(
        seed=0,
        n_classes=2,
        vocab_per_class=12,
        docs_per_class=10,
        doc_length=12,
    )
    params.update(overrides)
    return generate_synthetic(**params)


def fast_config(**overrides) -> TrainConfig:
    defaults = dict(
        n_topics=2,
        schedule=CascadeSchedule(counts=(4, 2)),
        tokenizer=TokenizerConfig(stopwords=frozenset()),
        seed=3,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestSplitPlan:
    def test_defaults(self):
        plan = SplitPlan()
        assert (plan.seed, plan.train_fraction, plan.folds, plan.stratified) == (
            0,
            0.8,
            5,
            True,
        )

    @pytest.mark.parametrize("kwargs", [
        {"train_fraction": 0.0},
        {"train_fraction": 1.0},
        {"folds": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SplitPlan(**kwargs)


class TestEvalReport:
    def make_report(self):
        return EvalReport(
            protocol="classify",
            metric="accuracy",
            per_fold=(1.0, 0.5),
            mean=0.75,
            stdev=0.3535533905932738,
            config={"delta": 1e-9},
            details=({"fold": 0}, {"fold": 1}),
        )

    def test_json_dict_key_order(self):
        data = self.make_report().to_json_dict()
        assert list(data) == [
            "protocol",
            "metric",
            "per_fold",
            "mean",
            "stdev",
            "config",
            "details",
        ]
        json.dumps(data)  # must be serializable as-is

    def test_text_table(self):
        text = self.make_report().to_text()
        lines = text.splitlines()
        assert lines[0] == "protocol: classify"
        assert lines[1].split() == ["fold", "accuracy"]
        assert lines[-1].startswith("stdev")
        assert text.endswith("\n")

    def test_csv(self):
        lines = self.make_report().to_csv().splitlines()
        assert lines[0] == "fold,metric,value"
        assert lines[1] == "0,accuracy,1.0"
        assert lines[-2] == "mean,accuracy,0.75"
        assert lines[-1].startswith("stdev,accuracy,")


class TestMakeFolds:
    def test_partition_is_disjoint_and_complete(self):
        docs = small_corpus()
        folds = make_folds(docs, SplitPlan(folds=4))
        flat = [i for fold in folds for i in fold]
        assert sorted(flat) == list(range(len(docs)))
        assert len(flat) == len(set(flat))

    def test_stratified_balance_within_one(self):
        docs = small_corpus(docs_per_class=11, n_classes=3)
        folds = make_folds(docs, SplitPlan(folds=4))
        for label in ("class0", "class1", "class2"):
            per_fold = [
                sum(1 for i in fold if docs[i].label == label)
                for fold in folds
            ]
            assert max(per_fold) - min(per_fold) <= 1

    def test_deterministic_by_seed(self):
        docs = small_corpus()
        a = make_folds(docs, SplitPlan(seed=9))
        b = make_folds(docs, SplitPlan(seed=9))
        c = make_folds(docs, SplitPlan(seed=10))
        assert a == b
        assert a != c

    def test_unlabeled_documents_fall_back_to_unstratified(self):
        docs = [RawDocument(f"d{i}", "word text here") for i in range(10)]
        folds = make_folds(docs, SplitPlan(folds=3))
        sizes = sorted(len(f) for f in folds)
        assert sizes == [3, 3, 4]

    def test_too_few_documents(self):
        docs = [RawDocument("only", "word", label="a")]
        with pytest.raises(ValueError, match="folds"):
            make_folds(docs, SplitPlan(folds=5))


class TestDocLogLikelihood:
    def make_model(self):
        docs = small_corpus()
        return train(docs, fast_config()), docs

    def test_per_token_bounds(self):
        model, docs = self.make_model()
        delta = 1e-9
        for doc in docs[:5]:
            ll, oov, total = doc_log_likelihood(model, doc, delta)
            assert oov == 0
            assert total == 12
            assert total * math.log(delta) <= ll <= total * math.log1p(delta)

    def test_matches_explicit_mixture(self):
        # Independent evaluation: fold-in P(T|d), then mix P(w|T) per token.
        model, docs = self.make_model()
        delta = 1e-9
        for doc in docs[:4]:
            ptd = fold_in(model, doc)
            expected = 0.0
            for token in tokenize(doc.text, model.config.tokenizer):
                i = model.vocabulary.index[token]
                p = sum(
                    model.word_given_topic[k, i] * ptd[k]
                    for k in range(model.n_topics)
                )
                expected += math.log(delta + p)
            ll, _, _ = doc_log_likelihood(model, doc, delta)
            assert ll == pytest.approx(expected, abs=1e-9)

    def test_unknown_tokens_cost_log_delta(self):
        model, _ = self.make_model()
        delta = 1e-9
        base, oov0, total0 = doc_log_likelihood(
            model, RawDocument("x", "c0w0 c0w1"), delta
        )
        noisy, oov1, total1 = doc_log_likelihood(
            model, RawDocument("y", "c0w0 c0w1 zebra zebra"), delta
        )
        assert (oov0, oov1) == (0, 2)
        assert (total0, total1) == (2, 4)
        assert noisy == pytest.approx(base + 2 * math.log(delta), abs=1e-9)

    def test_fully_oov_document(self):
        model, _ = self.make_model()
        ll, oov, total = doc_log_likelihood(
            model, RawDocument("x", "zebra yak"), 1e-9
        )
        assert (oov, total) == (2, 2)
        assert ll == pytest.approx(2 * math.log(1e-9))

    def test_token_order_does_not_matter(self):
        model, _ = self.make_model()
        a, _, _ = doc_log_likelihood(
            model, RawDocument("x", "c0w0 c0w1 c0w2 c0w0")
        )
        b, _, _ = doc_log_likelihood(
            model, RawDocument("y", "c0w2 c0w0 c0w0 c0w1")
        )
        assert a == b

    def test_word_dist_override(self):
        model, docs = self.make_model()
        delta = 1e-9
        ll, _, _ = doc_log_likelihood(
            model, docs[0], delta, word_dist=model.word_prob
        )
        expected = 0.0
        for token in tokenize(docs[0].text, model.config.tokenizer):
            i = model.vocabulary.index[token]
            expected += math.log(delta + model.word_prob[i])
        assert ll == pytest.approx(expected, abs=1e-9)

    def test_rejects_nonpositive_delta(self):
        model, docs = self.make_model()
        with pytest.raises(ValueError, match="delta"):
            doc_log_likelihood(model, docs[0], 0.0)


@pytest.fixture(scope="module")
def small_model():
    return train(small_corpus(), fast_config())


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    texts=st.lists(
        st.lists(
            st.sampled_from(["c0w0", "c0w3", "c1w1", "c1w7", "zebra", "the"]),
            max_size=12,
        ).map(" ".join),
        min_size=1,
        max_size=12,
    ),
    chunk=st.integers(min_value=1, max_value=5),
    order=st.randoms(use_true_random=False),
    unigram=st.booleans(),
)
def test_doc_score_has_the_bits_of_the_batch_row(
    small_model, texts, chunk, order, unigram
):
    docs = [RawDocument(str(i), text) for i, text in enumerate(texts)]
    order.shuffle(docs)
    word_dist = small_model.word_prob if unigram else None
    # Small chunks make every batch span several of them.
    with mock.patch.object(model_module, "_CHUNK_DOCS", chunk):
        rows = _score_many(small_model, docs, DEFAULT_DELTA, word_dist)
        stats = corpus_log_likelihood(small_model, docs, word_dist=word_dist)
    parts = [doc_log_likelihood(small_model, d, word_dist=word_dist) for d in docs]
    assert [repr(p) for p in parts] == [repr(r) for r in rows]
    assert stats["loglik"] == math.fsum(ll for ll, _, _ in parts)
    assert stats["oov_tokens"] == sum(oov for _, oov, _ in parts)
    assert stats["n_tokens"] == sum(total for _, _, total in parts)


class TestCorpusLogLikelihood:
    def test_totals_aggregate_documents(self):
        docs = small_corpus()
        model = train(docs, fast_config())
        test_docs = docs[:6] + [RawDocument("oov", "zebra")]
        stats = corpus_log_likelihood(model, test_docs)
        parts = [doc_log_likelihood(model, d)[0] for d in test_docs]
        assert stats["loglik"] == pytest.approx(math.fsum(parts), abs=1e-9)
        assert stats["oov_tokens"] == 1
        assert stats["n_tokens"] == 6 * 12 + 1
        assert stats["docs_with_known_terms"] == 6


class TestGenerateSynthetic:
    def test_deterministic(self):
        assert small_corpus() == small_corpus()
        assert small_corpus(seed=1) != small_corpus(seed=2)

    def test_shape_and_naming(self):
        docs = generate_synthetic(
            seed=4, n_classes=3, vocab_per_class=5, docs_per_class=4,
            doc_length=6,
        )
        assert len(docs) == 12
        assert docs[0].doc_id == "class0-000"
        assert docs[-1].label == "class2"
        assert all(len(d.text.split()) == 6 for d in docs)

    def test_class_pools_are_disjoint_without_overlap(self):
        docs = small_corpus()
        vocab_by_label = {}
        for doc in docs:
            vocab_by_label.setdefault(doc.label, set()).update(doc.text.split())
        assert vocab_by_label["class0"].isdisjoint(vocab_by_label["class1"])

    def test_overlap_adds_shared_terms(self):
        docs = generate_synthetic(
            seed=0, n_classes=2, vocab_per_class=10, docs_per_class=30,
            doc_length=30, overlap_fraction=0.5,
        )
        tokens = {t for d in docs for t in d.text.split()}
        shared = {t for t in tokens if t.startswith("sw")}
        assert shared == {f"sw{t}" for t in range(5)}

    def test_tokens_survive_default_tokenizer(self):
        for doc in small_corpus()[:5]:
            assert tokenize(doc.text, TokenizerConfig()) == doc.text.split()

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, n_classes=0)
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, overlap_fraction=1.0)


class TestClassify:
    def test_separable_classes_reach_full_accuracy(self):
        docs = small_corpus()
        report = classify(docs, fast_config(), SplitPlan(folds=2))
        assert report.protocol == "classify"
        assert report.metric == "accuracy"
        assert report.per_fold == (1.0, 1.0)
        assert report.mean == 1.0

    def test_report_details_and_config_echo(self):
        docs = small_corpus()
        plan = SplitPlan(folds=2, seed=5)
        report = classify(docs, fast_config(), plan, threads=1)
        assert len(report.details) == 2
        for f, detail in enumerate(report.details):
            assert detail["fold"] == f
            assert detail["correct"] + 0 <= detail["total"]
        assert report.config["plan"]["folds"] == 2
        assert report.config["plan"]["seed"] == 5
        assert report.config["delta"] == 1e-9
        assert "threads" not in json.dumps(report.config)

    def test_thread_count_never_changes_results(self):
        docs = small_corpus()
        plan = SplitPlan(folds=2)
        a = classify(docs, fast_config(), plan, threads=1)
        b = classify(docs, fast_config(), plan, threads=4)
        assert a == b

    def test_deterministic(self):
        docs = small_corpus()
        plan = SplitPlan(folds=2)
        assert classify(docs, fast_config(), plan) == classify(
            docs, fast_config(), plan
        )

    def test_single_label_corpus_is_trivially_correct(self):
        docs = [
            RawDocument(f"d{i}", f"alpha bravo charlie delta w{i}", label="only")
            for i in range(8)
        ]
        report = classify(
            docs,
            fast_config(schedule=CascadeSchedule(counts=(3, 2))),
            SplitPlan(folds=2),
        )
        assert report.mean == 1.0

    def test_requires_labels(self):
        docs = small_corpus()
        docs[3] = RawDocument(docs[3].doc_id, docs[3].text)
        with pytest.raises(ValueError, match="label"):
            classify(docs, fast_config(), SplitPlan(folds=2))

    def test_requires_enough_documents_per_class(self):
        docs = small_corpus() + [
            RawDocument("rare-0", "c0w0 c0w1", label="rare")
        ]
        with pytest.raises(ValueError, match="rare"):
            classify(docs, fast_config(), SplitPlan(folds=2))

    def test_requires_at_least_two_folds(self):
        with pytest.raises(ValueError, match="folds"):
            classify(small_corpus(), fast_config(), SplitPlan(folds=1))


def background_noise_corpus(seed):
    """Classes share the whole vocabulary plus bursty background terms.

    Each class tilts its token distribution toward its own third of the
    content vocabulary (4:1), so no class has exclusive terms, and every
    document mixes in stopword-like background terms drawn in bursts.
    Telling classes apart therefore depends on how well the weighting
    separates content from background.
    """
    rng = np.random.default_rng(seed)
    n_classes, content_terms, background_terms = 3, 60, 15
    docs_per_class, doc_length = 60, 40
    content = [f"w{t}" for t in range(content_terms)]
    background = [f"bg{t}" for t in range(background_terms)]
    third = content_terms // n_classes
    docs = []
    for ci in range(n_classes):
        probs = np.ones(content_terms)
        probs[ci * third:(ci + 1) * third] = 4.0
        probs /= probs.sum()
        for d in range(docs_per_class):
            tokens = []
            while len(tokens) < doc_length:
                if rng.random() < 0.5:
                    tokens += [background[int(rng.integers(background_terms))]] * 3
                else:
                    tokens.append(content[int(rng.choice(content_terms, p=probs))])
            docs.append(RawDocument(
                doc_id=f"class{ci}-{d:03d}",
                text=" ".join(tokens[:doc_length]),
                label=f"class{ci}",
            ))
    return docs


class TestWeightingQuality:
    def test_entropy_outranks_gfidf_under_shared_background_noise(self):
        # Entropy weighting pushes evenly-spread background terms toward
        # zero, while the frequency-ratio scheme rewards their burstiness,
        # so the entropy-weighted model should classify better here.
        docs = background_noise_corpus(seed=3)
        plan = SplitPlan(seed=3, folds=5)
        accuracies = {}
        for gtw in ("entropy", "gfidf"):
            config = TrainConfig(n_topics=5, gtw=gtw, seed=3)
            accuracies[gtw] = classify(docs, config, plan, threads=4).mean
        assert accuracies["entropy"] > accuracies["gfidf"], accuracies


class TestRunJobs:
    @pytest.mark.parametrize(
        "threads, n_jobs, cpus, workers",
        [
            (4, 20, 2, 2),
            (4, 3, 8, 3),
            (2, 20, 8, 2),
            (1, 20, 8, None),
            (4, 1, 8, None),
            (4, 20, 1, None),
        ],
    )
    def test_workers_are_capped_by_threads_jobs_and_cpus(
        self, monkeypatch, threads, n_jobs, cpus, workers
    ):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                pools.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        jobs = list(range(n_jobs))
        assert evaluation._run_jobs(operator.neg, jobs, threads) == [-j for j in jobs]
        assert pools == ([] if workers is None else [(workers, "fork")])


class TestHeldoutLoglik:
    def test_report_structure(self):
        docs = small_corpus()
        plan = SplitPlan(folds=3, train_fraction=0.8)
        report = heldout_loglik(docs, fast_config(), plan)
        assert report.protocol == "loglik"
        assert len(report.per_fold) == 3
        assert all(math.isfinite(v) for v in report.per_fold)
        for detail in report.details:
            assert detail["n_train"] + detail["n_test"] == len(docs)
            assert detail["n_train"] == 16  # 0.8 of 10 per class, both classes
            assert math.isfinite(detail["baseline_loglik"])

    def test_deterministic_and_thread_invariant(self):
        docs = small_corpus()
        plan = SplitPlan(folds=2)
        a = heldout_loglik(docs, fast_config(), plan, threads=1)
        b = heldout_loglik(docs, fast_config(), plan, threads=3)
        assert a == b

    def test_rounds_use_independent_splits(self):
        docs = small_corpus()
        report = heldout_loglik(docs, fast_config(), SplitPlan(folds=2))
        assert report.per_fold[0] != report.per_fold[1]

    def test_topic_mixture_beats_unigram_here(self):
        # On clearly clustered data the topic mixture concentrates mass on
        # the document's own class terms, so it should outscore P(w).
        docs = small_corpus(docs_per_class=15)
        report = heldout_loglik(docs, fast_config(), SplitPlan(folds=2))
        for value, detail in zip(report.per_fold, report.details):
            assert value > detail["baseline_loglik"]


def test_protocols_reject_bad_delta_before_training(monkeypatch):
    def no_training(docs, config):
        raise AssertionError("trained before checking delta")

    monkeypatch.setattr("flatm.evaluation.train", no_training)
    for protocol in (classify, heldout_loglik):
        for delta in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="delta"):
                protocol(small_corpus(), fast_config(), SplitPlan(folds=2), delta=delta)
