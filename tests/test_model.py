import dataclasses
import functools
import json
import math
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatm import (
    CascadeSchedule,
    FcmConfig,
    GlobalWeightVector,
    GtwMethod,
    InputFormatError,
    OutOfVocabularyError,
    RawDocument,
    ScheduleError,
    SettingError,
    SplitPlan,
    TokenizerConfig,
    TrainConfig,
    build_matrix,
    cascade_reduce,
    classify,
    fold_in,
    fold_in_many,
    generate_synthetic,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    stage_seed,
    top_words,
    topic_given_doc,
    train,
    word_given_doc,
    word_given_topic,
    word_probabilities,
)
from flatm import corpus as corpus_module
from flatm import model as model_module

from oracles import mixed_topic_given_doc

import scipy.sparse as sp


def tiny_config(**overrides) -> TrainConfig:
    """Config sized for toy corpora: short cascade, empty stopword list."""
    defaults = dict(
        n_topics=2,
        schedule=CascadeSchedule(counts=(4, 3, 2)),
        tokenizer=TokenizerConfig(stopwords=frozenset()),
        seed=7,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def two_class_docs(n_per: int = 12, doc_len: int = 8) -> list[RawDocument]:
    """Two disjoint five-word pools; every doc samples one pool."""
    pools = [
        ["apple", "pear", "plum", "grape", "melon"],
        ["bolt", "nut", "screw", "washer", "rivet"],
    ]
    rng = np.random.default_rng(42)
    docs = []
    for ci, pool in enumerate(pools):
        for d in range(n_per):
            words = [pool[k] for k in rng.integers(0, len(pool), doc_len)]
            docs.append(
                RawDocument(
                    doc_id=f"c{ci}-{d:02d}",
                    text=" ".join(words),
                    label=f"class{ci}",
                )
            )
    return docs


class TestCascadeSchedule:
    def test_default_runs_ten_down_to_two(self):
        assert CascadeSchedule().counts == (10, 9, 8, 7, 6, 5, 4, 3, 2)

    def test_len(self):
        assert len(CascadeSchedule(counts=(5, 2))) == 2

    @pytest.mark.parametrize(
        "counts",
        [(), (5, 5, 2), (3, 4), (5, 1), (2.5, 2), (5, 3, 2, 2)],
    )
    def test_rejects_bad_schedules(self, counts):
        with pytest.raises((ValueError, TypeError)):
            CascadeSchedule(counts=counts)


class TestTrainConfig:
    def test_gtw_accepts_string(self):
        config = tiny_config(gtw="idf")
        assert config.gtw is GtwMethod.IDF

    def test_rejects_single_topic(self):
        with pytest.raises(ValueError, match="n_topics"):
            tiny_config(n_topics=1)

    def test_rejects_unknown_gtw(self):
        with pytest.raises(ValueError):
            tiny_config(gtw="tfidf-plus")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_topics", 2.5),
            ("n_topics", 2.0),
            ("max_iterations", 7.5),
            ("seed", 1.5),
            ("min_df", 1.5),
        ],
    )
    def test_rejects_non_integers_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("fuzzifier", 1.0, "fuzzifier must be > 1"),
            ("threshold", 0.0, "threshold must be positive"),
            ("max_iterations", 0, "max_iterations must be >= 1"),
            ("seed", -1, "seed must be a 64-bit unsigned integer"),
            ("seed", 2**64, "seed must be a 64-bit unsigned integer"),
        ],
    )
    def test_clustering_settings_follow_fcm_rules(self, field, value, message):
        # Rejected at construction, before any corpus is read, with the
        # message FcmConfig gives.
        for make in (tiny_config, functools.partial(FcmConfig, n_clusters=2)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(**{field: value})

    def test_numpy_integers_become_ints(self):
        config = tiny_config(n_topics=np.int64(3), seed=np.uint32(4), min_df=np.int8(2))
        assert (config.n_topics, config.seed, config.min_df) == (3, 4, 2)
        assert type(config.n_topics) is int and type(config.seed) is int

    def test_integral_schedule_entries_become_ints(self):
        counts = CascadeSchedule(counts=(4.0, np.int64(3), 2)).counts
        assert counts == (4, 3, 2)
        assert all(type(c) is int for c in counts)


# Each config's fields by kind, and values of the wrong kind for each kind.
_CONFIG_FIELDS = {
    functools.partial(FcmConfig, n_clusters=2): {
        "n_clusters": int,
        "fuzzifier": float,
        "threshold": float,
        "max_iterations": int,
        "seed": int,
    },
    TokenizerConfig: {
        "lowercase": bool,
        "min_token_length": int,
        "drop_numeric": bool,
        "stopwords": frozenset,
    },
    functools.partial(TrainConfig, n_topics=2): {
        "n_topics": int,
        "schedule": CascadeSchedule,
        "gtw": GtwMethod,
        "cascade": bool,
        "fuzzifier": float,
        "threshold": float,
        "max_iterations": int,
        "seed": int,
        "epsilon": float,
        "idf_variant": str,
        "min_df": int,
        "tokenizer": TokenizerConfig,
    },
    SplitPlan: {
        "seed": int,
        "train_fraction": float,
        "folds": int,
        "stratified": bool,
    },
}
_WRONG_KIND = {
    int: [True, "3", None, 2.5],
    float: [True, "3", None],
    bool: ["no", None, 1],
    frozenset: [True, "3", None],
    CascadeSchedule: [True, None, (4, 2)],
    TokenizerConfig: [True, "3", None],
    GtwMethod: [True, "3", None],
    str: [True, "3", None],
}


@pytest.mark.parametrize(
    "make, field, value",
    [
        pytest.param(
            make,
            field,
            value,
            id=f"{getattr(make, 'func', make).__name__}-{field}-{value!r}",
        )
        for make, fields in _CONFIG_FIELDS.items()
        for field, kind in fields.items()
        for value in _WRONG_KIND[kind]
    ],
)
def test_configs_reject_wrong_kinds_by_field_name(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        make(**{field: value})


def top_words_of_tiny_model(topic=0, count=10):
    return top_words(train(two_class_docs(n_per=3), tiny_config()), topic, count)


_UNIT_WEIGHTS = functools.partial(GlobalWeightVector, GtwMethod.NONE, [1.0])
_BUILD_MATRIX = functools.partial(build_matrix, two_class_docs())
_CLASSIFY = functools.partial(classify, two_class_docs(), tiny_config(), SplitPlan())


@pytest.mark.parametrize(
    "make, kwargs, field",
    [
        pytest.param(
            make,
            kwargs,
            field,
            id=f"{getattr(make, 'func', make).__name__}-{field}-{kwargs}",
        )
        for make, kwargs, field in [
            (FcmConfig, {"n_clusters": 1}, "n_clusters"),
            (FcmConfig, {"n_clusters": 2, "fuzzifier": 1.0}, "fuzzifier"),
            (FcmConfig, {"n_clusters": 2, "threshold": 0.0}, "threshold"),
            (FcmConfig, {"n_clusters": 2, "max_iterations": 0}, "max_iterations"),
            (FcmConfig, {"n_clusters": 2, "seed": -1}, "seed"),
            (TokenizerConfig, {"min_token_length": 0}, "min_token_length"),
            (RawDocument, {"doc_id": 1, "text": "a"}, "doc_id"),
            (RawDocument, {"doc_id": "1", "text": b"a"}, "text"),
            (RawDocument, {"doc_id": "1", "text": "a", "label": 0}, "label"),
            (CascadeSchedule, {"counts": ()}, "schedule"),
            (CascadeSchedule, {"counts": (4, 2.5)}, "schedule"),
            (CascadeSchedule, {"counts": (3, 1)}, "schedule"),
            (CascadeSchedule, {"counts": (2, 3)}, "schedule"),
            (CascadeSchedule, {"counts": ("a",)}, "schedule entries"),
            (CascadeSchedule, {"counts": (None,)}, "schedule entries"),
            (CascadeSchedule, {"counts": (True, 2)}, "schedule entries"),
            (CascadeSchedule, {"counts": 5}, "schedule"),
            (CascadeSchedule, {"counts": {4: 1, 2: 1}}, "schedule"),
            (TokenizerConfig, {"stopwords": frozenset({1})}, "stopwords"),
            (_UNIT_WEIGHTS, {"epsilon": True}, "epsilon"),
            (_UNIT_WEIGHTS, {"epsilon": "x"}, "epsilon"),
            (_UNIT_WEIGHTS, {"epsilon": 0}, "epsilon"),
            (_BUILD_MATRIX, {"min_df": 0}, "min_df"),
            (generate_synthetic, {"seed": 1.5}, "seed"),
            (generate_synthetic, {"n_classes": 2.5}, "n_classes"),
            (generate_synthetic, {"overlap_fraction": "x"}, "overlap_fraction"),
            (_CLASSIFY, {"delta": True}, "delta"),
            (_CLASSIFY, {"threads": 2.5}, "threads"),
            (top_words_of_tiny_model, {"topic": 1.5}, "topic"),
            (top_words_of_tiny_model, {"count": 2.5}, "count"),
            (TrainConfig, {"n_topics": 1}, "n_topics"),
            (TrainConfig, {"n_topics": 2, "gtw": "tf"}, "gtw"),
            (TrainConfig, {"n_topics": 2, "cascade": "no"}, "cascade"),
            (TrainConfig, {"n_topics": 2, "fuzzifier": 1.0}, "fuzzifier"),
            (TrainConfig, {"n_topics": 2, "seed": 2**64}, "seed"),
            (TrainConfig, {"n_topics": 2, "epsilon": 0.0}, "epsilon"),
            (TrainConfig, {"n_topics": 2, "idf_variant": "bm25"}, "idf_variant"),
            (TrainConfig, {"n_topics": 2, "min_df": 0}, "min_df"),
            (SplitPlan, {"train_fraction": 1.0}, "train_fraction"),
            (SplitPlan, {"folds": 0}, "folds"),
            (SplitPlan, {"seed": 2**64}, "seed"),
        ]
    ],
)
def test_setting_rules_raise_setting_error_named_first(make, kwargs, field):
    with pytest.raises(SettingError, match=f"^{field} "):
        make(**kwargs)


def test_number_fields_are_stored_as_plain_numbers(tmp_path):
    # An int fuzzifier stays an int, so the model file keeps writing 3.
    config = tiny_config(fuzzifier=3, threshold=np.float64(1e-4), epsilon=1)
    assert type(config.fuzzifier) is int
    assert type(config.threshold) is float
    assert json.loads(model_to_json(train(two_class_docs(), config)))["config"][
        "fuzzifier"
    ] == 3
    # Numpy scalars and other real numbers become plain ints and floats,
    # which the model file can hold.
    config = tiny_config(
        fuzzifier=np.float32(2.5), threshold=Fraction(1, 1000), epsilon=np.int64(1)
    )
    assert (config.fuzzifier, config.threshold, config.epsilon) == (2.5, 1e-3, 1)
    assert [type(config.fuzzifier), type(config.threshold)] == [float, float]
    assert type(config.epsilon) is int
    path = tmp_path / "model.json"
    save_model(train(two_class_docs(), config), path)
    assert load_model(path).config == config


def test_stopwords_that_construct_save_and_load_back(tmp_path):
    # A non-str stop-word would train and then give a file that load_model
    # refuses, or fail in save_model's sort; the config rejects it instead.
    for stopwords in (frozenset({1, 2}), frozenset({"a", 3})):
        with pytest.raises(SettingError, match="^stopwords must be a str, got "):
            TokenizerConfig(stopwords=stopwords)
    config = tiny_config(tokenizer=TokenizerConfig(stopwords=frozenset({"a", "pear"})))
    path = tmp_path / "model.json"
    save_model(train(two_class_docs(), config), path)
    assert load_model(path).config == config


class TestCascadeReduce:
    def test_output_shape_is_last_stage(self):
        rng = np.random.default_rng(0)
        x = rng.random((20, 15))
        out = cascade_reduce(x, CascadeSchedule(counts=(6, 4, 3)), seed=1)
        assert out.shape == (20, 3)

    def test_every_stage_is_row_stochastic(self):
        rng = np.random.default_rng(1)
        x = rng.random((18, 12))
        seen = []

        def record(stage, result):
            seen.append((stage, result.membership))

        cascade_reduce(
            x, CascadeSchedule(counts=(5, 3, 2)), seed=3, on_stage=record
        )
        assert [s for s, _ in seen] == [0, 1, 2]
        for _, u in seen:
            np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-9)
            assert u.min() >= 0.0

    def test_needs_more_terms_than_first_stage(self):
        x = np.random.default_rng(2).random((6, 4))
        with pytest.raises(ScheduleError, match="6 terms, schedule starts at 6$"):
            cascade_reduce(x, CascadeSchedule(counts=(6, 2)), seed=0)

    def test_deterministic_per_seed(self):
        x = np.random.default_rng(3).random((15, 9))
        schedule = CascadeSchedule(counts=(4, 2))
        a = cascade_reduce(x, schedule, seed=5)
        b = cascade_reduce(x, schedule, seed=5)
        c = cascade_reduce(x, schedule, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_accepts_sparse_input(self):
        x = np.random.default_rng(4).random((12, 8))
        dense = cascade_reduce(x, CascadeSchedule(counts=(3, 2)), seed=1)
        sparse = cascade_reduce(
            sp.csr_matrix(x), CascadeSchedule(counts=(3, 2)), seed=1
        )
        np.testing.assert_array_equal(dense, sparse)


class TestWordProbabilities:
    def test_frozen_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(word_probabilities(a), [0.3, 0.7])

    def test_sums_to_one(self):
        a = np.random.default_rng(6).random((9, 5))
        assert word_probabilities(a).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="zero total mass"):
            word_probabilities(np.zeros((3, 2)))


class TestWordGivenTopic:
    def test_frozen_bayes_example(self):
        # joint = ptw * pw[:, None]; columns normalized, transposed.
        ptw = np.array([[0.5, 0.5], [1.0, 0.0]])
        pw = np.array([0.25, 0.75])
        out = word_given_topic(ptw, pw)
        np.testing.assert_allclose(
            out, [[0.125 / 0.875, 0.75 / 0.875], [1.0, 0.0]]
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        ptw = rng.random((10, 3))
        ptw /= ptw.sum(axis=1, keepdims=True)
        pw = rng.random(10)
        pw /= pw.sum()
        out = word_given_topic(ptw, pw)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_same_bits_whatever_the_layout(self):
        # A model built from Fortran-order P(T|W) must still load: the file
        # gives P(T|W) back in C order, and P(W|T) is checked against it.
        rng = np.random.default_rng(8)
        ptw = rng.random((1000, 3))
        ptw /= ptw.sum(axis=1, keepdims=True)
        pw = rng.random(1000)
        pw /= pw.sum()
        fortran = word_given_topic(np.asfortranarray(ptw), pw)
        assert fortran.tobytes() == word_given_topic(ptw, pw).tobytes()

    def test_empty_topic_rejected(self):
        ptw = np.array([[1.0, 0.0], [1.0, 0.0]])
        pw = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="topic 1"):
            word_given_topic(ptw, pw)


class TestWordGivenDoc:
    def test_columns_normalized(self):
        a = np.array([[1.0, 0.0], [1.0, 3.0]])
        np.testing.assert_allclose(
            word_given_doc(a).toarray(), [[0.5, 0.0], [0.5, 1.0]]
        )
        # Column masses carry the bits of scipy's column sums.
        r = sp.random(400, 30, density=0.3, format="csr", random_state=4)
        r.data = np.random.default_rng(4).lognormal(0.0, 3.0, r.nnz)
        np.testing.assert_array_equal(
            word_given_doc(r).toarray(), r.toarray() / np.asarray(r.sum(axis=0))
        )

    def test_massless_columns_stay_zero(self):
        # Column 1 is empty; column 2 holds only an explicit zero at (0, 2).
        a = sp.csr_matrix(
            (np.array([1.0, 0.0, 2.0, 4.0]), np.array([0, 2, 0, 3]), [0, 2, 4]),
            shape=(2, 4),
        )
        pwd = word_given_doc(a).toarray()
        assert np.all(np.isfinite(pwd))
        np.testing.assert_array_equal(pwd[:, 1:3], 0.0)
        np.testing.assert_array_equal(pwd[:, [0, 3]], [[1 / 3, 0.0], [2 / 3, 1.0]])


class TestTopicGivenDoc:
    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(1, 8))
            k = int(rng.integers(2, 5))
            ptw = rng.random((m, k))
            ptw /= ptw.sum(axis=1, keepdims=True)
            pwd = rng.random((m, n))
            pwd /= pwd.sum(axis=0, keepdims=True)
            np.testing.assert_allclose(
                topic_given_doc(ptw, pwd),
                mixed_topic_given_doc(ptw, pwd),
                atol=1e-12,
                rtol=0,
            )

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(9)
        ptw = rng.random((7, 3))
        ptw /= ptw.sum(axis=1, keepdims=True)
        pwd = rng.random((7, 4))
        pwd /= pwd.sum(axis=0, keepdims=True)
        out = topic_given_doc(ptw, pwd)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)


class TestTrain:
    def test_shapes_and_stochasticity(self):
        docs = two_class_docs()
        model = train(docs, tiny_config())
        m, k, n = model.n_terms, model.n_topics, model.n_docs
        assert (m, k, n) == (10, 2, 24)
        assert model.topic_given_word.shape == (m, k)
        assert model.word_given_topic.shape == (k, m)
        assert model.topic_given_doc.shape == (k, n)
        np.testing.assert_allclose(
            model.topic_given_word.sum(axis=1), 1.0, atol=1e-9
        )
        np.testing.assert_allclose(
            model.word_given_topic.sum(axis=1), 1.0, atol=1e-9
        )
        np.testing.assert_allclose(
            model.topic_given_doc.sum(axis=0), 1.0, atol=1e-9
        )
        assert model.word_prob.sum() == pytest.approx(1.0, abs=1e-12)
        assert model.doc_ids == tuple(d.doc_id for d in docs)

    def test_same_seed_is_bitwise_identical(self):
        docs = two_class_docs()
        a = train(docs, tiny_config(seed=11))
        b = train(docs, tiny_config(seed=11))
        np.testing.assert_array_equal(a.topic_given_word, b.topic_given_word)
        np.testing.assert_array_equal(a.topic_given_doc, b.topic_given_doc)
        np.testing.assert_array_equal(
            a.global_weights.clamped, b.global_weights.clamped
        )

    def test_different_seeds_differ(self):
        docs = two_class_docs()
        a = train(docs, tiny_config(seed=11))
        b = train(docs, tiny_config(seed=12))
        assert not np.array_equal(a.topic_given_word, b.topic_given_word)

    def test_topics_separate_disjoint_classes(self):
        docs = two_class_docs(n_per=20, doc_len=12)
        model = train(docs, tiny_config())
        fruit = {"apple", "pear", "plum", "grape", "melon"}
        for topic in range(2):
            words = {term for term, _ in top_words(model, topic, count=5)}
            assert words <= fruit or words.isdisjoint(fruit)

    def test_rejects_topics_not_below_vocabulary(self):
        docs = [
            RawDocument("a", "red blue green"),
            RawDocument("b", "blue green red"),
        ]
        with pytest.raises(ValueError, match="n_topics"):
            train(docs, tiny_config(n_topics=3, cascade=False))

    STOP_THE = TokenizerConfig(stopwords=frozenset({"the"}))

    @pytest.mark.parametrize(
        "text, overrides",
        [("the the", dict(tokenizer=STOP_THE)), ("zebra quokka", dict(min_df=2))],
    )
    def test_document_without_counted_term_rejected_before_clustering(
        self, text, overrides
    ):
        docs = two_class_docs() + [RawDocument("hollow", text)]
        with mock.patch.object(
            model_module, "fcm_run", side_effect=AssertionError("clustered")
        ):
            with pytest.raises(ValueError, match="'hollow' has no term"):
                train(docs, tiny_config(**overrides))

    def test_document_of_another_id_type_raises_before_any_stage(self):
        stages = []
        docs = (RawDocument(i, d.text) for i, d in enumerate(two_class_docs()))
        with pytest.raises(SettingError, match="^doc_id must be a str, got 0$"):
            train(docs, tiny_config(), on_stage=lambda s, r: stages.append(s))
        assert stages == []

    def test_stage_callback_indices(self):
        docs = two_class_docs()
        stages = []
        train(docs, tiny_config(), on_stage=lambda s, r: stages.append(s))
        assert stages == [0, 1, 2, 3]  # three cascade stages, then topics

    def test_no_cascade_clusters_weighted_matrix_directly(self):
        docs = two_class_docs()
        stages = []
        model = train(
            docs,
            tiny_config(cascade=False),
            on_stage=lambda s, r: stages.append(s),
        )
        assert stages == [0]
        np.testing.assert_allclose(
            model.topic_given_word.sum(axis=1), 1.0, atol=1e-9
        )

    def test_never_densifies_the_weighted_matrix(self, monkeypatch):
        def guard(method):
            def checked(self, *args, **kwargs):
                if self.shape[0] > 1:
                    raise AssertionError(f"densified a {self.shape} sparse matrix")
                return method(self, *args, **kwargs)

            return checked

        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
            for name in ("toarray", "todense"):
                monkeypatch.setattr(cls, name, guard(getattr(cls, name)))
        docs = two_class_docs()
        for cascade in (True, False):
            model = train(docs, tiny_config(cascade=cascade))
            np.testing.assert_allclose(
                model.topic_given_doc.sum(axis=0), 1.0, atol=1e-9
            )

    @pytest.mark.parametrize("cascade", [True, False])
    def test_one_shot_stream_trains_the_same_model(self, cascade):
        docs = two_class_docs()
        config = tiny_config(cascade=cascade)
        streamed = train((doc for doc in docs), config)
        assert model_to_json(streamed) == model_to_json(train(docs, config))

    def test_gtw_none_uses_unit_weights(self):
        docs = two_class_docs()
        model = train(docs, tiny_config(gtw=GtwMethod.NONE))
        np.testing.assert_array_equal(
            model.global_weights.raw, np.ones(model.n_terms)
        )

    def test_peak_memory_is_a_small_multiple_of_the_counts(self):
        # Besides the counts, train holds one array as long as the
        # non-zeros at a time: a traced peak of 1.94 times the count
        # matrix's bytes here. Counting, weighting and normalizing on
        # copies, which held up to three such arrays at once, gave 3.07.
        docs = generate_synthetic(
            seed=5, n_classes=10, vocab_per_class=100, docs_per_class=300,
            doc_length=100, overlap_fraction=0.2,
        )
        counts = build_matrix(docs)[1].counts
        parts = (counts.data, counts.indices, counts.indptr)
        counts_bytes = sum(part.nbytes for part in parts)
        del counts, parts
        config = TrainConfig(n_topics=5, seed=1)
        train(docs[:50], config)  # lazy imports and caches are paid first
        tracemalloc.start()
        try:
            train(docs, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * counts_bytes, (peak, counts_bytes)


class TestFoldIn:
    def test_training_document_reproduces_stored_column(self):
        docs = two_class_docs()
        model = train(docs, tiny_config())
        for j in (0, 5, 23):
            got = fold_in(model, docs[j])
            np.testing.assert_array_equal(got, model.topic_given_doc[:, j])
        ptd, known = fold_in_many(model, docs)
        assert known.all()
        np.testing.assert_array_equal(ptd, model.topic_given_doc)

    def test_returns_distribution_for_unseen_document(self):
        model = train(two_class_docs(), tiny_config())
        doc = RawDocument("new", "apple bolt apple grape")
        ptd = fold_in(model, doc)
        assert ptd.shape == (2,)
        assert ptd.sum() == pytest.approx(1.0, abs=1e-12)
        assert ptd.min() >= 0.0

    def test_unknown_terms_are_ignored(self):
        model = train(two_class_docs(), tiny_config())
        base = fold_in(model, RawDocument("x", "apple pear"))
        noisy = fold_in(model, RawDocument("y", "apple pear zzz qqq"))
        np.testing.assert_allclose(base, noisy, atol=1e-15)

    def test_fully_unknown_document_raises(self):
        model = train(two_class_docs(), tiny_config())
        with pytest.raises(OutOfVocabularyError) as err:
            fold_in(model, RawDocument("mystery", "zzz qqq www"))
        assert err.value.doc_id == "mystery"

    def test_empty_document_raises(self):
        model = train(two_class_docs(), tiny_config())
        with pytest.raises(OutOfVocabularyError):
            fold_in(model, RawDocument("void", ""))

    def test_many_flags_documents_without_known_terms(self):
        model = train(two_class_docs(), tiny_config())
        docs = [
            RawDocument("a", "apple pear"),
            RawDocument("b", "zzz qqq"),
            RawDocument("c", ""),
            RawDocument("d", "bolt nut zzz"),
        ]
        ptd, known = fold_in_many(model, docs)
        assert ptd.shape == (2, 4)
        assert known.tolist() == [True, False, False, True]
        np.testing.assert_array_equal(ptd[:, ~known], 0.0)
        np.testing.assert_array_equal(ptd[:, 0], fold_in(model, docs[0]))
        np.testing.assert_array_equal(ptd[:, 3], fold_in(model, docs[3]))
        # A one-shot stream gives the list's bytes.
        streamed, streamed_known = fold_in_many(model, iter(docs))
        assert streamed.tobytes() == ptd.tobytes()
        assert streamed_known.tobytes() == known.tobytes()
        for none in ([], iter([])):
            empty, none_known = fold_in_many(model, none)
            assert empty.shape == (2, 0) and none_known.shape == (0,)


@pytest.fixture(scope="module")
def two_class_model():
    return train(two_class_docs(), tiny_config())


def test_fold_in_many_counts_a_chunk_at_a_time(two_class_model, monkeypatch):
    model = two_class_model
    docs = two_class_docs() + [RawDocument("none", "zzz"), RawDocument("void", "")]
    want = fold_in_many(model, docs)
    counted = []
    count = model_module._count_documents

    def recording(chunk, config):
        chunk = list(chunk)
        counted.append(len(chunk))
        return count(chunk, config)

    monkeypatch.setattr(corpus_module, "_CHUNK_DOCS", 4)
    monkeypatch.setattr(model_module, "_count_documents", recording)
    got = fold_in_many(model, iter(docs))
    assert max(counted) <= 4
    assert sum(counted) == len(docs)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


_FOLD_WORDS = [
    "apple", "pear", "plum", "grape", "melon",
    "bolt", "nut", "screw", "washer", "rivet",
    "zzz", "Apple", "42", "the",
]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(_FOLD_WORDS), max_size=12).map(" ".join),
        min_size=1,
        max_size=12,
    ),
    others=st.lists(
        st.lists(st.sampled_from(_FOLD_WORDS), max_size=12).map(" ".join),
        min_size=2,
        max_size=6,
    ),
    chunk=st.integers(min_value=1, max_value=5),
    order=st.randoms(use_true_random=False),
)
def test_fold_in_has_the_bits_of_the_batch_row(
    two_class_model, texts, others, chunk, order
):
    model = two_class_model
    docs = [RawDocument(str(i), text) for i, text in enumerate(texts)]
    order.shuffle(docs)
    # A superset counted once, with other documents before and between the
    # batch's, as an eval job takes its documents' columns of the corpus.
    extra = [RawDocument(f"other{i}", text) for i, text in enumerate(others)]
    rest = docs + extra[1:]
    order.shuffle(rest)
    superset = [extra[0], *rest]
    position = {doc.doc_id: i for i, doc in enumerate(superset)}
    counts = corpus_module._count_documents(superset, model.config.tokenizer)
    # Small chunks make every batch span several of them.
    with mock.patch.object(corpus_module, "_CHUNK_DOCS", chunk):
        ptd, known = fold_in_many(model, docs)
        folded = [
            model_module._fold_in(model, counts.columns(indices))
            for indices in corpus_module._chunks(position[d.doc_id] for d in docs)
        ]
    assert np.hstack([p for _, p, _ in folded]).tobytes() == ptd.tobytes()
    assert np.concatenate([k for _, _, k in folded]).tobytes() == known.tobytes()
    for j, doc in enumerate(docs):
        if known[j]:
            assert fold_in(model, doc).tobytes() == ptd[:, j].tobytes()
        else:
            with pytest.raises(OutOfVocabularyError):
                fold_in(model, doc)


class TestTopWords:
    def make_model(self):
        return train(two_class_docs(), tiny_config())

    def test_sorted_by_probability(self):
        model = self.make_model()
        probs = [p for _, p in top_words(model, 0, count=10)]
        assert probs == sorted(probs, reverse=True)

    def test_count_clamps_to_vocabulary(self):
        model = self.make_model()
        assert len(top_words(model, 0, count=999)) == model.n_terms

    def test_invalid_topic_and_count(self):
        model = self.make_model()
        with pytest.raises(SettingError, match="topic"):
            top_words(model, 2)
        with pytest.raises(SettingError, match="count"):
            top_words(model, 0, count=0)

    def test_ties_break_alphabetically(self):
        # Two docs with mirrored counts make the weighted matrix symmetric
        # under term swap, so P(W|T) ties across the pair.
        docs = [
            RawDocument("a", "kiwi kiwi lime"),
            RawDocument("b", "lime lime kiwi"),
            RawDocument("c", "kiwi lime mango"),
        ]
        model = train(docs, tiny_config(cascade=False, gtw=GtwMethod.NONE))
        for topic in range(2):
            ranked = top_words(model, topic, count=3)
            tied = [t for t, p in ranked if p == ranked[0][1]]
            assert tied == sorted(tied)


class TestSerialization:
    def make_model(self, **overrides):
        return train(two_class_docs(), tiny_config(**overrides))

    def test_round_trip_is_bit_exact(self):
        model = self.make_model()
        text = model_to_json(model)
        back = model_from_json(text)
        assert model_to_json(back) == text
        np.testing.assert_array_equal(
            back.topic_given_word, model.topic_given_word
        )
        np.testing.assert_array_equal(back.word_prob, model.word_prob)
        np.testing.assert_array_equal(
            back.word_given_topic, model.word_given_topic
        )
        np.testing.assert_array_equal(
            back.topic_given_doc, model.topic_given_doc
        )
        np.testing.assert_array_equal(
            back.global_weights.raw, model.global_weights.raw
        )
        np.testing.assert_array_equal(
            back.global_weights.clamped, model.global_weights.clamped
        )
        assert back.vocabulary.terms == model.vocabulary.terms
        assert back.doc_ids == model.doc_ids
        assert back.config == model.config

    def test_negative_infinity_raw_weight_survives(self):
        # A term in every document gets -inf raw weight under the
        # probabilistic document-frequency scheme.
        docs = [
            RawDocument("a", "ubiquitous apple apple"),
            RawDocument("b", "ubiquitous pear"),
            RawDocument("c", "ubiquitous plum pear"),
        ]
        model = train(
            docs, tiny_config(gtw=GtwMethod.PROBIDF, cascade=False)
        )
        i = model.vocabulary.index["ubiquitous"]
        assert model.global_weights.raw[i] == -math.inf
        text = model_to_json(model)
        assert '"-inf"' in text
        back = model_from_json(text)
        assert back.global_weights.raw[i] == -math.inf
        assert back.global_weights.clamped[i] == model.config.epsilon
        assert model_to_json(back) == text

    def test_clamped_values_load_verbatim(self):
        model = self.make_model(gtw=GtwMethod.IDF)
        back = model_from_json(model_to_json(model))
        assert back.global_weights.clamped.tobytes() == (
            model.global_weights.clamped.tobytes()
        )

    def test_json_layout(self):
        text = model_to_json(self.make_model())
        assert text.endswith("\n")
        data = json.loads(text)
        assert list(data) == [
            "version",
            "config",
            "vocabulary",
            "word_prob",
            "topic_given_word",
            "word_given_topic",
            "topic_given_doc",
            "global_weights",
        ]
        assert data["version"] == 1
        assert list(data["topic_given_doc"]) == ["doc_ids", "values"]
        assert list(data["global_weights"]) == [
            "method",
            "epsilon",
            "raw",
            "clamped",
        ]

    def test_save_and_load_files(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert model_to_json(back) == model_to_json(model)

    @pytest.mark.parametrize("piece_floats", [1, 3, 7, 4096])
    def test_pieces_join_to_the_one_shot_encoding(self, tmp_path, piece_floats):
        # Tables are written in blocks of rows; at any block size the file
        # must equal json.dumps of the whole document, byte for byte.
        model = self.make_model()
        weights = model.global_weights
        one_shot = json.dumps(
            {
                "version": 1,
                "config": json.loads(model_to_json(model))["config"],
                "vocabulary": list(model.vocabulary.terms),
                "word_prob": model.word_prob.tolist(),
                "topic_given_word": model.topic_given_word.tolist(),
                "word_given_topic": model.word_given_topic.tolist(),
                "topic_given_doc": {
                    "doc_ids": list(model.doc_ids),
                    "values": model.topic_given_doc.tolist(),
                },
                "global_weights": {
                    "method": weights.method.value,
                    "epsilon": weights.epsilon,
                    "raw": weights.raw.tolist(),
                    "clamped": weights.clamped.tolist(),
                },
            },
            ensure_ascii=False,
            allow_nan=False,
        ) + "\n"
        path = tmp_path / "model.json"
        with mock.patch.object(model_module, "_JSON_PIECE_FLOATS", piece_floats):
            assert model_to_json(model) == one_shot
            save_model(model, path)
        assert path.read_bytes() == one_shot.encode("utf-8")

    @pytest.mark.parametrize("piece_floats", [1, 3])
    def test_long_rows_and_lists_are_cut_into_pieces(self, piece_floats):
        # Vectors, string lists and tables at lengths around multiples of
        # the piece size, rows longer than a piece included.
        rng = np.random.default_rng(piece_floats)
        values = []
        for n in range(3 * piece_floats + 2):
            values += [rng.random(n), [f"t{i}" for i in range(n)]]
            values += [rng.random((2, n)), rng.random((n, 2))]
        with mock.patch.object(model_module, "_JSON_PIECE_FLOATS", piece_floats):
            for value in values:
                pieces = list(model_module._json_pieces(value))
                plain = value.tolist() if isinstance(value, np.ndarray) else value
                assert "".join(pieces) == model_module._dumps(plain)
                # A piece of k items holds at most k separators, counting
                # the one before its first item.
                assert max(p.count(", ") for p in pieces) <= piece_floats, pieces

    def test_rejects_malformed_input(self):
        with pytest.raises(InputFormatError):
            model_from_json("not json at all {")
        with pytest.raises(InputFormatError):
            model_from_json("[1, 2, 3]\n")
        good = json.loads(model_to_json(self.make_model()))
        bad_version = dict(good, version=99)
        with pytest.raises(InputFormatError, match="version"):
            model_from_json(json.dumps(bad_version))
        del good["word_prob"]
        with pytest.raises(InputFormatError):
            model_from_json(json.dumps(good))

    def test_load_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "absent.json")


class TestModelRules:
    """A model checks its own rules, so a library caller who builds or
    changes one meets the checks that ``train`` and ``load_model`` meet."""

    @pytest.fixture(scope="class")
    def model(self):
        return train(two_class_docs(n_per=3), tiny_config())

    def test_word_given_topic_rows_in_another_order_are_rejected(self, model):
        # Each row still sums to 1, but topic 0 would list topic 1's words.
        reordered = np.ascontiguousarray(model.word_given_topic[::-1])
        with pytest.raises(ValueError, match="word_given_topic"):
            dataclasses.replace(model, word_given_topic=reordered)
        doc = json.loads(model_to_json(model))
        doc["word_given_topic"] = doc["word_given_topic"][::-1]
        with pytest.raises(InputFormatError, match="word_given_topic"):
            model_from_json(json.dumps(doc))

    def test_word_given_topic_must_match_bit_for_bit(self, model):
        # One entry one ulp lower: well inside the sums' tolerance.
        pwt = model.word_given_topic.copy()
        pwt[0, 0] = np.nextafter(pwt[0, 0], 0.0)
        with pytest.raises(ValueError, match="word_given_topic"):
            dataclasses.replace(model, word_given_topic=pwt)

    @pytest.mark.parametrize(
        "change",
        [
            lambda w: GlobalWeightVector(GtwMethod.IDF, w.raw, w.epsilon),
            lambda w: GlobalWeightVector(w.method, w.raw, 1e-8),
            lambda w: GlobalWeightVector(w.method, w.raw[:-1], w.epsilon),
        ],
        ids=["method", "epsilon", "length"],
    )
    def test_weights_must_be_those_of_the_config(self, model, change):
        with pytest.raises(ValueError, match="global weights"):
            dataclasses.replace(model, global_weights=change(model.global_weights))

    def test_doc_ids_must_be_strings(self, model):
        with pytest.raises(ValueError, match="doc_ids"):
            dataclasses.replace(model, doc_ids=(1,) + model.doc_ids[1:])

    def test_tables_keep_their_shape_range_and_sums(self, model):
        ptd = model.topic_given_doc
        for table in (ptd[:, :-1], ptd.astype(np.float32), 2 * ptd, -ptd):
            with pytest.raises(ValueError, match="topic_given_doc"):
                dataclasses.replace(model, topic_given_doc=table)

    def test_weights_of_a_method_named_by_string_save(self, model):
        weights = GlobalWeightVector("entropy", model.global_weights.raw)
        assert weights.method is GtwMethod.ENTROPY
        changed = dataclasses.replace(model, global_weights=weights)
        assert model_to_json(changed) == model_to_json(model)


def assert_same_model_bits(back, model):
    for table in (
        "topic_given_word", "word_prob", "word_given_topic", "topic_given_doc"
    ):
        a, b = getattr(back, table), getattr(model, table)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), table
    for part in ("raw", "clamped"):
        a = getattr(back.global_weights, part)
        assert a.tobytes() == getattr(model.global_weights, part).tobytes(), part
    assert back.global_weights.method is model.global_weights.method
    assert back.global_weights.epsilon == model.global_weights.epsilon
    assert back.vocabulary == model.vocabulary
    assert back.doc_ids == model.doc_ids
    assert back.config == model.config


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    gtw=st.sampled_from(list(GtwMethod)),
    idf_variant=st.sampled_from(["total-frequency", "document-frequency"]),
    cascade=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    corpus_seed=st.integers(min_value=0, max_value=1000),
    n_classes=st.integers(min_value=2, max_value=3),
    docs_per_class=st.integers(min_value=2, max_value=6),
    overlap=st.sampled_from([0.0, 0.4]),
)
def test_model_files_give_every_table_back_bit_for_bit(
    gtw, idf_variant, cascade, seed, corpus_seed, n_classes, docs_per_class, overlap
):
    docs = generate_synthetic(
        corpus_seed,
        n_classes=n_classes,
        vocab_per_class=5,
        docs_per_class=docs_per_class,
        doc_length=6,
        overlap_fraction=overlap,
    )
    config = tiny_config(
        gtw=gtw, idf_variant=idf_variant, cascade=cascade, seed=seed
    )
    model = train(docs, config)
    assert_same_model_bits(model_from_json(model_to_json(model)), model)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        assert_same_model_bits(load_model(path), model)


@pytest.fixture(scope="module")
def model_document():
    """A valid model file; the stop word gives every list an entry."""
    config = tiny_config(tokenizer=TokenizerConfig(stopwords=frozenset({"the"})))
    return model_to_json(train(two_class_docs(n_per=3), config))


def _json_paths(value, path=()):
    """(path, value) for a decoded JSON value and everything inside it;
    a list is entered at its first entry only."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        yield from _json_paths(value[0], path + (0,))


def _json_kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object"}.get(type(value), "null")


# One value of each JSON kind, to stand in for a value of another kind.
_VALUE_OF_KIND = {
    "bool": True, "number": 7, "string": "x", "null": None, "list": [], "object": {}
}

_TABLES = [
    ("word_prob",),
    ("topic_given_word",),
    ("word_given_topic",),
    ("topic_given_doc", "values"),
    ("global_weights", "clamped"),
]

_ENUMS = [("config", "gtw"), ("config", "idf_variant"), ("global_weights", "method")]

_OUT_OF_RANGE = {
    ("version",): [0, 2],
    ("config", "n_topics"): [1, 0, 3],
    ("config", "schedule"): [[], [2, 3], [4, 1], [3, 3]],
    ("config", "fuzzifier"): [1.0, 0.5],
    ("config", "threshold"): [0.0, -1e-5],
    ("config", "max_iterations"): [0, -1],
    ("config", "seed"): [-1, 2**64],
    ("config", "epsilon"): [0.0, -1e-6],
    ("config", "min_df"): [0, -1],
    ("config", "tokenizer", "min_token_length"): [0],
    ("global_weights", "epsilon"): [0.0, -1.0],
}


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _put(doc, path, value):
    """``doc`` with the value at ``path`` replaced; the root path replaces it."""
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _scaled(table, factor):
    if isinstance(table, list):
        return [_scaled(item, factor) for item in table]
    return table * factor


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    mutation=st.sampled_from(
        ["drop", "type", "truncate", "scale", "nan", "huge", "enum", "range"]
    ),
    data=st.data(),
)
def test_mutated_model_file_raises_input_format_error(
    model_document, mutation, data
):
    doc = json.loads(model_document)
    paths = list(_json_paths(doc))

    def pick(options):
        return data.draw(st.sampled_from(options))

    if mutation == "drop":
        path = pick([p for p, _ in paths if p and isinstance(p[-1], str)])
        del _get(doc, path[:-1])[path[-1]]
    elif mutation == "type":
        path, value = pick(paths)
        kinds = [k for k in _VALUE_OF_KIND if k != _json_kind(value)]
        doc = _put(doc, path, _VALUE_OF_KIND[pick(kinds)])
    elif mutation in ("truncate", "scale"):
        path = pick(_TABLES)
        table = _get(doc, path)
        if mutation == "scale":
            changed = _scaled(table, pick([0.0, 0.5, 2.0]))
        elif isinstance(table[0], list):
            changed = pick([
                table[:-1],
                [row[:-1] for row in table],
                [table[0][:-1]] + table[1:],
                [],
            ])
        else:
            changed = pick([table[:-1], []])
        _put(doc, path, changed)
    elif mutation == "nan":
        numbers = [p for p, v in paths if _json_kind(v) == "number"]
        _put(doc, pick(numbers), float("nan"))
    elif mutation == "huge":
        # An integer beyond the float range, where the file stores a float.
        _put(doc, pick([p for p, v in paths if isinstance(v, float)]), 10**400)
    elif mutation == "enum":
        _put(doc, pick(_ENUMS), pick(["tf", "", "ENTROPY"]))
    else:
        path = pick(list(_OUT_OF_RANGE))
        _put(doc, path, pick(_OUT_OF_RANGE[path]))
    with pytest.raises(InputFormatError):
        model_from_json(json.dumps(doc))


class TestStageSeed:
    def test_paths_are_independent(self):
        seeds = {
            stage_seed(0),
            stage_seed(0, 0),
            stage_seed(0, 1),
            stage_seed(0, 0, 0),
            stage_seed(0, 0, 1),
            stage_seed(0, 1, 0),
            stage_seed(1, 0),
        }
        assert len(seeds) == 7

    def test_stable_values(self):
        assert stage_seed(0, 0) == stage_seed(0, 0)
        assert 0 <= stage_seed(123, 4, 5) < 2**64
