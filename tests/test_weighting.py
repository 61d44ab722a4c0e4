import math

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from flatm import (
    GtwMethod,
    RawDocument,
    Vocabulary,
    apply_gtw,
    build_matrix,
    compute_global_weights,
    entropy_weights,
    gfidf_weights,
    global_weights_tsv,
    idf_weights,
    local_weights,
    none_weights,
    normal_weights,
    probidf_weights,
)

EPS = 1e-6


def lw_from(rows) -> "flatm.LocalWeights":
    return local_weights(sp.csr_matrix(np.asarray(rows, dtype=float)))


class TestLocalWeights:
    def test_binary_and_proportions(self):
        lw = lw_from([[2.0, 0.0, 2.0]])
        np.testing.assert_array_equal(lw.binary.toarray(), [[1.0, 0.0, 1.0]])
        np.testing.assert_array_equal(
            lw.proportions.toarray(), [[0.5, 0.0, 0.5]]
        )

    def test_proportion_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = oracles.random_count_matrix(rng)
            lw = lw_from(f)
            rows = np.asarray(lw.proportions.sum(axis=1)).ravel()
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero total count"):
            lw_from([[1.0, 2.0], [0.0, 0.0]])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lw_from([[1.0, -1.0]])


class TestFrozenExamples:
    # Hand-computed values for tiny matrices.

    def test_entropy_single_doc_concentration(self):
        lw = lw_from([[3.0, 0.0], [1.0, 1.0]])
        w = entropy_weights(lw)
        assert w.raw[0] == pytest.approx(1.0, abs=1e-12)
        assert w.raw[1] == pytest.approx(0.0, abs=1e-12)
        assert w.clamped[1] == EPS

    def test_entropy_concentrated_among_four_docs(self):
        lw = lw_from([[5.0, 0.0, 0.0, 0.0]])
        w = entropy_weights(lw)
        assert w.raw[0] == pytest.approx(1.0, abs=1e-12)

    def test_entropy_needs_two_docs(self):
        with pytest.raises(ValueError, match="at least 2 documents"):
            entropy_weights(lw_from([[3.0], [1.0]]))

    def test_idf_total_frequency(self):
        lw = lw_from([[1.0, 1.0, 0.0, 0.0], [4.0, 0.0, 0.0, 0.0],
                      [2.0, 2.0, 2.0, 2.0]])
        w = idf_weights(lw)
        assert w.raw[0] == pytest.approx(1.0, abs=1e-12)  # log2(4/2)
        assert w.raw[1] == pytest.approx(0.0, abs=1e-12)  # log2(4/4)
        assert w.raw[2] == pytest.approx(-1.0, abs=1e-12)  # log2(4/8)
        np.testing.assert_array_equal(w.clamped, [1.0, EPS, EPS])

    def test_idf_document_frequency_variant(self):
        lw = lw_from([[4.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        w = idf_weights(lw, variant="document-frequency")
        assert w.raw[0] == pytest.approx(2.0, abs=1e-12)  # log2(4/1)
        assert w.raw[1] == pytest.approx(1.0, abs=1e-12)  # log2(4/2)

    def test_idf_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown idf variant"):
            idf_weights(lw_from([[1.0, 1.0]]), variant="bm25")

    def test_probidf(self):
        lw = lw_from([[2.0, 0.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0],
                      [1.0, 1.0, 1.0, 1.0]])
        w = probidf_weights(lw)
        assert w.raw[0] == pytest.approx(math.log2(3.0), abs=1e-12)
        assert w.raw[1] == pytest.approx(0.0, abs=1e-12)
        assert w.raw[2] == -math.inf
        np.testing.assert_array_equal(
            w.clamped, [math.log2(3.0), EPS, EPS]
        )

    def test_normal(self):
        lw = lw_from([[3.0, 4.0], [1.0, 0.0], [1.0, 1.0]])
        w = normal_weights(lw)
        assert w.raw[0] == pytest.approx(0.2, abs=1e-12)
        assert w.raw[1] == pytest.approx(1.0, abs=1e-12)
        assert w.raw[2] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_gfidf(self):
        lw = lw_from([[3.0, 2.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                      [1.0, 1.0, 1.0, 1.0]])
        w = gfidf_weights(lw)
        assert w.raw[0] == pytest.approx(2.0, abs=1e-12)  # 6 / 3
        assert w.raw[1] == pytest.approx(1.0, abs=1e-12)
        assert w.raw[2] == pytest.approx(1.0, abs=1e-12)  # n/n

    def test_none_weights(self):
        w = none_weights(3)
        np.testing.assert_array_equal(w.raw, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(w.clamped, [1.0, 1.0, 1.0])


class TestFormulaOracles:
    # Literal per-term loop evaluations vs the vectorized implementations.

    CASES = [
        (GtwMethod.ENTROPY, oracles.entropy_weights, {}),
        (GtwMethod.IDF, oracles.idf_weights_total, {}),
        (
            GtwMethod.IDF,
            oracles.idf_weights_df,
            {"idf_variant": "document-frequency"},
        ),
        (GtwMethod.PROBIDF, oracles.probidf_weights, {}),
        (GtwMethod.NORMAL, oracles.normal_weights, {}),
        (GtwMethod.GFIDF, oracles.gfidf_weights, {}),
    ]

    def test_twenty_random_matrices(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            f = oracles.random_count_matrix(rng, max_terms=8, max_docs=6)
            lw = lw_from(f)
            for method, oracle, kwargs in self.CASES:
                got = compute_global_weights(lw, method, **kwargs)
                np.testing.assert_allclose(
                    got.raw,
                    oracle(f),
                    atol=1e-12,
                    rtol=0,
                    err_msg=f"{method} on\n{f}",
                )


class TestWeightProperties:
    def test_ranges(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            f = oracles.random_count_matrix(rng)
            lw = lw_from(f)
            entropy = entropy_weights(lw).raw
            assert np.all(entropy >= -1e-12) and np.all(entropy <= 1 + 1e-12)
            # gfidf is the mean count over the documents containing the
            # term: at least 1, at most the largest single cell.
            gfidf = gfidf_weights(lw).raw
            assert np.all(gfidf >= 1 - 1e-12)
            assert np.all(gfidf <= f.max() + 1e-12)
            assert np.all(normal_weights(lw).raw > 0)

    def test_document_permutation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            f = oracles.random_count_matrix(rng)
            perm = rng.permutation(f.shape[1])
            for method in GtwMethod:
                a = compute_global_weights(lw_from(f), method)
                b = compute_global_weights(lw_from(f[:, perm]), method)
                np.testing.assert_allclose(a.raw, b.raw, atol=1e-12)

    def test_single_occurrence_term_gets_unit_weight(self):
        # A term seen once in one document scores 1 under entropy,
        # normal, and gfidf alike.
        lw = lw_from([[1.0, 0.0, 0.0], [2.0, 1.0, 3.0]])
        for fn in (entropy_weights, normal_weights, gfidf_weights):
            assert fn(lw).raw[0] == pytest.approx(1.0, abs=1e-12)

    def test_clamp_keeps_raw(self):
        lw = lw_from([[2.0, 2.0], [1.0, 0.0]])
        w = idf_weights(lw)
        assert w.raw[0] == -1.0  # log2(2/4)
        assert w.clamped[0] == EPS
        assert w.epsilon == EPS

    def test_custom_epsilon(self):
        lw = lw_from([[1.0, 1.0]])
        w = entropy_weights(lw, epsilon=0.5)
        assert w.clamped[0] == 0.5

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            entropy_weights(lw_from([[1.0, 1.0]]), epsilon=0.0)


class TestApplyGtw:
    def test_scales_rows(self):
        from flatm import GlobalWeightVector

        f = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]))
        w = GlobalWeightVector.from_raw(GtwMethod.NONE, np.array([1.0, 0.5]))
        a = apply_gtw(f, w)
        np.testing.assert_array_equal(
            a.toarray(), [[1.0, 0.0], [0.5, 1.0]]
        )

    def test_none_is_identity(self):
        docs = [
            RawDocument(doc_id="1", text="cat dog"),
            RawDocument(doc_id="2", text="dog dog"),
        ]
        vocab, tdm = build_matrix(docs)
        a = apply_gtw(tdm, none_weights(len(vocab)))
        np.testing.assert_array_equal(a.toarray(), tdm.counts.toarray())

    def test_sparsity_pattern_preserved(self):
        rng = np.random.default_rng(17)
        f = oracles.random_count_matrix(rng)
        lw = lw_from(f)
        a = apply_gtw(sp.csr_matrix(f), entropy_weights(lw))
        np.testing.assert_array_equal(
            a.toarray() != 0, np.asarray(f) != 0
        )

    def test_dimension_mismatch_rejected(self):
        f = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="does not match"):
            apply_gtw(f, none_weights(3))

    def test_explicit_zeros_leave_the_callers_matrix_alone(self):
        # [[1, 0], [0, 2]] with the zero at (0, 1) stored explicitly.
        f = sp.csr_matrix(
            (np.array([1.0, 0.0, 2.0]), np.array([0, 1, 1]), np.array([0, 2, 3])),
            shape=(2, 2),
        )
        lw = local_weights(f)
        a = apply_gtw(f, none_weights(2))
        assert f.nnz == 3
        np.testing.assert_array_equal(f.data, [1.0, 0.0, 2.0])
        assert lw.counts.nnz == a.nnz == 2
        np.testing.assert_array_equal(a.toarray(), [[1.0, 0.0], [0.0, 2.0]])

    def test_clamped_negative_weights_keep_rows_positive(self):
        lw = lw_from([[2.0, 2.0, 2.0, 2.0]])
        w = idf_weights(lw)
        assert w.raw[0] < 0
        a = apply_gtw(lw.counts, w)
        assert np.all(a.toarray() > 0)


class TestTsvExport:
    def test_format_and_minus_inf(self):
        lw = lw_from([[1.0, 1.0, 1.0], [2.0, 0.0, 0.0]])
        w = probidf_weights(lw)
        vocab = Vocabulary(terms=("alpha", "beta"))
        text = global_weights_tsv(vocab, w)
        lines = text.splitlines()
        assert lines[0] == "term\traw\tclamped"
        assert lines[1] == "alpha\t-inf\t1e-06"  # present in every document
        assert lines[2] == "beta\t1.0\t1.0"  # log2((3-1)/1)

    def test_length_mismatch(self):
        w = none_weights(2)
        with pytest.raises(ValueError, match="does not match"):
            global_weights_tsv(Vocabulary(terms=("only",)), w)
