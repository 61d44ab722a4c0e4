import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from flatm import (
    GlobalWeightVector,
    GtwMethod,
    RawDocument,
    SettingError,
    TermDocMatrix,
    TrainConfig,
    Vocabulary,
    apply_gtw,
    build_matrix,
    compute_global_weights,
    global_weights_tsv,
    local_weights,
)

EPS = 1e-6


def lw_from(rows) -> sp.csr_matrix:
    return local_weights(sp.csr_matrix(np.asarray(rows, dtype=float)))


def unit_weights(n_terms: int) -> GlobalWeightVector:
    return GlobalWeightVector(GtwMethod.NONE, np.ones(n_terms))


class TestLocalWeights:
    def test_clean_float64_csr_comes_back_uncopied(self):
        f = sp.csr_matrix(np.array([[2.0, 0.0, 2.0], [0.0, 1.0, 0.0]]))
        tdm = TermDocMatrix(counts=f, doc_ids=("a", "b", "c"))
        for matrix in (f, tdm):
            counts = local_weights(matrix)
            for part in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(counts, part), getattr(f, part))

    def test_integer_counts_become_float64_csr(self):
        counts = local_weights(sp.csc_matrix(np.array([[2, 0], [1, 3]])))
        assert isinstance(counts, sp.csr_matrix)
        assert counts.dtype == np.float64
        np.testing.assert_array_equal(counts.toarray(), [[2.0, 0.0], [1.0, 3.0]])

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
        w = compute_global_weights(lw, GtwMethod.ENTROPY)
        assert w.raw[0] == pytest.approx(1.0, abs=1e-12)
        assert w.raw[1] == pytest.approx(0.0, abs=1e-12)
        assert w.clamped[1] == EPS

    def test_entropy_concentrated_among_four_docs(self):
        lw = lw_from([[5.0, 0.0, 0.0, 0.0]])
        w = compute_global_weights(lw, GtwMethod.ENTROPY)
        assert w.raw[0] == pytest.approx(1.0, abs=1e-12)

    def test_entropy_needs_two_docs(self):
        with pytest.raises(ValueError, match="at least 2 documents"):
            compute_global_weights(lw_from([[3.0], [1.0]]), GtwMethod.ENTROPY)

    def test_idf_total_frequency(self):
        lw = lw_from([[1.0, 1.0, 0.0, 0.0], [4.0, 0.0, 0.0, 0.0],
                      [2.0, 2.0, 2.0, 2.0]])
        w = compute_global_weights(lw, GtwMethod.IDF)
        assert w.raw[0] == pytest.approx(1.0, abs=1e-12)  # log2(4/2)
        assert w.raw[1] == pytest.approx(0.0, abs=1e-12)  # log2(4/4)
        assert w.raw[2] == pytest.approx(-1.0, abs=1e-12)  # log2(4/8)
        np.testing.assert_array_equal(w.clamped, [1.0, EPS, EPS])

    def test_idf_document_frequency_variant(self):
        lw = lw_from([[4.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        w = compute_global_weights(
            lw, GtwMethod.IDF, idf_variant="document-frequency"
        )
        assert w.raw[0] == pytest.approx(2.0, abs=1e-12)  # log2(4/1)
        assert w.raw[1] == pytest.approx(1.0, abs=1e-12)  # log2(4/2)

    def test_idf_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown idf variant"):
            compute_global_weights(
                lw_from([[1.0, 1.0]]), GtwMethod.IDF, idf_variant="bm25"
            )

    @pytest.mark.parametrize("method", list(GtwMethod))
    def test_idf_variant_has_one_rule(self, method):
        with pytest.raises(SettingError) as weights_error:
            compute_global_weights(lw_from([[1.0, 1.0]]), method, idf_variant="bm25")
        with pytest.raises(SettingError) as config_error:
            TrainConfig(n_topics=2, gtw=method, idf_variant="bm25")
        assert str(weights_error.value) == str(config_error.value)
        assert str(weights_error.value).startswith("idf_variant must be one of ")

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: TrainConfig(n_topics=2, gtw="bogus"), "gtw"),
            (lambda: compute_global_weights(lw_from([[1.0, 1.0]]), "bogus"), "method"),
            (lambda: GlobalWeightVector("bogus", np.ones(1)), "method"),
        ],
        ids=["TrainConfig", "compute_global_weights", "GlobalWeightVector"],
    )
    def test_gtw_method_has_one_rule(self, make, name):
        message = f"^{name} must be a GtwMethod, got 'bogus'$"
        with pytest.raises(SettingError, match=message):
            make()

    def test_probidf(self):
        lw = lw_from([[2.0, 0.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0],
                      [1.0, 1.0, 1.0, 1.0]])
        w = compute_global_weights(lw, GtwMethod.PROBIDF)
        assert w.raw[0] == pytest.approx(math.log2(3.0), abs=1e-12)
        assert w.raw[1] == pytest.approx(0.0, abs=1e-12)
        assert w.raw[2] == -math.inf
        np.testing.assert_array_equal(
            w.clamped, [math.log2(3.0), EPS, EPS]
        )

    def test_normal(self):
        lw = lw_from([[3.0, 4.0], [1.0, 0.0], [1.0, 1.0]])
        w = compute_global_weights(lw, GtwMethod.NORMAL)
        assert w.raw[0] == pytest.approx(0.2, abs=1e-12)
        assert w.raw[1] == pytest.approx(1.0, abs=1e-12)
        assert w.raw[2] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_gfidf(self):
        lw = lw_from([[3.0, 2.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                      [1.0, 1.0, 1.0, 1.0]])
        w = compute_global_weights(lw, GtwMethod.GFIDF)
        assert w.raw[0] == pytest.approx(2.0, abs=1e-12)  # 6 / 3
        assert w.raw[1] == pytest.approx(1.0, abs=1e-12)
        assert w.raw[2] == pytest.approx(1.0, abs=1e-12)  # n/n

    def test_none_weights(self):
        lw = lw_from([[2.0, 0.0], [1.0, 1.0], [0.0, 5.0]])
        w = compute_global_weights(lw, GtwMethod.NONE)
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


# Every scheme and idf variant with its oracle and keyword arguments.
SCHEMES = TestFormulaOracles.CASES + [
    (GtwMethod.NONE, lambda f: [1.0] * f.shape[0], {}),
]


@st.composite
def stored_counts(draw):
    """A count matrix with no all-zero row, and a CSR of it in which some
    zero cells are stored as explicit zeros, some counts of 2 or more as
    two entries, and some rows with their columns in reverse order."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=2, max_value=6))
    cells = st.lists(
        st.integers(min_value=0, max_value=4), min_size=m * n, max_size=m * n
    )
    f = np.array(draw(cells), dtype=np.float64).reshape(m, n)
    for i in np.flatnonzero(f.sum(axis=1) == 0):
        f[i, draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    flags = st.lists(st.booleans(), min_size=m * n, max_size=m * n)
    explicit = np.array(draw(flags)).reshape(m, n)
    split = np.array(draw(flags)).reshape(m, n)
    reverse = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    data, indices, indptr = [], [], [0]
    for i in range(m):
        entries = []
        for j in range(n):
            if split[i, j] and f[i, j] >= 2:
                entries += [(j, 1.0), (j, f[i, j] - 1.0)]
            elif f[i, j] or explicit[i, j]:
                entries.append((j, f[i, j]))
        for j, value in entries[::-1] if reverse[i] else entries:
            indices.append(j)
            data.append(value)
        indptr.append(len(data))
    csr = sp.csr_matrix((data, indices, indptr), shape=(m, n))
    return f, csr


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(drawn=stored_counts())
def test_every_scheme_matches_its_oracle_on_csr_and_term_doc_matrix(drawn):
    f, csr = drawn
    stored = csr.data.copy(), csr.indices.copy(), csr.indptr.copy()
    tdm = TermDocMatrix(
        counts=csr, doc_ids=tuple(f"d{j}" for j in range(f.shape[1]))
    )
    for method, oracle, kwargs in SCHEMES:
        expected = oracle(f)
        for matrix in (csr, tdm):
            got = compute_global_weights(matrix, method, **kwargs)
            np.testing.assert_allclose(
                got.raw, expected, atol=1e-12, rtol=0, err_msg=f"{method}\n{f}"
            )
    # The matrix is canonicalized on a copy.
    for before, after in zip(stored, (csr.data, csr.indices, csr.indptr)):
        np.testing.assert_array_equal(before, after)


class TestWeightProperties:
    def test_ranges(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            f = oracles.random_count_matrix(rng)
            lw = lw_from(f)
            entropy = compute_global_weights(lw, GtwMethod.ENTROPY).raw
            assert np.all(entropy >= -1e-12) and np.all(entropy <= 1 + 1e-12)
            # gfidf is the mean count over the documents containing the
            # term: at least 1, at most the largest single cell.
            gfidf = compute_global_weights(lw, GtwMethod.GFIDF).raw
            assert np.all(gfidf >= 1 - 1e-12)
            assert np.all(gfidf <= f.max() + 1e-12)
            assert np.all(compute_global_weights(lw, GtwMethod.NORMAL).raw > 0)

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
        for method in (GtwMethod.ENTROPY, GtwMethod.NORMAL, GtwMethod.GFIDF):
            w = compute_global_weights(lw, method)
            assert w.raw[0] == pytest.approx(1.0, abs=1e-12)

    def test_clamp_keeps_raw(self):
        lw = lw_from([[2.0, 2.0], [1.0, 0.0]])
        w = compute_global_weights(lw, GtwMethod.IDF)
        assert w.raw[0] == -1.0  # log2(2/4)
        assert w.clamped[0] == EPS
        assert w.epsilon == EPS

    def test_custom_epsilon(self):
        lw = lw_from([[1.0, 1.0]])
        w = compute_global_weights(lw, GtwMethod.ENTROPY, epsilon=0.5)
        assert w.clamped[0] == 0.5

    def test_epsilon_must_be_positive(self):
        lw = lw_from([[1.0, 1.0]])
        for epsilon in (0.0, -1e-6, math.nan):
            with pytest.raises(ValueError, match="positive"):
                compute_global_weights(lw, GtwMethod.ENTROPY, epsilon=epsilon)
            with pytest.raises(ValueError, match="positive"):
                GlobalWeightVector(GtwMethod.NONE, np.ones(1), epsilon)


class TestGlobalWeightVector:
    def test_clamped_is_derived_not_passed(self):
        with pytest.raises(TypeError, match="clamped"):
            GlobalWeightVector(GtwMethod.NONE, np.ones(2), clamped=np.zeros(2))
        w = GlobalWeightVector(GtwMethod.IDF, [-np.inf, -1.0, 2.0], 0.5)
        assert w.clamped.tolist() == [0.5, 0.5, 2.0]

    def test_raw_must_be_a_vector_without_nan_or_plus_inf(self):
        for raw in ([[1.0]], [np.nan], [np.inf]):
            with pytest.raises(ValueError, match="global weights"):
                GlobalWeightVector(GtwMethod.NONE, raw)


class TestApplyGtw:
    def test_scales_rows(self):
        f = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]))
        w = GlobalWeightVector(GtwMethod.NONE, np.array([1.0, 0.5]))
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
        a = apply_gtw(tdm, unit_weights(len(vocab)))
        np.testing.assert_array_equal(a.toarray(), tdm.counts.toarray())

    def test_sparsity_pattern_preserved(self):
        rng = np.random.default_rng(17)
        f = oracles.random_count_matrix(rng)
        lw = lw_from(f)
        w = compute_global_weights(lw, GtwMethod.ENTROPY)
        a = apply_gtw(sp.csr_matrix(f), w)
        np.testing.assert_array_equal(
            a.toarray() != 0, np.asarray(f) != 0
        )

    def test_dimension_mismatch_rejected(self):
        f = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="does not match"):
            apply_gtw(f, unit_weights(3))

    def test_explicit_zeros_leave_the_callers_matrix_alone(self):
        # [[1, 0], [0, 2]] with the zero at (0, 1) stored explicitly.
        f = sp.csr_matrix(
            (np.array([1.0, 0.0, 2.0]), np.array([0, 1, 1]), np.array([0, 2, 3])),
            shape=(2, 2),
        )
        lw = local_weights(f)
        a = apply_gtw(f, unit_weights(2))
        assert f.nnz == 3
        np.testing.assert_array_equal(f.data, [1.0, 0.0, 2.0])
        assert lw.nnz == a.nnz == 2
        np.testing.assert_array_equal(a.toarray(), [[1.0, 0.0], [0.0, 2.0]])

    def test_clamped_negative_weights_keep_rows_positive(self):
        lw = lw_from([[2.0, 2.0, 2.0, 2.0]])
        w = compute_global_weights(lw, GtwMethod.IDF)
        assert w.raw[0] < 0
        a = apply_gtw(lw, w)
        assert np.all(a.toarray() > 0)


class TestTsvExport:
    def test_format_and_minus_inf(self):
        lw = lw_from([[1.0, 1.0, 1.0], [2.0, 0.0, 0.0]])
        w = compute_global_weights(lw, GtwMethod.PROBIDF)
        vocab = Vocabulary(terms=("alpha", "beta"))
        text = global_weights_tsv(vocab, w)
        lines = text.splitlines()
        assert lines[0] == "term\traw\tclamped"
        assert lines[1] == "alpha\t-inf\t1e-06"  # present in every document
        assert lines[2] == "beta\t1.0\t1.0"  # log2((3-1)/1)

    def test_length_mismatch(self):
        w = unit_weights(2)
        with pytest.raises(ValueError, match="does not match"):
            global_weights_tsv(Vocabulary(terms=("only",)), w)
