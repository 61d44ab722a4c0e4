"""Passes over a CSR matrix's entries by blocks of whole rows.

Each blocked pass must give the bits of the whole-array expression it
replaced, or of scipy's own reduction, wherever the block edges fall. The
block size is shrunk so that small matrices have rows that would run over
a block's end, rows longer than a block and empty rows at a block's edge.
The public functions built on in-place kernels must still leave their
caller's matrix as it was.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from flatm import (
    CascadeSchedule,
    FcmConfig,
    GtwMethod,
    TrainConfig,
    apply_gtw,
    compute_global_weights,
    fcm_run,
    generate_synthetic,
    local_weights,
    model_to_json,
    topic_given_doc,
    train,
    word_given_doc,
)
from flatm import fcm
from flatm.model import _doc_mass

# Entries per row. With blocks of 8 entries, WITH_EMPTY_ROWS falls into the
# blocks of rows [0, 4) (rows 2 and 3 empty, at the block's end), [4, 5)
# (12 entries), [5, 9) (row 6 ends past the 8-entry mark of a fixed grid),
# [9, 10) (9 entries) and [10, 11) (empty, the matrix's last row).
WITH_EMPTY_ROWS = [3, 4, 0, 0, 12, 1, 5, 0, 2, 9, 0]
# Every row counted once at least, as the weighting needs.
NO_EMPTY_ROWS = [3, 4, 12, 1, 5, 2, 9, 1]
N_COLS = 40  # more columns than entries, so some columns are empty
ONE_BLOCK = 1 << 16


def matrix(row_nnz, seed=0, counts=False) -> sp.csr_matrix:
    """A canonical CSR matrix with the given entries per row: lognormal
    values, or whole counts from 1 to 9."""
    rng = np.random.default_rng(seed)
    indices = [np.sort(rng.choice(N_COLS, size=k, replace=False)) for k in row_nnz]
    nnz = sum(row_nnz)
    data = rng.integers(1, 10, nnz) if counts else rng.lognormal(0.0, 2.0, nnz)
    x = sp.csr_matrix(
        (data.astype(np.float64), np.concatenate(indices), np.cumsum([0, *row_nnz])),
        shape=(len(row_nnz), N_COLS),
    )
    assert x.has_canonical_format
    return x


def bits(a) -> bytes:
    return np.asarray(a).tobytes()


def scipy_row_sums(x: sp.csr_matrix, values: np.ndarray) -> np.ndarray:
    cells = sp.csr_matrix((values, x.indices, x.indptr), shape=x.shape)
    return np.asarray(cells.sum(axis=1)).ravel()


def whole_array_raw(counts, method, idf_variant):
    """Each scheme's raw weights as whole-array expressions over the counts."""
    n = counts.shape[1]
    cells = np.diff(counts.indptr)
    gf = scipy_row_sums(counts, counts.data)
    df = cells.astype(np.float64)
    if method is GtwMethod.ENTROPY:
        p = counts.data * np.repeat(1.0 / gf, cells)
        return 1.0 + scipy_row_sums(counts, p * np.log2(p)) / np.log2(n)
    if method is GtwMethod.IDF:
        return np.log2(n / (gf if idf_variant == "total-frequency" else df))
    if method is GtwMethod.PROBIDF:
        with np.errstate(divide="ignore"):
            return np.log2((n - df) / df)
    if method is GtwMethod.NORMAL:
        return 1.0 / np.sqrt(scipy_row_sums(counts, counts.data**2))
    if method is GtwMethod.GFIDF:
        return gf / df
    return np.ones(counts.shape[0])


@pytest.fixture(params=[1, 8, ONE_BLOCK], ids=["block-1", "block-8", "one-block"])
def block(request, monkeypatch):
    monkeypatch.setattr(fcm, "_BLOCK_ENTRIES", request.param)
    return request.param


def test_blocks_hold_whole_rows(monkeypatch):
    monkeypatch.setattr(fcm, "_BLOCK_ENTRIES", 8)
    x = matrix(WITH_EMPTY_ROWS)
    blocks = list(fcm._row_blocks(x.indptr))
    assert [(r.start, r.stop) for r, _, _ in blocks] == [
        (0, 4), (4, 5), (5, 9), (9, 10), (10, 11),
    ]
    for rows, entries, indptr in blocks:
        first, last = rows.start, rows.stop
        assert (entries.start, entries.stop) == (x.indptr[first], x.indptr[last])
        assert bits(indptr) == bits(x.indptr[first : last + 1] - entries.start)
    monkeypatch.setattr(fcm, "_BLOCK_ENTRIES", ONE_BLOCK)
    assert [(r.start, r.stop) for r, _, _ in fcm._row_blocks(x.indptr)] == [(0, 11)]


@pytest.mark.parametrize("counts", [True, False], ids=["counts", "reals"])
@pytest.mark.parametrize(
    "method, idf_variant",
    [(m, "total-frequency") for m in GtwMethod]
    + [(GtwMethod.IDF, "document-frequency")],
)
def test_global_weights_of_every_scheme(block, counts, method, idf_variant):
    x = matrix(NO_EMPTY_ROWS, seed=1, counts=counts)
    got = compute_global_weights(x, method, idf_variant=idf_variant)
    assert bits(got.raw) == bits(whole_array_raw(x, method, idf_variant))


def test_weighting_scale(block):
    x = matrix(NO_EMPTY_ROWS, seed=2, counts=True)
    weights = compute_global_weights(x, GtwMethod.ENTROPY)
    want = x.data * np.repeat(weights.clamped, np.diff(x.indptr))
    got = apply_gtw(x, weights)
    assert bits(got.indptr) == bits(x.indptr)
    assert bits(got.indices) == bits(x.indices)
    assert bits(got.data) == bits(want)


def test_document_masses(block):
    a = matrix(WITH_EMPTY_ROWS, seed=3)
    want = np.bincount(a.indices, weights=a.data, minlength=a.shape[1])
    assert bits(_doc_mass(a)) == bits(want)
    assert bits(_doc_mass(a)) == bits(np.asarray(a.sum(axis=0)).ravel())


def test_column_normalization(block):
    a = matrix(WITH_EMPTY_ROWS, seed=4)
    mass = np.bincount(a.indices, weights=a.data, minlength=a.shape[1])
    assert (mass == 0.0).any()
    mass[mass == 0.0] = 1.0
    got = word_given_doc(a)
    assert bits(got.indptr) == bits(a.indptr)
    assert bits(got.indices) == bits(a.indices)
    assert bits(got.data) == bits(a.data / mass[a.indices])


def test_row_norms(block):
    x = matrix(WITH_EMPTY_ROWS, seed=5)
    want = np.asarray(x.multiply(x).sum(axis=1)).ravel()
    assert bits(fcm._row_norms(x)) == bits(want)


def test_train_gives_the_same_model_at_any_block_size(monkeypatch):
    docs = generate_synthetic(
        seed=2, n_classes=3, vocab_per_class=20, docs_per_class=20, doc_length=15,
        overlap_fraction=0.2,
    )
    config = TrainConfig(n_topics=3, schedule=CascadeSchedule((6, 4)), seed=3)
    want = model_to_json(train(docs, config))
    for size in (1, 64):
        monkeypatch.setattr(fcm, "_BLOCK_ENTRIES", size)
        assert model_to_json(train(docs, config)) == want, size


def with_explicit_zero(x: sp.csr_matrix) -> sp.csr_matrix:
    x = x.copy()
    x.data[1] = 0.0
    return x


CALLS = {
    "local_weights": local_weights,
    **{
        f"compute_global_weights-{m.value}": (
            lambda x, m=m: compute_global_weights(x, m)
        )
        for m in GtwMethod
    },
    "apply_gtw": lambda x: apply_gtw(x, compute_global_weights(x, GtwMethod.ENTROPY)),
    "word_given_doc": word_given_doc,
    "topic_given_doc": lambda x: topic_given_doc(np.full((x.shape[0], 2), 0.5), x),
    "fcm_run": lambda x: fcm_run(x, FcmConfig(n_clusters=3, max_iterations=5)),
}


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize(
    "make", [lambda x: x, with_explicit_zero], ids=["clean", "explicit-zero"]
)
def test_public_functions_leave_the_callers_matrix_unchanged(
    monkeypatch, name, make
):
    monkeypatch.setattr(fcm, "_BLOCK_ENTRIES", 8)
    x = make(matrix(NO_EMPTY_ROWS, seed=6, counts=True))
    before = [part.copy() for part in (x.data, x.indices, x.indptr)]
    CALLS[name](x)
    for part, kept in zip((x.data, x.indices, x.indptr), before):
        assert bits(part) == bits(kept), name


@pytest.mark.parametrize("name", ["apply_gtw", "word_given_doc"])
def test_new_matrices_share_no_data_with_the_input(name):
    x = matrix(NO_EMPTY_ROWS, seed=7, counts=True)
    assert not np.shares_memory(CALLS[name](x).data, x.data)
