"""Local and global term weighting.

Local weights are derived per (term, document) cell from the count matrix
``f``: the binary indicator ``b`` and the per-term proportion ``p``.
Global weights assign one number per term that rescales the whole row;
the weighted matrix ``a`` feeds the clustering stages downstream.

All schemes use base-2 logarithms. Throughout, ``n`` is the number of
documents, ``f_ij`` the count of term i in document j, ``df_i`` the number
of documents containing term i, and ``p_ij = f_ij / sum_j f_ij``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import TermDocMatrix, Vocabulary

__all__ = [
    "GtwMethod",
    "LocalWeights",
    "GlobalWeightVector",
    "IDF_VARIANTS",
    "DEFAULT_EPSILON",
    "local_weights",
    "entropy_weights",
    "idf_weights",
    "probidf_weights",
    "normal_weights",
    "gfidf_weights",
    "none_weights",
    "compute_global_weights",
    "apply_gtw",
    "global_weights_tsv",
]

DEFAULT_EPSILON = 1e-6

IDF_VARIANTS = ("total-frequency", "document-frequency")


class GtwMethod(enum.Enum):
    """Global term weighting schemes. ``NONE`` leaves counts untouched."""

    ENTROPY = "entropy"
    IDF = "idf"
    PROBIDF = "probidf"
    NORMAL = "normal"
    GFIDF = "gfidf"
    NONE = "none"


@dataclass(frozen=True)
class LocalWeights:
    """Per-cell local weights, all CSR with the count matrix's shape.

    ``counts`` is the raw ``f``; ``binary`` has 1.0 wherever ``f > 0``;
    ``proportions`` holds ``p_ij``, so every row sums to 1.
    """

    counts: sp.csr_matrix
    binary: sp.csr_matrix
    proportions: sp.csr_matrix


@dataclass(frozen=True)
class GlobalWeightVector:
    """One weight per term, before and after clamping.

    ``raw`` is the scheme's value as computed; it may be zero, negative,
    or -inf (probabilistic idf on a term present in every document).
    ``clamped = max(raw, epsilon)`` is what multiplication uses, keeping
    every term's row alive with a small positive weight.
    """

    method: GtwMethod
    raw: np.ndarray
    clamped: np.ndarray
    epsilon: float = DEFAULT_EPSILON

    @classmethod
    def from_raw(
        cls, method: GtwMethod, raw: np.ndarray, epsilon: float = DEFAULT_EPSILON
    ) -> "GlobalWeightVector":
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 1:
            raise ValueError("global weights must be a 1-d vector")
        if np.any(np.isnan(raw)) or np.any(raw == np.inf):
            raise ValueError("global weights must not contain nan or +inf")
        return cls(
            method=method, raw=raw, clamped=np.maximum(raw, epsilon), epsilon=epsilon
        )

    def __len__(self) -> int:
        return len(self.raw)


def _as_counts(matrix: TermDocMatrix | sp.spmatrix) -> sp.csr_matrix:
    counts = matrix.counts if isinstance(matrix, TermDocMatrix) else matrix
    counts = sp.csr_matrix(counts, dtype=np.float64)
    if (counts.data == 0).any():
        # csr_matrix() returns a float64 CSR input itself, not a copy: drop
        # explicit zeros from a copy so the caller's matrix is left alone.
        counts = counts.copy()
        counts.eliminate_zeros()
    if counts.nnz and counts.data.min() < 0:
        raise ValueError("counts must be nonnegative")
    return counts


def local_weights(matrix: TermDocMatrix | sp.spmatrix) -> LocalWeights:
    """Compute ``b`` and ``p`` from the counts.

    Every term must occur at least once overall, otherwise its proportion
    row is undefined.
    """
    counts = _as_counts(matrix)
    row_totals = np.asarray(counts.sum(axis=1)).ravel()
    if np.any(row_totals == 0):
        dead = int(np.flatnonzero(row_totals == 0)[0])
        raise ValueError(f"term row {dead} has zero total count")
    binary = counts.copy()
    binary.data = np.ones_like(binary.data)
    proportions = counts.multiply(1.0 / row_totals[:, None]).tocsr()
    return LocalWeights(counts=counts, binary=binary, proportions=proportions)


def _row_sums(matrix: sp.csr_matrix) -> np.ndarray:
    return np.asarray(matrix.sum(axis=1)).ravel()


def entropy_weights(
    lw: LocalWeights, epsilon: float = DEFAULT_EPSILON
) -> GlobalWeightVector:
    """Entropy weighting: ``1 + sum_j p_ij log2(p_ij) / log2(n)``.

    Cells with ``p_ij = 0`` contribute nothing. The value is 1 for a term
    concentrated in a single document and 0 for one spread uniformly over
    all n documents. Requires n >= 2.
    """
    n_docs = lw.counts.shape[1]
    if n_docs < 2:
        raise ValueError("entropy weighting requires at least 2 documents")
    plogp = lw.proportions.copy()
    plogp.data = plogp.data * np.log2(plogp.data)
    raw = 1.0 + _row_sums(plogp) / np.log2(n_docs)
    return GlobalWeightVector.from_raw(GtwMethod.ENTROPY, raw, epsilon)


def idf_weights(
    lw: LocalWeights,
    epsilon: float = DEFAULT_EPSILON,
    variant: str = "total-frequency",
) -> GlobalWeightVector:
    """Inverse document frequency: ``log2(n / sum_j f_ij)``.

    The default divides by the term's total count over the corpus; the
    ``document-frequency`` variant divides by ``df_i`` instead, which is
    the more common formulation elsewhere. Both go negative for frequent
    terms, which is what clamping is for.
    """
    if variant not in IDF_VARIANTS:
        raise ValueError(f"unknown idf variant: {variant!r}")
    n_docs = lw.counts.shape[1]
    denom = _row_sums(lw.counts if variant == "total-frequency" else lw.binary)
    raw = np.log2(n_docs / denom)
    return GlobalWeightVector.from_raw(GtwMethod.IDF, raw, epsilon)


def probidf_weights(
    lw: LocalWeights, epsilon: float = DEFAULT_EPSILON
) -> GlobalWeightVector:
    """Probabilistic idf: ``log2((n - df_i) / df_i)``.

    A term present in every document gets raw weight -inf (the odds ratio
    is zero); clamping turns that into epsilon like any other low value.
    """
    n_docs = lw.counts.shape[1]
    df = _row_sums(lw.binary)
    with np.errstate(divide="ignore"):
        raw = np.log2((n_docs - df) / df)
    return GlobalWeightVector.from_raw(GtwMethod.PROBIDF, raw, epsilon)


def normal_weights(
    lw: LocalWeights, epsilon: float = DEFAULT_EPSILON
) -> GlobalWeightVector:
    """Normal weighting: ``1 / sqrt(sum_j f_ij^2)``. Always positive."""
    sq = lw.counts.copy()
    sq.data = sq.data**2
    raw = 1.0 / np.sqrt(_row_sums(sq))
    return GlobalWeightVector.from_raw(GtwMethod.NORMAL, raw, epsilon)


def gfidf_weights(
    lw: LocalWeights, epsilon: float = DEFAULT_EPSILON
) -> GlobalWeightVector:
    """Global frequency over document frequency: ``sum_j f_ij / sum_j b_ij``.

    Always at least 1: the mean count of the term over the documents that
    contain it.
    """
    raw = _row_sums(lw.counts) / _row_sums(lw.binary)
    return GlobalWeightVector.from_raw(GtwMethod.GFIDF, raw, epsilon)


def none_weights(
    n_terms: int, epsilon: float = DEFAULT_EPSILON
) -> GlobalWeightVector:
    """Unit weights: the weighted matrix equals the raw counts."""
    return GlobalWeightVector.from_raw(GtwMethod.NONE, np.ones(n_terms), epsilon)


def compute_global_weights(
    lw: LocalWeights,
    method: GtwMethod,
    epsilon: float = DEFAULT_EPSILON,
    idf_variant: str = "total-frequency",
) -> GlobalWeightVector:
    """Dispatch to the scheme named by ``method``."""
    method = GtwMethod(method)
    if method is GtwMethod.ENTROPY:
        return entropy_weights(lw, epsilon)
    if method is GtwMethod.IDF:
        return idf_weights(lw, epsilon, variant=idf_variant)
    if method is GtwMethod.PROBIDF:
        return probidf_weights(lw, epsilon)
    if method is GtwMethod.NORMAL:
        return normal_weights(lw, epsilon)
    if method is GtwMethod.GFIDF:
        return gfidf_weights(lw, epsilon)
    return none_weights(lw.counts.shape[0], epsilon)


def apply_gtw(
    matrix: TermDocMatrix | sp.spmatrix, weights: GlobalWeightVector
) -> sp.csr_matrix:
    """The weighted matrix ``a_ij = clamped_i * f_ij``, as a new float64 CSR.

    Explicit zeros in the counts are dropped, so a column's non-zeros are
    exactly the document's counted terms.
    """
    counts = _as_counts(matrix)
    if counts.shape[0] != len(weights):
        raise ValueError(
            f"weight vector length {len(weights)} does not match "
            f"{counts.shape[0]} terms"
        )
    weighted = counts.copy()
    weighted.data *= np.repeat(weights.clamped, np.diff(counts.indptr))
    return weighted


def global_weights_tsv(vocab: Vocabulary, weights: GlobalWeightVector) -> str:
    """Render per-term weights as TSV with a header row."""
    if len(vocab) != len(weights):
        raise ValueError("vocabulary size does not match weight vector")
    lines = ["term\traw\tclamped"]
    for term, raw, clamped in zip(vocab.terms, weights.raw, weights.clamped):
        lines.append(f"{term}\t{float(raw)!r}\t{float(clamped)!r}")
    return "\n".join(lines) + "\n"
