"""Global term weighting of a term x document count matrix.

:func:`local_weights` checks the counts ``f`` and returns them as a float64
CSR. :func:`compute_global_weights` turns per-term row statistics of ``f``
into one number per term, and :func:`apply_gtw` rescales each term row by
it; the weighted matrix ``a`` feeds the clustering stages downstream.

All schemes use base-2 logarithms. Throughout, ``n`` is the number of
documents, ``f_ij`` the count of term i in document j, ``df_i`` the number
of documents containing term i, and ``p_ij = f_ij / sum_j f_ij``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corpus import TermDocMatrix, Vocabulary
from .fcm import SettingError, _as_points, _require, _row_blocks, _row_sums

__all__ = [
    "GtwMethod",
    "GlobalWeightVector",
    "IDF_VARIANTS",
    "DEFAULT_EPSILON",
    "local_weights",
    "compute_global_weights",
    "apply_gtw",
    "global_weights_tsv",
]

DEFAULT_EPSILON = 1e-6

IDF_VARIANTS = ("total-frequency", "document-frequency")


def _check_idf_variant(idf_variant: str) -> None:
    if idf_variant not in IDF_VARIANTS:
        raise SettingError(
            f"idf_variant must be one of {IDF_VARIANTS}; "
            f"unknown idf variant: {idf_variant!r}"
        )


def _check_epsilon(epsilon: float) -> None:
    if not epsilon > 0:
        raise SettingError("epsilon must be positive")


def _check_gtw(name: str, method) -> GtwMethod:
    """``method`` as a :class:`GtwMethod`, or :class:`SettingError` naming ``name``."""
    try:
        return GtwMethod(method)
    except ValueError:
        raise SettingError(f"{name} must be a GtwMethod, got {method!r}") from None


class GtwMethod(enum.Enum):
    """Global term weighting schemes. ``NONE`` leaves counts untouched."""

    ENTROPY = "entropy"
    IDF = "idf"
    PROBIDF = "probidf"
    NORMAL = "normal"
    GFIDF = "gfidf"
    NONE = "none"


@dataclass(frozen=True)
class GlobalWeightVector:
    """One weight per term, before and after clamping.

    ``raw`` is the scheme's value as computed; it may be zero, negative,
    or -inf (probabilistic idf on a term present in every document), not
    nan or +inf. ``clamped = max(raw, epsilon)``, derived on construction,
    is what multiplication uses, keeping every term's row alive with a
    small positive weight. ``method`` and ``epsilon`` follow
    :class:`~flatm.model.TrainConfig`'s rules.
    """

    method: GtwMethod
    raw: np.ndarray
    epsilon: float = DEFAULT_EPSILON
    clamped: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", _check_gtw("method", self.method))
        _require(self, float, "epsilon")
        _check_epsilon(self.epsilon)
        raw = np.asarray(self.raw, dtype=np.float64)
        if raw.ndim != 1:
            raise ValueError("global weights must be a 1-d vector")
        if np.any(np.isnan(raw)) or np.any(raw == np.inf):
            raise ValueError("global weights must not contain nan or +inf")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "clamped", np.maximum(raw, self.epsilon))

    def __len__(self) -> int:
        return len(self.raw)


def _as_counts(matrix: TermDocMatrix | sp.spmatrix) -> sp.csr_matrix:
    """The counts as a canonical float64 CSR, by :func:`~flatm.fcm._as_points`."""
    counts = matrix.counts if isinstance(matrix, TermDocMatrix) else matrix
    counts = _as_points(sp.csr_matrix(counts))
    if counts.nnz and counts.data.min() < 0:
        raise ValueError("counts must be nonnegative")
    return counts


def local_weights(matrix: TermDocMatrix | sp.spmatrix) -> sp.csr_matrix:
    """The checked counts ``f`` as a float64 CSR with one entry per non-zero.

    A canonical float64 CSR input's arrays come back shared, not copied. Every
    term must occur at least once overall, otherwise its proportions are
    undefined.
    """
    counts = _as_counts(matrix)
    dead = np.flatnonzero(np.diff(counts.indptr) == 0)
    if dead.size:
        raise ValueError(f"term row {int(dead[0])} has zero total count")
    return counts


def _row_statistics(
    counts: sp.csr_matrix, method: GtwMethod
) -> tuple[np.ndarray, np.ndarray]:
    """The row sums ``gf_i`` of the counts, and for ``entropy`` the per-row
    sums of ``p_ij log2(p_ij)``, for ``normal`` those of ``f_ij^2`` (zeros
    otherwise); taken a block of rows at a time, so that ``p`` and its
    logarithms are one block long."""
    gf, sums = np.empty(counts.shape[0]), np.zeros(counts.shape[0])
    for rows, entries, indptr in _row_blocks(counts.indptr):
        f = counts.data[entries]
        gf[rows] = _row_sums(indptr, f)
        if method is GtwMethod.ENTROPY:
            p = f * np.repeat(1.0 / gf[rows], np.diff(indptr))
            sums[rows] = _row_sums(indptr, p * np.log2(p))
        elif method is GtwMethod.NORMAL:
            sums[rows] = _row_sums(indptr, f**2)
    return gf, sums


def compute_global_weights(
    matrix: TermDocMatrix | sp.spmatrix,
    method: GtwMethod,
    epsilon: float = DEFAULT_EPSILON,
    idf_variant: str = IDF_VARIANTS[0],
) -> GlobalWeightVector:
    """One weight per term row of the counts, by the scheme ``method``.

    ``matrix`` is anything :func:`local_weights` takes. With
    ``gf_i = sum_j f_ij`` and ``df_i`` the documents containing term i:

    - ``entropy``: ``1 + sum_j p_ij log2(p_ij) / log2(n)``, cells with
      ``p_ij = 0`` contributing nothing; 1 for a term concentrated in one
      document, 0 for one spread uniformly over all n. Requires n >= 2.
    - ``idf``: ``log2(n / gf_i)``, or ``log2(n / df_i)`` with
      ``idf_variant="document-frequency"``, the more common formulation
      elsewhere. Both go negative for frequent terms.
    - ``probidf``: ``log2((n - df_i) / df_i)``; -inf for a term present in
      every document (the odds ratio is zero).
    - ``normal``: ``1 / sqrt(sum_j f_ij^2)``. Always positive.
    - ``gfidf``: ``gf_i / df_i``, the term's mean count over the documents
      containing it; always at least 1.
    - ``none``: unit weights, so the weighted matrix equals the counts.

    Clamping to ``epsilon`` turns every low or -inf value into a small
    positive weight. ``idf_variant`` must be in ``IDF_VARIANTS`` whatever
    the method, the rule :class:`~flatm.model.TrainConfig` applies.
    """
    method = _check_gtw("method", method)
    _check_idf_variant(idf_variant)
    counts = local_weights(matrix)
    n_docs = counts.shape[1]
    if method is GtwMethod.ENTROPY and n_docs < 2:
        raise ValueError("entropy weighting requires at least 2 documents")
    gf, sums = _row_statistics(counts, method)
    df = np.diff(counts.indptr).astype(np.float64)
    if method is GtwMethod.ENTROPY:
        raw = 1.0 + sums / np.log2(n_docs)
    elif method is GtwMethod.IDF:
        raw = np.log2(n_docs / (gf if idf_variant == "total-frequency" else df))
    elif method is GtwMethod.PROBIDF:
        with np.errstate(divide="ignore"):
            raw = np.log2((n_docs - df) / df)
    elif method is GtwMethod.NORMAL:
        raw = 1.0 / np.sqrt(sums)
    elif method is GtwMethod.GFIDF:
        raw = gf / df
    else:
        raw = np.ones(counts.shape[0])
    return GlobalWeightVector(method, raw, epsilon)


def apply_gtw(
    matrix: TermDocMatrix | sp.spmatrix, weights: GlobalWeightVector
) -> sp.csr_matrix:
    """The weighted matrix ``a_ij = clamped_i * f_ij``, as a new float64 CSR.

    The counts are read as :func:`local_weights` reads them, so a column's
    non-zeros are exactly the document's counted terms, one entry each.
    """
    counts = _as_counts(matrix)
    if counts.shape[0] != len(weights):
        raise ValueError(
            f"weight vector length {len(weights)} does not match "
            f"{counts.shape[0]} terms"
        )
    return _weigh(counts.copy(), weights.clamped)


def _weigh(counts: sp.csr_matrix, clamped: np.ndarray) -> sp.csr_matrix:
    """Scale each row of ``counts`` by its weight in ``clamped``, in place,
    a block of rows at a time; returns ``counts``."""
    for rows, entries, indptr in _row_blocks(counts.indptr):
        counts.data[entries] *= np.repeat(clamped[rows], np.diff(indptr))
    return counts


def global_weights_tsv(vocab: Vocabulary, weights: GlobalWeightVector) -> str:
    """Render per-term weights as TSV with a header row."""
    if len(vocab) != len(weights):
        raise ValueError("vocabulary size does not match weight vector")
    lines = ["term\traw\tclamped"]
    for term, raw, clamped in zip(vocab.terms, weights.raw, weights.clamped):
        lines.append(f"{term}\t{float(raw)!r}\t{float(clamped)!r}")
    return "\n".join(lines) + "\n"
