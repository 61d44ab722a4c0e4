"""Fuzzy c-means clustering.

Minimizes sum_jk u_jk^q d(x_j, v_k)^2 subject to memberships forming a
row-stochastic matrix, by alternating the closed-form center and
membership updates from a seeded random row-stochastic start. The
objective is non-increasing across iterations up to rounding; the loop
stops when the largest membership change falls to the threshold or the
iteration cap is hit.

Points are the rows of a float64 matrix, dense or scipy sparse;
``fuzzifier`` is the exponent q > 1. The input type picks the distance
and center kernels. A sparse matrix never becomes dense: distances use
the expansion d2_jk = |x_j|^2 - 2 x_j.v_k + |v_k|^2, clamped at 0, and
centers are (U^q)^T X / sum_j u_jk^q as a sparse product. The row norms
|x_j|^2 never change, so a run computes them once, before its first
iteration.

The expansion suits a sparse term-by-document matrix, whose rows are
far from each other and from the centers. It does not suit the dense
membership rows that later cascade stages cluster: those rows are
nearly identical, with d2 around 1e-13 against |x|^2 around 0.1, and
cancellation would cost about 1e-4 relative. So dense input keeps the
direct difference, d2_jk = sum_i (x_ji - v_ki)^2, and centers as an
einsum over memberships.

Distances and the membership update work cluster-major, on (c, n)
arrays, so that each per-point reduction over the clusters (the minimum
and the normalising sum) runs over contiguous rows instead of along
short strided ones. The arithmetic is that of the point-major (n, c)
form element for element. Dense distances read a (dims, n) transpose of
the points, made once per run, and go one dimension at a time over
whole (c, n) arrays: the differences are the same, their squares are
the same products, and :func:`_einsum_sum` adds a point's products in
the order ``einsum("nd,nd->n")`` adds its C-order ``x_j - v_k`` row, so
each distance keeps the einsum's bits. The minimum is exact in any
order; the ratio, the power and the quotient are elementwise; and
:func:`_pairwise_sum` adds each point's c values in the order numpy's
``sum(axis=1)`` adds a C-order row. One transpose then gives the
C-order (n, c) memberships that the center update, the objective and
the next cascade stage read. So results are bit for bit those of the
point-major loop.
"""

from __future__ import annotations

import logging
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SettingError",
    "FcmConfig",
    "FcmResult",
    "fcm_run",
    "update_memberships",
]

logger = logging.getLogger(__name__)

_MAX_SEED = 2**64


class SettingError(ValueError):
    """A setting breaks its rule; the message starts with the setting's name."""


def _checked(name: str, value, kind: type):
    """``value`` as the setting ``name`` of ``kind``, or :class:`SettingError`.

    ``int``: a Python or numpy integer, returned as a plain ``int``; 2.5,
    3.0 and ``True`` fail. ``float``: a Python or numpy real number, not a
    ``bool``, that fits a float; an integer is returned as a plain ``int``,
    so an int fuzzifier still saves as 3, and any other number as a plain
    ``float``. Any other class, ``bool`` included: an instance of it,
    returned as given. The message starts with ``name``.
    """
    if kind is int or kind is float:
        try:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError
            number = float(value) if kind is float else None
            if kind is int or isinstance(value, numbers.Integral):
                number = operator.index(value)
            return number
        except (TypeError, OverflowError):
            noun = "an integer" if kind is int else "a number"
            raise SettingError(f"{name} must be {noun}, got {value!r}") from None
    if not isinstance(value, kind):
        raise SettingError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def _require(config, kind: type, *names: str) -> None:
    """Store :func:`_checked`'s value of each named field of a frozen dataclass."""
    for name in names:
        object.__setattr__(config, name, _checked(name, getattr(config, name), kind))


def _check_fuzzifier(fuzzifier: float) -> float:
    """``fuzzifier`` as a number above 1, or :class:`SettingError`."""
    fuzzifier = _checked("fuzzifier", fuzzifier, float)
    if not fuzzifier > 1.0:
        raise SettingError("fuzzifier must be > 1")
    return fuzzifier


def _check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2**64), the range numpy's seeding takes."""
    if not 0 <= seed < _MAX_SEED:
        raise SettingError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class FcmConfig:
    """Solver settings for one clustering run.

    ``fuzzifier`` is the membership exponent q; values near 1 give nearly
    hard assignments, larger values give softer ones. Convergence is the
    max absolute membership change falling to ``threshold``.
    """

    n_clusters: int
    fuzzifier: float = 2.0
    threshold: float = 1e-5
    max_iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self, int, "n_clusters", "max_iterations", "seed")
        _require(self, float, "fuzzifier", "threshold")
        if self.n_clusters < 2:
            raise SettingError("n_clusters must be >= 2")
        _check_fuzzifier(self.fuzzifier)
        if not self.threshold > 0.0:
            raise SettingError("threshold must be positive")
        if self.max_iterations < 1:
            raise SettingError("max_iterations must be >= 1")
        _check_seed(self.seed)


@dataclass(frozen=True)
class FcmResult:
    """Outcome of :func:`fcm_run`.

    ``membership`` has shape (n_points, n_clusters) with rows summing to
    1; ``objective_trace`` holds the objective after each completed
    iteration; ``converged`` is False when the iteration cap stopped the
    loop first.
    """

    membership: np.ndarray
    centers: np.ndarray
    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool


_Points = np.ndarray | sp.csr_matrix


def _as_points(data) -> _Points:
    """Canonical CSR for sparse input, a C-contiguous array otherwise; float64.

    Canonical: column indices sorted, duplicate entries summed and explicit
    zeros dropped, as ``x.multiply(x)`` would leave them. A matrix not in
    that form is put into it on a copy, so the caller's matrix is unchanged
    and results depend on its values only, not on how they are stored.
    """
    if sp.issparse(data):
        x = sp.csr_matrix(data, dtype=np.float64)
        if not (x.has_canonical_format and x.data.all()):
            x = x.copy()
            x.sum_duplicates()
            x.eliminate_zeros()
        return x
    return np.ascontiguousarray(np.asarray(data, dtype=np.float64))


def _check_data(data, n_clusters: int) -> _Points:
    x = _as_points(data)
    if x.ndim != 2:
        raise ValueError("data must be a 2-d array")
    if not np.all(np.isfinite(x.data if sp.issparse(x) else x)):
        raise ValueError("data must be finite")
    if x.shape[0] <= n_clusters:
        raise ValueError(
            f"need more points than clusters: {x.shape[0]} points, "
            f"{n_clusters} clusters"
        )
    return x


def _initial_membership(
    n_points: int, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Random row-stochastic membership matrix."""
    u = rng.random((n_points, n_clusters))
    return u / u.sum(axis=1, keepdims=True)


# Entries per block of the passes that go over a CSR matrix's entries by
# blocks of whole rows, so that a pass holds its temporaries for one block
# at a time rather than arrays as long as all the non-zeros.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(indptr: np.ndarray) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Consecutive blocks of whole rows of a CSR matrix with ``indptr``,
    each of about ``_BLOCK_ENTRIES`` entries, or one row longer than that.

    Yields each block's rows, its entries, and its ``indptr`` counted from
    the block's first entry.
    """
    n_rows = len(indptr) - 1
    r0 = 0
    while r0 < n_rows:
        end = int(indptr[r0]) + _BLOCK_ENTRIES
        r1 = int(np.searchsorted(indptr, end, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n_rows)
        s, e = int(indptr[r0]), int(indptr[r1])
        yield slice(r0, r1), slice(s, e), indptr[r0 : r1 + 1] - s
        r0 = r1


def _row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sums of ``values`` laid out like the data of a CSR matrix
    with ``indptr``, by scipy's own reduction for ``sum(axis=1)``:
    ``reduceat`` over the non-empty rows only (an equal index pair would
    give the element, not zero). Each row's sum depends on its own values
    alone, so sums taken block by block have the same bits.
    """
    sums = np.zeros(len(indptr) - 1)
    rows = np.flatnonzero(np.diff(indptr))
    if rows.size:
        sums[rows] = np.add.reduceat(values, indptr[rows])
    return sums


def _row_norms(x: sp.csr_matrix) -> np.ndarray:
    """Squared row norms |x_j|^2 of a canonical CSR matrix.

    The reduction ``x.multiply(x).sum(axis=1)`` runs, without its matrix
    copy, and so its bits: :func:`_row_sums` of the squares, a block of
    rows at a time. One difference is left: a square that underflows to
    zero (|x| below about 1e-162) stays in the sum, where scipy drops it,
    so such a row's norm may differ in the last bit.
    """
    sq = np.empty(x.shape[0])
    for rows, entries, indptr in _row_blocks(x.indptr):
        block = x.data[entries]
        sq[rows] = _row_sums(indptr, block * block)
    return sq


def _prepared(x: _Points) -> np.ndarray:
    """What every distance call of a run reads besides ``x``, made once per
    run: :func:`_row_norms` of a sparse ``x``, and the C-order (dims, n)
    transpose of a dense one, whose dimensions are contiguous rows."""
    return _row_norms(x) if sp.issparse(x) else np.ascontiguousarray(x.T)


def _sq_dists(
    x: _Points,
    centers: np.ndarray,
    out: np.ndarray | None = None,
    prepared: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean distances, cluster-major: shape (n_clusters, n_points).

    ``out`` receives the distances and ``prepared`` is :func:`_prepared` of
    ``x``; each is made when not given. Dense distances go one dimension
    i at a time over all clusters and points: the (c, n) differences
    ``x_ji - v_ki`` are squared and added by :func:`_einsum_sum`, so each
    element has the bits of ``einsum("nd,nd->n")`` over its C-order
    difference row.
    """
    n, c = x.shape[0], centers.shape[0]
    if out is None:
        out = np.empty((c, n))
    if prepared is None:
        prepared = _prepared(x)
    if sp.issparse(x):
        np.subtract(prepared, (2.0 * (x @ centers.T)).T, out=out)
        out += np.einsum("cd,cd->c", centers, centers)[:, None]
        return np.maximum(out, 0.0, out=out)

    def square_diff(i: int, buf: np.ndarray) -> None:
        np.subtract(prepared[i], centers[:, i, None], out=buf)
        buf *= buf

    return _einsum_sum(x.shape[1], square_diff, out)


def _einsum_sum(
    d: int, term: Callable[[int, np.ndarray], None], out: np.ndarray
) -> np.ndarray:
    """Sum of d terms into ``out``, added in the order numpy's baseline
    float64 kernel for ``einsum("nd,nd->n")`` adds the d products of a
    contiguous row. ``term(i, buf)`` writes term i into ``buf``, an array
    shaped like ``out``.

    The kernel keeps two lanes, lane 0 for the even indices and lane 1 for
    the odd ones. Each full block of eight is added back to front, 6, 4,
    2, 0 into lane 0 and 7, 5, 3, 1 into lane 1; the remaining indices
    are added in pairs, front to back; the sum is lane 0 + lane 1. A
    lane's first term is stored, not added to zero, which gives the same
    bits for every term but -0.0. No terms sum to zero.

    That is the unfused two-lane kernel checked on x86-64 with numpy
    2.4.6. A build whose kernel fuses the multiply-add or uses wider
    vectors adds in another order; there these sums still have the same
    bits on every run, but not the einsum's, and
    ``test_einsum_sum_is_einsum_row_order`` fails first.
    """
    if d == 0:
        out.fill(0.0)
        return out
    full = d - d % 8
    even = [b + k for b in range(0, full, 8) for k in (6, 4, 2, 0)]
    even += range(full, d, 2)
    odd = [i + 1 for i in even if i + 1 < d]
    buf, lane1 = np.empty_like(out), np.empty_like(out)
    for lane, order in ((out, even), (lane1, odd)):
        for k, i in enumerate(order):
            if k == 0:
                term(i, lane)
            else:
                term(i, buf)
                lane += buf
    if odd:
        out += lane1
    return out


def _pairwise_sum(w: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of a (c, n) array, adding each column's c values in
    the order numpy's pairwise ``add.reduce`` adds a contiguous row: one by
    one below 8 values, in eight interleaved partial sums up to 128, and
    as two halves split at a multiple of 8 above that.
    """
    c = w.shape[0]
    if c < 8:
        total = w[0].copy()
        for row in w[1:]:
            total += row
        return total
    if c <= 128:
        full = c - c % 8
        r = w[:8]
        for i in range(8, full, 8):
            r = r + w[i : i + 8]
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        total = r[0] + r[1]
        for row in w[full:]:
            total += row
        return total
    half = c // 2
    half -= half % 8
    return _pairwise_sum(w[:half]) + _pairwise_sum(w[half:])


def _memberships(d2: np.ndarray, fuzzifier: float) -> np.ndarray:
    """Membership rows, shape (n_points, n_clusters), from cluster-major
    squared distances, shape (n_clusters, n_points).

    For point j with all distances positive:
        u_jk = (dmin_j / d2_jk)^(1/(q-1)) / sum_l (dmin_j / d2_jl)^(1/(q-1))
    which equals the reciprocal-ratio update written on unsquared
    distances, but never divides by a tiny d2. A point at distance zero
    from one or more centers splits its membership equally among those
    centers and gives the rest zero.
    """
    expo = 1.0 / (fuzzifier - 1.0)
    dmin = d2.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = dmin / d2
        # x ** 1.0 is x exactly; q = 2 needs no power.
        if expo != 1.0:
            w **= expo
        w /= _pairwise_sum(w)
    # One count keeps the search for a point on a center off the common
    # path; it is cheaper than np.flatnonzero and than .all() here.
    if np.count_nonzero(dmin <= 0.0):
        singular = np.flatnonzero(dmin <= 0.0)
        hits = d2[:, singular] == 0.0
        w[:, singular] = hits / hits.sum(axis=0)
    return w.T.copy()


def _objective(d2: np.ndarray, um: np.ndarray) -> float:
    """Weighted within-cluster scatter sum_jk u_jk^q d2_jk, from cluster-major
    ``d2`` and point-major ``um`` = u^q, summed in point-major order."""
    return float(np.multiply(um, d2.T, out=np.empty_like(um)).sum())


def _centers(x: _Points, um: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Centers from the powered memberships ``um`` = u^q.

    center_k = sum_j u_jk^q x_j / sum_j u_jk^q. A cluster with zero total
    membership mass has no defined center; it restarts at a data point
    drawn from ``rng`` rather than dividing by zero.
    """
    wsum = um.sum(axis=0)
    if sp.issparse(x):
        centers = np.ascontiguousarray((x.T @ um).T)
    else:
        centers = np.einsum("nc,nd->cd", um, x)
    # One test keeps the search for a massless cluster off the common path.
    positive = wsum > 0.0
    if positive.all():
        centers /= wsum[:, None]
        return centers
    centers /= np.where(positive, wsum, 1.0)[:, None]
    for k in np.flatnonzero(wsum == 0.0):
        j = int(rng.integers(x.shape[0]))
        centers[k] = x[j].toarray()[0] if sp.issparse(x) else x[j]
        logger.warning(
            "cluster %d lost all membership mass; re-seeded at data point %d", k, j
        )
    return centers


def update_memberships(
    data: np.ndarray | sp.spmatrix, centers: np.ndarray, fuzzifier: float
) -> np.ndarray:
    """One membership update of (n, d) ``data`` against fixed (c, d)
    ``centers``; ``fuzzifier`` follows :class:`FcmConfig`'s rule."""
    fuzzifier, x = _check_fuzzifier(fuzzifier), _as_points(data)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    if x.ndim != 2 or centers.ndim != 2 or centers.shape[1] != x.shape[1]:
        raise ValueError("centers must have shape (c, d) for data of shape (n, d)")
    return _memberships(_sq_dists(x, centers), fuzzifier)


def fcm_run(
    data: np.ndarray | sp.spmatrix,
    config: FcmConfig,
    on_iteration: Callable[[int, np.ndarray, np.ndarray, float, float], None]
    | None = None,
) -> FcmResult:
    """Run the full alternating loop.

    ``on_iteration(iteration, membership, centers, objective, max_delta)``
    is called after each completed iteration. Results are a pure function
    of ``data`` and ``config``.
    """
    x = _check_data(data, config.n_clusters)
    q = config.fuzzifier
    rng = np.random.default_rng(config.seed)
    u = _initial_membership(x.shape[0], config.n_clusters, rng)
    um = u**q
    d2 = np.empty((config.n_clusters, x.shape[0]))
    prepared = _prepared(x)
    trace: list[float] = []
    centers = np.zeros((config.n_clusters, x.shape[1]))
    converged = False
    iterations = 0
    for iteration in range(1, config.max_iterations + 1):
        centers = _centers(x, um, rng)
        _sq_dists(x, centers, d2, prepared)
        u_new = _memberships(d2, q)
        max_delta = float(np.abs(u_new - u).max())
        um = u_new**q
        value = _objective(d2, um)
        trace.append(value)
        u = u_new
        iterations = iteration
        if on_iteration is not None:
            on_iteration(iteration, u, centers, value, max_delta)
        if max_delta <= config.threshold:
            converged = True
            break
    return FcmResult(
        membership=u,
        centers=centers,
        objective_trace=tuple(trace),
        iterations=iterations,
        converged=converged,
    )
