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

A run keeps its memberships, powered memberships and distances
cluster-major, as C-order (c, n) arrays, from the first iteration to the
last, so that each per-point reduction over the clusters (the minimum
and the normalising sum) runs over contiguous rows instead of along
short strided ones. Only the memberships handed out, by
``FcmResult.membership``, :func:`update_memberships` and
``on_iteration``, are transposed to C-order (n, c). A dense run prepares
its points once (:class:`_DensePoints`): the C-order transpose with a
row of ones under it, [x | 1]ᵀ. A small run (c·dims·n within
``_ONE_PASS_ENTRIES``) also tiles the transpose once per cluster and
computes all its squared differences in one pass, added with one
``add.reduce`` over the dimension axis; a large run goes one dimension
at a time over whole (c, n) arrays.

Every sum has one fixed order, so a run gives the same bits at any
thread count and on either distance path: a point's squared
differences are added over dimensions 0 to d - 1 in order, its c
membership weights in cluster order, and the objective's products
pairwise over the cluster-major array. The one sum whose order depends
on the numpy build is the center einsum's contiguous reduction over the
points, which yields each cluster's weighted sum and, from the row of
ones, its mass. It runs the same way under numpy's run-time CPU
switches, but another build may add in another order.
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
    _check_scale(x, "data", _scale_limit(x.shape))
    if x.shape[0] <= n_clusters:
        raise ValueError(
            f"need more points than clusters: {x.shape[0]} points, "
            f"{n_clusters} clusters"
        )
    return x


def _scale_limit(shape: tuple[int, int]) -> float:
    """The largest |value| that points of ``shape`` (n, d), and centers
    among them, may hold.

    Centers are convex combinations of the points, so no coordinate of a
    difference exceeds twice the limit L, no squared distance 4·d·L², and
    the objective, which weighs each point's distances by memberships
    summing to at most 1, no n·4·d·L². L² = max float / (8·d·n) leaves
    those sums finite with a factor 2 to spare for rounding.
    """
    n, d = shape
    return float(np.sqrt(np.finfo(np.float64).max / (8.0 * max(n, 1) * max(d, 1))))


def _check_scale(x: _Points, name: str, limit: float) -> None:
    """Reject an ``x`` with a value that is not finite or beyond ``limit``;
    the message starts with ``name``."""
    values = x.data if sp.issparse(x) else x
    # NaN fails both comparisons, so one test covers every bad value.
    lo, hi = values.min(initial=0.0), values.max(initial=0.0)
    if -limit <= lo and hi <= limit:
        return
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    raise ValueError(
        f"{name} too large: a value of magnitude {max(-lo, hi):.3g} would "
        f"overflow squared distances; the limit for shape {x.shape} is "
        f"{limit:.3g}"
    )


def _initial_membership(
    n_points: int, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Random memberships, cluster-major: the transpose of (n_points,
    n_clusters) draws whose rows are normalised by ``sum(axis=1)``."""
    u = rng.random((n_points, n_clusters))
    return (u / u.sum(axis=1, keepdims=True)).T.copy()


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


# Dense runs whose (d, c, n) squared differences have at most this many
# entries compute their distances in one pass over a tiled copy of the
# points: three numpy calls in place of about 3·d. Larger runs go one
# dimension at a time over (c, n) rows, which costs less per entry, and
# past the budget that wins. Per iteration of cascade-shaped runs (2
# vCPUs), the pass stopped paying at about 28k entries for c=3 on 4 dims,
# 50k for c=5 on 6 and 150k for c=9 on 10, so the budget follows the
# smallest. On 2 or 3 dims the pass pays only at a few hundred points
# (0.9 of the loop at n=360) and is up to 17% slower by n=4000.
_ONE_PASS_ENTRIES = 1 << 15


class _DensePoints:
    """What every iteration of a dense run for ``n_clusters`` clusters reads
    besides its memberships, made once per run.

    ``ones`` is the C-order (d + 1, n) transpose of the points with a row
    of ones under it, [x | 1]ᵀ, and ``rows`` its first d rows, the points'
    transpose. When c·d·n is at most ``_ONE_PASS_ENTRIES``, ``tiled``
    holds ``rows`` repeated for each cluster, shape (d, c, n), and
    ``work`` is a buffer of that shape; otherwise both are None.
    """

    def __init__(self, x: np.ndarray, n_clusters: int) -> None:
        n, d = x.shape
        self.ones = np.empty((d + 1, n))
        self.ones[:d] = x.T
        self.ones[d] = 1.0
        self.rows = self.ones[:d]
        self.tiled = self.work = None
        if n_clusters * d * n <= _ONE_PASS_ENTRIES:
            self.tiled = np.repeat(self.rows[:, None, :], n_clusters, axis=1)
            self.work = np.empty_like(self.tiled)

    def sq_dists(self, centers: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Cluster-major squared distances to ``centers`` into ``out``.

        Each point's squared differences are added over dimensions 0 to
        d - 1 in order, the first stored. In one pass, ``add.reduce`` over
        the outer axis of the (d, c, n) squares adds in that sequence.
        """
        ct = centers.T
        if self.tiled is not None:
            sq = np.subtract(self.tiled, ct[:, :, None], out=self.work)
            sq *= sq
            return np.add.reduce(sq, axis=0, out=out)
        buf = np.empty_like(out)
        for i, row in enumerate(self.rows):
            term = buf if i else out
            np.subtract(row, ct[i, :, None], out=term)
            term *= term
            if i:
                out += buf
        return out


def _prepared(x: _Points, n_clusters: int) -> np.ndarray | _DensePoints:
    """What every distance call of a run for ``n_clusters`` clusters reads
    besides ``x``, made once per run: :func:`_row_norms` of a sparse
    ``x``, :class:`_DensePoints` of a dense one."""
    return _row_norms(x) if sp.issparse(x) else _DensePoints(x, n_clusters)


def _sq_dists(
    x: _Points,
    centers: np.ndarray,
    out: np.ndarray | None = None,
    prepared: np.ndarray | _DensePoints | None = None,
) -> np.ndarray:
    """Squared Euclidean distances, cluster-major: shape (n_clusters, n_points).

    ``out`` receives the distances and ``prepared`` is :func:`_prepared` of
    ``x``; each is made when not given. Dense distances add each point's
    squared differences in dimension order (:meth:`_DensePoints.sq_dists`).
    """
    n, c = x.shape[0], centers.shape[0]
    if out is None:
        out = np.empty((c, n))
    if prepared is None:
        prepared = _prepared(x, c)
    if sp.issparse(x):
        np.subtract(prepared, (2.0 * (x @ centers.T)).T, out=out)
        out += np.einsum("cd,cd->c", centers, centers)[:, None]
        return np.maximum(out, 0.0, out=out)
    return prepared.sq_dists(centers, out)


def _memberships(d2: np.ndarray, fuzzifier: float) -> np.ndarray:
    """Cluster-major memberships, shape (n_clusters, n_points), from
    cluster-major squared distances of that shape.

    For point j with all distances positive:
        u_kj = (dmin_j / d2_kj)^(1/(q-1)) / sum_l (dmin_j / d2_lj)^(1/(q-1))
    which equals the reciprocal-ratio update written on unsquared
    distances, but never divides by a tiny d2. A point at distance zero
    from one or more centers splits its membership equally among those
    centers and gives the rest zero.
    """
    expo = 1.0 / (fuzzifier - 1.0)
    dmin = d2.min(axis=0)
    # One test keeps the search for a point on a center, and the error
    # state for its 0/0, off the common path; ``initial`` serves no points.
    if dmin.min(initial=np.inf) > 0.0:
        return _ratio_weights(d2, dmin, expo)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = _ratio_weights(d2, dmin, expo)
    singular = np.flatnonzero(dmin <= 0.0)
    hits = d2[:, singular] == 0.0
    w[:, singular] = hits / hits.sum(axis=0)
    return w


def _ratio_weights(d2: np.ndarray, dmin: np.ndarray, expo: float) -> np.ndarray:
    """(dmin_j / d2_kj)^expo, each column normalised by the sum of its
    values added in cluster order."""
    w = dmin / d2
    # x ** 1.0 is x exactly; q = 2 needs no power.
    if expo != 1.0:
        w **= expo
    w /= np.add.reduce(w, axis=0)
    return w


def _objective(d2: np.ndarray, um: np.ndarray) -> float:
    """Weighted within-cluster scatter sum_kj u_kj^q d2_kj, from cluster-major
    ``d2`` and ``um`` = u^q, summed in that cluster-major order."""
    return float(np.multiply(um, d2, out=np.empty_like(um)).sum())


def _centers(
    x: _Points,
    um: np.ndarray,
    rng: np.random.Generator,
    prepared: np.ndarray | _DensePoints,
) -> np.ndarray:
    """C-order centers from the cluster-major powered memberships ``um`` =
    u^q; ``prepared`` is :func:`_prepared` of ``x``.

    center_k = sum_j u_kj^q x_j / sum_j u_kj^q. For dense points one
    einsum over [x | 1]ᵀ gives both sums, the mass in its last column. A
    cluster with zero total membership mass has no defined center; it
    restarts at a data point drawn from ``rng`` rather than dividing by
    zero.
    """
    if sp.issparse(x):
        wsum, sums = np.add.reduce(um, axis=1), (x.T @ um.T).T
    else:
        sums = np.einsum("cn,dn->cd", um, prepared.ones)
        wsum, sums = sums[:, -1], sums[:, :-1]
    centers = np.empty(sums.shape)
    # One test keeps the search for a massless cluster off the common path.
    if wsum.min() > 0.0:
        return np.divide(sums, wsum[:, None], out=centers)
    np.divide(sums, np.where(wsum > 0.0, wsum, 1.0)[:, None], out=centers)
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
    limit = _scale_limit(x.shape)
    _check_scale(x, "data", limit)
    _check_scale(centers, "centers", limit)
    return _memberships(_sq_dists(x, centers), fuzzifier).T.copy()


def fcm_run(
    data: np.ndarray | sp.spmatrix,
    config: FcmConfig,
    on_iteration: Callable[[int, np.ndarray, np.ndarray, float, float], None]
    | None = None,
) -> FcmResult:
    """Run the full alternating loop.

    ``on_iteration(iteration, membership, centers, objective, max_delta)``
    is called after each completed iteration, with an (n, c) copy of the
    memberships. Results are a pure function of ``data`` and ``config``.
    """
    x = _check_data(data, config.n_clusters)
    q = config.fuzzifier
    rng = np.random.default_rng(config.seed)
    u = _initial_membership(x.shape[0], config.n_clusters, rng)
    um = u**q
    d2 = np.empty((config.n_clusters, x.shape[0]))
    prepared = _prepared(x, config.n_clusters)
    trace: list[float] = []
    centers = np.zeros((config.n_clusters, x.shape[1]))
    converged = False
    iterations = 0
    for iteration in range(1, config.max_iterations + 1):
        centers = _centers(x, um, rng, prepared)
        _sq_dists(x, centers, d2, prepared)
        u_new = _memberships(d2, q)
        max_delta = float(np.abs(u_new - u).max())
        um = u_new**q
        value = _objective(d2, um)
        trace.append(value)
        u = u_new
        iterations = iteration
        if on_iteration is not None:
            on_iteration(iteration, u.T.copy(), centers, value, max_delta)
        if max_delta <= config.threshold:
            converged = True
            break
    return FcmResult(
        membership=u.T.copy(),
        centers=centers,
        objective_trace=tuple(trace),
        iterations=iterations,
        converged=converged,
    )
