"""Fuzzy c-means clustering.

Minimizes sum_jk u_jk^q d(x_j, v_k)^2 subject to memberships forming a
row-stochastic matrix, by alternating the closed-form center and
membership updates from a seeded random row-stochastic start. The
objective is non-increasing across iterations up to rounding; the loop
stops when the largest membership change falls to the threshold or the
iteration cap is hit.

Points are the rows of a float64 matrix, dense or scipy sparse;
``fuzzifier`` is the exponent q > 1. The input type picks the kernels.
A dense matrix takes the direct difference, d2_jk = sum_i (x_ji - v_ki)^2,
and centers as an einsum over memberships. A sparse matrix never becomes
dense: distances use the expansion d2_jk = |x_j|^2 - 2 x_j.v_k + |v_k|^2,
clamped at 0, and centers are (U^q)^T X / sum_j u_jk^q as a sparse
product.

The expansion suits a sparse term-by-document matrix, whose rows are
far from each other and from the centers. It does not suit the dense
membership rows that later cascade stages cluster: those rows are
nearly identical, with d2 around 1e-13 against |x|^2 around 0.1, and
cancellation would cost about 1e-4 relative. So dense input keeps the
direct difference.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FcmConfig",
    "FcmResult",
    "fcm_run",
    "update_memberships",
    "update_centers",
    "objective",
]

logger = logging.getLogger(__name__)

_MAX_SEED = 2**64


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
        if self.n_clusters < 2:
            raise ValueError("n_clusters must be >= 2")
        if not self.fuzzifier > 1.0:
            raise ValueError("fuzzifier must be > 1")
        if not self.threshold > 0.0:
            raise ValueError("threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 <= int(self.seed) < _MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")


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
    """CSR for sparse input, a C-contiguous array otherwise; float64."""
    if sp.issparse(data):
        return sp.csr_matrix(data, dtype=np.float64)
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


def _sq_dists(x: _Points, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_points, n_clusters)."""
    if sp.issparse(x):
        x_sq = np.asarray(x.multiply(x).sum(axis=1)).ravel()
        d2 = x_sq[:, None] - 2.0 * (x @ centers.T)
        d2 += np.einsum("cd,cd->c", centers, centers)
        return np.maximum(d2, 0.0, out=d2)
    n, c = x.shape[0], centers.shape[0]
    d2 = np.empty((n, c))
    # Per-cluster loop keeps the temporary at (n, dims) and the einsum
    # contraction order fixed, so results do not depend on memory pressure.
    for k in range(c):
        diff = x - centers[k]
        d2[:, k] = np.einsum("nd,nd->n", diff, diff)
    return d2


def _memberships(d2: np.ndarray, fuzzifier: float) -> np.ndarray:
    """Membership rows from squared distances.

    For point j with all distances positive:
        u_jk = (dmin_j / d2_jk)^(1/(q-1)) / sum_l (dmin_j / d2_jl)^(1/(q-1))
    which equals the reciprocal-ratio update written on unsquared
    distances, but never divides by a tiny d2. A point at distance zero
    from one or more centers splits its membership equally among those
    centers and gives the rest zero.
    """
    expo = 1.0 / (fuzzifier - 1.0)
    dmin = d2.min(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (dmin / d2) ** expo
        u = w / w.sum(axis=1, keepdims=True)
    singular = np.flatnonzero(dmin.ravel() <= 0.0)
    if singular.size:
        hits = d2[singular] == 0.0
        u[singular] = hits / hits.sum(axis=1, keepdims=True)
    return u


def _objective(d2: np.ndarray, u: np.ndarray, fuzzifier: float) -> float:
    """Weighted within-cluster scatter: sum_jk u_jk^q d2_jk."""
    return float(((u**fuzzifier) * d2).sum())


def update_memberships(
    data: np.ndarray | sp.spmatrix, centers: np.ndarray, fuzzifier: float
) -> np.ndarray:
    """One membership update against fixed centers."""
    x = _as_points(data)
    v = np.ascontiguousarray(np.asarray(centers, dtype=np.float64))
    return _memberships(_sq_dists(x, v), fuzzifier)


def update_centers(
    data: np.ndarray | sp.spmatrix,
    membership: np.ndarray,
    fuzzifier: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One center update against fixed memberships.

    center_k = sum_j u_jk^q x_j / sum_j u_jk^q. A cluster with zero total
    membership mass has no defined center; it restarts at a data point
    drawn from ``rng`` rather than dividing by zero.
    """
    x = _as_points(data)
    u = np.ascontiguousarray(np.asarray(membership, dtype=np.float64))
    um = u**fuzzifier
    wsum = um.sum(axis=0)
    if sp.issparse(x):
        centers = np.ascontiguousarray((x.T @ um).T)
    else:
        centers = np.einsum("nc,nd->cd", um, x)
    centers /= np.where(wsum > 0.0, wsum, 1.0)[:, None]
    if rng is None:
        rng = np.random.default_rng(0)
    for k in np.flatnonzero(wsum == 0.0):
        j = int(rng.integers(x.shape[0]))
        centers[k] = x[j].toarray()[0] if sp.issparse(x) else x[j]
        logger.warning(
            "cluster %d lost all membership mass; re-seeded at data point %d", k, j
        )
    return centers


def objective(
    data: np.ndarray | sp.spmatrix,
    membership: np.ndarray,
    centers: np.ndarray,
    fuzzifier: float,
) -> float:
    """Weighted within-cluster scatter for the given state."""
    x = _as_points(data)
    u = np.ascontiguousarray(np.asarray(membership, dtype=np.float64))
    v = np.ascontiguousarray(np.asarray(centers, dtype=np.float64))
    return _objective(_sq_dists(x, v), u, fuzzifier)


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
    rng = np.random.default_rng(config.seed)
    u = _initial_membership(x.shape[0], config.n_clusters, rng)
    trace: list[float] = []
    centers = np.zeros((config.n_clusters, x.shape[1]))
    converged = False
    iterations = 0
    for iteration in range(1, config.max_iterations + 1):
        centers = update_centers(x, u, config.fuzzifier, rng)
        d2 = _sq_dists(x, centers)
        u_new = _memberships(d2, config.fuzzifier)
        max_delta = float(np.abs(u_new - u).max())
        value = _objective(d2, u_new, config.fuzzifier)
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
