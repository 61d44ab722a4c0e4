import logging
import math
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from flatm import (
    FcmConfig,
    SettingError,
    apply_gtw,
    build_matrix,
    compute_global_weights,
    fcm,
    fcm_run,
    generate_synthetic,
    update_memberships,
)


def centers_of(x, um, rng):
    """``fcm._centers`` of cluster-major ``um`` through the run's prepared
    object, as ``fcm_run`` calls it."""
    return fcm._centers(x, um, rng, fcm._prepared(x, um.shape[0]))


def blob_pair(rng, n_per=30, dims=3, separation=10.0):
    """Two unit-variance Gaussian blobs with means separation apart."""
    a = rng.normal(0.0, 1.0, size=(n_per, dims))
    b = rng.normal(0.0, 1.0, size=(n_per, dims))
    b[:, 0] += separation
    return np.vstack([a, b])


class TestConfigValidation:
    def test_defaults(self):
        config = FcmConfig(n_clusters=3)
        assert config.fuzzifier == 2.0
        assert config.threshold == 1e-5
        assert config.max_iterations == 100
        assert config.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_clusters": 1},
            {"n_clusters": 2, "fuzzifier": 1.0},
            {"n_clusters": 2, "fuzzifier": 0.5},
            {"n_clusters": 2, "threshold": 0.0},
            {"n_clusters": 2, "max_iterations": 0},
            {"n_clusters": 2, "seed": -1},
            {"n_clusters": 2, "seed": 2**64},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FcmConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_clusters", 2.5),
            ("n_clusters", 3.0),
            ("max_iterations", 7.5),
            ("seed", 1.5),
            ("seed", "1"),
            ("seed", True),
        ],
    )
    def test_non_integers_rejected_by_name(self, field, value):
        kwargs = {"n_clusters": 2, field: value}
        with pytest.raises(ValueError, match=field):
            FcmConfig(**kwargs)

    def test_numpy_integers_become_ints(self):
        config = FcmConfig(
            n_clusters=np.int32(3), max_iterations=np.int64(9), seed=np.uint64(5)
        )
        assert (config.n_clusters, config.max_iterations, config.seed) == (3, 9, 5)
        assert all(
            type(v) is int
            for v in (config.n_clusters, config.max_iterations, config.seed)
        )


class TestDataValidation:
    def test_more_points_than_clusters_required(self):
        data = np.zeros((3, 2)) + np.arange(3)[:, None]
        for kind in (np.asarray, sp.csr_matrix):
            with pytest.raises(ValueError, match="more points than clusters"):
                fcm_run(kind(data), FcmConfig(n_clusters=3))
            fcm_run(kind(np.vstack([data, [9.0, 9.0]])), FcmConfig(n_clusters=3))

    def test_non_finite_rejected(self):
        data = np.array([[0.0, 1.0], [1.0, np.nan], [2.0, 0.0]])
        for kind in (np.asarray, sp.csr_matrix):
            with pytest.raises(ValueError, match="finite"):
                fcm_run(kind(data), FcmConfig(n_clusters=2))

    @pytest.mark.parametrize("kind", [np.asarray, sp.csr_matrix])
    def test_values_whose_squared_distances_overflow_rejected(self, kind):
        # Finite points whose squared distances overflow used to give NaN
        # memberships, with numpy's overflow warning as the only sign.
        data = np.array([[1e200], [2e200], [3e200], [4e200]])
        with pytest.raises(ValueError, match="^data too large"):
            fcm_run(kind(data), FcmConfig(n_clusters=2, max_iterations=3))
        with pytest.raises(ValueError, match="^data too large"):
            update_memberships(kind(data), np.zeros((2, 1)), 2.0)
        with pytest.raises(ValueError, match="^centers too large"):
            update_memberships(kind(data / 1e100), np.full((2, 1), 1e200), 2.0)

    @pytest.mark.parametrize("kind", [np.asarray, sp.csr_matrix])
    def test_values_at_the_limit_give_finite_results(self, kind):
        shape = (40, 3)
        limit = fcm._scale_limit(shape)
        signs = np.random.default_rng(7).choice([-1.0, 1.0], size=shape)
        data = signs * limit
        result = fcm_run(kind(data), FcmConfig(n_clusters=3, max_iterations=5))
        assert np.all(np.isfinite(result.membership))
        assert np.all(np.isfinite(result.objective_trace))
        u = update_memberships(kind(data), -data[:3], 2.0)
        assert np.all(np.isfinite(u))
        with pytest.raises(ValueError, match="too large"):
            fcm_run(kind(data * 1.0001), FcmConfig(n_clusters=3))

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            fcm_run(np.arange(5.0), FcmConfig(n_clusters=2))


class TestMembershipUpdate:
    def test_two_centers_frozen_example(self):
        # Distances 1 and 2 at q=2: ratio update gives (0.8, 0.2).
        data = np.array([[0.0]])
        centers = np.array([[1.0], [-2.0]])
        u = update_memberships(data, centers, 2.0)
        np.testing.assert_allclose(u, [[0.8, 0.2]], atol=1e-15)

    def test_matches_ratio_sum_oracle(self):
        rng = np.random.default_rng(5150)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            c = int(rng.integers(2, 4))
            dims = int(rng.integers(1, 4))
            q = float(rng.uniform(1.3, 3.5))
            x = rng.normal(size=(n, dims))
            centers = rng.normal(size=(c, dims))
            got = update_memberships(x, centers, q)
            want = oracles.fuzzy_memberships(x, centers, q)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_point_on_center_gets_full_membership(self):
        data = np.array([[2.0, 2.0]])
        centers = np.array([[2.0, 2.0], [5.0, 5.0]])
        u = update_memberships(data, centers, 2.0)
        np.testing.assert_array_equal(u, [[1.0, 0.0]])

    def test_point_on_two_centers_splits_equally(self):
        data = np.array([[1.0]])
        centers = np.array([[1.0], [1.0], [4.0]])
        u = update_memberships(data, centers, 2.0)
        np.testing.assert_array_equal(u, [[0.5, 0.5, 0.0]])

    def test_equidistant_point_uniform(self):
        # Four centers on a square around the origin.
        data = np.array([[0.0, 0.0]])
        centers = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        u = update_memberships(data, centers, 2.0)
        np.testing.assert_allclose(u, [[0.25] * 4], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(40, 4))
        centers = rng.normal(size=(5, 4))
        u = update_memberships(x, centers, 1.7)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-12)
        assert u.min() >= 0.0 and u.max() <= 1.0

    @pytest.mark.parametrize("q", [1.0, 0.5, float("nan"), "2"])
    def test_fuzzifier_follows_the_config_rule(self, q):
        data, centers = np.array([[0.0]]), np.array([[1.0], [-2.0]])
        with pytest.raises(SettingError, match="^fuzzifier must be"):
            update_memberships(data, centers, q)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_centers_of_another_width_rejected(self, sparse):
        data = np.array([[0.0, 1.0], [2.0, 0.0]])
        for centers in (np.zeros((2, 3)), np.zeros((2, 1)), np.zeros(2)):
            with pytest.raises(ValueError, match="centers must have shape"):
                update_memberships(
                    sp.csr_matrix(data) if sparse else data, centers, 2.0
                )


class TestCenterUpdate:
    def test_hard_memberships_give_cluster_means(self):
        data = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 4.0], [12.0, 4.0]])
        u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        centers = centers_of(data, (u**2.0).T, np.random.default_rng(0))
        np.testing.assert_allclose(
            centers, [[1.0, 0.0], [11.0, 4.0]], atol=1e-12
        )

    def test_uniform_memberships_give_global_mean(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(12, 3))
        u = np.full((12, 2), 0.5)
        centers = centers_of(data, (u**2.0).T, np.random.default_rng(0))
        mean = data.mean(axis=0)
        np.testing.assert_allclose(centers, [mean, mean], atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            x = rng.normal(size=(15, 3))
            u = rng.random((15, 4))
            u /= u.sum(axis=1, keepdims=True)
            q = float(rng.uniform(1.2, 3.0))
            got = centers_of(x, (u**q).T, np.random.default_rng(0))
            np.testing.assert_allclose(
                got, oracles.fuzzy_centers(x, u, q), atol=1e-12
            )

    def test_dead_cluster_reseeded_from_data(self, caplog):
        data = np.arange(8.0).reshape(4, 2)
        u = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        for kind in (np.asarray, sp.csr_matrix):
            rng = np.random.default_rng(123)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="flatm.fcm"):
                centers = centers_of(kind(data), (u**2.0).T, rng)
            assert "lost all membership mass" in caplog.text
            np.testing.assert_allclose(centers[0], data.mean(axis=0), atol=1e-12)
            assert any((centers[1] == row).all() for row in data)
            after = update_memberships(kind(data), centers, 2.0)
            assert np.all(np.isfinite(after))
            np.testing.assert_allclose(after.sum(axis=1), 1.0, atol=1e-12)


class TestObjective:
    def test_points_on_centers_give_zero(self):
        data = np.array([[0.0, 0.0], [5.0, 5.0]])
        centers = data.copy()
        u = np.eye(2)
        assert fcm._objective(fcm._sq_dists(data, centers), (u**2.0).T) == 0.0

    def test_single_point_unit_distance(self):
        data = np.array([[1.0]])
        centers = np.array([[0.0], [3.0]])
        u = np.array([[1.0, 0.0]])
        assert fcm._objective(fcm._sq_dists(data, centers), (u**2.0).T) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_scaling_is_quadratic(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(10, 2))
        centers = rng.normal(size=(3, 2))
        u = rng.random((10, 3))
        u /= u.sum(axis=1, keepdims=True)
        small = fcm._objective(fcm._sq_dists(data, centers), (u**2.0).T)
        big = fcm._objective(fcm._sq_dists(2 * data, 2 * centers), (u**2.0).T)
        assert big == pytest.approx(4 * small, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(41)
        data = rng.normal(size=(12, 3))
        centers = rng.normal(size=(4, 3))
        u = rng.random((12, 4))
        u /= u.sum(axis=1, keepdims=True)
        for q in (1.5, 2.0, 2.8):
            got = fcm._objective(fcm._sq_dists(data, centers), (u**q).T)
            want = oracles.fuzzy_objective(data, u, centers, q)
            assert got == pytest.approx(want, rel=1e-12)


class TestFcmRun:
    def test_two_point_clusters_recovered(self):
        data = np.array([[0.0], [0.0], [0.0], [10.0], [10.0], [10.0]])
        result = fcm_run(data, FcmConfig(n_clusters=2, seed=1))
        assert result.converged
        centers = np.sort(result.centers.ravel())
        np.testing.assert_allclose(centers, [0.0, 10.0], atol=1e-3)
        hard = result.membership.argmax(axis=1)
        assert len(set(hard[:3])) == 1 and len(set(hard[3:])) == 1
        assert hard[0] != hard[3]

    def test_constraints_hold_after_every_iteration(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(30, 4))
        seen = []

        def check(iteration, u, centers, value, delta):
            seen.append((iteration, value))
            np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-9)
            assert u.min() >= 0.0 and u.max() <= 1.0 + 1e-12
            col = u.sum(axis=0)
            assert np.all(col > 0.0) and np.all(col < u.shape[0])
            assert 0.0 <= delta <= 1.0

        result = fcm_run(
            data, FcmConfig(n_clusters=3, seed=4), on_iteration=check
        )
        assert [i for i, _ in seen] == list(range(1, result.iterations + 1))
        for iteration, value in seen:
            assert value == result.objective_trace[iteration - 1]

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            data = rng.normal(size=(25, 3))
            config = FcmConfig(n_clusters=3, seed=trial, fuzzifier=2.0)
            trace = np.array(fcm_run(data, config).objective_trace)
            assert np.all(np.diff(trace) <= 1e-9)

    def test_converged_flag_and_trace_length(self):
        data = blob_pair(np.random.default_rng(0))
        result = fcm_run(data, FcmConfig(n_clusters=2, seed=0))
        assert result.converged
        assert len(result.objective_trace) == result.iterations
        capped = fcm_run(data, FcmConfig(n_clusters=2, seed=0, max_iterations=2))
        assert not capped.converged
        assert capped.iterations == 2

    def test_same_seed_bitwise_identical(self):
        data = blob_pair(np.random.default_rng(6))
        a = fcm_run(data, FcmConfig(n_clusters=2, seed=42))
        b = fcm_run(data, FcmConfig(n_clusters=2, seed=42))
        assert np.array_equal(a.membership, b.membership)
        assert np.array_equal(a.centers, b.centers)
        assert a.objective_trace == b.objective_trace

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(20, 2))
        a = fcm_run(data, FcmConfig(n_clusters=3, seed=1, max_iterations=1))
        b = fcm_run(data, FcmConfig(n_clusters=3, seed=2, max_iterations=1))
        assert not np.array_equal(a.membership, b.membership)

    def test_blob_centers_recovered(self):
        # 60 points per blob keep the sample means themselves well inside
        # the 0.5 sigma budget; the clustering error is an order smaller.
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            data = blob_pair(rng, n_per=60, dims=2, separation=10.0)
            result = fcm_run(data, FcmConfig(n_clusters=2, seed=seed))
            truth = np.array([[0.0, 0.0], [10.0, 0.0]])
            order = np.argsort(result.centers[:, 0])
            err = np.linalg.norm(result.centers[order] - truth, axis=1)
            if err.max() <= 0.5:
                hits += 1
        assert hits >= 9

    def test_near_one_fuzzifier_goes_hard(self):
        rng = np.random.default_rng(21)
        data = blob_pair(rng, n_per=20, dims=2, separation=10.0)
        result = fcm_run(data, FcmConfig(n_clusters=2, seed=3, fuzzifier=1.05))
        top = result.membership.max(axis=1)
        # Practically hard assignments: every point almost fully in one cluster.
        assert top.min() > 0.999

    def test_larger_fuzzifier_is_softer(self):
        rng = np.random.default_rng(22)
        data = blob_pair(rng, n_per=20, dims=2, separation=4.0)
        soft = fcm_run(data, FcmConfig(n_clusters=2, seed=3, fuzzifier=3.0))
        hard = fcm_run(data, FcmConfig(n_clusters=2, seed=3, fuzzifier=1.2))
        assert soft.membership.max(axis=1).mean() < hard.membership.max(axis=1).mean()

    def test_unseparated_data_still_satisfies_constraints(self):
        rng = np.random.default_rng(55)
        data = rng.random((15, 2))
        result = fcm_run(data, FcmConfig(n_clusters=4, seed=9))
        np.testing.assert_allclose(result.membership.sum(axis=1), 1.0, atol=1e-9)


@st.composite
def _fcm_problems(draw):
    """Small data, some with repeated or all-zero rows, and solver settings."""
    c = draw(st.integers(2, 3))
    n = draw(st.integers(c + 1, 12))
    dims = draw(st.integers(1, 4))
    cells = st.integers(0, 4) | st.floats(-5.0, 5.0, allow_subnormal=False)
    data = np.array(draw(st.lists(cells, min_size=n * dims, max_size=n * dims)))
    config = FcmConfig(
        n_clusters=c,
        fuzzifier=draw(st.sampled_from([1.3, 2.0, 3.0])),
        threshold=draw(st.sampled_from([1e-2, 1e-5])),
        max_iterations=draw(st.integers(1, 25)),
        seed=draw(st.integers(0, 2**32)),
    )
    return data.reshape(n, dims).astype(np.float64), config


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(problem=_fcm_problems())
def test_run_invariants_on_dense_and_csr_input(problem):
    data, config = problem
    for points in (data, sp.csr_matrix(data)):
        deltas = []
        result = fcm_run(
            points, config, on_iteration=lambda *args: deltas.append(args[-1])
        )
        u = result.membership
        assert np.all(np.isfinite(u))
        assert u.min() >= 0.0 and u.max() <= 1.0
        np.testing.assert_allclose(u.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert len(result.objective_trace) == result.iterations == len(deltas)
        # Only the last iteration may meet the threshold; the loop stopped
        # at the cap exactly when it did not.
        assert all(d > config.threshold for d in deltas[:-1])
        assert result.converged == (deltas[-1] <= config.threshold)
        if not result.converged:
            assert result.iterations == config.max_iterations
        again = fcm_run(points, config)
        assert again.membership.tobytes() == u.tobytes()
        assert again.centers.tobytes() == result.centers.tobytes()
        assert again.objective_trace == result.objective_trace
        assert (again.iterations, again.converged) == (
            result.iterations,
            result.converged,
        )


def _cascade_rows(rng, n, dims):
    """Row-stochastic rows, like the memberships a cascade stage clusters."""
    rows = rng.random((n, dims)) ** 4
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.fixture(params=["one pass", "per dimension"])
def distance_path(request, monkeypatch):
    """Dense distances on one path: an entry budget above every test input
    sends each run through the one pass, a budget of 0 each run with d > 0
    through the per-dimension loop."""
    budget = 2**62 if request.param == "one pass" else 0
    monkeypatch.setattr(fcm, "_ONE_PASS_ENTRIES", budget)
    return request.param


# Tolerances of one dense step against the reference arithmetic, from
# float64 rounding (eps = 1.1e-16) on the inputs below: n <= 400 points of
# non-negative values and 2 to 137 clusters on at most 10 dims.
# - Centers: two sums of n non-negative terms in another order, each off
#   by at most n·eps: below 1e-13 relative.
# - Memberships from the run's own centers: distances of d non-negative
#   squares, each order off by at most d·eps, which the ratio doubles and
#   the power 1/(q-1) multiplies (50 at q = 1.02), then a sum of c
#   weights: below 6e-13 relative. Weights that underflow to subnormals
#   keep no relative precision, so values below 1e-300 are compared
#   absolutely.
# - Objective: c·n non-negative products, off by at most c·n·eps.
CENTER_RTOL = 1e-12
MEMBERSHIP_RTOL, MEMBERSHIP_ATOL = 1e-11, 1e-300
OBJECTIVE_RTOL = 1e-11


@pytest.mark.usefixtures("distance_path")
class TestDenseStepsMatchReferenceLoop:
    """Each iteration of a dense ``fcm_run`` is one step of the point-major
    loop of ``oracles.reference_fcm_centers`` and
    ``oracles.reference_fcm_memberships`` to rounding, on both distance
    paths. Each step starts from the run's own memberships and centers, so
    rounding is not carried from one iteration to the next, where the
    cascade's nearly equal rows would amplify it."""

    @staticmethod
    def assert_steps_match(x, config, on_iteration=None):
        steps = []

        def record(*args):
            steps.append(args)
            if on_iteration is not None:
                on_iteration(*args)

        got = fcm_run(x, config, on_iteration=record)
        q = config.fuzzifier
        rng = np.random.default_rng(config.seed)
        u = rng.random((x.shape[0], config.n_clusters))
        u = u / u.sum(axis=1, keepdims=True)
        for iteration, u_run, centers, value, delta in steps:
            # The same clusters lose their mass, so rng draws the same
            # restart points as the run's.
            want = oracles.reference_fcm_centers(x, u, q, rng)
            np.testing.assert_allclose(centers, want, rtol=CENTER_RTOL, atol=0)
            want, d2 = oracles.reference_fcm_memberships(x, centers, q)
            np.testing.assert_allclose(
                u_run, want, rtol=MEMBERSHIP_RTOL, atol=MEMBERSHIP_ATOL
            )
            assert value == pytest.approx(
                float(((u_run**q) * d2).sum()), rel=OBJECTIVE_RTOL
            )
            assert delta == float(np.abs(u_run - u).max())
            u = u_run
        assert got.membership.tobytes() == u.tobytes()
        assert got.centers.tobytes() == steps[-1][2].tobytes()
        assert got.objective_trace == tuple(step[3] for step in steps)
        assert got.iterations == len(steps)

    @pytest.mark.parametrize("q", [2.0, 1.5, 3.0, 1.02])
    def test_cluster_counts_2_to_12(self, q):
        rng = np.random.default_rng(4242)
        for c in range(2, 13):
            x = _cascade_rows(rng, 300, 10)
            config = FcmConfig(n_clusters=c, fuzzifier=q, seed=c, max_iterations=40)
            self.assert_steps_match(x, config)

    @pytest.mark.parametrize("q", [2.0, 1.5])
    def test_more_than_128_clusters(self, q):
        x = _cascade_rows(np.random.default_rng(137), 400, 6)
        config = FcmConfig(n_clusters=137, fuzzifier=q, seed=3, max_iterations=6)
        self.assert_steps_match(x, config)

    @pytest.mark.parametrize(
        "points, c, q",
        [
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 5, 2.0),
            ([[0.0], [1.0]], 5, 1.5),
            ([[0.0], [1.0]], 4, 1.02),
        ],
    )
    def test_dead_cluster_and_point_on_center(self, caplog, points, c, q):
        # Ten copies of each point: clusters collapse onto the points, a
        # cluster left without mass restarts at a data point, and points
        # lying on a center take the singular branch.
        x = np.repeat(np.array(points), 10, axis=0)
        on_center = []

        def record(iteration, u, centers, value, delta):
            on_center.append((centers[:, None, :] == x[None]).all(axis=2).any())

        config = FcmConfig(n_clusters=c, fuzzifier=q, seed=0, max_iterations=30)
        with caplog.at_level(logging.WARNING, logger="flatm.fcm"):
            self.assert_steps_match(x, config, on_iteration=record)
        assert "lost all membership mass" in caplog.text
        assert any(on_center)


@pytest.mark.parametrize("q", [2.0, 1.5, 1.02])
def test_normalising_sum_adds_the_clusters_in_order(q):
    # Each point's c weights are added in cluster order, the first stored:
    # the memberships have the bits of dividing by that plain loop's sum.
    # c = 2..300 covers the counts numpy's own sum(axis=1) would add in
    # eight interleaved partial sums or as two halves.
    rng = np.random.default_rng(300)
    expo = 1.0 / (q - 1.0)
    for c in range(2, 301):
        d2 = rng.random((c, 33)) ** 3 + 1e-3
        weights = (d2.min(axis=0) / d2) ** expo
        total = weights[0].copy()
        for row in weights[1:]:
            total += row
        got = fcm._memberships(d2, q)
        assert got.tobytes() == (weights / total).tobytes(), c


def test_dense_distances_add_dimensions_in_order(distance_path):
    # Each distance must have the bits of its squared differences added
    # over dimensions 0..d-1 in order. d = 1..32 gives single dimensions,
    # odd and even counts and runs longer than numpy's blocks of eight;
    # d = 0 is the empty sum, which always takes the one pass.
    rng = np.random.default_rng(32)
    for d in range(0, 33):
        for _ in range(20):
            scale = 10.0 ** rng.uniform(-8.0, 2.0, size=(37, 1))
            x = rng.normal(size=(37, d)) * scale
            centers = rng.normal(size=(3, d)) * scale[:3]
            prepared = fcm._prepared(x, 3)
            per_dimension = distance_path == "per dimension" and d > 0
            assert (prepared.tiled is None) == per_dimension
            got = fcm._sq_dists(x, centers, np.full((3, 37), np.nan), prepared)
            for k in range(3):
                diff = x - centers[k]
                want = np.zeros(37)
                for i in range(d):
                    want += diff[:, i] * diff[:, i]
                assert got[k].tobytes() == want.tobytes(), (d, k)


def test_both_distance_paths_give_the_same_run(monkeypatch):
    x = _cascade_rows(np.random.default_rng(99), 500, 10)
    config = FcmConfig(n_clusters=9, seed=5, max_iterations=30)
    entries = 9 * 10 * 500
    runs = []
    for budget in (entries, entries - 1):
        monkeypatch.setattr(fcm, "_ONE_PASS_ENTRIES", budget)
        runs.append(fcm_run(x, config))
        assert (fcm._prepared(x, 9).tiled is None) == (budget < entries)
    one_pass, per_dimension = runs
    assert per_dimension.membership.tobytes() == one_pass.membership.tobytes()
    assert per_dimension.centers.tobytes() == one_pass.centers.tobytes()
    assert per_dimension.objective_trace == one_pass.objective_trace
    assert per_dimension.iterations == one_pass.iterations


@pytest.mark.parametrize("c", range(2, 13))
def test_centers_match_the_reference_update(c):
    # One einsum over [x | 1]ᵀ gives the weighted sums and the masses;
    # the centers agree with the point-major update to rounding and are
    # C-contiguous. n = 13, 361 and 1001 are not multiples of 8.
    rng = np.random.default_rng(c)
    for n in (13, 361, 1001):
        x = _cascade_rows(rng, n, 10)
        u = rng.random((n, c))
        u /= u.sum(axis=1, keepdims=True)
        centers = centers_of(x, np.ascontiguousarray((u**2.0).T), rng)
        assert centers.flags.c_contiguous
        want = oracles.reference_fcm_centers(x, u, 2.0, rng)
        np.testing.assert_allclose(centers, want, rtol=CENTER_RTOL, atol=0)


class TestRowNorms:
    """A sparse run squares its rows once, with the bits of scipy's
    ``x.multiply(x).sum(axis=1)``, which the distances used before."""

    @staticmethod
    def assert_scipy_bits(x):
        want = np.asarray(x.multiply(x).sum(axis=1)).ravel()
        got = fcm._row_norms(x)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gtw", ["entropy", "gfidf"])
    def test_weighted_synthetic_matrix(self, gtw):
        docs = generate_synthetic(
            seed=4, n_classes=20, vocab_per_class=50, docs_per_class=50,
            doc_length=10, overlap_fraction=0.1,
        )
        _, tdm = build_matrix(docs)
        weighted = apply_gtw(tdm, compute_global_weights(tdm, gtw))
        # Rows of 1 to over 128 entries take every branch of the pairwise sum.
        row_nnz = np.diff(weighted.indptr)
        assert row_nnz.min() < 8 and row_nnz.max() > 128
        self.assert_scipy_bits(weighted)

    def test_empty_rows_first_between_and_last(self):
        rng = np.random.default_rng(8)
        dense = rng.random((9, 300)) ** 3
        dense[dense < 0.3] = 0.0
        dense[[0, 1, 4, 7, 8]] = 0.0
        x = sp.csr_matrix(dense)
        assert np.flatnonzero(np.diff(x.indptr)).tolist() == [2, 3, 5, 6]
        self.assert_scipy_bits(x)

    def test_all_zero_matrix(self):
        self.assert_scipy_bits(sp.csr_matrix((6, 4)))


@pytest.mark.parametrize("storage", ["duplicate halves", "unsorted", "explicit zeros"])
def test_sparse_run_depends_on_values_not_storage(storage):
    # Row 5 is stored another way with the same values; the caller's
    # matrix must come back as it was given.
    rng = np.random.default_rng(12)
    dense = blob_pair(rng, n_per=20, dims=12, separation=6.0)
    dense[np.abs(dense) < 0.5] = 0.0
    plain = sp.csr_matrix(dense)
    lo, hi = plain.indptr[5], plain.indptr[6]
    values, columns = plain.data[lo:hi], plain.indices[lo:hi]
    if storage == "duplicate halves":
        values, columns = np.repeat(values / 2, 2), np.repeat(columns, 2)
    elif storage == "unsorted":
        values, columns = values[::-1], columns[::-1]
    else:
        values = np.concatenate([values, [0.0, 0.0]])
        columns = np.concatenate([columns, np.flatnonzero(dense[5] == 0.0)[:2]])
    indptr = plain.indptr.copy()
    indptr[6:] += len(values) - (hi - lo)
    stored = sp.csr_matrix(
        (
            np.concatenate([plain.data[:lo], values, plain.data[hi:]]),
            np.concatenate([plain.indices[:lo], columns, plain.indices[hi:]]),
            indptr,
        ),
        shape=plain.shape,
    )
    arrays = [a.copy() for a in (stored.data, stored.indices, stored.indptr)]
    config = FcmConfig(n_clusters=3, seed=2)
    a, b = fcm_run(plain, config), fcm_run(stored, config)
    assert b.membership.tobytes() == a.membership.tobytes()
    assert b.centers.tobytes() == a.centers.tobytes()
    assert b.objective_trace == a.objective_trace
    assert b.iterations == a.iterations
    centers = a.centers
    assert (
        update_memberships(stored, centers, 2.0).tobytes()
        == update_memberships(plain, centers, 2.0).tobytes()
    )
    for before, after in zip(arrays, (stored.data, stored.indices, stored.indptr)):
        assert after.dtype == before.dtype
        assert after.tobytes() == before.tobytes()


class TestSparseInput:
    """A CSR matrix takes the expanded-distance kernels; results agree."""

    def test_kernels_and_run_match_dense(self):
        rng = np.random.default_rng(61)
        dense = blob_pair(rng, n_per=40, dims=6, separation=10.0)
        dense[np.abs(dense) < 0.5] = 0.0
        csr = sp.csr_matrix(dense)
        u = rng.random((80, 3))
        u /= u.sum(axis=1, keepdims=True)
        centers = centers_of(dense, (u**2.0).T, np.random.default_rng(0))
        np.testing.assert_allclose(
            centers_of(csr, (u**2.0).T, np.random.default_rng(0)),
            centers,
            atol=1e-12,
            rtol=0,
        )
        np.testing.assert_allclose(
            update_memberships(csr, centers, 1.7),
            update_memberships(dense, centers, 1.7),
            atol=1e-12,
            rtol=0,
        )
        assert fcm._objective(fcm._sq_dists(csr, centers), (u**2.0).T) == pytest.approx(
            fcm._objective(fcm._sq_dists(dense, centers), (u**2.0).T), rel=1e-12
        )
        config = FcmConfig(n_clusters=2, seed=5)
        a = fcm_run(dense, config)
        b = fcm_run(csr, config)
        assert a.converged and b.iterations == a.iterations
        np.testing.assert_allclose(b.membership, a.membership, atol=1e-12, rtol=0)
        np.testing.assert_allclose(b.centers, a.centers, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            b.objective_trace, a.objective_trace, rtol=1e-12
        )


class TestSeedDerivation:
    def test_stage_seeds_distinct_and_stable(self):
        from flatm.model import stage_seed

        seeds = [stage_seed(7, i) for i in range(10)]
        assert len(set(seeds)) == 10
        assert seeds == [stage_seed(7, i) for i in range(10)]
        assert all(0 <= s < 2**64 for s in seeds)
        assert stage_seed(7, 0) != stage_seed(8, 0)
        assert stage_seed(7, 1, 2) != stage_seed(7, 2, 1)


def test_setting_error_is_a_value_error_that_crosses_processes():
    # Worker processes send errors back by pickle, and evaluation jobs
    # re-raise them as type(exc)(message).
    with pytest.raises(SettingError) as caught:
        FcmConfig(n_clusters=2, seed=-1)
    error = pickle.loads(pickle.dumps(caught.value))
    assert type(error) is SettingError and isinstance(error, ValueError)
    assert str(type(error)(f"job: {error}")) == f"job: {caught.value}"
