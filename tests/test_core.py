import numpy as np
import pytest

from anmf.core import (
    Basis,
    DimensionMismatch,
    SparsityParams,
    as_array,
    cone_distance,
    init_exemplar,
    init_random,
    normalize_columns,
    solve_nnls,
    update_latents,
)
from oracles import nnls_grid_1d, nnls_grid_2d

P0 = SparsityParams(0.0, 0.0)


class TestContainers:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            Basis(np.array([[1.0, -0.1]]))

    @pytest.mark.parametrize("container", [Basis])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, container, bad):
        with pytest.raises(ValueError, match="finite"):
            container(np.array([[1.0, bad]]))

    def test_none_rejected(self):
        with pytest.raises(TypeError, match="None"):
            as_array(None)
        with pytest.raises(TypeError, match="None"):
            update_latents(np.ones((2, 3)), None, np.ones((4, 3)))

    def test_sparsity_validation(self):
        with pytest.raises(ValueError):
            SparsityParams(mu_W=-1.0)
        with pytest.raises(ValueError):
            SparsityParams(eps=0.0)


class TestUpdateLatents:
    def test_identity_basis_one_step(self):
        W = np.eye(2)
        U = np.array([[1.0], [2.0]])
        H = np.ones((2, 1))
        H1 = update_latents(H, W, U, P0)
        assert np.allclose(H1, U, atol=1e-9)

    def test_exact_factorization_fixed_point(self):
        rng = np.random.default_rng(3)
        W = rng.random((6, 3))
        H = rng.random((3, 8))
        U = W @ H
        H1 = update_latents(H, W, U, P0)
        assert np.allclose(H1, H, rtol=1e-12)

    def test_matches_scalar_nnls_oracle(self):
        W = np.array([[1.0], [1.0]])
        U = np.array([[1.0], [0.0]])
        H = np.ones((1, 1))
        for _ in range(3000):
            H_new = update_latents(H, W, U, P0)
            if np.max(np.abs(H_new - H)) < 1e-10:
                H = H_new
                break
            H = H_new
        h_ref, _ = nnls_grid_1d(W, U)
        assert abs(H[0, 0] - 0.5) < 1e-6
        assert abs(H[0, 0] - h_ref) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            update_latents(np.ones((2, 3)), np.ones((4, 2)), np.ones((5, 3)), P0)

    def test_n_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            update_latents(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)), P0, n_scale=0.0)

    def test_zero_entries_stay_zero_and_nonnegative(self):
        rng = np.random.default_rng(11)
        W = rng.random((5, 3))
        U = rng.random((5, 7))
        H = rng.random((3, 7))
        H[1, :] = 0.0
        H1 = update_latents(H, W, U, P0)
        assert np.all(H1 >= 0)
        assert np.all(H1[1, :] == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_monotone(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.random((10, 4))
        U = rng.random((10, 20))
        H = rng.random((4, 20))
        prev = np.linalg.norm(U - W @ H)
        for _ in range(50):
            H = update_latents(H, W, U, P0)
            cur = np.linalg.norm(U - W @ H)
            assert cur <= prev + 1e-10
            prev = cur


def reference_solve(V, W, p, max_iter, tol):
    """Reference solver: update_latents repeated from all ones with the
    whole-block stopping rule. Returns (H, iterations run)."""
    H = np.ones((W.shape[1], V.shape[1]))
    for it in range(1, max_iter + 1):
        H_new = update_latents(H, W, V, p)
        delta = np.linalg.norm(H_new - H)
        H = H_new
        if delta <= tol * max(np.linalg.norm(H), p.eps):
            break
    return H, it


class TestSolveNnls:
    def test_bitwise_reference_at_max_iter(self):
        rng = np.random.default_rng(21)
        W = rng.random((12, 5))
        V = rng.random((12, 30))
        V[:, 4] = 0.0
        p = SparsityParams(0.0, 1e-3)
        H_ref, iters = reference_solve(V, W, p, max_iter=60, tol=0.0)
        assert iters == 60
        assert np.array_equal(solve_nnls(V, W, p, max_iter=60, tol=0.0), H_ref)

    def test_bitwise_reference_when_tol_stops_early(self):
        rng = np.random.default_rng(22)
        W = rng.random((6, 3))
        V = W @ rng.random((3, 9))
        H_ref, iters = reference_solve(V, W, P0, max_iter=20000, tol=1e-6)
        assert iters < 20000
        assert np.array_equal(solve_nnls(V, W, P0, max_iter=20000, tol=1e-6), H_ref)

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            solve_nnls(np.ones((4, 2)), np.ones((5, 2)), P0)


class TestConeDistance:
    def test_is_solve_nnls_column(self):
        rng = np.random.default_rng(23)
        W = rng.random((7, 3))
        u = rng.random(7)
        h, dist = cone_distance(W, u, P0, max_iter=300, tol=1e-10)
        H = solve_nnls(u.reshape(-1, 1), W, P0, max_iter=300, tol=1e-10)
        assert np.array_equal(h, H[:, 0])
        assert dist == np.linalg.norm(u.reshape(-1, 1) - W @ H)

    def test_point_in_cone(self):
        rng = np.random.default_rng(5)
        W = rng.random((4, 2))
        u = W @ np.array([0.7, 1.3])
        _, dist = cone_distance(W, u, P0, max_iter=5000, tol=1e-12)
        assert dist < 1e-6

    def test_orthogonal_direction(self):
        W = np.array([[1.0], [0.0]])
        u = np.array([0.0, 1.0])
        h, dist = cone_distance(W, u, P0, max_iter=2000, tol=1e-12)
        assert abs(dist - 1.0) < 1e-9
        assert h[0] < 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.random((4, 2))
        u = rng.random(4)
        _, dist = cone_distance(W, u, P0, max_iter=5000, tol=1e-12)
        _, ref = nnls_grid_2d(W, u)
        assert abs(dist - ref) < 1e-4


class TestInit:
    def test_exemplar_exhaustive_sampling(self):
        rng = np.random.default_rng(1)
        U = rng.random((5, 4))
        W = init_exemplar(U, 4, seed=2)
        # with N = d the basis is a column permutation of the data
        matched = [any(np.array_equal(W[:, j], U[:, k]) for k in range(4)) for j in range(4)]
        assert all(matched)
        assert sorted(map(tuple, W.T)) == sorted(map(tuple, U.T))

    def test_exemplar_deterministic(self):
        U = np.random.default_rng(0).random((6, 50))
        assert np.array_equal(init_exemplar(U, 5, seed=9), init_exemplar(U, 5, seed=9))

    def test_exemplar_replays_documented_sampler(self):
        U = np.random.default_rng(0).random((3, 100))
        W = init_exemplar(U, 3, seed=123)
        idx = np.random.default_rng(123).choice(100, size=3, replace=False)
        assert np.array_equal(W, U[:, idx])

    def test_exemplar_with_replacement_when_short(self):
        U = np.random.default_rng(0).random((3, 2))
        W = init_exemplar(U, 5, seed=0)
        assert W.shape == (3, 5)

    def test_exemplar_empty_rejected(self):
        with pytest.raises(ValueError):
            init_exemplar(np.zeros((3, 0)), 2, seed=0)

    def test_random_positive_normalized_deterministic(self):
        W = init_random(7, 3, seed=4)
        assert np.all(W > 0)
        assert np.allclose(np.linalg.norm(W, axis=0), 1.0, atol=1e-12)
        assert np.array_equal(W, init_random(7, 3, seed=4))


class TestNormalizeColumns:
    def test_idempotent_bitwise(self):
        W = np.eye(3)
        H = np.random.default_rng(0).random((3, 5))
        W1, (H1,) = normalize_columns(W, [H])
        assert np.array_equal(W1, W)
        assert np.array_equal(H1, H)

    def test_product_preserved(self):
        rng = np.random.default_rng(2)
        W = rng.random((4, 3))
        H = rng.random((3, 6))
        W[:, 1] *= 5.0
        H[1, :] /= 5.0
        prod = W @ H
        W1, (H1,) = normalize_columns(W, [H])
        assert np.allclose(W1 @ H1, prod, rtol=1e-12)
        assert np.allclose(np.linalg.norm(W1, axis=0), 1.0)

    def test_zero_column_left_alone(self):
        W = np.array([[1.0, 0.0], [0.0, 0.0]])
        H = np.ones((2, 3))
        W1, (H1,) = normalize_columns(W, [H])
        assert np.array_equal(W1[:, 1], np.zeros(2))
        assert np.array_equal(H1[1], H[1])
