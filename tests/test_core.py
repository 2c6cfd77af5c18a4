import tracemalloc

import numpy as np
import pytest

from anmf.core import (
    BLOCK_COLUMNS,
    Basis,
    SparsityParams,
    as_array,
    cone_distance,
    init_exemplar,
    init_random,
    normalize_columns,
    solve_nnls,
    update_latents,
)
from oracles import nnls_grid_1d, nnls_grid_2d, nnls_per_column

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("key", ["mu_W", "mu_H", "eps"])
    def test_sparsity_must_be_finite(self, key, bad):
        # an infinite penalty or floor zeroes every latent update; NaN fails no comparison
        message = "eps must be positive and finite" if key == "eps" else "penalties must be non-negative and finite"
        with pytest.raises(ValueError, match=message):
            SparsityParams(**{key: bad})


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
        with pytest.raises(ValueError, match=r"update_latents basis: incompatible shapes \(4, 2\) and \(5, 3\)"):
            update_latents(np.ones((2, 3)), np.ones((4, 2)), np.ones((5, 3)), P0)

    def test_latent_column_mismatch(self):
        with pytest.raises(ValueError, match=r"update_latents latents: shape \(2, 4\), need \(2, 3\)"):
            update_latents(np.ones((2, 4)), np.ones((5, 2)), np.ones((5, 3)), P0)

    def test_latent_row_mismatch_names_latents(self):
        # W and U agree, so the message names H, not them
        with pytest.raises(ValueError, match=r"update_latents latents: shape \(1, 3\), need \(2, 3\)"):
            update_latents(np.ones((1, 3)), np.ones((5, 2)), np.ones((5, 3)), P0)

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

    @staticmethod
    def _reference(H, W, U, p, n):
        # the one-line update, over all columns at once
        return H * (W.T @ U / n) / (W.T @ W @ H / n + p.mu_H + p.eps)

    @pytest.mark.parametrize("n", [1, 7, 511, 512, 513, 1001, 4999])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_blocks_match_one_line_update(self, n, in_place):
        # one block is the one-line update bit for bit; across blocks OpenBLAS can
        # round a column by the width of the product it sits in (see the docstring),
        # which moved results by up to 1.8e-15 relative on random data
        rng = np.random.default_rng(n)
        W, U, H = rng.random((257, 16)), rng.random((257, n)), rng.random((16, n))
        p = SparsityParams(0.0, 1e-3)
        want = self._reference(H, W, U, p, n)
        before = H.copy()
        got = update_latents(H, W, U, p, n_scale=n, out=H if in_place else None)
        assert (got is H) == in_place
        if not in_place:
            assert np.array_equal(H, before)
        if n <= BLOCK_COLUMNS:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_out_must_fit(self):
        with pytest.raises(ValueError, match=r"update_latents out: shape \(2, 4\), need \(2, 3\)"):
            update_latents(np.ones((2, 3)), np.ones((5, 2)), np.ones((5, 3)), P0, out=np.ones((2, 4)))

    def test_in_place_peak_memory_is_one_block(self):
        # working arrays of d x BLOCK_COLUMNS, whatever N, and W's Gram matrix
        m, d, n = 257, 64, 20000
        rng = np.random.default_rng(5)
        W, U, H = rng.random((m, d)), np.asfortranarray(rng.random((m, n))), np.ones((d, n))
        tracemalloc.start()
        try:
            out = update_latents(H, W, U, SparsityParams(0.0, 1e-3), n_scale=n, out=H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out is H
        assert peak < 4 * 8 * d * BLOCK_COLUMNS + 8 * d * d

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


class TestSolveNnls:
    def test_bitwise_reference_at_max_iter(self):
        # with tol = 0 no column stops, and the block runs max_iter plain
        # updates; the all-zero column is exactly 0 either way
        rng = np.random.default_rng(21)
        W = rng.random((12, 5))
        V = rng.random((12, 30))
        V[:, 4] = 0.0
        p = SparsityParams(0.0, 1e-3)
        H_ref = np.ones((5, 30))
        for _ in range(60):
            H_ref = update_latents(H_ref, W, V, p)
        assert np.array_equal(solve_nnls(V, W, p, max_iter=60, tol=0.0), H_ref)

    def test_matches_per_column_reference_when_tol_stops_early(self):
        # the per-column loop multiplies by vectors, the solver by blocks,
        # and compaction can change the BLAS kernel: equal to rounding
        rng = np.random.default_rng(22)
        W = rng.random((6, 3))
        V = W @ rng.random((3, 9))
        H_ref, iters, _ = nnls_per_column(V, W, P0, max_iter=20000, tol=1e-6)
        assert iters.max() < 20000 and len(set(iters)) > 1
        H = solve_nnls(V, W, P0, max_iter=20000, tol=1e-6)
        np.testing.assert_allclose(H, H_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_stop_at_the_tolerance_boundary(self, seed):
        # tol sits a hair above or below column j's residual ratio at check
        # c, a check whose ratio is below every earlier one: just above, it
        # stops after 10 (c + 1) updates; just below, later. The ratio is
        # above 1e-6, where the residual's rounding, about 1e-16 ||b||,
        # cannot move the decision
        rng = np.random.default_rng([seed, 40])
        W = rng.random((int(rng.integers(3, 12)), int(rng.integers(2, 6))))
        V = rng.random((W.shape[0], int(rng.integers(1, 20))))
        p = SparsityParams(0.0, float(rng.choice([0.0, 1e-3])))
        j = int(rng.integers(V.shape[1]))
        ratios = nnls_per_column(V[:, [j]], W, p, max_iter=300, tol=0.0)[2][0]
        c = int(rng.choice([i for i in range(1, 30) if 1e-6 < ratios[i] < min(ratios[:i])]))
        stops = []
        for tol in (ratios[c] * (1 + 1e-9), ratios[c] * (1 - 1e-9)):
            H_ref, iters, _ = nnls_per_column(V, W, p, max_iter=400, tol=tol)
            stops.append(iters[j])
            H = solve_nnls(V, W, p, max_iter=400, tol=tol)
            assert H.flags.f_contiguous
            np.testing.assert_allclose(H, H_ref, rtol=1e-12, atol=0)
        assert stops[0] == 10 * (c + 1) < stops[1]

    def test_each_column_is_its_own_iterate(self):
        # every column is the plain block iterate H_k, for its own k: a
        # multiple of 10 where it stopped, max_iter where it did not
        rng = np.random.default_rng(24)
        W = rng.random((10, 4))
        V = rng.random((10, 25))
        V[:, :8] = W @ rng.random((4, 8))
        trajectory = [np.ones((4, 25))]
        for _ in range(75):
            trajectory.append(update_latents(trajectory[-1], W, V, P0))
        H = solve_nnls(V, W, P0, max_iter=75, tol=1e-3)
        ks = []
        for j in range(25):
            ks.append(next(k for k in range(76) if np.allclose(H[:, j], trajectory[k][:, j], rtol=1e-12, atol=0)))
        assert all(k % 10 == 0 or k == 75 for k in ks)
        assert min(ks) < 75 and max(ks) == 75

    def test_columns_are_solved_alone(self):
        # enough columns stop for the working arrays to be compacted
        rng = np.random.default_rng(25)
        W = rng.random((15, 6))
        V = rng.random((15, 60))
        V[:, 20:40] = W @ rng.random((6, 20))
        V[:, 7] = 0.0
        H = solve_nnls(V, W, P0)
        alone = np.concatenate([solve_nnls(V[:, [j]], W, P0) for j in range(60)], axis=1)
        np.testing.assert_allclose(H, alone, rtol=1e-12, atol=0)
        np.testing.assert_allclose(H, nnls_per_column(V, W, P0, 500, 1e-3)[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tol", [0.0, 1e-8])
    @pytest.mark.parametrize("n", [0, 6])
    def test_all_zero_and_empty_blocks(self, tol, n):
        W = np.random.default_rng(41).random((5, 3))
        H = solve_nnls(np.zeros((5, n)), W, P0, max_iter=50, tol=tol)
        assert H.shape == (3, n) and H.flags.f_contiguous
        assert not H.any()

    def test_columns_without_gain_over_zero_are_exactly_zero(self):
        # b = W.T v has no entry above mu_H: h = 0 is the solution, and the
        # column is 0 itself, not an iterate decaying towards it
        W = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        V = np.array([[0.0, 0.05, 1.0], [0.0, 0.02, 2.0], [4.0, 0.0, 3.0]])
        H = solve_nnls(V, W, SparsityParams(0.0, 0.1), tol=0.0)
        assert not H[:, :2].any()
        assert np.all(H[:, 2] > 0)

    def test_close_to_reference_at_any_shape(self):
        rng = np.random.default_rng(42)
        W = rng.random((60, 40))
        V = rng.random((60, 37))
        H_ref, iters, _ = nnls_per_column(V, W, P0, max_iter=100, tol=0.0)
        assert np.all(iters == 100)
        np.testing.assert_allclose(solve_nnls(V, W, P0, max_iter=100, tol=0.0), H_ref, rtol=1e-12, atol=0)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"solve_nnls: incompatible shapes \(5, 2\) and \(4, 2\)"):
            solve_nnls(np.ones((4, 2)), np.ones((5, 2)), P0)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_no_update_rejected(self, max_iter):
        # the all-ones start is no solution, so a run of no updates is an error
        with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}$"):
            solve_nnls(np.ones((4, 2)), np.ones((4, 2)), P0, max_iter=max_iter)


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

    def test_zero_dimensions_rejected(self):
        with pytest.raises(ValueError, match="latent dimension must be >= 1"):
            init_exemplar(np.ones((3, 4)), 0, seed=0)
        with pytest.raises(ValueError, match="basis dimensions must be >= 1"):
            init_random(0, 2, seed=0)

    def test_random_positive_normalized_deterministic(self):
        W = init_random(7, 3, seed=4)
        assert np.all(W > 0)
        assert np.allclose(np.linalg.norm(W, axis=0), 1.0, atol=1e-12)
        assert np.array_equal(W, init_random(7, 3, seed=4))


class TestNormalizeColumns:
    """The partners are rescaled in place, so every check compares against
    copies taken before the call."""

    def test_idempotent_bitwise(self):
        W = np.eye(3)
        H = np.random.default_rng(0).random((3, 5))
        W0, H0 = W.copy(), H.copy()
        W1, (H1,) = normalize_columns(W, [H])
        assert H1 is H
        assert np.array_equal(W1, W0)
        assert np.array_equal(H1, H0)

    def test_product_preserved(self):
        rng = np.random.default_rng(2)
        W = rng.random((4, 3))
        H = rng.random((3, 6))
        W[:, 1] *= 5.0
        H[1, :] /= 5.0
        prod, H0 = W @ H, H.copy()
        W1, (H1,) = normalize_columns(W, [H])
        assert H1 is H
        assert np.allclose(W1 @ H1, prod, rtol=1e-12)
        assert np.allclose(np.linalg.norm(W1, axis=0), 1.0)
        norms = np.linalg.norm(W, axis=0)
        assert np.array_equal(H1, H0 * norms[:, None])

    def test_zero_column_left_alone(self):
        W = np.array([[1.0, 0.0], [0.0, 0.0]])
        H = np.ones((2, 3))
        H0 = H.copy()
        W1, (H1,) = normalize_columns(W, [H])
        assert H1 is H
        assert np.array_equal(W1[:, 1], np.zeros(2))
        assert np.array_equal(H1[1], H0[1])

    def test_partners_rescaled_in_place(self):
        # views of one array, as train_smu's supervised latents are, stay views of it
        rng = np.random.default_rng(3)
        W, H = rng.random((5, 2)), rng.random((4, 6))
        H0 = H.copy()
        _, (top, bottom) = normalize_columns(W, [H[:2], H[2:]])
        assert np.shares_memory(top, H) and np.shares_memory(bottom, H)
        scale = np.linalg.norm(W, axis=0)[:, None]
        assert np.array_equal(H, np.vstack([H0[:2] * scale, H0[2:] * scale]))
