import numpy as np
import pytest

from anmf.core import SparsityParams, solve_nnls
from anmf.separation import fit_sources, separate, wiener_filter, wiener_mask
from oracles import nnls_grid_2d, nnls_per_column, trained_mix

P0 = SparsityParams(0.0, 0.0)


class TestSeparate:
    def test_disjoint_supports_recovered(self):
        W1 = np.array([[1.0], [0.0]])
        W2 = np.array([[0.0], [1.0]])
        V = np.array([[2.0, 0.5], [3.0, 1.5]])
        res = separate(V, [W1, W2], P0, max_iter=2000)
        assert np.allclose(res.filtered[0], [[2.0, 0.5], [0.0, 0.0]], atol=1e-6)
        assert np.allclose(res.filtered[1], [[0.0, 0.0], [3.0, 1.5]], atol=1e-6)

    def test_filtered_sums_to_mix(self):
        rng = np.random.default_rng(0)
        bases = [rng.random((6, 3)), rng.random((6, 2))]
        V = rng.random((6, 10))
        res = separate(V, bases, P0)
        total = sum(res.filtered)
        assert np.allclose(total, V, atol=1e-12)

    def test_matches_grid_oracle(self):
        # single basis with two atoms: the raw fit is as far from v as the
        # brute-force grid's NNLS solution, and lies where that solution does
        rng = np.random.default_rng(1)
        W = rng.random((5, 2))
        v = rng.random((5, 1))
        raw = separate(v, [W], P0, max_iter=5000, tol=1e-12).raw[0]
        h_ref, dist = nnls_grid_2d(W, v.ravel())
        assert abs(np.linalg.norm(v - raw) - dist) < 1e-4
        assert np.allclose(raw.ravel(), W @ h_ref, atol=1e-4)

    @pytest.mark.parametrize("max_iter,tol", [(40, 0.0), (20000, 1e-6)])
    def test_latents_are_solve_nnls_on_concatenated_bases(self, max_iter, tol):
        # each reconstruction is its basis times its rows of the joint solve
        rng = np.random.default_rng(2)
        bases = [rng.random((8, 4)), rng.random((8, 3))]
        V = rng.random((8, 23))
        raw = fit_sources(V, bases, P0, max_iter=max_iter, tol=tol)
        H = solve_nnls(V, np.concatenate(bases, axis=1), P0, max_iter=max_iter, tol=tol)
        assert len(raw) == 2
        assert np.array_equal(raw[0], bases[0] @ H[:4])
        assert np.array_equal(raw[1], bases[1] @ H[4:])

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            separate(np.ones((4, 2)), [np.ones((5, 2))], P0)

    def test_each_column_fitted_as_if_alone(self):
        rng = np.random.default_rng(3)
        bases = [rng.random((8, 4)), rng.random((8, 3))]
        V = rng.random((8, 50))
        V[:, 10:30] = bases[0] @ rng.random((4, 20))
        V[:, 5] = 0.0
        raw = fit_sources(V, bases, P0)
        alone = [fit_sources(V[:, [j]], bases, P0) for j in range(50)]
        for i in range(2):
            np.testing.assert_allclose(raw[i], np.concatenate([a[i] for a in alone], axis=1), rtol=1e-12, atol=0)
        assert not raw[0][:, 5].any() and not raw[1][:, 5].any()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_shaped_mix_stops_early(self, seed):
        # d = 128 trained bases and a 200-column mix at the default tol:
        # every column stops by its own check or at max_iter, and on average
        # well before it. Entries decaying towards 0 over hundreds of
        # updates compound the rounding of W.T v, which the column loop
        # forms by vector products, so they are held to the largest
        # entry's scale
        V, W = trained_mix(seed)
        p = SparsityParams()
        H_ref, iters, _ = nnls_per_column(V, W, p, max_iter=500, tol=1e-3)
        H = solve_nnls(V, W, p)
        np.testing.assert_allclose(H, H_ref, rtol=1e-12, atol=1e-12 * np.abs(H_ref).max())
        assert iters.mean() < 350 and iters.max() <= 500


class TestWienerFilter:
    def test_conservation(self):
        rng = np.random.default_rng(4)
        v = rng.random((5, 9))
        raw = [rng.random((5, 9)), rng.random((5, 9)), rng.random((5, 9))]
        out = wiener_filter(v, raw)
        assert np.allclose(sum(out), v, atol=1e-12)

    def test_equal_split_on_zero_denominator(self):
        v = np.array([[3.0]])
        raw = [np.zeros((1, 1)), np.zeros((1, 1))]
        out = wiener_filter(v, raw)
        assert out[0][0, 0] == 1.5
        assert out[1][0, 0] == 1.5

    def test_single_source_passthrough(self):
        rng = np.random.default_rng(5)
        v = rng.random((4, 6))
        raw = [rng.random((4, 6)) + 0.1]
        out = wiener_filter(v, raw)
        assert np.array_equal(out[0], v)

    def test_proportional_allocation(self):
        v = np.array([[6.0]])
        raw = [np.array([[1.0]]), np.array([[2.0]])]
        out = wiener_filter(v, raw)
        assert np.allclose(out[0], 2.0)
        assert np.allclose(out[1], 4.0)

    def test_nonnegative_outputs(self):
        rng = np.random.default_rng(6)
        v = rng.random((5, 5))
        raw = [rng.random((5, 5)), rng.random((5, 5))]
        for u in wiener_filter(v, raw):
            assert np.all(u >= 0)

    def test_complex_mix_masked_as_is(self):
        # features.apply_mask filters an STFT spectrum: the mix is not cast to float
        rng = np.random.default_rng(7)
        v = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        raw = [rng.random((5, 9)), rng.random((5, 9)), np.zeros((5, 9))]
        raw[0][0, :3] = raw[1][0, :3] = 0.0  # an equal split where the total is 0
        out = wiener_filter(v, raw)
        total = sum(raw)
        for u, r in zip(out, raw):
            assert u.dtype == complex
            assert np.array_equal(u, v * wiener_mask(r, total, 3, 1e-12))
        assert np.allclose(sum(out), v, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 1), (1, 5)])
    def test_raw_of_other_shape_rejected(self, shape):
        # a (4, 1) raw would broadcast to the mix's shape without a word
        v = np.ones((4, 5))
        raw = [np.ones((4, 5)), np.ones(shape)]
        with pytest.raises(ValueError, match=rf"raw reconstruction 1 has shape \({shape[0]}, {shape[1]}\), "
                                             r"but the mix has shape \(4, 5\)"):
            wiener_filter(v, raw)


class TestProjectDenoise:
    # denoise --mode project: the raw fit of the speech basis alone, the
    # projection of each column onto the basis's cone
    @pytest.mark.parametrize("max_iter,tol", [(40, 0.0), (20000, 1e-6)])
    def test_is_basis_times_solve_nnls(self, max_iter, tol):
        rng = np.random.default_rng(9)
        W = rng.random((8, 4))
        V = rng.random((8, 15))
        out = fit_sources(V, [W], P0, max_iter=max_iter, tol=tol)[0]
        assert np.array_equal(out, W @ solve_nnls(V, W, P0, max_iter=max_iter, tol=tol))

    def test_in_cone_identity(self):
        rng = np.random.default_rng(7)
        W = rng.random((6, 3))
        V = W @ rng.random((3, 8))
        out = fit_sources(V, [W], P0, max_iter=5000, tol=1e-12)[0]
        assert np.linalg.norm(out - V) <= 1e-4 * np.linalg.norm(V)

    def test_removes_out_of_cone_noise(self):
        # basis spans the first coordinate only; noise on the second
        W = np.array([[1.0], [0.0]])
        V = np.array([[2.0], [5.0]])
        out = fit_sources(V, [W], P0, max_iter=2000)[0]
        assert abs(out[0, 0] - 2.0) < 1e-6
        assert out[1, 0] == 0.0

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(8)
        W = rng.random((5, 2))
        v = rng.random((5, 1))
        out = fit_sources(v, [W], P0, max_iter=5000, tol=1e-12)[0]
        h_ref, dist = nnls_grid_2d(W, v.ravel())
        assert abs(np.linalg.norm(v.ravel() - out.ravel()) - dist) < 1e-4
