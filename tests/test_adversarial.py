import numpy as np
import pytest

from anmf.adversarial import (
    MIX,
    OmegaWeights,
    WeightModel,
    assemble_adversarial,
    compute_beta,
    default_omega,
    naive_invert,
)


class TestWeightModel:
    def test_deterministic_must_be_simplex(self):
        with pytest.raises(ValueError):
            WeightModel(values=[0.5, 0.6])
        with pytest.raises(ValueError):
            WeightModel(values=[-0.1, 1.1])

    def test_dirichlet_needs_positive_concentration(self):
        with pytest.raises(ValueError):
            WeightModel(mode="dirichlet", concentration=[1.0, 0.0])

    def test_equal_default(self):
        wm = WeightModel.equal(4)
        assert np.allclose(wm.values, 0.25)


class TestNaiveInvert:
    def test_degenerate_weight(self):
        v = np.array([1.0, 2.0, 3.0])
        parts = naive_invert(v, [1.0, 0.0])
        assert np.array_equal(parts[0], v)
        assert np.array_equal(parts[1], np.zeros(3))

    def test_equal_weights(self):
        v = np.array([2.0, 4.0])
        parts = naive_invert(v, [0.5, 0.5])
        # 0.5 / (0.25 + 0.25) = 1
        assert np.allclose(parts[0], v)
        assert np.allclose(parts[1], v)

    def test_unequal_weights(self):
        v = np.array([1.0, 1.0])
        parts = naive_invert(v, [0.6, 0.4])
        assert np.allclose(parts[0], (0.6 / 0.52) * v)
        assert np.allclose(parts[1], (0.4 / 0.52) * v)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            naive_invert(np.ones(2), [0.0, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_forward_mix_reconstructs(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.dirichlet([1.0, 1.0, 1.0])
        v = rng.random(6)
        parts = naive_invert(v, a)
        recon = sum(a_i * p for a_i, p in zip(a, parts))
        assert np.allclose(recon, v, rtol=1e-12)


class TestComputeBeta:
    def test_equal_weights(self):
        wm = WeightModel(values=[0.5, 0.5])
        assert compute_beta(wm, 0) == 1.0
        assert compute_beta(wm, 1) == 1.0

    def test_degenerate_weights(self):
        wm = WeightModel(values=[1.0, 0.0])
        assert compute_beta(wm, 0) == 1.0
        assert compute_beta(wm, 1) == 0.0

    def test_dirichlet_reproducible(self):
        wm = WeightModel(mode="dirichlet", concentration=[1.0, 1.0], mc_samples=1000)
        assert compute_beta(wm, 0, seed=7) == compute_beta(wm, 0, seed=7)

    def test_dirichlet_self_consistent(self):
        # two disjoint 1e5-sample estimates agree within 3 combined SEs
        wm = WeightModel(mode="dirichlet", concentration=[1.0, 1.0], mc_samples=100_000)
        est = []
        se2 = 0.0
        for seed in (11, 12):
            rng = np.random.default_rng(seed)
            draws = rng.dirichlet(wm.concentration, size=wm.mc_samples)
            gains2 = (draws[:, 0] / np.sum(draws**2, axis=1)) ** 2
            est.append(compute_beta(wm, 0, seed=seed))
            assert est[-1] == np.mean(gains2)
            se2 += np.var(gains2) / wm.mc_samples
        assert abs(est[0] - est[1]) <= 3.0 * np.sqrt(se2)


class TestDefaultOmega:
    def test_no_mix_data(self):
        om = default_omega([500, 500], 0)
        assert om.omega[0, 1] == 1.0
        assert om.omega[1, 0] == 1.0
        assert np.all(om.residual == 0.0)

    def test_with_mix_data(self):
        om = default_omega([100, 300], 100)
        assert om.omega[0, 1] == 300 / 400
        assert om.residual[0] == 0.25

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 50, size=4)
        n_mix = int(rng.integers(0, 30))
        om = default_omega(counts, n_mix)
        for i in range(4):
            row = sum(om.omega[i, j] for j in range(4) if j != i) + om.residual[i]
            assert abs(row - 1.0) < 1e-12

    def test_empty_adversarial_rejected(self):
        with pytest.raises(ValueError):
            default_omega([5, 0], 0)


class TestAssemble:
    def test_default_omega_is_plain_concatenation(self):
        rng = np.random.default_rng(0)
        sources = [rng.random((4, 5)), rng.random((4, 7)), rng.random((4, 3))]
        mixes = rng.random((4, 6))
        om = default_omega([5, 7, 3], 6)
        beta = 0.7
        out = assemble_adversarial(0, sources, mixes, om, beta)
        expected = np.concatenate([sources[1], sources[2], np.sqrt(beta) * mixes], axis=1)
        assert np.array_equal(out.matrix, expected)
        assert out.n_columns == 7 + 3 + 6
        origins = [s.origin for s in out.segments]
        assert origins == [1, 2, MIX]
        assert out.segments[0].alpha == 1.0
        assert out.segments[1].alpha == 1.0

    def test_unit_scalings_bitwise(self):
        rng = np.random.default_rng(1)
        sources = [rng.random((3, 4)), rng.random((3, 4))]
        om = OmegaWeights(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        out = assemble_adversarial(0, sources, None, om, 1.0)
        assert np.array_equal(out.matrix, sources[1])

    def test_alpha_formula(self):
        rng = np.random.default_rng(2)
        sources = [rng.random((3, 2)), rng.random((3, 4))]
        om = OmegaWeights(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        out = assemble_adversarial(0, sources, None, om, 1.0)
        # alpha_2 = sqrt(1 * 4 / 4) = 1
        assert out.segments[0].alpha == 1.0

    def test_weight_on_missing_data_rejected(self):
        sources = [np.ones((3, 2)), np.zeros((3, 0))]
        om = OmegaWeights(np.array([[0.0, 0.5], [1.0, 0.0]]), np.array([0.5, 0.0]))
        with pytest.raises(ValueError):
            assemble_adversarial(0, sources, np.ones((3, 2)), om, 1.0)

    def test_segments_partition_columns(self):
        rng = np.random.default_rng(3)
        sources = [rng.random((4, 5)), rng.random((4, 7))]
        mixes = rng.random((4, 2))
        om = default_omega([5, 7], 2)
        out = assemble_adversarial(1, sources, mixes, om, 0.5)
        edges = [(s.start, s.stop) for s in out.segments]
        assert edges[0][0] == 0
        assert edges[-1][1] == out.n_columns
        for (_, stop), (start, _) in zip(edges, edges[1:]):
            assert stop == start

    def test_scale_bookkeeping(self):
        rng = np.random.default_rng(4)
        sources = [rng.random((3, 4)), rng.random((3, 4))]
        mixes = rng.random((3, 4))
        om = OmegaWeights(np.array([[0.0, 0.3], [0.3, 0.0]]), np.array([0.7, 0.7]))
        out = assemble_adversarial(0, sources, mixes, om, 0.9)
        for seg in out.segments:
            origin = mixes if seg.origin == MIX else sources[seg.origin]
            block = out.matrix[:, seg.start : seg.stop]
            if seg.alpha == 1.0:
                assert np.array_equal(block, origin)
            else:
                assert np.allclose(block / seg.alpha, origin, rtol=1e-15)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_result_owns_its_memory_in_input_layout(self, order):
        # unit blocks go straight into the concatenation: the result is
        # still a new array, even for a single block, in the inputs' layout
        rng = np.random.default_rng(5)
        sources = [np.asarray(rng.random((4, 5)), order=order) for _ in range(3)]
        mixes = np.asarray(rng.random((4, 6)), order=order)
        kept = [u.copy() for u in sources] + [mixes.copy()]
        single = OmegaWeights(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.zeros(3))
        for out in (
            assemble_adversarial(0, sources, mixes, default_omega([5, 5, 5], 6), 1.0).matrix,
            assemble_adversarial(0, sources, None, single, 1.0).matrix,
        ):
            assert out.flags.owndata
            assert out.flags.f_contiguous if order == "F" else out.flags.c_contiguous
            out[:] = -1.0
        for x, before in zip(sources + [mixes], kept):
            assert np.array_equal(x, before)
