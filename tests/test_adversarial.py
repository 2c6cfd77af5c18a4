import numpy as np
import pytest

from anmf.adversarial import (
    OmegaWeights,
    WeightModel,
    assemble_adversarial,
    compute_beta,
    default_omega,
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
    """The naive inversion of a mix v = sum_j a_j u_j estimates source i as
    g_i v, g_i = a_i / sum_j a_j^2; compute_beta returns g_i^2."""

    @staticmethod
    def gains(a):
        wm = WeightModel(values=a)
        return np.sqrt([compute_beta(wm, i) for i in range(len(a))])

    def test_degenerate_weight(self):
        assert np.array_equal(self.gains([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_equal_weights(self):
        # 0.25 / (3 * 0.25^2 + 0.25^2) = 1
        assert np.allclose(self.gains([0.25] * 4), 1.0, rtol=1e-15)

    def test_unequal_weights(self):
        assert np.allclose(self.gains([0.6, 0.4]), [0.6 / 0.52, 0.4 / 0.52], rtol=1e-15)

    def test_all_zero_rejected(self):
        # all-zero weights have no gain; the weight model refuses them
        with pytest.raises(ValueError):
            WeightModel(values=[0.0, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_forward_mix_reconstructs(self, seed):
        # sum_i a_i g_i v = v: the inverted parts remix to the mix
        rng = np.random.default_rng(seed)
        a = rng.dirichlet([1.0, 1.0, 1.0])
        assert abs(np.dot(a, self.gains(a)) - 1.0) < 1e-12


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
        # sources 1 and 2 at alpha = 1, then the mix at sqrt(beta)
        assert np.array_equal(out, expected)

    def test_unit_scalings_bitwise(self):
        rng = np.random.default_rng(1)
        sources = [rng.random((3, 4)), rng.random((3, 4))]
        om = OmegaWeights(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        out = assemble_adversarial(0, sources, None, om, 1.0)
        assert np.array_equal(out, sources[1])

    def test_alpha_formula(self):
        rng = np.random.default_rng(2)
        sources = [rng.random((3, 2)), rng.random((3, 4))]
        om = OmegaWeights(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
        out = assemble_adversarial(0, sources, None, om, 1.0)
        # alpha_2 = sqrt(1 * 4 / 4) = 1
        assert np.array_equal(out, sources[1])
        # alpha_1 = sqrt(0.5 * 6 / 2), alpha_V = sqrt(0.5 * 6 * 0.8 / 4)
        mixes = rng.random((3, 4))
        om = OmegaWeights(np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([0.5, 0.5]))
        out = assemble_adversarial(1, sources, mixes, om, 0.8)
        assert np.array_equal(out[:, :2], np.sqrt(0.5 * 6 / 2) * sources[0])
        assert np.array_equal(out[:, 2:], np.sqrt(0.5 * 6 / 4 * 0.8) * mixes)

    def test_weight_on_missing_data_rejected(self):
        sources = [np.ones((3, 2)), np.zeros((3, 0))]
        om = OmegaWeights(np.array([[0.0, 0.5], [1.0, 0.0]]), np.array([0.5, 0.0]))
        with pytest.raises(ValueError):
            assemble_adversarial(0, sources, np.ones((3, 2)), om, 1.0)

    def test_segments_partition_columns(self):
        # one block per contributing dataset, in order: others, then mix
        rng = np.random.default_rng(3)
        sources = [rng.random((4, 5)), rng.random((4, 7)), rng.random((4, 3))]
        mixes = rng.random((4, 2))
        om = default_omega([5, 7, 3], 2)
        out = assemble_adversarial(1, sources, mixes, om, 0.5)
        assert out.shape == (4, 5 + 3 + 2)
        assert np.array_equal(out[:, :5], sources[0])
        assert np.array_equal(out[:, 5:8], sources[2])
        assert np.allclose(out[:, 8:], np.sqrt(0.5) * mixes, rtol=1e-15)

    def test_scale_bookkeeping(self):
        rng = np.random.default_rng(4)
        sources = [rng.random((3, 4)), rng.random((3, 4))]
        mixes = rng.random((3, 4))
        om = OmegaWeights(np.array([[0.0, 0.3], [0.3, 0.0]]), np.array([0.7, 0.7]))
        out = assemble_adversarial(0, sources, mixes, om, 0.9)
        # N_hat = 8: alpha_1 = sqrt(0.3 * 8 / 4), alpha_V = sqrt(0.7 * 8 * 0.9 / 4)
        for block, origin, alpha in ((out[:, :4], sources[1], np.sqrt(0.6)), (out[:, 4:], mixes, np.sqrt(1.26))):
            assert np.allclose(block / alpha, origin, rtol=1e-15)

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
            assemble_adversarial(0, sources, mixes, default_omega([5, 5, 5], 6), 1.0),
            assemble_adversarial(0, sources, None, single, 1.0),
        ):
            assert out.flags.owndata
            assert out.flags.f_contiguous if order == "F" else out.flags.c_contiguous
            out[:] = -1.0
        for x, before in zip(sources + [mixes], kept):
            assert np.array_equal(x, before)
