import numpy as np
import pytest

from anmf.adversarial import WeightModel, adversarial_sets, compute_beta


def concatenation(i, sources, mixes, wm, seed=0):
    """Source i's set, written out: the other sources with columns, then
    sqrt(beta_i) times the mixes."""
    blocks = [u for j, u in enumerate(sources) if j != i and u.shape[1]]
    if mixes is not None:
        blocks.append(np.sqrt(compute_beta(wm, i, seed=[seed, 77, i])) * mixes)
    return np.concatenate(blocks, axis=1)


class TestWeightModel:
    def test_deterministic_must_be_simplex(self):
        with pytest.raises(ValueError):
            WeightModel(values=[0.5, 0.6])
        with pytest.raises(ValueError):
            WeightModel(values=[-0.1, 1.1])

    def test_dirichlet_needs_positive_concentration(self):
        with pytest.raises(ValueError):
            WeightModel(mode="dirichlet", concentration=[1.0, 0.0])

    @pytest.mark.parametrize("kwargs, message", [
        ({"mode": "fixed", "values": [0.5, 0.5]}, "unknown weight mode 'fixed'"),
        ({}, "deterministic weights need values"),
        ({"mode": "dirichlet"}, "dirichlet weights need a concentration vector"),
        ({"mode": "dirichlet", "concentration": [1.0, 1.0], "mc_samples": 0}, "mc_samples must be >= 1"),
        ({"values": [np.nan, np.nan]}, "deterministic weights must lie on the simplex"),
        ({"mode": "dirichlet", "concentration": [np.nan, 1.0]}, "dirichlet concentration must be positive and finite"),
        ({"mode": "dirichlet", "concentration": [np.inf, 1.0]}, "dirichlet concentration must be positive and finite"),
    ], ids=["unknown_mode", "no_values", "no_concentration", "mc_samples_0", "values_nan", "concentration_nan",
            "concentration_inf"])
    def test_incomplete_model_named(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightModel(**kwargs)

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

    @pytest.mark.parametrize("wm", [WeightModel(values=[0.5, 0.5]),
                                    WeightModel(mode="dirichlet", concentration=[1.0, 1.0], mc_samples=10)])
    def test_source_outside_model_rejected(self, wm):
        for i in (2, -1):
            with pytest.raises(ValueError, match="weight model has 2 sources"):
                compute_beta(wm, i)

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
    """The paper's count-proportional omega, omega_ij = N_j / N_hat_i, is
    what plain concatenation stores: every other source at unit scale, so
    source j holds N_j of set i's N_hat_i columns and the mix the rest."""

    def test_no_mix_data(self):
        rng = np.random.default_rng(6)
        # a source without columns has omega 0 everywhere: no set holds it
        sources = [rng.random((3, 50)), rng.random((3, 50)), np.zeros((3, 0))]
        sets, true_data = adversarial_sets(sources, None, WeightModel.equal(3))
        assert np.array_equal(sets[0], sources[1])
        assert np.array_equal(sets[1], sources[0])
        assert np.array_equal(sets[2], np.concatenate(sources[:2], axis=1))
        assert true_data[2] is sources[2]

    def test_with_mix_data(self):
        rng = np.random.default_rng(7)
        sources = [rng.random((3, 100)), rng.random((3, 300))]
        mixes = rng.random((3, 100))
        wm = WeightModel(values=[0.6, 0.4])
        sets, _ = adversarial_sets(sources, mixes, wm, seed=2)
        # omega_01 = 300 / 400, and the mix takes the residual 100 / 400
        assert np.array_equal(sets[0][:, :300], sources[1])
        assert np.array_equal(sets[0][:, 300:], (0.6 / 0.52) * mixes)
        assert sets[0].shape[1] == 400

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one(self, seed):
        # the block shares N_j / N_hat_i and N_V / N_hat_i of each set sum to one
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 50, size=4)
        n_mix = int(rng.integers(0, 30))
        sources = [rng.random((3, n)) for n in counts]
        mixes = rng.random((3, n_mix)) if n_mix else None
        wm = WeightModel(values=rng.dirichlet(np.ones(4)))
        sets, _ = adversarial_sets(sources, mixes, wm, seed)
        for i, out in enumerate(sets):
            assert out.shape[1] == n_mix + counts.sum() - counts[i]
            assert np.array_equal(out, concatenation(i, sources, mixes, wm, seed))

    def test_empty_adversarial_rejected(self):
        with pytest.raises(ValueError, match="no adversarial data available for source 0"):
            adversarial_sets([np.ones((3, 5)), np.zeros((3, 0))], None, WeightModel.equal(2))


class TestAssemble:
    def test_default_omega_is_plain_concatenation(self):
        rng = np.random.default_rng(0)
        sources = [rng.random((4, 5)), rng.random((4, 7)), rng.random((4, 3))]
        mixes = rng.random((4, 6))
        wm = WeightModel(values=[0.5, 0.3, 0.2])
        sets, _ = adversarial_sets(sources, mixes, wm, seed=3)
        for i, out in enumerate(sets):
            assert np.array_equal(out, concatenation(i, sources, mixes, wm, seed=3))

    def test_segments_partition_columns(self):
        # one block per contributing dataset, in order: others, then mix
        rng = np.random.default_rng(3)
        sources = [rng.random((4, 5)), rng.random((4, 7)), rng.random((4, 3))]
        mixes = rng.random((4, 2))
        wm = WeightModel(mode="dirichlet", concentration=[1.0, 2.0, 3.0], mc_samples=100)
        out = adversarial_sets(sources, mixes, wm)[0][1]
        assert out.shape == (4, 5 + 3 + 2)
        assert np.array_equal(out[:, :5], sources[0])
        assert np.array_equal(out[:, 5:8], sources[2])
        assert np.array_equal(out[:, 8:], np.sqrt(compute_beta(wm, 1, seed=[0, 77, 1])) * mixes)

    def test_row_counts_must_agree(self):
        with pytest.raises(ValueError, match=r"row counts differ across datasets: \[3, 4\]"):
            adversarial_sets([np.ones((3, 2)), np.ones((3, 2))], np.ones((4, 2)), WeightModel.equal(2))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_result_owns_its_memory_in_input_layout(self, order):
        # blocks go straight into the concatenation, and the mix block is
        # scaled there: each set is a new array, even for a single block, in
        # the inputs' layout
        rng = np.random.default_rng(5)
        sources = [np.asarray(rng.random((4, 5)), order=order) for _ in range(3)]
        mixes = np.asarray(rng.random((4, 6)), order=order)
        kept = [u.copy() for u in sources] + [mixes.copy()]
        for out in (
            adversarial_sets(sources, mixes, WeightModel(values=[0.6, 0.3, 0.1]))[0][0],
            adversarial_sets(sources[:2], None, WeightModel.equal(2))[0][0],
        ):
            assert out.flags.owndata
            assert out.flags.f_contiguous if order == "F" else out.flags.c_contiguous
            out[:] = -1.0
        for x, before in zip(sources + [mixes], kept):
            assert np.array_equal(x, before)


class Unread:
    """An entry that loads itself, as io.DataFile does, counting its loads."""

    def __init__(self, a):
        self.a, self.shape, self.loads = a, a.shape, 0

    def load(self, out=None):
        self.loads += 1
        if out is None:
            return self.a.copy(order="F")
        out[...] = self.a
        return out


class TestFilledFromEntries:
    # one source needs the mixes: without, no set can be built (test_empty_adversarial_rejected)
    @pytest.mark.parametrize("counts, n_mix", [([5, 7, 3], 0), ([5, 7, 3], 4), ([4, 6], 0), ([4, 6], 4), ([6], 4),
                                               ([4, 0, 5], 0), ([4, 0, 5], 4)])
    def test_entries_read_once_into_the_sets(self, counts, n_mix):
        rng = np.random.default_rng(len(counts) + n_mix)
        arrays = [np.asfortranarray(rng.random((3, n))) for n in counts]
        mix = np.asfortranarray(rng.random((3, n_mix))) if n_mix else None
        wm = WeightModel(values=np.full(max(len(counts), 2), 1.0 / max(len(counts), 2)))
        entries, mix_entry = [Unread(a) for a in arrays], Unread(mix) if n_mix else None
        sets, true_data = adversarial_sets(entries, mix_entry, wm, seed=5)
        assert len(sets) == len(counts)
        for i, got in enumerate(sets):
            assert np.array_equal(got, concatenation(i, arrays, mix, wm, seed=5))
            assert got.flags.f_contiguous and got.flags.owndata
        assert all(e.loads == 1 for e in entries + [mix_entry] * bool(n_mix))
        for j, (u, want) in enumerate(zip(true_data, arrays)):
            assert np.array_equal(u, want)
            # a source trains from its block in the first set that holds it, or from its own array
            holders = [i for i, s in enumerate(sets) if np.shares_memory(u, s)]
            assert holders == ([] if len(counts) == 1 or not counts[j] else [1 if j == 0 else 0])
