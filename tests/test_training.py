import numpy as np
import pytest

import anmf.training as training
from anmf.adversarial import assemble_adversarial, default_omega
from anmf.core import SparsityParams, as_array, init_exemplar, update_latents
from anmf.training import (
    TrainSpec,
    grad_parts_adv,
    grad_parts_std,
    grad_parts_sup,
    objective,
    train_semisupervised,
    train_smu,
    update_basis,
)
from oracles import plain_nmf_trajectory, triple_loop_product

P0 = SparsityParams(0.0, 0.0)


def make_spec(**kw):
    kw.setdefault("sparsity", P0)
    kw.setdefault("epochs", 10)
    kw.setdefault("batch_size", 1000)
    return TrainSpec(**kw)


class TestGradParts:
    def test_zero_activations(self):
        W = np.random.default_rng(0).random((3, 2))
        U = np.random.default_rng(1).random((3, 5))
        plus, minus = grad_parts_std(W, U, np.zeros((2, 5)), 5)
        assert np.all(plus == 0) and np.all(minus == 0)

    def test_fixed_point_with_std_parts_only(self):
        rng = np.random.default_rng(2)
        W = rng.random((4, 2))
        H = rng.random((2, 6))
        U = W @ H
        parts = grad_parts_std(W, U, H, 6)
        W1 = update_basis(W, parts, None, None, 0.0, 0.0)
        assert np.allclose(W1, W, rtol=1e-12)

    def test_std_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        W = rng.random((3, 2))
        H = rng.random((2, 5))
        U = rng.random((3, 5))
        plus, minus = grad_parts_std(W, U, H, 5)
        assert np.allclose(plus, triple_loop_product(W, triple_loop_product(H, H.T)) / 5, atol=1e-12)
        assert np.allclose(minus, triple_loop_product(U, H.T) / 5, atol=1e-12)

    def test_sup_matches_triple_loop(self):
        rng = np.random.default_rng(4)
        W = rng.random((3, 2))
        H = rng.random((2, 5))
        U = rng.random((3, 5))
        plus, minus = grad_parts_sup(W, U, H, 5)
        assert np.allclose(plus, triple_loop_product(W, triple_loop_product(H, H.T)) / 5, atol=1e-12)
        assert np.allclose(minus, triple_loop_product(U, H.T) / 5, atol=1e-12)

    def test_adv_zero_weight_and_zero_latents(self):
        W = np.ones((3, 2))
        plus, minus = grad_parts_adv(W, np.ones((3, 4)), np.ones((2, 4)), 0.0, 4)
        assert np.all(plus == 0) and np.all(minus == 0)
        plus, minus = grad_parts_adv(W, np.ones((3, 4)), np.zeros((2, 4)), 1.0, 4)
        assert np.all(plus == 0) and np.all(minus == 0)

    def test_adv_swaps_data_and_gram_roles(self):
        rng = np.random.default_rng(5)
        W = rng.random((3, 2))
        H = rng.random((2, 5))
        U = rng.random((3, 5))
        plus_s, minus_s = grad_parts_std(W, U, H, 5)
        plus_a, minus_a = grad_parts_adv(W, U, H, 1.0, 5)
        # the data product lands in the denominator side and vice versa
        assert np.allclose(plus_a, minus_s, rtol=1e-12)
        assert np.allclose(minus_a, plus_s, rtol=1e-12)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            grad_parts_std(np.ones((2, 1)), np.ones((2, 0)), np.ones((1, 0)), 0)
        with pytest.raises(ValueError):
            grad_parts_sup(np.ones((2, 1)), np.ones((2, 0)), np.ones((1, 0)), 0)


class TestUpdateBasis:
    def test_dnmf_uses_only_supervised_parts(self):
        rng = np.random.default_rng(6)
        W = rng.random((3, 2))
        sup = (rng.random((3, 2)), rng.random((3, 2)))
        garbage = (np.full((3, 2), 1e6), np.full((3, 2), 1e6))
        W1 = update_basis(W, garbage, garbage, sup, 1.0, 0.0)
        expected = W * sup[1] / (sup[0] + 1e-12)
        assert np.array_equal(W1, expected)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(7)
        W = rng.random((3, 2))
        parts = [(rng.random((3, 2)), rng.random((3, 2))) for _ in range(3)]
        tau_S, mu_W, eps = 0.3, 0.05, 1e-12
        W1 = update_basis(W, parts[0], parts[1], parts[2], tau_S, mu_W, eps)
        ref = np.zeros_like(W)
        for i in range(3):
            for j in range(2):
                num = (1 - tau_S) * (parts[0][1][i, j] + parts[1][1][i, j]) + tau_S * parts[2][1][i, j]
                den = (1 - tau_S) * (parts[0][0][i, j] + parts[1][0][i, j]) + tau_S * parts[2][0][i, j]
                ref[i, j] = W[i, j] * num / (den + mu_W + eps)
        assert np.allclose(W1, ref, rtol=1e-12)

    def test_zero_entries_stay_zero(self):
        rng = np.random.default_rng(8)
        W = rng.random((3, 2))
        W[0, 0] = 0.0
        parts = (rng.random((3, 2)), rng.random((3, 2)))
        W1 = update_basis(W, parts, None, None, 0.0, 0.0)
        assert W1[0, 0] == 0.0
        assert np.all(W1 >= 0)


class TestTrainSmu:
    def test_zero_epochs_returns_initialization(self):
        U = np.random.default_rng(0).random((6, 12))
        spec = make_spec(d=3, epochs=0, seed=5)
        state = train_smu([U], spec)
        W0 = init_exemplar(U, 3, [5, 1, 0])
        assert np.array_equal(as_array(state.bases[0]), W0)
        assert np.array_equal(as_array(state.latents_true[0]), np.ones((3, 12)))
        assert state.history == []

    def test_single_batch_reduces_to_plain_nmf(self):
        U = np.random.default_rng(1).random((8, 15))
        spec = make_spec(d=3, epochs=6, seed=2, batch_size=100)
        traj = plain_nmf_trajectory(U, 3, spec)
        for k in range(1, spec.epochs + 1):
            spec_k = make_spec(d=3, epochs=k, seed=2, batch_size=100)
            state = train_smu([U.copy()], spec_k)
            W_ref, H_ref = traj[k - 1]
            assert np.array_equal(as_array(state.bases[0]), W_ref)
            assert np.array_equal(as_array(state.latents_true[0]), H_ref)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        U = [rng.random((6, 20)), rng.random((6, 18))]
        adv_sets = [
            assemble_adversarial(i, U, None, default_omega([20, 18], 0), 1.0) for i in range(2)
        ]
        spec = make_spec(d=4, tau_A=0.1, epochs=5, batch_size=7, seed=9)
        s1 = train_smu([u.copy() for u in U], spec, adversarial=adv_sets)
        s2 = train_smu([u.copy() for u in U], spec, adversarial=adv_sets)
        for a, b in zip(s1.bases, s2.bases):
            assert np.array_equal(as_array(a), as_array(b))
        assert s1.history == s2.history

    def test_nonnegativity_after_training(self):
        rng = np.random.default_rng(4)
        U = [rng.random((5, 12)), rng.random((5, 10))]
        sup = ([rng.random((5, 8)), rng.random((5, 8))], None)
        sup = (sup[0], sup[0][0] + sup[0][1])
        adv_sets = [
            assemble_adversarial(i, U, sup[1], default_omega([12, 10], 8), 1.0) for i in range(2)
        ]
        spec = make_spec(d=3, tau_A=0.2, tau_S=0.4, epochs=8, batch_size=4, seed=1)
        state = train_smu(U, spec, adversarial=adv_sets, supervised=sup)
        for lst in (state.bases, state.latents_true, state.latents_adv):
            for x in lst:
                assert np.all(as_array(x) >= 0)
        assert np.all(as_array(state.latents_sup) >= 0)

    def test_dnmf_touches_only_supervised_parts(self, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("non-supervised gradient part computed")

        monkeypatch.setattr(training, "grad_parts_std", boom)
        monkeypatch.setattr(training, "grad_parts_adv", boom)
        rng = np.random.default_rng(5)
        sup_sources = [rng.random((5, 9)), rng.random((5, 9))]
        sup = (sup_sources, sup_sources[0] + sup_sources[1])
        spec = make_spec(d=2, tau_S=1.0, epochs=3, batch_size=4, seed=0, sample_anchor="supervised")
        state = train_smu([None, None], spec, supervised=sup)
        assert len(state.history) == 3

    @pytest.mark.parametrize("true_given", [True, False])
    def test_dnmf_initializes_from_true_data_else_supervised(self, true_given):
        rng = np.random.default_rng(12)
        U = [rng.random((5, 7)), rng.random((5, 6))]
        sup_sources = [rng.random((5, 4)), rng.random((5, 4))]
        sup = (sup_sources, sup_sources[0] + sup_sources[1])
        spec = make_spec(d=[2, 3], tau_S=1.0, epochs=0, seed=6)
        state = train_smu(U if true_given else [None, None], spec, supervised=sup)
        for i, source in enumerate(U if true_given else sup_sources):
            assert np.array_equal(as_array(state.bases[i]), init_exemplar(source, [2, 3][i], [6, 1, i]))

    def test_term_data_must_match_sources(self):
        U = [np.ones((3, 4)), np.ones((3, 4))]
        with pytest.raises(ValueError, match="adversarial data must cover every source"):
            train_smu(U, make_spec(d=2, tau_A=0.5, epochs=1), adversarial=[np.ones((3, 4))])
        sup = ([np.ones((3, 4)), np.ones((3, 5))], np.ones((3, 4)))
        with pytest.raises(ValueError, match="same column count"):
            train_smu(U, make_spec(d=2, tau_S=0.5, epochs=1), supervised=sup)

    def test_missing_required_term_named(self):
        U = [np.ones((3, 4))]
        with pytest.raises(ValueError, match="adversarial"):
            train_smu(U, make_spec(d=2, tau_A=0.5, epochs=1))
        with pytest.raises(ValueError, match="supervised"):
            train_smu(U, make_spec(d=2, tau_S=0.5, epochs=1))

    def test_anmf_objective_improves_on_separable_data(self):
        # two sources with disjoint supports; regression baseline run
        rng = np.random.default_rng(0)
        base1 = np.zeros((8, 2))
        base1[:4] = rng.random((4, 2))
        base2 = np.zeros((8, 2))
        base2[4:] = rng.random((4, 2))
        U = [
            np.maximum(base1 @ rng.random((2, 40)), 0),
            np.maximum(base2 @ rng.random((2, 40)), 0),
        ]
        adv_sets = [
            assemble_adversarial(i, U, None, default_omega([40, 40], 0), 1.0) for i in range(2)
        ]
        spec = make_spec(
            d=2, tau_A=0.1, epochs=50, batch_size=40, seed=3,
            sparsity=SparsityParams(1e-10, 1e-10),
        )
        state = train_smu(U, spec, adversarial=adv_sets)
        assert np.all(np.isfinite(state.history))
        assert state.history[-1] <= state.history[0]
        # true-data residual stays bounded
        for i in range(2):
            res = np.linalg.norm(U[i] - as_array(state.bases[i]) @ as_array(state.latents_true[i]))
            assert res < np.linalg.norm(U[i])


class TestObjective:
    def test_perfect_factorization_is_zero(self):
        rng = np.random.default_rng(6)
        W = rng.random((4, 2))
        H = rng.random((2, 10))
        U = W @ H
        spec = make_spec(d=2, epochs=0)
        state = train_smu([U], spec)
        state.bases[0].entries = W
        state.latents_true[0].entries = H
        per_source, total = objective(state, [U], spec)
        assert per_source[0] < 1e-20
        assert total < 1e-20

    def test_dominant_adversarial_term_goes_negative(self):
        rng = np.random.default_rng(7)
        W = rng.random((4, 2))
        Uhat = rng.random((4, 6))
        spec = make_spec(d=2, tau_A=50.0, epochs=0)
        state = train_smu([rng.random((4, 5))], spec, adversarial=[Uhat])
        # adversarial data nearly perfectly fitted, true data poorly
        state.bases[0].entries = W
        state.latents_true[0].entries = np.zeros((2, 5))
        h_hat = np.linalg.lstsq(W, Uhat, rcond=None)[0]
        state.latents_adv[0].entries = np.maximum(h_hat, 0)
        per_source, _ = objective(state, [rng.random((4, 5))], spec, adversarial=[Uhat])
        assert per_source[0] < 0

    @pytest.mark.parametrize("d", [2, [2, 3]], ids=["d2", "d2_3"])
    def test_matches_scalar_loop(self, d):
        rng = np.random.default_rng(8)
        U = [rng.random((4, 6)), rng.random((4, 5))]
        sup_sources = [rng.random((4, 3)), rng.random((4, 3))]
        sup = (sup_sources, sup_sources[0] + sup_sources[1])
        adv_sets = [rng.random((4, 7)), rng.random((4, 7))]
        spec = make_spec(
            d=d, tau_A=0.3, tau_S=0.4, gamma=[1.5, 0.5], epochs=2, batch_size=3, seed=0,
            sparsity=SparsityParams(0.01, 0.02),
        )
        state = train_smu(U, spec, adversarial=adv_sets, supervised=sup)
        per_source, total = objective(state, U, spec, adversarial=adv_sets, supervised=sup)

        def frob2(A):
            return sum(A[i, j] ** 2 for i in range(A.shape[0]) for j in range(A.shape[1]))

        w_true = 1 - spec.tau_S
        w_adv = w_true * spec.tau_A
        dims = spec.dims(2)
        row = 0
        for i in range(2):
            W = as_array(state.bases[i])
            H = as_array(state.latents_true[i])
            Hh = as_array(state.latents_adv[i])
            Hs = as_array(state.latents_sup)[row : row + dims[i]]
            row += dims[i]
            f = spec.sparsity.mu_W * np.sum(np.abs(W))
            f += w_true * frob2(U[i] - W @ H) / U[i].shape[1]
            f -= w_adv * frob2(adv_sets[i] - W @ Hh) / adv_sets[i].shape[1]
            f += spec.tau_S * frob2(sup_sources[i] - W @ Hs) / sup[1].shape[1]
            assert abs(per_source[i] - f) < 1e-10
        # the objective must match the shuffled state pairing, so compare
        # against the library's own aggregate too
        assert abs(total - np.dot([1.5, 0.5], per_source)) < 1e-12


class TestSemiSupervised:
    def test_known_source_explains_mix(self):
        rng = np.random.default_rng(9)
        W1 = rng.random((6, 3))
        H1 = rng.random((3, 30))
        V = W1 @ H1
        spec = make_spec(d=[3, 2], epochs=300, seed=4, sparsity=SparsityParams(0.0, 0.0))
        W2 = train_semisupervised(V, [W1], spec)
        from anmf.separation import separate

        res = separate(V, [W1, W2], P0, max_iter=2000)
        recon = res.raw[0] + res.raw[1]
        # the joint model reconstructs the representable mix well and the
        # known source takes the larger share
        assert np.linalg.norm(V - recon) <= 1e-3 * np.linalg.norm(V)
        assert np.linalg.norm(res.raw[0]) > np.linalg.norm(res.raw[1])

    def test_single_source_matches_plain_nmf(self):
        rng = np.random.default_rng(10)
        V = rng.random((6, 14))
        spec = make_spec(d=3, epochs=25, seed=7)
        W_semi = train_semisupervised(V, [], spec)
        state = train_smu([V.copy()], spec)
        assert np.allclose(W_semi, as_array(state.bases[0]), rtol=1e-8, atol=1e-10)

    def test_zero_epochs_returns_initial(self):
        V = np.random.default_rng(11).random((5, 9))
        spec = make_spec(d=2, epochs=0, seed=3)
        W = train_semisupervised(V, [np.ones((5, 2))], spec)
        assert np.array_equal(W, init_exemplar(V, 2, [3, 1, 1]))

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            train_semisupervised(np.zeros((4, 0)), [np.ones((4, 2))], make_spec(d=2))
