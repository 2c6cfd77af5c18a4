import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import anmf.training as training
from anmf.adversarial import WeightModel, adversarial_sets
from anmf.core import SparsityParams, as_array, init_exemplar
from anmf.training import (
    TrainSpec,
    grad_parts,
    train_smu,
    update_basis,
)
from oracles import plain_nmf_trajectory, triple_loop_product

P0 = SparsityParams(0.0, 0.0)
REFERENCE_RUNS = Path(__file__).parent / "data" / "train_smu_reference.npz"
MINIBATCH_RUN = Path(__file__).parent / "data" / "train_smu_minibatch_reference.npz"


def make_spec(**kw):
    kw.setdefault("sparsity", P0)
    kw.setdefault("epochs", 10)
    kw.setdefault("batch_size", 1000)
    return TrainSpec(**kw)


def method_runs():
    """train_smu at gamma = 1 on one seeded data set, once per method.

    Returns {method: TrainState}. REFERENCE_RUNS holds these states as
    computed before the objective was expanded into m x d and d x d
    products, written by
    np.savez_compressed(REFERENCE_RUNS, **run_arrays(method_runs())) while
    TrainState also returned the adversarial and supervised latents.
    """
    rng = np.random.default_rng(21)
    U = [rng.random((8, 14)), rng.random((8, 12))]
    adv = [rng.random((8, 16)), rng.random((8, 11))]
    sup_sources = [rng.random((8, 9)), rng.random((8, 9))]
    sup = (sup_sources, sup_sources[0] + sup_sources[1])
    taus = {"nmf": {}, "anmf": {"tau_A": 0.2}, "dnmf": {"tau_S": 1.0}, "danmf": {"tau_A": 0.2, "tau_S": 0.5}}
    return {
        method: train_smu(
            U, make_spec(d=3, epochs=4, batch_size=5, seed=7, sparsity=SparsityParams(0.01, 0.02), **kw),
            adversarial=adv, supervised=sup,
        )
        for method, kw in taus.items()
    }


def run_arrays(states):
    """Flatten method_runs' states to the named arrays REFERENCE_RUNS stores."""
    out = {}
    for method, st in states.items():
        out[f"{method}/history"] = np.asarray(st.history)
        for kind in ("bases", "latents_true"):
            for i, x in enumerate(getattr(st, kind)):
                if x is not None:
                    out[f"{method}/{kind}/{i}"] = as_array(x)
    return out


def minibatch_run():
    """A seeded danmf train_smu run in several batches per epoch: the
    true-data anchor is sliced into batches of 7 and the adversarial and
    supervised terms are resampled to the same batch count.

    MINIBATCH_RUN holds its arrays as computed while train_smu still
    copied every term's data and latents into shuffled order each epoch,
    written by np.savez_compressed(MINIBATCH_RUN, **run_arrays({"danmf": minibatch_run()})).
    """
    rng = np.random.default_rng(40)
    U = [rng.random((8, 40)), rng.random((8, 40))]
    adv = [rng.random((8, 40)), rng.random((8, 40))]
    sup_sources = [rng.random((8, 40)), rng.random((8, 40))]
    sup = (sup_sources, sup_sources[0] + sup_sources[1])
    spec = make_spec(d=3, tau_A=0.2, tau_S=0.5, epochs=4, batch_size=7, seed=11,
                     sparsity=SparsityParams(0.01, 0.02))
    return train_smu(U, spec, adversarial=adv, supervised=sup)


def assert_matches_saved(now, path):
    """run_arrays output against a saved run: bases and latents bitwise,
    the history within rounding. The saved run's adversarial and supervised
    latents, which TrainState no longer returns, are the only keys skipped."""
    with np.load(path) as saved:
        assert set(now) <= set(saved.files)
        dropped = [k for k in saved.files if "/latents_adv/" in k or k.endswith("/latents_sup")]
        assert sorted(set(saved.files) - set(now)) == sorted(dropped)
        for key, x in now.items():
            if key.endswith("/history"):
                np.testing.assert_allclose(x, saved[key], rtol=1e-12, atol=0)
            else:
                np.testing.assert_array_equal(x, saved[key], err_msg=key)


@pytest.fixture
def basis_steps(monkeypatch):
    """Record train_smu's basis steps: per update_basis call, the
    grad_parts calls (args, result) since the previous one, the
    update_basis args and its result."""
    steps, parts = [], []

    def spy_parts(*args):
        out = grad_parts(*args)
        parts.append((args, out))
        return out

    def spy_update(*args):
        out = update_basis(*args)
        steps.append((parts[:], args, out))
        parts.clear()
        return out

    monkeypatch.setattr(training, "grad_parts", spy_parts)
    monkeypatch.setattr(training, "update_basis", spy_update)
    return steps


class TestGradParts:
    def test_zero_activations(self):
        W = np.random.default_rng(0).random((3, 2))
        U = np.random.default_rng(1).random((3, 5))
        plus, minus = grad_parts(W, U, np.zeros((2, 5)), 1.0)
        assert np.all(plus == 0) and np.all(minus == 0)

    def test_fixed_point_with_std_parts_only(self):
        rng = np.random.default_rng(2)
        W = rng.random((4, 2))
        H = rng.random((2, 6))
        U = W @ H
        W1 = update_basis(W, *grad_parts(W, U, H, 1.0), 0.0, 1e-12)
        assert np.allclose(W1, W, rtol=1e-12)

    def test_std_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        W = rng.random((3, 2))
        H = rng.random((2, 5))
        U = rng.random((3, 5))
        plus, minus = grad_parts(W, U, H, 1.0)
        assert np.allclose(plus, triple_loop_product(W, triple_loop_product(H, H.T)) / 5, atol=1e-12)
        assert np.allclose(minus, triple_loop_product(U, H.T) / 5, atol=1e-12)

    def test_sup_matches_triple_loop(self):
        # a supervised term carries its source's gamma as its weight
        rng = np.random.default_rng(4)
        W = rng.random((3, 2))
        H = rng.random((2, 5))
        U = rng.random((3, 5))
        plus, minus = grad_parts(W, U, H, 1.7)
        assert np.allclose(plus, 1.7 * triple_loop_product(W, triple_loop_product(H, H.T)) / 5, atol=1e-12)
        assert np.allclose(minus, 1.7 * triple_loop_product(U, H.T) / 5, atol=1e-12)

    def test_adv_zero_weight_and_zero_latents(self):
        W = np.ones((3, 2))
        plus, minus = grad_parts(W, np.ones((3, 4)), np.ones((2, 4)), 0.0)
        assert np.all(plus == 0) and np.all(minus == 0)
        plus, minus = grad_parts(W, np.ones((3, 4)), np.zeros((2, 4)), -1.0)
        assert np.all(plus == 0) and np.all(minus == 0)

    def test_adv_swaps_data_and_gram_roles(self):
        rng = np.random.default_rng(5)
        W = rng.random((3, 2))
        H = rng.random((2, 5))
        U = rng.random((3, 5))
        plus_s, minus_s = grad_parts(W, U, H, 0.4)
        plus_a, minus_a = grad_parts(W, U, H, -0.4)
        # the data product lands in the denominator side and vice versa
        assert np.array_equal(plus_a, minus_s)
        assert np.array_equal(minus_a, plus_s)

    def test_zero_count_rejected(self):
        for weight in (1.0, -1.0):
            with pytest.raises(ValueError, match="no columns"):
                grad_parts(np.ones((2, 1)), np.ones((2, 0)), np.ones((1, 0)), weight)

    def test_shape_mismatch_rejected(self):
        W, U, H = np.ones((3, 2)), np.ones((3, 4)), np.ones((2, 4))
        # a fault in H names H's shape, not W's and U's, which agree
        for args, message in (
            ((W, U[:2], H), r"grad_parts: incompatible shapes \(3, 2\) and \(2, 4\)"),
            ((W, U, H[:1]), r"grad_parts latents: shape \(1, 4\), need \(2, 4\)"),
            ((W, U, H[:, :3]), r"grad_parts latents: shape \(2, 3\), need \(2, 4\)"),
        ):
            with pytest.raises(ValueError, match=message):
                grad_parts(*args, 1.0)


class TestUpdateBasis:
    def test_dnmf_uses_only_supervised_parts(self, basis_steps):
        # true and adversarial data are given but inactive at tau_S = 1:
        # each step's parts are exactly one supervised batch's
        rng = np.random.default_rng(6)
        U = [rng.random((5, 8)), rng.random((5, 7))]
        sup_sources = [rng.random((5, 6)), rng.random((5, 6))]
        sup = (sup_sources, sup_sources[0] + sup_sources[1])
        adv_sets = adversarial_sets(U, None, WeightModel.equal(2))[0]
        spec = make_spec(d=2, tau_A=0.5, tau_S=1.0, epochs=2, batch_size=4, seed=3)
        train_smu(U, spec, adversarial=adv_sets, supervised=sup)
        sup_columns = {tuple(c) for u in sup_sources for c in u.T}
        assert len(basis_steps) == 2 * 2 * 2  # epochs x sources x batches
        for parts, (W, den, num, _, _), W1 in basis_steps:
            assert len(parts) == 1
            (_, U_b, _, _), (g_den, g_num) = parts[0]
            assert all(tuple(c) in sup_columns for c in U_b.T)
            assert np.array_equal(den, g_den) and np.array_equal(num, g_num)
            assert np.array_equal(W1, W * g_num / (g_den + 1e-12))

    def test_matches_scalar_loop(self, basis_steps):
        # the step weighs each term's parts by its weight (1, tau_A mirrored,
        # gamma_i), then blends them by 1 - tau_S and tau_S
        rng = np.random.default_rng(7)
        U = [rng.random((4, 6)), rng.random((4, 5))]
        sup_sources = [rng.random((4, 3)), rng.random((4, 3))]
        sup = (sup_sources, sup_sources[0] + sup_sources[1])
        adv_sets = adversarial_sets(U, sup[1], WeightModel.equal(2))[0]
        tau_A, tau_S, gamma, mu_W, eps = 0.2, 0.3, [1.7, 0.6], 0.05, 1e-12
        spec = make_spec(
            d=2, tau_A=tau_A, tau_S=tau_S, gamma=gamma, epochs=1, sparsity=SparsityParams(mu_W, 0.0, eps)
        )
        train_smu(U, spec, adversarial=adv_sets, supervised=sup)
        assert len(basis_steps) == 2
        for i, (parts, (W, den, num, _, _), W1) in enumerate(basis_steps):
            gram, data = [], []
            for (_, U_b, H_b, _), _ in parts:  # true, adversarial, supervised
                n = U_b.shape[1]
                gram.append(triple_loop_product(W, triple_loop_product(H_b, H_b.T)) / n)
                data.append(triple_loop_product(U_b, H_b.T) / n)
            ref_den, ref_num, ref = (np.zeros_like(W) for _ in range(3))
            w_sup = tau_S * gamma[i]
            for r in range(4):
                for c in range(2):
                    g, dt = [x[r, c] for x in gram], [x[r, c] for x in data]
                    ref_den[r, c] = (1 - tau_S) * (g[0] + tau_A * dt[1]) + w_sup * g[2]
                    ref_num[r, c] = (1 - tau_S) * (dt[0] + tau_A * g[1]) + w_sup * dt[2]
                    ref[r, c] = W[r, c] * ref_num[r, c] / (ref_den[r, c] + mu_W + eps)
            assert np.allclose(den, ref_den, rtol=1e-12, atol=0)
            assert np.allclose(num, ref_num, rtol=1e-12, atol=0)
            assert np.allclose(W1, ref, rtol=1e-12, atol=0)

    def test_zero_entries_stay_zero(self):
        rng = np.random.default_rng(8)
        W = rng.random((3, 2))
        W[0, 0] = 0.0
        W1 = update_basis(W, rng.random((3, 2)), rng.random((3, 2)), 0.0, 1e-12)
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
        adv_sets = adversarial_sets(U, None, WeightModel.equal(2))[0]
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
        adv_sets = adversarial_sets(U, sup[1], WeightModel.equal(2))[0]
        spec = make_spec(d=3, tau_A=0.2, tau_S=0.4, epochs=8, batch_size=4, seed=1)
        state = train_smu(U, spec, adversarial=adv_sets, supervised=sup)
        for lst in (state.bases, state.latents_true):
            for x in lst:
                assert np.all(as_array(x) >= 0)

    def test_dnmf_touches_only_supervised_parts(self, monkeypatch):
        rng = np.random.default_rng(5)
        sup_sources = [rng.random((5, 9)), rng.random((5, 9))]
        sup = (sup_sources, sup_sources[0] + sup_sources[1])
        sup_columns = {tuple(c) for u in sup_sources for c in u.T}
        calls = []

        def supervised_only(W, U, H, weight):
            if any(tuple(c) not in sup_columns for c in U.T):
                raise AssertionError("non-supervised gradient part computed")
            calls.append(weight)
            return grad_parts(W, U, H, weight)

        monkeypatch.setattr(training, "grad_parts", supervised_only)
        spec = make_spec(d=2, tau_S=1.0, epochs=3, batch_size=4, seed=0)
        state = train_smu([None, None], spec, supervised=sup)
        assert len(state.history) == 3
        assert len(calls) == 3 * 2 * 3  # epochs x sources x batches

    def test_matches_saved_run(self):
        # the history was recorded with the direct ||D - W L||^2
        assert_matches_saved(run_arrays(method_runs()), REFERENCE_RUNS)

    def test_matches_saved_minibatch_run(self):
        # batches gather through each term's column order, and match the
        # run that copied the data into shuffled order
        assert_matches_saved(run_arrays({"danmf": minibatch_run()}), MINIBATCH_RUN)

    def test_epochs_copy_no_data(self):
        # the data stay where they are: the peak working memory of a run at
        # the train benchmark's m and d is a small multiple of the latents
        # it returns, not a shuffled copy of every term per epoch
        rng = np.random.default_rng(17)
        m, d = 257, 32
        U = [rng.random((m, 2000)) for _ in range(2)]
        adv = [rng.random((m, 2500)) for _ in range(2)]
        sup_sources = [rng.random((m, 500)) for _ in range(2)]
        sup = (sup_sources, sup_sources[0] + sup_sources[1])
        spec = make_spec(d=d, tau_A=0.1, tau_S=0.5, epochs=2, batch_size=100, seed=3)
        tracemalloc.start()
        try:
            state = train_smu(U, spec, adversarial=adv, supervised=sup)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float64 latents of every term: d x N per source and term
        latent_bytes = 8 * d * sum(x.shape[1] for x in U + adv + sup_sources)
        assert peak < 4 * latent_bytes

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

    @pytest.mark.parametrize("run, message", [
        (lambda U: make_spec(tau_A=-0.1), "tau_A must be >= 0"),
        (lambda U: make_spec(tau_S=-0.1), r"tau_S must lie in \[0, 1\]"),
        (lambda U: make_spec(tau_S=1.5), r"tau_S must lie in \[0, 1\]"),
        (lambda U: make_spec(init="kmeans"), "unknown init mode 'kmeans'"),
        (lambda U: train_smu(U, make_spec(d=[2, 2, 2])), "need 2 latent dimensions, got 3"),
        (lambda U: train_smu(U, make_spec(gamma=[1.0])), "gamma must be a positive vector, one entry per source"),
        (lambda U: train_smu(U, make_spec(gamma=[1.0, 0.0])), "gamma must be a positive vector"),
        (lambda U: train_smu(None, make_spec()), "no training data given"),
        (lambda U: make_spec(tau_A=np.nan), "tau_A must be >= 0 and finite"),
        (lambda U: make_spec(tau_A=np.inf), "tau_A must be >= 0 and finite"),
        (lambda U: make_spec(tau_S=np.nan), r"tau_S must lie in \[0, 1\]"),
        (lambda U: train_smu(U, make_spec(gamma=[np.nan, 1.0])), "gamma must be a positive vector"),
        (lambda U: train_smu(U, make_spec(gamma=[1.0, np.inf])), "gamma must be a positive vector"),
    ], ids=["tau_A_negative", "tau_S_negative", "tau_S_above_1", "init_unknown", "d_per_source",
            "gamma_per_source", "gamma_zero", "no_data", "tau_A_nan", "tau_A_inf", "tau_S_nan",
            "gamma_nan", "gamma_inf"])
    def test_bad_arguments_named(self, run, message):
        U = [np.ones((3, 4)), np.ones((3, 4))]
        with pytest.raises(ValueError, match=message):
            run(U)

    def test_missing_required_term_named(self):
        U = [np.ones((3, 4))]
        with pytest.raises(ValueError, match="adversarial"):
            train_smu(U, make_spec(d=2, tau_A=0.5, epochs=1))
        with pytest.raises(ValueError, match="supervised"):
            train_smu(U, make_spec(d=2, tau_S=0.5, epochs=1))

    ENTRY_TERMS = ("true_data data of source 1", "adversarial data of source 1",
                   "supervised data of source 1", "supervised mix")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("term", ENTRY_TERMS, ids=["true_data", "adversarial", "supervised", "mix"])
    def test_bad_entries_in_active_term_named(self, term, bad):
        # random init and no epochs: only the entry check reads the data
        rng = np.random.default_rng(13)
        U = [rng.random((4, 5)), rng.random((4, 6))]
        adv_sets = [rng.random((4, 7)), rng.random((4, 3))]
        sup_sources = [rng.random((4, 4)), rng.random((4, 4))]
        mix = sup_sources[0] + sup_sources[1]
        data = dict(zip(self.ENTRY_TERMS, (U[1], adv_sets[1], sup_sources[1], mix)))
        data[term][2, 2] = bad
        spec = make_spec(d=2, tau_A=0.3, tau_S=0.5, epochs=0, init="random")
        with pytest.raises(ValueError, match=term):
            train_smu(U, spec, adversarial=adv_sets, supervised=(sup_sources, mix))

    def test_inactive_term_data_unchecked(self, basis_steps):
        # tau_A = tau_S = 0: the adversarial and supervised data are not read,
        # and the one batch's basis step sums the true-data term's parts alone
        U = [np.random.default_rng(14).random((4, 5))]
        spec = make_spec(d=2, epochs=1, init="random")
        state = train_smu(U, spec, adversarial=[np.full((4, 3), -1.0)],
                          supervised=([np.full((4, 3), np.nan)], np.full((4, 3), np.inf)))
        assert np.all(np.isfinite(as_array(state.bases[0])))
        assert [len(parts) for parts, _, _ in basis_steps] == [1]
        (_, data, _, weight), _ = basis_steps[0][0][0]
        assert data.shape == (4, 5) and weight == 1.0

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
        adv_sets = adversarial_sets(U, None, WeightModel.equal(2))[0]
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
    def test_missing_active_term_named(self):
        # train_smu's term table names an active term without data
        rng = np.random.default_rng(15)
        U = [rng.random((4, 5))]
        with pytest.raises(ValueError, match="adversarial term is active but its data is missing"):
            train_smu(U, make_spec(d=2, tau_A=0.5))
        with pytest.raises(ValueError, match="supervised term is active but its data is missing"):
            train_smu(U, make_spec(d=2, tau_S=0.5))
        with pytest.raises(ValueError, match="true_data term is active"):
            train_smu(None, make_spec(d=2), supervised=([rng.random((4, 5))], rng.random((4, 5))))

    @pytest.mark.parametrize("n_sources", [1, 2], ids=["one_source", "two_sources"])
    def test_history_is_objective_of_returned_state(self, n_sources):
        # the last history entry is the objective of the returned bases and
        # latents, each latent column paired with its data column: the
        # documented shuffle stream default_rng([seed, 0]) draws one
        # permutation per source per epoch, composed into the column order
        rng = np.random.default_rng(16)
        U = [rng.random((6, n)) for n in (23, 17)[:n_sources]]
        spec = make_spec(d=3, epochs=4, batch_size=5, seed=2, sparsity=SparsityParams(0.01, 0.02))
        state = train_smu(U, spec)
        shuffle = np.random.default_rng([spec.seed, 0])
        order = [np.arange(u.shape[1]) for u in U]
        for _ in range(spec.epochs):
            for i in range(n_sources):
                order[i] = order[i][shuffle.permutation(len(order[i]))]
        total = 0.0
        for i, u in enumerate(U):
            W = as_array(state.bases[i])
            total += spec.sparsity.mu_W * np.sum(np.abs(W))
            total += np.linalg.norm(u[:, order[i]] - W @ as_array(state.latents_true[i])) ** 2 / u.shape[1]
        assert len(state.history) == spec.epochs
        np.testing.assert_allclose(state.history[-1], total, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [3, [3, 5]], ids=["d3", "d3_5"])
    def test_expansion_matches_direct_form(self, d, order):
        # the history's fits, from m x d and d x d products, against the
        # direct ||D - W L||^2; the adversarial weight is negative
        tau_A, tau_S, gamma, mu_W = 0.4, 0.3, [1.7, 0.6], 0.01
        spec = make_spec(d=d, tau_A=tau_A, tau_S=tau_S, gamma=gamma, sparsity=SparsityParams(mu_W, 0.02))
        dims = spec.dims(2)
        cols = {"true_data": (40, 33), "adversarial": (57, 21), "supervised": (25, 25)}
        rng = np.random.default_rng(10)
        for _ in range(3):
            W = [rng.random((20, k)) for k in dims]
            D = {t: [np.asarray(rng.random((20, n)), order=order) for n in ns] for t, ns in cols.items()}
            L = {t: [np.asarray(rng.random((k, n)), order=order) for k, n in zip(dims, ns)] for t, ns in cols.items()}
            got = training._objective_arrays(
                W, D, L, training._term_weights(spec, 2), mu_W, training._sq_norms(D)
            )
            for i in range(2):
                scale = {"true_data": 1 - tau_S, "adversarial": -(1 - tau_S) * tau_A, "supervised": tau_S * gamma[i]}
                ref = mu_W * np.sum(np.abs(W[i]))
                for t in cols:
                    ref += scale[t] * np.linalg.norm(D[t][i] - W[i] @ L[t][i]) ** 2 / cols[t][i]
                np.testing.assert_allclose(got[i], ref, rtol=1e-12)

    def test_near_perfect_fit_falls_back_to_direct_form(self):
        # the expansion loses ~1e-16 ||D||^2 to rounding, more than these fits
        rng = np.random.default_rng(12)
        W, L = [rng.random((30, 4))], {"true_data": [rng.random((4, 50))]}
        weight = training._term_weights(make_spec(d=4), 1)
        for noise in (0.0, 1e-9):
            D = {"true_data": [W[0] @ L["true_data"][0] + noise * rng.random((30, 50))]}
            got = training._objective_arrays(W, D, L, weight, 0.0, training._sq_norms(D))
            direct = np.linalg.norm(D["true_data"][0] - W[0] @ L["true_data"][0]) ** 2 / 50
            np.testing.assert_allclose(got, [direct], rtol=1e-12, atol=0)

    def test_forms_no_m_by_n_array(self):
        # at the train benchmark's sizes the objective's working memory
        # stays below a single m x N float64 array
        m, n, d = 257, 5000, 64
        rng = np.random.default_rng(11)
        U = rng.random((m, n))
        W, D, L = [rng.random((m, d))], {"true_data": [U]}, {"true_data": [rng.random((d, n))]}
        weight = training._term_weights(make_spec(d=d), 1)
        tracemalloc.start()
        try:
            per_source = training._objective_arrays(W, D, L, weight, 0.0, training._sq_norms(D))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert per_source[0] * n > 1e-8 * np.linalg.norm(U) ** 2  # no direct-form fallback
        assert peak < U.nbytes

