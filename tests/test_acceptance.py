"""Acceptance suite: property-based and trend checks for the full pipeline.

Each test is one criterion; the terminal summary (see conftest.py) prints
one PASS/FAIL line per criterion.
"""

import time
from unittest import mock

import numpy as np
import pytest

import anmf.training as training
from anmf.adversarial import WeightModel, adversarial_sets, compute_beta
from anmf.core import SparsityParams, as_array, cone_distance, update_latents
from anmf.features import StftConfig, apply_mask, stft, istft
from anmf.metrics import Choice, SearchSpace, cap_scores, psnr, random_search, si_sdr
from anmf.separation import separate, wiener_filter
from anmf.training import TrainSpec, grad_parts, train_smu, update_basis
from oracles import nnls_grid_1d, nnls_grid_2d, plain_nmf_trajectory

P0 = SparsityParams(0.0, 0.0)
PS = SparsityParams(1e-10, 1e-10)


def test_criterion_01_reduction_identities():
    """Single-batch trainer is bitwise a plain NMF loop; tau_S = 1 touches
    only supervised gradient parts. Runtime < 10 s."""
    t0 = time.perf_counter()
    U = np.random.default_rng(0).random((12, 30))
    spec = TrainSpec(d=4, epochs=8, batch_size=1000, seed=5, sparsity=PS)
    state = train_smu([U.copy()], spec)
    W_ref, H_ref = plain_nmf_trajectory(U, 4, spec)[-1]
    assert np.array_equal(as_array(state.bases[0]), W_ref)
    assert np.array_equal(as_array(state.latents_true[0]), H_ref)

    rng = np.random.default_rng(1)
    sup_sources = [rng.random((6, 10)), rng.random((6, 10))]
    sup = (sup_sources, sup_sources[0] + sup_sources[1])
    dspec = TrainSpec(d=2, tau_S=1.0, epochs=4, batch_size=5, seed=0, sparsity=PS)

    sup_columns = {tuple(c) for u in sup_sources for c in u.T}

    def supervised_only(W, U, H, weight):
        if any(tuple(c) not in sup_columns for c in U.T):
            raise AssertionError("non-supervised gradient part computed under tau_S = 1")
        return grad_parts(W, U, H, weight)

    with mock.patch.object(training, "grad_parts", supervised_only):
        dstate = train_smu([None, None], dspec, supervised=sup)
    assert len(dstate.history) == 4
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_fixed_points():
    """Exact factorizations are fixed points of both updates within 1e-12
    relative, over 100 seeded 8x3x12 instances."""
    # a negligible denominator floor so only the update map itself is tested
    p_exact = SparsityParams(0.0, 0.0, eps=1e-300)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        W = rng.random((8, 3))
        H = rng.random((3, 12))
        U = W @ H
        H1 = update_latents(H, W, U, p_exact)
        assert np.max(np.abs(H1 - H) / np.abs(H)) < 1e-12
        W1 = update_basis(W, *grad_parts(W, U, H, 1.0), 0.0, eps=1e-300)
        assert np.max(np.abs(W1 - W) / np.abs(W)) < 1e-12


def test_criterion_03_oracle_equivalence():
    """cone_distance and separate match grid-refinement NNLS oracles on
    d <= 2 instances within 1e-4; 200 instances, < 30 s."""
    t0 = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        d = 1 + seed % 2
        W = rng.random((4, d))
        u = rng.random(4)
        _, dist = cone_distance(W, u, P0, max_iter=5000, tol=1e-12)
        if d == 1:
            _, ref = nnls_grid_1d(W, u)
        else:
            _, ref = nnls_grid_2d(W, u)
        assert abs(dist - ref) < 1e-4, f"cone_distance off at seed {seed}"
        res = separate(u[:, None], [W], P0, max_iter=5000, tol=1e-12)
        sep_dist = float(np.linalg.norm(u - res.raw[0].ravel()))
        assert abs(sep_dist - ref) < 1e-4, f"separate off at seed {seed}"
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_wiener_conservation():
    """Filtered sources sum to the mix within 1e-12 wherever the
    denominator exceeds eps; 1000 random instances."""
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, 5))
        m, n = int(rng.integers(2, 10)), int(rng.integers(1, 8))
        v = rng.random((m, n))
        raw = [rng.random((m, n)) for _ in range(s)]
        # sprinkle exact zeros so some denominators fall below eps
        for r in raw:
            r[rng.random((m, n)) < 0.2] = 0.0
        out = wiener_filter(v, raw, eps=1e-12)
        denom = sum(raw)
        mask = denom > 1e-12
        total = sum(out)
        assert np.max(np.abs(total[mask] - v[mask])) < 1e-12


def test_criterion_05_adversarial_assembly():
    """Each source's adversarial set is the plain concatenation of the
    other sources and sqrt(beta) V, bitwise; deterministic beta matches hand
    computation for 20 weight vectors."""
    rng = np.random.default_rng(0)
    sources = [rng.random((6, 9)), rng.random((6, 7)), rng.random((6, 5))]
    mixes = rng.random((6, 4))
    wm = WeightModel(values=[0.5, 0.3, 0.2])
    sets, _ = adversarial_sets(sources, mixes, wm, seed=0)
    for i, out in enumerate(sets):
        beta = compute_beta(wm, i, seed=[0, 77, i])
        others = [u for j, u in enumerate(sources) if j != i]
        assert np.array_equal(out, np.concatenate([*others, np.sqrt(beta) * mixes], axis=1))

    for trial in range(20):
        trng = np.random.default_rng([1, trial])
        s = int(trng.integers(2, 5))
        a = trng.dirichlet(np.ones(s))
        wm = WeightModel(values=a)
        for i in range(s):
            gain = a[i] / sum(x * x for x in a)
            assert compute_beta(wm, i) == pytest.approx(gain * gain, rel=1e-12)


def test_criterion_06_monotone_history():
    """Full-batch standard-NMF objective history is non-increasing per
    epoch within 1e-9; 50 seeds on 10x4x50 data."""
    for seed in range(50):
        U = np.random.default_rng(seed).random((10, 50))
        spec = TrainSpec(d=4, epochs=15, batch_size=1000, seed=seed, sparsity=PS)
        state = train_smu([U], spec)
        h = np.asarray(state.history)
        assert np.all(np.diff(h) <= 1e-9), f"history increased at seed {seed}"


def _overlap_dataset(seed, m=24, n_shared=8, n_own=6, p_shared=0.4, p_own=0.25,
                     n_train=200, n_test=100):
    """Two sources drawing from dictionaries with a large shared block."""
    rng = np.random.default_rng([seed, 500])
    shared = rng.random((m, n_shared))
    d1 = np.concatenate([shared, rng.random((m, n_own))], axis=1)
    d2 = np.concatenate([shared, rng.random((m, n_own))], axis=1)

    def draw(D, n):
        probs = np.concatenate([np.full(n_shared, p_shared), np.full(n_own, p_own)])
        mask = rng.random((D.shape[1], n)) < probs[:, None]
        return D @ (mask * rng.random((D.shape[1], n)))

    return [draw(d1, n_train), draw(d2, n_train)], [draw(d1, n_test), draw(d2, n_test)]


def _train_and_score(seed, tau_A):
    train, test = _overlap_dataset(seed)
    spec = TrainSpec(d=16, tau_A=tau_A, epochs=200, batch_size=100, seed=seed, sparsity=PS)
    adv = None
    if tau_A > 0:
        mixes = 0.5 * train[0] + 0.5 * train[1]
        # equal mixing weights: naive-inversion gain is exactly 1, beta = 1
        adv = adversarial_sets(train, mixes, WeightModel.equal(2))[0]
    state = train_smu([u.copy() for u in train], spec, adversarial=adv)
    bases = [as_array(b) for b in state.bases]
    V = 0.5 * test[0] + 0.5 * test[1]
    truth = [0.5 * t for t in test]
    res = separate(V, bases, PS)
    peak = max(float(np.max(t)) for t in truth)
    medians = []
    for est, ref in zip(res.filtered, truth):
        scores = cap_scores([psnr(est[:, k], ref[:, k], peak) for k in range(est.shape[1])])
        medians.append(float(np.median(scores)))
    return float(np.mean(medians))


def test_criterion_07_anmf_beats_nmf():
    """On overlapping-dictionary data (200 train / 100 test, d = 16,
    tau_A = 0.1) adversarial training beats standard NMF: median test PSNR
    over 5 seeds is >= and strictly better on >= 4/5 seeds. < 2 min."""
    t0 = time.perf_counter()
    anmf_scores, nmf_scores = [], []
    for seed in range(5):
        anmf_scores.append(_train_and_score(seed, 0.1))
        nmf_scores.append(_train_and_score(seed, 0.0))
    wins = sum(a > n for a, n in zip(anmf_scores, nmf_scores))
    assert np.median(anmf_scores) >= np.median(nmf_scores)
    assert wins >= 4, f"adversarial training won only {wins}/5 seeds"
    assert time.perf_counter() - t0 < 120.0


def _tone(freqs, amps, phases, n, rate):
    t = np.arange(n) / rate
    x = sum(a * np.sin(2 * np.pi * f * t + p) for f, a, p in zip(freqs, amps, phases))
    return x / np.max(np.abs(x)) * 0.5


def test_criterion_08_audio_denoise():
    """STFT round trip < 1e-9; tone-plus-noise denoising at 0 dB input SNR
    improves SI-SDR by > 3 dB over the noisy input, 5 seeds, < 2 min."""
    t0 = time.perf_counter()
    x = np.random.default_rng(0).standard_normal(4096) * 0.3
    y = istft(stft(x), length=4096)
    assert np.max(np.abs(y - x)) < 1e-9

    rate = 8000
    cfg = StftConfig(n_fft=256, hop=64)
    for seed in range(5):
        rng = np.random.default_rng([seed, 800])
        freqs = rng.uniform(200, 2000, size=3)
        amps = rng.uniform(0.5, 1.0, size=3)
        clean_train = _tone(freqs, amps, rng.uniform(0, 2 * np.pi, 3), 16000, rate)
        noise_train = rng.standard_normal(16000) * 0.1
        clean_test = _tone(freqs, amps, rng.uniform(0, 2 * np.pi, 3), 8000, rate)
        noise_test = rng.standard_normal(8000)
        noise_test *= np.sqrt(np.sum(clean_test**2) / np.sum(noise_test**2))  # 0 dB SNR
        noisy = clean_test + noise_test

        spec = TrainSpec(d=8, epochs=50, batch_size=1000, seed=seed, sparsity=PS)
        W_clean = as_array(train_smu([np.abs(stft(clean_train, cfg))], spec).bases[0])
        W_noise = as_array(train_smu([np.abs(stft(noise_train, cfg))], spec).bases[0])
        mix_spec = stft(noisy, cfg)
        res = separate(np.abs(mix_spec), [W_clean, W_noise], PS)
        signals = apply_mask(mix_spec, res.raw, cfg, length=len(noisy))
        gain = si_sdr(signals[0], clean_test) - si_sdr(noisy, clean_test)
        assert gain > 3.0, f"seed {seed}: SI-SDR gain {gain:.2f} dB"
    assert time.perf_counter() - t0 < 120.0


def _per_epoch_times(sizes, reps=3, epochs=4):
    """Best per-epoch time at each column count.

    Each size is trained once untimed, and then the sizes alternate within
    every rep, so that a slow stretch of the machine cannot fall on one
    size alone. On a VM whose second vCPU sat idle, the first second or
    so of two-thread BLAS runs on one core: a 2000-column call took
    0.33 s instead of 0.04 s.
    """
    data = {n: np.random.default_rng(42).random((257, n)) for n in sizes}
    for U in data.values():
        train_smu([U.copy()], TrainSpec(d=64, epochs=epochs, batch_size=10**9, seed=0, sparsity=PS))
    best = dict.fromkeys(sizes, np.inf)
    for _ in range(reps):
        for n, U in data.items():
            spec = TrainSpec(d=64, epochs=epochs, batch_size=10**9, seed=0, sparsity=PS)
            t0 = time.perf_counter()
            train_smu([U.copy()], spec)
            elapsed = time.perf_counter() - t0
            spec0 = TrainSpec(d=64, epochs=0, batch_size=10**9, seed=0, sparsity=PS)
            t1 = time.perf_counter()
            train_smu([U.copy()], spec0)
            overhead = time.perf_counter() - t1
            best[n] = min(best[n], (elapsed - overhead) / epochs)
    return best


def test_criterion_09_linear_scaling():
    """Per-epoch runtime at m = 257, d = 64 scales linearly in the column
    count: the 2N/N ratio lies in [1.5, 3.0]."""
    best = _per_epoch_times((2000, 4000))
    ratio = best[4000] / best[2000]
    assert 1.5 <= ratio <= 3.0, f"scaling ratio {ratio:.2f}"


def test_criterion_10_tuning_selects_dominant():
    """random_search with 15 trials picks the dominant configuration on a
    constructed space; deterministic given seed."""
    rng = np.random.default_rng(0)
    W_true = rng.random((10, 3))
    U = W_true @ rng.random((3, 40))

    space = SearchSpace({"mu_H": Choice([1e-10, 5.0]), "epochs": Choice([0, 40])})

    def evaluate(params, train_idx, val_idx):
        spec = TrainSpec(
            d=3,
            epochs=int(params["epochs"]),
            batch_size=1000,
            seed=0,
            sparsity=SparsityParams(1e-10, params["mu_H"]),
        )
        state = train_smu([U.copy()], spec)
        res = separate(U, [as_array(state.bases[0])], SparsityParams(mu_H=params["mu_H"]))
        peak = float(np.max(U))
        scores = cap_scores([psnr(res.raw[0][:, k], U[:, k], peak) for k in range(U.shape[1])])
        return float(np.median(scores))

    a = random_search(space, 15, evaluate, seed=3, use_cv=False)
    b = random_search(space, 15, evaluate, seed=3, use_cv=False)
    assert a.best == b.best
    assert [t.params for t in a.trials] == [t.params for t in b.trials]
    # the dominant configuration (real training, tiny activation penalty)
    assert a.best_trial.params == {"mu_H": 1e-10, "epochs": 40}
    sampled = [t.params for t in a.trials]
    assert {"mu_H": 1e-10, "epochs": 40} in sampled
