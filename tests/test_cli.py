import csv
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import anmf.adversarial
import anmf.cli
import anmf.features
import anmf.separation
from anmf import metrics
from anmf.adversarial import WeightModel, adversarial_sets, compute_beta
from anmf.cli import build_train_spec, run_cli, score_separation
from anmf.core import SparsityParams, solve_nnls
from anmf.features import StftConfig, apply_gain, istft, stft
from anmf.io import load_bundle, load_wav, read_matrix, save_bundle, write_matrix, write_wav
from anmf.separation import separate, wiener_mask
from anmf.training import TrainSpec, train_smu
from oracles import float32_wav_bytes


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def make_sources(tmp_path, rng, m=8, n=30, s=2, prefix="src"):
    paths = []
    for i in range(s):
        mat = rng.random((m, n))
        p = tmp_path / f"{prefix}_{i}.anmf"
        write_matrix(p, mat)
        paths.append(str(p))
    return paths


class TestBuildTrainSpec:
    def test_method_consistency(self):
        assert build_train_spec({"tau_A": 0.5}, "nmf").tau_A == 0.0
        assert build_train_spec({}, "dnmf").tau_S == 1.0
        assert build_train_spec({}, "anmf").tau_A == 0.1
        spec = build_train_spec({"tau_A": 0.2, "tau_S": 0.3}, "danmf")
        assert (spec.tau_A, spec.tau_S) == (0.2, 0.3)

    def test_enmf_skips_updates(self):
        spec = build_train_spec({"epochs": 50}, "enmf")
        assert spec.epochs == 0
        assert spec.init == "exemplar"

    def test_anmf_requires_positive_tau(self):
        with pytest.raises(ValueError, match=r"^anmf needs tau_A > 0$"):
            build_train_spec({"tau_A": 0.0}, "anmf")

    def test_overrides_win(self):
        spec = build_train_spec({"mu_W": 1e-3}, "nmf", overrides={"mu_W": 1e-5})
        assert spec.sparsity.mu_W == 1e-5

    def test_seed_argument_beats_config(self):
        assert build_train_spec({"seed": 3}, "nmf", seed=9).seed == 9

    def test_unset_keys_take_trainspec_defaults(self):
        assert build_train_spec({}, "nmf") == TrainSpec()

    @pytest.mark.parametrize("command, edit, named", [
        ("train", lambda c: c["train"].update(tau_s=0.9, epoch=5), "train keys: epoch, tau_s"),
        ("tune", lambda c: c["tuning"]["space"].update(mu_h={"type": "choice", "options": [1e-5]}),
         "tuning.space keys: mu_h"),
    ], ids=["block", "overrides"])
    def test_misspelt_keys_rejected(self, tmp_path, monkeypatch, command, edit, named, capsys):
        # build_train_spec's keys come from the train block and, in tune, the
        # tuning space's overrides; the CLI checks both where it reads them
        cfg = {**TestErrors._configs(tmp_path)[command], "method": "danmf"}
        edit(cfg)
        path = write_config(tmp_path, "c.json", cfg)
        monkeypatch.setattr(anmf.cli, "train_smu", lambda *a, **k: pytest.fail("a model was trained"))
        assert run_cli([command, "--config", path]) == 1
        assert capsys.readouterr().err.splitlines() == [f"anmf: error: {path}: unknown {named}"]


class TestScoreSeparation:
    def test_degenerate_estimate_keeps_score_finite(self):
        # an all-zero estimate has SI-SDR -inf; capped, a zero weight on it
        # still gives a finite weighted score (0 * -inf would be NaN)
        ref = np.random.default_rng(1).random((4, 3))
        assert score_separation([np.zeros((4, 3)), ref], [ref, ref], "sisdr", [0.0, 1.0]) == 100.0

    def test_weighted_median(self):
        est = [np.zeros((4, 3)), np.zeros((4, 3))]
        ref = [np.zeros((4, 3)), np.full((4, 3), 0.5)]
        # source 0 matches exactly (capped to 100), source 1 at 6.02 dB
        score = score_separation(est, ref, "psnr", [0.5, 0.5])
        assert abs(score - 0.5 * (100.0 + 10 * np.log10(4))) < 1e-9


class TestPipeline:
    def test_mix_train_separate_eval(self, tmp_path):
        rng = np.random.default_rng(0)
        src_paths = make_sources(tmp_path, rng)
        mix_cfg = write_config(
            tmp_path,
            "mix.json",
            {
                "sources": src_paths,
                "weight_model": {"mode": "deterministic", "values": [0.5, 0.5]},
                "output": {
                    "mix": str(tmp_path / "mix.anmf"),
                    "ground_truth": [str(tmp_path / "gt_0.anmf"), str(tmp_path / "gt_1.anmf")],
                    "weights": str(tmp_path / "weights.json"),
                },
            },
        )
        assert run_cli(["mix", "--config", mix_cfg]) == 0
        mix = read_matrix(tmp_path / "mix.anmf")
        gt0 = read_matrix(tmp_path / "gt_0.anmf")
        gt1 = read_matrix(tmp_path / "gt_1.anmf")
        assert np.allclose(mix, gt0 + gt1)

        train_cfg = write_config(
            tmp_path,
            "train.json",
            {
                "method": "nmf",
                "data": {"sources": src_paths},
                "train": {"d": 4, "epochs": 30, "batch_size": 100},
                "output": str(tmp_path / "model"),
            },
        )
        assert run_cli(["train", "--config", train_cfg, "--seed", "1"]) == 0
        bundle = load_bundle(tmp_path / "model")
        assert bundle.manifest["metadata"]["method"] == "nmf"
        assert len(bundle.manifest["history"]) == 30

        assert (
            run_cli(
                [
                    "separate",
                    "--model",
                    str(tmp_path / "model"),
                    "--input",
                    str(tmp_path / "mix.anmf"),
                    "--output-dir",
                    str(tmp_path / "sep"),
                    "--references",
                    str(tmp_path / "gt_0.anmf"),
                    str(tmp_path / "gt_1.anmf"),
                ]
            )
            == 0
        )
        est0 = read_matrix(tmp_path / "sep" / "source_000.anmf")
        est1 = read_matrix(tmp_path / "sep" / "source_001.anmf")
        assert np.allclose(est0 + est1, mix, atol=1e-9)
        with open(tmp_path / "sep" / "metrics.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["sample_index", "source", "metric", "value"]
        assert len(rows) == 1 + 2 * mix.shape[1]

        assert (
            run_cli(
                [
                    "eval",
                    "--estimates",
                    str(tmp_path / "sep" / "source_000.anmf"),
                    "--references",
                    str(tmp_path / "gt_0.anmf"),
                    "--output",
                    str(tmp_path / "eval.csv"),
                ]
            )
            == 0
        )
        with open(tmp_path / "eval.csv") as f:
            rows = list(csv.reader(f))
        labels = [r[0] for r in rows[1:]]
        assert "median" in labels and "bootstrap_se" in labels

    def test_enmf_bundle_is_exemplar_snapshot(self, tmp_path):
        rng = np.random.default_rng(1)
        src_paths = make_sources(tmp_path, rng, s=1)
        cfg = write_config(
            tmp_path,
            "train.json",
            {
                "method": "enmf",
                "data": {"sources": src_paths},
                "train": {"d": 5, "epochs": 99},
                "output": str(tmp_path / "model"),
            },
        )
        assert run_cli(["train", "--config", cfg, "--seed", "3"]) == 0
        bundle = load_bundle(tmp_path / "model")
        source = read_matrix(src_paths[0])
        W = bundle.bases[0].entries
        # every exemplar column is an actual data column
        for j in range(W.shape[1]):
            assert any(np.array_equal(W[:, j], source[:, k]) for k in range(source.shape[1]))
        assert bundle.manifest["history"] == []

    def test_eval_sentinel_capped(self, tmp_path):
        mat = np.random.default_rng(2).random((4, 5))
        write_matrix(tmp_path / "a.anmf", mat)
        assert (
            run_cli(
                [
                    "eval",
                    "--estimates",
                    str(tmp_path / "a.anmf"),
                    "--references",
                    str(tmp_path / "a.anmf"),
                    "--output",
                    str(tmp_path / "out.csv"),
                ]
            )
            == 0
        )
        with open(tmp_path / "out.csv") as f:
            rows = list(csv.reader(f))
        per_sample = [float(r[3]) for r in rows[1:] if r[0] not in ("median", "bootstrap_se")]
        assert all(v == 100.0 for v in per_sample)

    def test_separate_caps_sentinel(self, tmp_path):
        # an all-zero mix column gives an all-zero estimate, whose SI-SDR is
        # -inf; metrics.csv holds the floor -100, as eval writes
        rng = np.random.default_rng(5)
        save_bundle(tmp_path / "model", [rng.random((4, 2)), rng.random((4, 2))])
        mix = rng.random((4, 3))
        mix[:, 1] = 0.0
        write_matrix(tmp_path / "mix.anmf", mix)
        refs = make_sources(tmp_path, rng, m=4, n=3)
        assert run_cli(["separate", "--model", str(tmp_path / "model"), "--input", str(tmp_path / "mix.anmf"),
                        "--output-dir", str(tmp_path / "sep"), "--metric", "sisdr", "--references", *refs]) == 0
        with open(tmp_path / "sep" / "metrics.csv") as f:
            values = {(r[0], r[1]): float(r[3]) for r in list(csv.reader(f))[1:]}
        assert values[("1", "0")] == values[("1", "1")] == -100.0
        assert all(-100.0 <= v <= 100.0 for v in values.values())

    def test_separate_clip_writes_and_scores_clipped_sources(self, tmp_path):
        rng = np.random.default_rng(12)
        save_bundle(tmp_path / "model", [rng.random((6, 2)), rng.random((6, 2))])
        # entries up to 2 put part of each estimate above the peak of 1
        write_matrix(tmp_path / "mix.anmf", 2.0 * rng.random((6, 7)))
        refs = make_sources(tmp_path, rng, m=6, n=7)
        argv = ["separate", "--model", str(tmp_path / "model"), "--input", str(tmp_path / "mix.anmf"),
                "--references", *refs, "--output-dir"]
        assert run_cli(argv + [str(tmp_path / "plain")]) == 0
        assert run_cli(argv + [str(tmp_path / "clip"), "--clip"]) == 0
        for i, ref in enumerate(refs):
            plain = read_matrix(tmp_path / "plain" / f"source_{i:03d}.anmf")
            clipped = read_matrix(tmp_path / "clip" / f"source_{i:03d}.anmf")
            assert plain.max() > 1.0
            assert np.array_equal(clipped, np.clip(plain, 0.0, 1.0))
            with open(tmp_path / "clip" / "metrics.csv") as f:
                scores = [float(r[3]) for r in list(csv.reader(f))[1:] if r[1] == str(i)]
            ref = read_matrix(ref)
            assert scores == metrics.cap_scores([metrics.psnr(clipped[:, k], ref[:, k]) for k in range(7)])

    def test_denoise_wav(self, tmp_path):
        rng = np.random.default_rng(3)
        t = np.arange(4096) / 16000.0
        clean = 0.4 * np.sin(2 * np.pi * 440.0 * t)
        noisy = clean + 0.05 * rng.standard_normal(len(t))
        write_wav(tmp_path / "noisy.wav", noisy, 16000)
        write_wav(tmp_path / "clean.wav", clean, 16000)
        # train a small basis on the clean magnitude
        from anmf.features import StftConfig, stft

        spec = stft(clean, StftConfig())
        from anmf.training import TrainSpec, train_smu
        from anmf.core import SparsityParams, as_array

        state = train_smu(
            [np.abs(spec)],
            TrainSpec(d=4, epochs=30, batch_size=100, seed=0, sparsity=SparsityParams(0, 0)),
        )
        save_bundle(tmp_path / "model", [as_array(state.bases[0])])
        assert (
            run_cli(
                [
                    "denoise",
                    "--model",
                    str(tmp_path / "model"),
                    "--input",
                    str(tmp_path / "noisy.wav"),
                    "--output",
                    str(tmp_path / "out.wav"),
                    "--reference",
                    str(tmp_path / "clean.wav"),
                    "--mode",
                    "project",
                ]
            )
            == 0
        )
        with open(tmp_path / "out.csv") as f:
            rows = list(csv.reader(f))
        scores = {r[1]: float(r[3]) for r in rows[1:]}
        assert scores["0"] > scores["input"]

    @pytest.mark.parametrize("method, taus", [("anmf", {"tau_A": 0.2}), ("danmf", {"tau_A": 0.2, "tau_S": 0.4})])
    def test_adversarial_bundle_matches_library(self, tmp_path, method, taus):
        # the CLI's adversarial sets are the other source, then the mix times
        # sqrt(beta_i), with compute_beta seeded [seed, 77, i]
        rng = np.random.default_rng(7)
        src_paths = make_sources(tmp_path, rng)
        sup_paths = make_sources(tmp_path, rng, n=12, prefix="sup")
        sources, sup_sources = [read_matrix(p) for p in src_paths], [read_matrix(p) for p in sup_paths]
        write_matrix(tmp_path / "mix.anmf", rng.random((8, 25)))
        write_matrix(tmp_path / "sup_mix.anmf", sum(sup_sources))
        # read back, so the arrays have the layout the CLI reads them in
        mix = read_matrix(tmp_path / "mix.anmf")
        wm = {"mode": "dirichlet", "concentration": [1.0, 2.0], "mc_samples": 500}
        cfg = write_config(tmp_path, "train.json", {
            "method": method, "weight_model": wm,
            "data": {"sources": src_paths, "mixes": str(tmp_path / "mix.anmf"),
                     "supervised": {"sources": sup_paths, "mix": str(tmp_path / "sup_mix.anmf")}},
            "train": {"d": 3, "epochs": 6, "batch_size": 10, **taus},
            "output": str(tmp_path / "model"),
        })
        assert run_cli(["train", "--config", cfg, "--seed", "5"]) == 0
        bundle = load_bundle(tmp_path / "model")

        model = WeightModel(mode="dirichlet", concentration=[1.0, 2.0], mc_samples=500)
        sets = [np.concatenate([sources[1 - i], np.sqrt(compute_beta(model, i, seed=[5, 77, i])) * mix], axis=1)
                for i in range(2)]
        spec = TrainSpec(d=3, epochs=6, batch_size=10, seed=5, **taus)
        state = train_smu(sources, spec, adversarial=sets, supervised=(sup_sources, sum(sup_sources)))
        for got, want in zip(bundle.bases, state.bases):
            assert np.array_equal(got.entries, want)
        assert bundle.manifest["history"] == state.history

    def test_dnmf_trains_from_supervised_data_alone(self, tmp_path):
        rng = np.random.default_rng(8)
        sup_paths = make_sources(tmp_path, rng, n=12, prefix="sup")
        sup_sources = [read_matrix(p) for p in sup_paths]
        write_matrix(tmp_path / "sup_mix.anmf", sum(sup_sources))
        cfg = write_config(tmp_path, "train.json", {
            "method": "dnmf",
            "data": {"supervised": {"sources": sup_paths, "mix": str(tmp_path / "sup_mix.anmf")}},
            "train": {"d": 3, "epochs": 5, "batch_size": 5},
            "output": str(tmp_path / "model"),
        })
        assert run_cli(["train", "--config", cfg, "--seed", "2"]) == 0
        bundle = load_bundle(tmp_path / "model")
        spec = TrainSpec(d=3, tau_S=1.0, epochs=5, batch_size=5, seed=2)
        state = train_smu(None, spec, supervised=(sup_sources, sum(sup_sources)))
        for got, want in zip(bundle.bases, state.bases):
            assert np.array_equal(got.entries, want)
        assert bundle.manifest["history"] == state.history

    def test_tune_cross_validates_dnmf(self, tmp_path):
        rng = np.random.default_rng(9)
        sup = make_sources(tmp_path, rng, n=12, prefix="sup")
        write_matrix(tmp_path / "sup_mix.anmf", sum(read_matrix(p) for p in sup))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "tune.json", {
            "method": "dnmf",
            "data": {"supervised": {"sources": sup, "mix": str(tmp_path / "sup_mix.anmf")}},
            "train": {"d": 2, "epochs": 3, "batch_size": 4},
            "tuning": {"trials": 3, "folds": 3, "space": {
                "mu_W": {"type": "log_uniform", "lo": 1e-6, "hi": 1e-2},
                "mu_H": {"type": "uniform", "lo": 0.0, "hi": 1e-3},
            }},
            "output": str(out),
        })
        assert run_cli(["tune", "--config", cfg, "--seed", "3"]) == 0
        trials = json.loads((out / "tune_result.json").read_text())["trials"]
        assert len(trials) == 3
        for t in trials:
            assert t["error"] is None and len(t["fold_scores"]) == 3
            assert 1e-6 <= t["params"]["mu_W"] <= 1e-2 and 0.0 <= t["params"]["mu_H"] <= 1e-3
        assert load_bundle(out / "best_model").manifest["metadata"]["method"] == "dnmf"

    @staticmethod
    def _tone(tmp_path, n_fft=512):
        # a 440 Hz tone in white noise at 16 kHz, its clean reference, and a basis
        # trained on the clean magnitude at n_fft
        rng = np.random.default_rng(10)
        t = np.arange(8192) / 16000.0
        clean = 0.4 * np.sin(2 * np.pi * 440.0 * t)
        write_wav(tmp_path / "noisy.wav", clean + 0.05 * rng.standard_normal(len(t)), 16000)
        write_wav(tmp_path / "clean.wav", clean, 16000)
        spec = TrainSpec(d=4, epochs=30, seed=0, sparsity=SparsityParams(0, 0))
        return train_smu([np.abs(stft(clean, StftConfig(n_fft=n_fft)))], spec).bases[0]

    def test_denoise_default_mode_projects_one_basis(self, tmp_path):
        save_bundle(tmp_path / "model", [self._tone(tmp_path)])
        assert run_cli(["denoise", "--model", str(tmp_path / "model"), "--input", str(tmp_path / "noisy.wav"),
                        "--output", str(tmp_path / "out.wav"), "--reference", str(tmp_path / "clean.wav")]) == 0
        with open(tmp_path / "out.csv") as f:
            scores = {r[1]: float(r[3]) for r in list(csv.reader(f))[1:]}
        assert scores["0"] > scores["input"] + 1.0

    def test_denoise_separate_masks_raw_fits_without_filtering(self, tmp_path, monkeypatch):
        bases = [self._tone(tmp_path), np.random.default_rng(11).random((257, 3))]
        save_bundle(tmp_path / "model", bases)
        # the speech mask from separate's raw reconstructions, applied to
        # the mix spectrum: what denoise --mode separate has always written
        samples, rate = load_wav(tmp_path / "noisy.wav")
        spec = stft(samples, StftConfig())
        raw = separate(np.abs(spec), bases, SparsityParams(mu_H=1e-10), max_iter=40).raw
        apply_gain(spec, wiener_mask(raw[0], sum(raw), 2))
        write_wav(tmp_path / "want.wav", istft(spec, length=len(samples)), rate)

        calls = []
        monkeypatch.setattr(anmf.separation, "wiener_filter", lambda *a: calls.append(a))
        argv = ["denoise", "--model", str(tmp_path / "model"), "--input", str(tmp_path / "noisy.wav"),
                "--max-iter", "40", "--output"]
        for name, mode in (("explicit.wav", ["--mode", "separate"]), ("default.wav", [])):
            assert run_cli(argv + [str(tmp_path / name)] + mode) == 0
            assert (tmp_path / name).read_bytes() == (tmp_path / "want.wav").read_bytes()
        assert calls == []

    def test_denoise_project_masks_one_basis_fit_against_its_residual(self, tmp_path):
        save_bundle(tmp_path / "model", [self._tone(tmp_path)])
        W = read_matrix(tmp_path / "model" / "basis_000.anmf")
        # the speech mask from the basis's own fit, with the clipped residual
        # as the noise: what denoise --mode project has always written
        samples, rate = load_wav(tmp_path / "noisy.wav")
        spec = stft(samples, StftConfig())
        mag = np.abs(spec)
        speech = W @ solve_nnls(mag, W, SparsityParams(mu_H=1e-10), max_iter=40)
        noise = np.maximum(mag - speech, 0.0)
        apply_gain(spec, wiener_mask(speech, speech + noise, 2))
        write_wav(tmp_path / "want.wav", istft(spec, length=len(samples)), rate)

        argv = ["denoise", "--model", str(tmp_path / "model"), "--input", str(tmp_path / "noisy.wav"),
                "--max-iter", "40", "--output"]
        for name, mode in (("explicit.wav", ["--mode", "project"]), ("default.wav", [])):
            assert run_cli(argv + [str(tmp_path / name)] + mode) == 0
            assert (tmp_path / name).read_bytes() == (tmp_path / "want.wav").read_bytes()

    def test_denoise_takes_n_fft_from_model_rows(self, tmp_path):
        # a basis of n_fft 256 magnitudes has 129 rows, so denoise transforms at n_fft 256
        save_bundle(tmp_path / "model", [self._tone(tmp_path, n_fft=256)])
        W = read_matrix(tmp_path / "model" / "basis_000.anmf")
        assert W.shape[0] == 129
        cfg = StftConfig(n_fft=256)
        samples, rate = load_wav(tmp_path / "noisy.wav")
        spec = stft(samples, cfg)
        mag = np.abs(spec)
        speech = W @ solve_nnls(mag, W, SparsityParams(mu_H=1e-10), max_iter=40)
        apply_gain(spec, wiener_mask(speech, speech + np.maximum(mag - speech, 0.0), 2))
        write_wav(tmp_path / "want.wav", istft(spec, cfg, length=len(samples)), rate)

        assert run_cli(["denoise", "--model", str(tmp_path / "model"), "--input", str(tmp_path / "noisy.wav"),
                        "--max-iter", "40", "--output", str(tmp_path / "out.wav")]) == 0
        assert (tmp_path / "out.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()

    def test_features_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        x = np.clip(0.2 * rng.standard_normal(2048), -0.99, 0.99)
        write_wav(tmp_path / "x.wav", x, 16000)
        prefix = str(tmp_path / "feat")
        assert run_cli(["features", "--input", str(tmp_path / "x.wav"), "--output-prefix", prefix]) == 0
        assert run_cli(["synth", "--input-prefix", prefix, "--output", str(tmp_path / "y.wav")]) == 0
        # the keys every .cfg.json has carried, whatever the transform reads of them
        assert json.loads((tmp_path / "feat.cfg.json").read_text()) == {
            "n_fft": 512, "hop": 128, "window": "hann", "sample_rate": 16000, "length": 2048}
        y, rate = load_wav(tmp_path / "y.wav")
        assert rate == 16000
        n = min(len(x), len(y))
        # one quantization round trip of error
        assert np.max(np.abs(y[:n] - x[:n])) <= 1.0 / 32768.0 + 1e-9

    def test_features_hop_follows_n_fft(self, tmp_path):
        # at n_fft 128 the hop is 32: with no overlap (hop 128) the periodic Hann
        # window, 0 at each frame's first sample, would lose those samples
        x = np.clip(0.2 * np.random.default_rng(5).standard_normal(16000), -0.99, 0.99)
        write_wav(tmp_path / "x.wav", x, 16000)
        prefix = str(tmp_path / "feat")
        assert run_cli(["features", "--input", str(tmp_path / "x.wav"), "--output-prefix", prefix,
                        "--n-fft", "128"]) == 0
        assert json.loads((tmp_path / "feat.cfg.json").read_text())["hop"] == 32
        assert run_cli(["synth", "--input-prefix", prefix, "--output", str(tmp_path / "y.wav")]) == 0
        (x_pcm, _), (y_pcm, _) = load_wav(tmp_path / "x.wav"), load_wav(tmp_path / "y.wav")
        assert np.array_equal(x_pcm, y_pcm)

    def test_denoise_small_n_fft_model(self, tmp_path):
        # a basis of 33 rows is n_fft 64, transformed at hop 16: the input comes back
        # nearly whole when the basis explains it
        save_bundle(tmp_path / "model", [self._tone(tmp_path, n_fft=64)])
        assert run_cli(["denoise", "--model", str(tmp_path / "model"), "--input", str(tmp_path / "clean.wav"),
                        "--output", str(tmp_path / "out.wav"), "--reference", str(tmp_path / "clean.wav")]) == 0
        with open(tmp_path / "out.csv") as f:
            scores = {r[1]: float(r[3]) for r in list(csv.reader(f))[1:]}
        assert scores["0"] > 20.0


class TestTrainingInputs:
    """anmf train holds each input once: the sources train from their
    unscaled copies in the adversarial sets, built once and only when read."""

    @staticmethod
    def _spy(monkeypatch):
        # record the data every train_smu call of the CLI is given
        calls = []

        def spy(true_data, spec, adversarial=None, supervised=None):
            calls.append((true_data, adversarial))
            return train_smu(true_data, spec, adversarial=adversarial, supervised=supervised)

        monkeypatch.setattr(anmf.cli, "train_smu", spy)
        return calls

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []

        def counted(*args, **kwargs):
            builds.append(args)
            return adversarial_sets(*args, **kwargs)

        monkeypatch.setattr(anmf.adversarial, "adversarial_sets", counted)
        return builds

    @staticmethod
    def _supervised(tmp_path, rng):
        sup = make_sources(tmp_path, rng, n=12, prefix="sup")
        write_matrix(tmp_path / "sup_mix.anmf", sum(read_matrix(p) for p in sup))
        return {"sources": sup, "mix": str(tmp_path / "sup_mix.anmf")}

    @pytest.mark.parametrize("with_mix", [True, False])
    @pytest.mark.parametrize("n_sources", [1, 2, 3])
    def test_sources_are_views_into_the_sets(self, tmp_path, monkeypatch, n_sources, with_mix, capsys):
        rng = np.random.default_rng(11)
        src_paths = []
        for i in range(n_sources):
            write_matrix(tmp_path / f"src_{i}.anmf", rng.random((8, 20 + 7 * i)))
            src_paths.append(str(tmp_path / f"src_{i}.anmf"))
        data = {"sources": src_paths}
        if with_mix:
            write_matrix(tmp_path / "mix.anmf", rng.random((8, 25)))
            data["mixes"] = str(tmp_path / "mix.anmf")
        cfg = write_config(tmp_path, "train.json", {"method": "anmf", "data": data,
                                                    "train": {"d": 2, "epochs": 1, "batch_size": 10},
                                                    "output": str(tmp_path / "model")})
        calls = self._spy(monkeypatch)
        rc = run_cli(["train", "--config", cfg, "--seed", "4"])
        if n_sources == 1 and not with_mix:
            # one source and no mixes leave nothing to build its set from
            assert rc == 1 and "no adversarial data available for source 0" in capsys.readouterr().err
            return
        assert rc == 0
        [(true_data, sets)] = calls
        loaded = [read_matrix(p) for p in src_paths]
        mix = read_matrix(data["mixes"]) if with_mix else None
        wm = WeightModel.equal(max(n_sources, 2))
        for i, got in enumerate(sets):
            blocks = [u for j, u in enumerate(loaded) if j != i]
            if with_mix:
                blocks.append(np.sqrt(compute_beta(wm, i, seed=[4, 77, i])) * mix)
            want = np.concatenate(blocks, axis=1)
            assert np.array_equal(got, want) and got.flags.f_contiguous
        for u, x in zip(true_data, loaded):
            assert np.array_equal(u, x) and u.flags.f_contiguous
            assert sum(np.shares_memory(u, got) for got in sets) == (0 if n_sources == 1 else 1)

    @pytest.mark.parametrize("method, train", [("nmf", {}), ("enmf", {}), ("dnmf", {}), ("danmf", {"tau_A": 0.0})])
    def test_no_sets_without_adversarial_term(self, tmp_path, monkeypatch, method, train):
        rng = np.random.default_rng(12)
        cfg = write_config(tmp_path, "train.json", {
            "method": method,
            "data": {"sources": make_sources(tmp_path, rng), "mixes": make_sources(tmp_path, rng, s=1, prefix="mix")[0],
                     "supervised": self._supervised(tmp_path, rng)},
            "train": {"d": 2, "epochs": 1, **train},
            "output": str(tmp_path / "model"),
        })
        builds = self._count_builds(monkeypatch)
        calls = self._spy(monkeypatch)
        assert run_cli(["train", "--config", cfg]) == 0
        [(true_data, sets)] = calls
        assert builds == [] and sets is None
        assert all(u.flags.owndata for u in true_data)

    @pytest.mark.parametrize("method, train", [("nmf", {}), ("enmf", {}), ("dnmf", {}), ("danmf", {"tau_A": 0.0}),
                                               ("anmf", {})])
    def test_mixes_read_only_for_the_sets(self, tmp_path, method, train, capsys):
        # a method that builds no sets does not open data.mixes, so a corrupt mixes file goes unreported
        rng = np.random.default_rng(12)
        (tmp_path / "mix.anmf").write_bytes(b"not a matrix file")
        cfg = write_config(tmp_path, "train.json", {
            "method": method,
            "data": {"sources": make_sources(tmp_path, rng), "mixes": str(tmp_path / "mix.anmf"),
                     "supervised": self._supervised(tmp_path, rng)},
            "train": {"d": 2, "epochs": 1, **train},
            "output": str(tmp_path / "model"),
        })
        if method == "anmf":
            assert run_cli(["train", "--config", cfg]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"anmf: error: {tmp_path / 'mix.anmf'}: not a matrix file (bad magic)"]
        else:
            assert run_cli(["train", "--config", cfg]) == 0
            assert (tmp_path / "model" / "manifest.json").exists()

    @pytest.mark.parametrize("method, builds_expected", [("danmf", 1), ("nmf", 0)])
    def test_tune_builds_the_sets_once(self, tmp_path, monkeypatch, method, builds_expected):
        rng = np.random.default_rng(13)
        cfg = write_config(tmp_path, "tune.json", {
            "method": method,
            "data": {"sources": make_sources(tmp_path, rng), "supervised": self._supervised(tmp_path, rng)},
            "train": {"d": 2, "epochs": 2, "batch_size": 5},
            "tuning": {"trials": 2, "folds": 2, "space": {"tau_A": {"type": "uniform", "lo": 0.05, "hi": 0.2}}},
            "output": str(tmp_path / "out"),
        })
        builds = self._count_builds(monkeypatch)
        calls = self._spy(monkeypatch)
        assert run_cli(["tune", "--config", cfg]) == 0
        assert len(builds) == builds_expected
        # every trial, fold and the final retrain read the same arrays
        assert len(calls) == (2 * 2 + 1 if method == "danmf" else 2 + 1)
        for true_data, sets in calls[1:]:
            assert all(u is v for u, v in zip(true_data, calls[0][0]))
            assert sets is calls[0][1]

    def test_train_peak_memory_bound(self, tmp_path):
        # a two-source danmf run at m = 257: 2 x 2000 source, 500 mix and
        # 2 x 250 supervised columns, d = 32, one epoch
        rng = np.random.default_rng(14)

        def matrix(name, n):
            write_matrix(tmp_path / name, rng.random((257, n)))
            return str(tmp_path / name)

        src = [matrix(f"src_{i}.anmf", 2000) for i in range(2)]
        sup = [matrix(f"sup_{i}.anmf", 250) for i in range(2)]
        paths = src + sup + [matrix("mix.anmf", 500), matrix("sup_mix.anmf", 250)]
        cfg = write_config(tmp_path, "train.json", {
            "method": "danmf",
            "data": {"sources": src, "mixes": paths[4], "supervised": {"sources": sup, "mix": paths[5]}},
            "train": {"d": 32, "epochs": 1},
            "output": str(tmp_path / "model"),
        })
        tracemalloc.start()
        try:
            rc = run_cli(["train", "--config", cfg])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        # what training must hold: the two sets (each the other source and the mix),
        # the supervised inputs and every latent at d = 32, plus 10 %: about 1.45 x the
        # input files' payload. The loaded inputs next to the sets built from them reach
        # about 1.97 x
        cols = 2 * (2000 + 500) + 2 * 250 + 250
        latents = 32 * (2 * 2000 + 2 * (2000 + 500)) + 2 * 32 * 250
        assert peak < 1.1 * 8 * (257 * cols + latents)


class TestAudioBlocks:
    """denoise and features work on blocks of features.BLOCK_FRAMES STFT frames."""

    @staticmethod
    def _audio(tmp_path, seconds, name="noisy"):
        # a voice-like harmonic tone with noise bursts at 16 kHz and its clean reference
        rng = np.random.default_rng(15)
        t = np.arange(round(seconds * 16000)) / 16000.0
        clean = sum(0.2 / k * np.sin(2 * np.pi * 180.0 * k * t) for k in range(1, 6)) * (1 + np.sin(3 * t))
        noise = 0.1 * rng.standard_normal(len(t)) * (np.sin(5 * t) > 0)
        write_wav(tmp_path / f"{name}.wav", clean + noise, 16000)
        write_wav(tmp_path / f"{name}_clean.wav", clean, 16000)

    @pytest.fixture
    def audio(self, tmp_path):
        # 76709 samples: 601 frames at n_fft 512, hop 128, so two blocks of 512 and a
        # last frame that reaches past the end; a one-basis and a two-basis model
        self._audio(tmp_path, 76709 / 16000)
        rng = np.random.default_rng(17)
        save_bundle(tmp_path / "one", [rng.random((257, 16))])
        save_bundle(tmp_path / "two", [rng.random((257, 16)), rng.random((257, 8))])
        return tmp_path

    @staticmethod
    def _outputs(monkeypatch, tmp_path, block, argv, suffixes, out_suffix=""):
        # the bytes of the files that argv, given the output path last, writes at this block size
        monkeypatch.setattr(anmf.features, "BLOCK_FRAMES", block)
        out = tmp_path / f"b{block}"
        assert run_cli(argv + [f"{out}{out_suffix}"]) == 0
        return [Path(f"{out}{s}").read_bytes() for s in suffixes]

    @pytest.mark.parametrize("model, mode", [("one", "project"), ("two", "separate")])
    def test_denoise_does_not_depend_on_block_size(self, audio, monkeypatch, model, mode):
        argv = ["denoise", "--model", str(audio / model), "--input", str(audio / "noisy.wav"), "--mode", mode,
                "--max-iter", "30", "--reference", str(audio / "noisy_clean.wav"), "--output"]
        want_wav, want_csv = self._outputs(monkeypatch, audio, 10**6, argv, [".wav", ".csv"], ".wav")
        for block in (1, 7, 64):
            wav, csv_bytes = self._outputs(monkeypatch, audio, block, argv, [".wav", ".csv"], ".wav")
            assert wav == want_wav, block
            # OpenBLAS rounds a column by the width of the product it sits in and its place
            # there (see solve_nnls), so the fit's last bits move with the block size, and
            # the SI-SDR of the float signal by up to 3 ulps (6.7e-16) at each size here, in
            # both modes; the 16-bit samples do not move
            rows, want_rows = (list(csv.reader(b.decode().splitlines())) for b in (csv_bytes, want_csv))
            assert [r[:3] for r in rows] == [r[:3] for r in want_rows]
            got, want = (np.array([float(r[3]) for r in x[1:]]) for x in (rows, want_rows))
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_features_does_not_depend_on_block_size(self, audio, monkeypatch):
        argv = ["features", "--input", str(audio / "noisy.wav"), "--output-prefix"]
        suffixes = [".mag.anmf", ".phase.anmf", ".cfg.json"]
        want = self._outputs(monkeypatch, audio, 10**6, argv, suffixes)
        for block in (1, 7, 64):
            assert self._outputs(monkeypatch, audio, block, argv, suffixes) == want, block

    @pytest.mark.parametrize("command, bound", [("denoise", 6), ("features", 4)])
    def test_peak_memory_grows_by_a_few_signal_arrays(self, tmp_path, command, bound):
        # the growth of the traced peak from an 8 s to a 32 s input, in float64 arrays of
        # the added 24 s: a few signal-length arrays, and one block of frames that does not
        # grow; at n_fft 512, hop 128 a whole complex spectrum would add about 4 on its own
        save_bundle(tmp_path / "model", [np.random.default_rng(18).random((257, 16))])
        peaks = []
        for seconds in (8, 32):
            self._audio(tmp_path, seconds, f"in{seconds}")
            wav, out = str(tmp_path / f"in{seconds}.wav"), str(tmp_path / f"out{seconds}")
            argv = {"denoise": ["denoise", "--model", str(tmp_path / "model"), "--input", wav, "--output", out + ".wav",
                                "--max-iter", "5", "--reference", str(tmp_path / f"in{seconds}_clean.wav")],
                    "features": ["features", "--input", wav, "--output-prefix", out]}[command]
            tracemalloc.start()
            try:
                rc = run_cli(argv)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rc == 0
        assert (peaks[1] - peaks[0]) / (24 * 16000 * 8) <= bound


class TestErrors:
    def test_missing_config(self, capsys):
        # argparse requires --config of each configured command
        for command in ("mix", "train", "tune"):
            assert run_cli([command]) == 2
            assert capsys.readouterr().err.rstrip().endswith("the following arguments are required: --config")

    def test_unknown_method(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"method": "pca", "output": "x"})
        assert run_cli(["train", "--config", cfg]) == 1

    def test_bad_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.anmf"
        bad.write_bytes(b"garbage")
        assert (
            run_cli(
                [
                    "separate",
                    "--model",
                    str(tmp_path / "nope"),
                    "--input",
                    str(bad),
                    "--output-dir",
                    str(tmp_path / "o"),
                ]
            )
            == 1
        )

    # the data each method trains on: the true data train every method but dnmf, whose true-data term
    # is off, and the supervised pairs train dnmf and danmf
    NEEDS = {"nmf": ["sources"], "enmf": ["sources"], "anmf": ["sources"], "dnmf": ["supervised"],
             "danmf": ["sources", "supervised"]}

    @pytest.mark.parametrize("method", NEEDS)
    def test_adversarial_methods_name_missing_sources(self, tmp_path, monkeypatch, method, capsys):
        # a method's data needs are checked before any file is read: in tune, before the first trial,
        # which would otherwise record the error and go on to the next
        rng = np.random.default_rng(0)
        sup = make_sources(tmp_path, rng, n=12, prefix="sup")
        write_matrix(tmp_path / "sup_mix.anmf", sum(read_matrix(p) for p in sup))
        data = {"sources": make_sources(tmp_path, rng),
                "supervised": {"sources": sup, "mix": str(tmp_path / "sup_mix.anmf")}}
        monkeypatch.setattr(anmf.io, "load_data_matrix", lambda *a: pytest.fail("data were read"))
        monkeypatch.setattr(anmf.cli, "train_smu", lambda *a, **k: pytest.fail("a model was trained"))
        for missing in self.NEEDS[method]:
            for command, extra in [("train", {}), ("tune", {"tuning": {"trials": 2, "space": {}}})]:
                cfg = write_config(tmp_path, "c.json", {
                    "method": method, "data": {k: v for k, v in data.items() if k != missing},
                    "train": {"d": 2, "epochs": 1}, "output": str(tmp_path / "model"), **extra})
                assert run_cli([command, "--config", cfg]) == 1
                assert capsys.readouterr().err.splitlines() == [f"anmf: error: {method} needs data.{missing}"]
                assert not (tmp_path / "model").exists()

    def test_tune_needs_supervised_block(self, tmp_path, monkeypatch, capsys):
        # tune scores its trials on data.supervised: a config without it, or with no supervised
        # source, is rejected before any file is read
        sources = make_sources(tmp_path, np.random.default_rng(0))
        monkeypatch.setattr(anmf.io, "load_data_matrix", lambda *a: pytest.fail("data were read"))
        for method, data in [("nmf", {"sources": sources}),
                             ("dnmf", {"supervised": {"sources": [], "mix": sources[0]}})]:
            cfg = write_config(tmp_path, "tune.json", {
                "method": method, "data": data, "tuning": {"space": {}}, "output": str(tmp_path / "out")})
            assert run_cli(["tune", "--config", cfg]) == 1
            assert capsys.readouterr().err.splitlines() == [
                "anmf: error: the tune config needs a data.supervised block (sources and mix) to score trials on"]
            assert not (tmp_path / "out").exists()

    def test_tune_honours_clamp_negatives(self, tmp_path, capsys):
        src = tmp_path / "neg.anmf"
        write_matrix(src, np.array([[1.0, -0.5], [0.2, 0.3]]))
        write_matrix(tmp_path / "wide.anmf", np.ones((2, 3)))
        cfg = write_config(tmp_path, "tune.json", {
            "method": "nmf",
            "data": {"sources": [str(src)], "supervised": {"sources": [str(src)], "mix": str(tmp_path / "wide.anmf")}},
            "tuning": {"space": {}},
            "output": str(tmp_path / "out"),
        })
        assert run_cli(["tune", "--config", cfg]) == 1
        assert "negative entries" in capsys.readouterr().err
        # with the flag the source loads and the run stops at the next check
        assert run_cli(["tune", "--config", cfg, "--clamp-negatives"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"anmf: error: {src} has shape (2, 2), but {tmp_path / 'wide.anmf'} has shape (2, 3)"]

    @pytest.mark.parametrize("command", ["train", "tune"])
    @pytest.mark.parametrize("odd", ["source", "supervised"])
    def test_inputs_of_other_row_counts_rejected(self, tmp_path, monkeypatch, command, odd, capsys):
        # a bundle's bases share one row count: train fails before it trains, tune before its first trial
        cfg = TestErrors._configs(tmp_path)["tune"]
        if command == "train":
            cfg.pop("tuning")
        rng = np.random.default_rng(1)
        if odd == "source":  # the second of the 8-row sources
            named = cfg["data"]["sources"][1]
            write_matrix(named, rng.random((9, 30)))
        else:  # every supervised matrix, sources and mix, so that only the row check fails
            sup = cfg["data"]["supervised"]
            named = sup["sources"][0]
            for p in [*sup["sources"], sup["mix"]]:
                write_matrix(p, rng.random((9, 12)))
        monkeypatch.setattr(anmf.cli, "train_smu", lambda *a, **k: pytest.fail("a model was trained"))
        # the headers are checked before any payload is read
        monkeypatch.setattr(anmf.io, "load_data_matrix", lambda *a: pytest.fail("a payload was read"))
        assert run_cli([command, "--config", write_config(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"anmf: error: {named} has 9 rows, but {cfg['data']['sources'][0]} has 8"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", [{}, {"snr_db": 0.0}], ids=["weights", "snr"])
    def test_mix_sources_of_other_row_counts_rejected(self, tmp_path, mode, capsys):
        cfg = {**TestErrors._configs(tmp_path)["mix"], **mode}
        write_matrix(cfg["sources"][1], np.random.default_rng(1).random((9, 30)))
        assert run_cli(["mix", "--config", write_config(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == ["anmf: error: sources must have equal row counts, got [8, 9]"]
        assert not (tmp_path / "out").exists()

    def test_tune_records_trial_errors(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        sup = make_sources(tmp_path, rng, n=12, prefix="sup")
        write_matrix(tmp_path / "sup_mix.anmf", sum(read_matrix(p) for p in sup))
        out = tmp_path / "out"
        # every value passes the checks before the trials; training fails
        # inside each trial that draws batch_size 7
        def failing(true_data, spec, adversarial=None, supervised=None):
            if spec.batch_size == 7:
                raise ValueError("no batch of 7")
            return train_smu(true_data, spec, adversarial=adversarial, supervised=supervised)

        monkeypatch.setattr(anmf.cli, "train_smu", failing)
        cfg = write_config(tmp_path, "tune.json", {
            "method": "nmf",
            "data": {"sources": make_sources(tmp_path, rng),
                     "supervised": {"sources": sup, "mix": str(tmp_path / "sup_mix.anmf")}},
            "train": {"d": 2, "epochs": 3},
            "tuning": {"trials": 6, "space": {"batch_size": {"type": "choice", "options": [7, 100]}}},
            "output": str(out),
        })
        assert run_cli(["tune", "--config", cfg]) == 0

        def strict(name):
            raise AssertionError(f"{name} is not JSON")

        trials = json.loads((out / "tune_result.json").read_text(), parse_constant=strict)["trials"]
        assert {t["params"]["batch_size"] for t in trials} == {7, 100}
        for t in trials:
            if t["params"]["batch_size"] == 7:
                assert t["error"] == "ValueError('no batch of 7')"
                assert t["mean_score"] is None
            else:
                assert t["error"] is None and len(t["fold_scores"]) == 1

    @pytest.mark.parametrize("method", ["pca", "semi"])
    def test_tune_rejects_unknown_method_before_trials(self, tmp_path, method, capsys):
        rng = np.random.default_rng(0)
        sup = make_sources(tmp_path, rng, n=12)
        write_matrix(tmp_path / "sup_mix.anmf", sum(read_matrix(p) for p in sup))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "tune.json", {
            "method": method,
            "data": {"sources": make_sources(tmp_path, rng),
                     "supervised": {"sources": sup, "mix": str(tmp_path / "sup_mix.anmf")}},
            "tuning": {"trials": 2, "folds": 2, "space": {}},
            "output": str(out),
        })
        assert run_cli(["tune", "--config", cfg]) == 1
        assert f"unknown method {method!r}" in capsys.readouterr().err
        assert not (out / "tune_result.json").exists()

    @pytest.mark.parametrize("tau_S", [0.0, 1.0])
    def test_danmf_needs_tau_S_inside_unit_interval(self, tmp_path, tau_S, capsys):
        cfg = write_config(tmp_path, "train.json", {
            "method": "danmf",
            "data": {"sources": make_sources(tmp_path, np.random.default_rng(0))},
            "train": {"d": 2, "epochs": 1, "tau_S": tau_S},
            "output": str(tmp_path / "model"),
        })
        assert run_cli(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err.rstrip().endswith("danmf needs tau_S in (0, 1)")
        assert not (tmp_path / "model").exists()

    def test_train_weight_model_too_small(self, tmp_path, capsys):
        # 3 sources with mixes need beta_2, which a 2-weight model does not have
        rng = np.random.default_rng(0)
        write_matrix(tmp_path / "mix.anmf", rng.random((8, 20)))
        cfg = write_config(tmp_path, "train.json", {
            "method": "anmf", "weight_model": {"values": [0.5, 0.5]},
            "data": {"sources": make_sources(tmp_path, rng, s=3), "mixes": str(tmp_path / "mix.anmf")},
            "train": {"d": 2, "epochs": 1},
            "output": str(tmp_path / "model"),
        })
        assert run_cli(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err.splitlines() == ["anmf: error: weight model has 2 sources, no source 2"]
        assert not (tmp_path / "model").exists()

    def test_mix_weight_model_size_must_match(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "mix.json", {
            "sources": make_sources(tmp_path, np.random.default_rng(0)),
            "weight_model": {"values": [0.2, 0.3, 0.5]},
            "output": {"mix": str(tmp_path / "mix.anmf")},
        })
        assert run_cli(["mix", "--config", cfg]) == 1
        assert "anmf: error: weight model has 3 sources, the data 2" in capsys.readouterr().err
        assert not (tmp_path / "mix.anmf").exists()

    def test_separate_needs_one_reference_per_basis(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        save_bundle(tmp_path / "model", [rng.random((8, 2)), rng.random((8, 2))])
        write_matrix(tmp_path / "mix.anmf", rng.random((8, 5)))
        refs = make_sources(tmp_path, rng, n=5, s=1)
        assert run_cli(["separate", "--model", str(tmp_path / "model"), "--input", str(tmp_path / "mix.anmf"),
                        "--output-dir", str(tmp_path / "sep"), "--references", *refs]) == 1
        assert "anmf: error: need one reference per basis: 2 bases, 1 references" in capsys.readouterr().err
        assert not (tmp_path / "sep").exists()

    @pytest.mark.parametrize("cols", [3, 9])
    def test_separate_rejects_reference_of_other_shape(self, tmp_path, cols, capsys):
        rng = np.random.default_rng(0)
        save_bundle(tmp_path / "model", [rng.random((8, 2)), rng.random((8, 2))])
        mix = str(tmp_path / "mix.anmf")
        write_matrix(mix, rng.random((8, 5)))
        refs = make_sources(tmp_path, rng, n=cols)
        assert run_cli(["separate", "--model", str(tmp_path / "model"), "--input", mix,
                        "--output-dir", str(tmp_path / "sep"), "--references", *refs]) == 1
        assert f"anmf: error: {refs[0]} has shape (8, {cols}), but {mix} has shape (8, 5)" in capsys.readouterr().err
        assert not (tmp_path / "sep").exists()

    def test_eval_scores_negative_estimate_as_written(self, tmp_path):
        rng = np.random.default_rng(16)
        ref = rng.random((8, 5))
        est = ref + 0.3 * rng.standard_normal((8, 5))
        assert est.min() < 0
        est_path, ref_path, out = (str(tmp_path / name) for name in ("est.anmf", "ref.anmf", "o.csv"))
        write_matrix(est_path, est)
        write_matrix(ref_path, ref)
        assert run_cli(["eval", "--estimates", est_path, "--references", ref_path, "--output", out]) == 0
        with open(out) as f:
            rows = list(csv.reader(f))[1:]
        scores = [float(r[3]) for r in rows if r[0] not in ("median", "bootstrap_se")]
        # the CSV's floats round-trip, so the estimate's scores match exactly, and no entry was clamped
        assert scores == [metrics.psnr(est[:, k], ref[:, k]) for k in range(5)]
        assert scores != [metrics.psnr(np.maximum(est[:, k], 0.0), ref[:, k]) for k in range(5)]

    @pytest.mark.parametrize("cols", [3, 9])
    def test_eval_rejects_reference_of_other_shape(self, tmp_path, cols, capsys):
        rng = np.random.default_rng(0)
        est, ref, out = (str(tmp_path / name) for name in ("est.anmf", "ref.anmf", "o.csv"))
        write_matrix(est, rng.random((8, 5)))
        write_matrix(ref, rng.random((8, cols)))
        assert run_cli(["eval", "--estimates", est, "--references", ref, "--output", out]) == 1
        assert f"anmf: error: {ref} has shape (8, {cols}), but {est} has shape (8, 5)" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("weights, why", [([1.0], "equal length"), ([0.7, 0.7], "simplex")])
    def test_tune_rejects_metric_weights_before_trials(self, tmp_path, weights, why, capsys):
        rng = np.random.default_rng(0)
        sup = make_sources(tmp_path, rng, n=12, prefix="sup")
        write_matrix(tmp_path / "sup_mix.anmf", sum(read_matrix(p) for p in sup))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "tune.json", {
            "method": "nmf", "metric_weights": weights,
            "data": {"sources": make_sources(tmp_path, rng),
                     "supervised": {"sources": sup, "mix": str(tmp_path / "sup_mix.anmf")}},
            "train": {"d": 2, "epochs": 1},
            "tuning": {"trials": 2, "space": {}},
            "output": str(out),
        })
        assert run_cli(["tune", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "anmf: error: metric_weights: " in err and why in err
        assert not out.exists()

    @staticmethod
    def _configs(tmp_path, out="out"):
        # a mix, a train and a tune config that each run as written, writing to out
        rng = np.random.default_rng(0)
        src = make_sources(tmp_path, rng)
        sup = make_sources(tmp_path, rng, n=12, prefix="sup")
        write_matrix(tmp_path / "sup_mix.anmf", sum(read_matrix(p) for p in sup))
        train = {"method": "nmf", "data": {"sources": src}, "train": {"d": 2, "epochs": 1},
                 "output": str(tmp_path / out)}
        supervised = {"sources": sup, "mix": str(tmp_path / "sup_mix.anmf")}
        return {
            "mix": {"sources": src, "output": {"mix": str(tmp_path / out)}},
            "train": train,
            "tune": {**train, "data": {"sources": src, "supervised": supervised},
                     "tuning": {"trials": 2, "space": {}}},
        }

    @pytest.mark.parametrize("method, space", [
        ("danmf", {"tau_S": {"type": "uniform", "lo": 0.0, "hi": 1.0}}),
        ("danmf", {"tau_S": {"type": "log_uniform", "lo": 0.1, "hi": 1.0}}),
        ("anmf", {"tau_A": {"type": "uniform", "lo": 0.0, "hi": 0.5}}),
    ], ids=["danmf_tau_S_uniform_0_1", "danmf_tau_S_log_uniform_to_1", "anmf_tau_A_uniform_from_0"])
    def test_tune_range_ends_no_trial_draws_are_not_checked(self, tmp_path, method, space):
        # a range draws from [lo, hi): an end the method rejects is never drawn
        cfg = self._configs(tmp_path)["tune"]
        cfg["method"] = method
        cfg["tuning"]["space"] = space
        assert run_cli(["tune", "--config", write_config(tmp_path, "c.json", cfg)]) == 0
        trials = json.loads((tmp_path / "out" / "tune_result.json").read_text())["trials"]
        assert len(trials) == 2 and all(t["error"] is None for t in trials)

    @pytest.mark.parametrize("method, d, need", [("nmf", [2, 2, 2], 2), ("dnmf", [2, 2, 2], 2)])
    def test_tune_checks_untuned_d_before_reading_data(self, tmp_path, monkeypatch, method, d, need, capsys):
        cfg = self._configs(tmp_path)["tune"]
        cfg["method"] = method
        cfg["train"]["d"] = d
        if method == "dnmf":
            # dnmf trains on the supervised pairs alone: their sources count the bases
            del cfg["data"]["sources"]
        monkeypatch.setattr(anmf.io, "load_data_matrix", lambda *a: pytest.fail("data were read"))
        assert run_cli(["tune", "--config", write_config(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"anmf: error: need {need} latent dimensions, got {len(d)}"]

    @pytest.mark.parametrize("method", ["nmf", "anmf", "danmf", "dnmf"])
    def test_train_checks_d_before_reading_data(self, tmp_path, monkeypatch, method, capsys):
        # as tune does: the bases are counted from data.sources, else data.supervised.sources
        cfg = self._configs(tmp_path)["tune"]
        del cfg["tuning"]
        cfg["method"] = method
        cfg["train"]["d"] = [2, 2, 2]
        if method == "dnmf":
            del cfg["data"]["sources"]
        monkeypatch.setattr(anmf.io, "load_data_matrix", lambda *a: pytest.fail("data were read"))
        assert run_cli(["train", "--config", write_config(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == ["anmf: error: need 2 latent dimensions, got 3"]
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _no_reads(monkeypatch):
        # neither a header nor a payload may be read
        fail = lambda *a, **k: pytest.fail("data were read")  # noqa: E731
        monkeypatch.setattr(anmf.io, "load_data_matrix", fail)
        monkeypatch.setattr(anmf.io, "DataFile", fail, raising=False)

    @pytest.mark.parametrize("method", ["nmf", "anmf", "danmf", "dnmf"])
    def test_train_checks_gamma_before_reading_data(self, tmp_path, monkeypatch, method, capsys):
        # a gamma of the wrong length is an error for every method, also where the supervised term is off
        cfg = self._configs(tmp_path)["tune"]
        del cfg["tuning"]
        cfg["method"] = method
        cfg["train"]["gamma"] = [1.0, 1.0, 1.0]
        if method == "dnmf":
            del cfg["data"]["sources"]
        self._no_reads(monkeypatch)
        assert run_cli(["train", "--config", write_config(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "anmf: error: gamma must be a positive vector, one entry per source"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tuned", [False, True])
    def test_tune_checks_gamma_before_any_trial(self, tmp_path, monkeypatch, tuned, capsys):
        cfg = self._configs(tmp_path)["tune"]
        cfg["method"] = "danmf"
        if tuned:
            cfg["tuning"]["space"] = {"gamma": {"type": "choice", "options": [[1.0, 2.0], [1.0, 1.0, 1.0]]}}
        else:
            cfg["train"]["gamma"] = [1.0, 1.0, 1.0]
        path = write_config(tmp_path, "c.json", cfg)
        why = f"{path}: tuning.space.gamma value [1.0, 1.0, 1.0]: " if tuned else ""
        self._no_reads(monkeypatch)
        monkeypatch.setattr(anmf.cli, "train_smu", lambda *a, **k: pytest.fail("a trial ran"))
        assert run_cli(["tune", "--config", path]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"anmf: error: {why}gamma must be a positive vector, one entry per source"]
        assert not (tmp_path / "out" / "tune_result.json").exists()

    @pytest.mark.parametrize("command, extra, named", [
        ("mix", {"clamp_negatives": True}, "clamp_negatives"),
        ("train", {"clamp_negatives": True}, "clamp_negatives"),
        ("train", {"seed": 5, "metric": "psnr"}, "metric, seed"),
        ("tune", {"clamp_negatives": True, "snr_db": 0.0}, "clamp_negatives, snr_db"),
    ])
    def test_unread_config_keys_rejected(self, tmp_path, command, extra, named, capsys):
        # the config runs as written, and fails with the extra keys alone
        good = self._configs(tmp_path, "good")[command]
        assert run_cli([command, "--config", write_config(tmp_path, "good.json", good)]) == 0
        assert (tmp_path / "good").exists()
        bad = {**self._configs(tmp_path, "bad")[command], **extra}
        path = write_config(tmp_path, "bad.json", bad)
        assert run_cli([command, "--config", path]) == 1
        assert capsys.readouterr().err.splitlines() == [f"anmf: error: {path}: unknown config keys: {named}"]
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command", ["mix", "train", "tune"])
    def test_config_must_be_an_object(self, tmp_path, command, capsys):
        cfg = write_config(tmp_path, "c.json", ["method", "output"])
        assert run_cli([command, "--config", cfg]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f'anmf: error: {cfg}: config must be a JSON object, not ["method", "output"]']

    @pytest.mark.parametrize("command, where", [("train", "train"), ("tune", "train"), ("tune", "space")])
    def test_sample_anchor_rejected_before_training(self, tmp_path, monkeypatch, command, where, capsys):
        cfg = self._configs(tmp_path)[command]
        if where == "train":
            cfg["train"] = {**cfg["train"], "sample_anchor": "supervised"}
        else:
            cfg["tuning"]["space"] = {"sample_anchor": {"type": "choice", "options": ["true_data", "supervised"]}}
        monkeypatch.setattr(anmf.cli, "train_smu", lambda *a, **k: pytest.fail("a model was trained"))
        path = write_config(tmp_path, "c.json", cfg)
        assert run_cli([command, "--config", path]) == 1
        block = "train" if where == "train" else "tuning.space"
        assert capsys.readouterr().err.splitlines() == [f"anmf: error: {path}: unknown {block} keys: sample_anchor"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["train", "space"])
    def test_tune_rejects_seed_outside_top_level(self, tmp_path, monkeypatch, where, capsys):
        # tune seeds every trial and the retrained winner with one seed
        cfg = self._configs(tmp_path)["tune"]
        if where == "train":
            cfg["train"]["seed"] = 5
        else:
            cfg["tuning"]["space"] = {"seed": {"type": "choice", "options": [1, 2]}}
        monkeypatch.setattr(anmf.cli, "train_smu", lambda *a, **k: pytest.fail("a model was trained"))
        assert run_cli(["tune", "--config", write_config(tmp_path, "c.json", cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "anmf: error: tune takes its seed from --seed or the config's top-level seed, "
            "not from the train block or the tuning space"]
        assert not (tmp_path / "out").exists()

    def test_tune_rejects_misspelt_space_key(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        sup = make_sources(tmp_path, rng, n=12, prefix="sup")
        write_matrix(tmp_path / "sup_mix.anmf", sum(read_matrix(p) for p in sup))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "tune.json", {
            "method": "nmf",
            "data": {"sources": make_sources(tmp_path, rng),
                     "supervised": {"sources": sup, "mix": str(tmp_path / "sup_mix.anmf")}},
            "train": {"d": 2, "epochs": 1},
            "tuning": {"trials": 2, "space": {"mu_h": {"type": "log_uniform", "lo": 1e-6, "hi": 1e-2}}},
            "output": str(out),
        })
        assert run_cli(["tune", "--config", cfg]) == 1
        assert f"{cfg}: unknown tuning.space keys: mu_h" in capsys.readouterr().err
        assert not (out / "tune_result.json").exists()

    def test_tune_rejects_supervised_sources_of_another_shape(self, tmp_path, monkeypatch, capsys):
        # nmf does not train on the supervised pairs, so only scoring would read them
        cfg = self._configs(tmp_path)["tune"]
        wide = make_sources(tmp_path, np.random.default_rng(1), n=30, prefix="wide")
        cfg["data"]["supervised"]["sources"] = wide
        monkeypatch.setattr(anmf.cli, "train_smu", lambda *a, **k: pytest.fail("a model was trained"))
        assert run_cli(["tune", "--config", write_config(tmp_path, "c.json", cfg)]) == 1
        mix = cfg["data"]["supervised"]["mix"]
        assert capsys.readouterr().err.splitlines() == [
            f"anmf: error: {wide[0]} has shape (8, 30), but {mix} has shape (8, 12)"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, edit, message", [
        ("weight_model", lambda c: c.update(weight_model={"mode": "deterministic"}),
         "weight_model needs the key 'values'"),
        ("weight_model", lambda c: c.update(weight_model={"mode": "dirichlet"}),
         "weight_model needs the key 'concentration'"),
        ("weight_model", lambda c: c.update(weight_model={"values": [0.5, 0.5], "mc_samples": 10}),
         "unknown weight_model keys: mc_samples"),
        ("weight_model", lambda c: c.update(weight_model={"mode": "fixed", "values": [0.5, 0.5]}),
         "weight_model mode 'fixed' is not one of deterministic, dirichlet"),
        ("weight_model", lambda c: c.update(weight_model=[0.5, 0.5]),
         "weight_model must be a JSON object, not [0.5, 0.5]"),
        ("tuning", lambda c: c["tuning"].update(trails=2), "unknown tuning keys: trails"),
        ("tuning", lambda c: c["tuning"].pop("space"), "tuning needs the key 'space'"),
        ("tuning", lambda c: c.pop("tuning"), "tuning must be a JSON object, not null"),
        ("data", lambda c: c["data"].update(mixs="mix.anmf"), "unknown data keys: mixs"),
        ("data", lambda c: c.update(data="sources.json"), 'data must be a JSON object, not "sources.json"'),
        ("data.supervised", lambda c: c["data"]["supervised"].pop("mix"), "data.supervised needs the key 'mix'"),
        ("data.supervised", lambda c: c["data"]["supervised"].update(mixes=[]),
         "unknown data.supervised keys: mixes"),
        ("data.supervised", lambda c: c["data"].update(supervised=[]), "data.supervised must be a JSON object, not []"),
    ])
    def test_config_blocks_checked(self, tmp_path, monkeypatch, block, edit, message, capsys):
        # anmf builds adversarial sets, so tune reads all four blocks
        cfg = {**self._configs(tmp_path)["tune"], "method": "anmf"}
        edit(cfg)
        path = write_config(tmp_path, "c.json", cfg)
        monkeypatch.setattr(anmf.cli, "train_smu", lambda *a, **k: pytest.fail("a model was trained"))
        assert run_cli(["tune", "--config", path]) == 1
        assert capsys.readouterr().err.splitlines() == [f"anmf: error: {path}: {message}"]
        assert not (tmp_path / "out").exists()

    SEPARATE = ["separate", "--model", "model", "--input", "mix.anmf", "--output-dir", "out"]
    ZERO_COL = "zero_col.anmf: column 3 is zero, and sisdr needs a nonzero reference"

    @pytest.mark.parametrize("argv, edit, message", [
        # config cases: the command, an edit of its _configs config, and the
        # error, which follows the config's path
        (["train"], lambda c: c.update(train=[1]), "train must be a JSON object, not [1]"),
        (["mix"], lambda c: c.update(output="mix.anmf"), 'output must be a JSON object, not "mix.anmf"'),
        (["mix"], lambda c: c["output"].update(ground_truths=["gt.anmf"]), "unknown output keys: ground_truths"),
        (["tune"], lambda c: c["tuning"].update(space={"mu_H": {"kind": "log_uniform", "lo": 1e-6, "hi": 1e-2}}),
         "tuning.space.mu_H needs the key 'type'"),
        (["tune"], lambda c: c["tuning"].update(space={"mu_H": [1, 2]}),
         "tuning.space.mu_H must be a JSON object, not [1, 2]"),
        (["tune"], lambda c: c.pop("output"), "config needs the key 'output'"),
        (["tune"], lambda c: c.update(peak=0), "peak must be positive and finite, not 0.0"),
        (["tune"], lambda c: c.update(metric="psrn"), "metric 'psrn' is not one of psnr, sisdr"),
        # a kind that is a list is no kind, and no TypeError
        (["train"], lambda c: c.update(method=["nmf"]), "unknown method ['nmf']"),
        (["train"], lambda c: c.update(method="semi"), "unknown method 'semi'"),
        (["mix"], lambda c: c.update(weight_model={"mode": ["dirichlet"]}),
         "weight_model mode ['dirichlet'] is not one of deterministic, dirichlet"),
        (["tune"], lambda c: c["tuning"].update(space={"mu_H": {"type": ["uniform"], "lo": 0.0, "hi": 1.0}}),
         "tuning.space.mu_H type ['uniform'] is not one of log_uniform, uniform, choice"),
        # a value of another JSON type is named with its key, not cast or left to a TypeError
        (["train"], lambda c: c["train"].update(epochs=[2]), "train.epochs must be int, not [2]"),
        (["tune"], lambda c: c["tuning"].update(trials=[2]), "tuning.trials must be int, not [2]"),
        (["train"], lambda c: c.update(output=["m"]), 'output must be str, not ["m"]'),
        (["mix"], lambda c: c.update(weight_model={"mode": "dirichlet", "concentration": [1, 1], "mc_samples": [5]}),
         "weight_model.mc_samples must be int, not [5]"),
        (["train"], lambda c: c["train"].update(epochs=2.7), "train.epochs must be int, not 2.7"),
        (["train"], lambda c: c["train"].update(tau_A="0.1"), 'train.tau_A must be float, not "0.1"'),
        (["train"], lambda c: c["train"].update(seed=True), "train.seed must be int, not true"),
        (["mix"], lambda c: c.update(seed=True), "seed must be int, not true"),
        (["train"], lambda c: c["data"].update(sources="s0.anmf"), 'data.sources must be list[str], not "s0.anmf"'),
        (["mix"], lambda c: c.update(sources="s0.anmf"), 'sources must be list[str], not "s0.anmf"'),
        (["tune"], lambda c: c["tuning"].update(space={"epochs": {"type": "uniform", "lo": 1, "hi": 3}}),
         "tuning.space.epochs type 'uniform' draws floats, but epochs is int"),
        (["tune"], lambda c: c["tuning"].update(space={"d": {"type": "choice", "options": [2, "3"]}}),
         'tuning.space.d.options must be list[int | list[int]], not [2, "3"]'),
        # tune's trial count and folds are checked before any trial runs
        (["tune"], lambda c: c["tuning"].update(trials=0), "tuning.trials must be >= 1, not 0"),
        (["tune"], lambda c: c["tuning"].update(folds=1), "tuning.folds must be >= 2, not 1"),
        (["tune"], lambda c: c.update(method="dnmf") or c["tuning"].update(folds=13),
         "tuning.folds must be at most the 12 supervised columns, not 13"),
        # SNR mixing reads no weight model, not even an invalid one
        (["mix"], lambda c: c.update(snr_db=0.0, weight_model={"values": [0.5, 0.6]}),
         "snr_db and weight_model exclude each other; SNR mixing reads no weight model"),
        (["mix"], lambda c: c.update(snr_db=0.0, weight_model={"values": [0.5, 0.5]}),
         "snr_db and weight_model exclude each other; SNR mixing reads no weight model"),
        # one ground truth per source: mix would otherwise write as many as the list holds
        (["mix"], lambda c: c["output"].update(ground_truth=["out_gt.anmf"]),
         "output.ground_truth needs one path per source: 2 sources, 1 paths"),
        # flag cases: the whole argv, and the error
        (["synth", "--input-prefix", "feat", "--output", "out"], None,
         "feat.cfg.json: config needs the key 'window'"),
        (["synth", "--input-prefix", "nojson", "--output", "out"], None,
         "nojson.cfg.json: not a JSON file (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
        (SEPARATE + ["--max-iter", "0"], None, "max_iter must be at least 1, got 0"),
        (["denoise", "--model", "voice", "--input", "x.wav", "--output", "out", "--max-iter", "-3"], None,
         "max_iter must be at least 1, got -3"),
        (SEPARATE + ["--clip", "--peak", "-1"], None, "--peak must be positive and finite, not -1.0"),
        (SEPARATE + ["--peak", "0", "--references", "src_0.anmf", "src_1.anmf"], None,
         "--peak must be positive and finite, not 0.0"),
        (["train", "--config", "bad.json"], None,
         "bad.json: not a JSON file (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
        # a sidecar rate the WAV header cannot hold, and a negative length
        (["synth", "--input-prefix", "rate_0", "--output", "out"], None,
         "out: sample_rate must be in [1, 2147483647], not 0"),
        (["synth", "--input-prefix", "rate_2_31", "--output", "out"], None,
         "out: sample_rate must be in [1, 2147483647], not 2147483648"),
        (["synth", "--input-prefix", "length_negative", "--output", "out"], None, "length must be >= 0, not -5"),
        (["features", "--input", "float.wav", "--output-prefix", "out"], None,
         "float.wav: not a PCM WAV file (unknown format: 3)"),
        (["denoise", "--model", "voice", "--input", "short.wav", "--output", "out"], None,
         "short.wav: not a PCM WAV file (truncated)"),
        # no NaN or infinity gets in: json reads NaN and Infinity, and argparse's float reads nan and inf
        (["train"], lambda c: c.update(method="anmf") or c["train"].update(eps=np.inf),
         "not a JSON file (Infinity is not a finite number)"),
        (["train"], lambda c: c.update(method="anmf") or c["train"].update(mu_H=np.inf),
         "not a JSON file (Infinity is not a finite number)"),
        (["train"], lambda c: c.update(method="anmf") or c["train"].update(tau_A=np.nan),
         "not a JSON file (NaN is not a finite number)"),
        (["mix"], lambda c: c.update(snr_db=np.nan), "not a JSON file (NaN is not a finite number)"),
        (["train"], lambda c: c["train"].update(mu_H=10**400), f"train.mu_H must be float, not {10**400}"),
        (["tune"], lambda c: c.update(peak=np.inf), "not a JSON file (Infinity is not a finite number)"),
        (SEPARATE + ["--mu-h", "nan"], None, "sparsity penalties must be non-negative and finite"),
        (SEPARATE + ["--mu-h", "inf"], None, "sparsity penalties must be non-negative and finite"),
        (SEPARATE + ["--peak", "inf"], None, "--peak must be positive and finite, not inf"),
        (["denoise", "--model", "voice", "--input", "x.wav", "--output", "out", "--mu-h", "nan"], None,
         "sparsity penalties must be non-negative and finite"),
        (["eval", "--estimates", "src_0.anmf", "--references", "src_1.anmf", "--output", "out.csv", "--peak", "nan"],
         None, "peak must be positive and finite, not nan"),
        # every value a trial can draw is checked before any data is read
        (["tune"], lambda c: c.update(method="danmf") or c["tuning"].update(
            space={"tau_S": {"type": "choice", "options": [0.5, 1.0]}}),
         "tuning.space.tau_S value 1.0: danmf needs tau_S in (0, 1)"),
        (["tune"], lambda c: c["tuning"].update(space={"mu_H": {"type": "choice", "options": [1e-3, -1.0]}}),
         "tuning.space.mu_H value -1.0: sparsity penalties must be non-negative and finite"),
        (["tune"], lambda c: c["tuning"].update(space={"mu_W": {"type": "uniform", "lo": -0.5, "hi": 0.5}}),
         "tuning.space.mu_W value -0.49999999999999994 of the range [-0.5, 0.5): "
         "sparsity penalties must be non-negative and finite"),
        (["tune"], lambda c: c["tuning"].update(space={"batch_size": {"type": "choice", "options": [5, 0]}}),
         "tuning.space.batch_size value 0: epochs must be >= 0 and batch_size >= 1"),
        (["tune"], lambda c: c.update(method="anmf") or c["tuning"].update(
            space={"tau_A": {"type": "log_uniform", "lo": 0.01, "hi": 0.1}, "eps": {"type": "choice", "options": [0]}}),
         "tuning.space.eps value 0.0: eps must be positive and finite"),
        (["tune"], lambda c: c["tuning"].update(space={"d": {"type": "choice", "options": [2, [2, 2, 2]]}}),
         "tuning.space.d value [2, 2, 2]: need 2 latent dimensions, got 3"),
        # sisdr scores against no reference column of zero energy: each reference, and tune's
        # supervised sources, are checked where they are read
        (SEPARATE + ["--metric", "sisdr", "--references", "src_0.anmf", "zero_col.anmf"], None, ZERO_COL),
        (["eval", "--estimates", "src_0.anmf", "--references", "zero_col.anmf", "--output", "out.csv",
          "--metric", "sisdr"], None, ZERO_COL),
        (["tune", "--config", "sisdr.json"], None, ZERO_COL),
        (["denoise", "--model", "voice", "--input", "x.wav", "--output", "out", "--reference", "silent.wav"], None,
         "silent.wav: every sample is zero, and sisdr needs a nonzero reference"),
    ], ids=["train_block_list", "mix_output_string", "mix_output_misspelt", "space_entry_without_type",
            "space_entry_list", "tune_without_output", "tune_peak_0", "tune_metric_misspelt",
            "method_list", "method_semi", "weight_model_mode_list", "space_type_list",
            "train_epochs_list", "tune_trials_list", "train_output_list", "mix_mc_samples_list",
            "train_epochs_fraction", "train_tau_A_string", "train_seed_true", "mix_seed_true",
            "data_sources_string", "mix_sources_string", "space_uniform_int_key", "space_choice_option_string",
            "tune_trials_0", "tune_folds_1", "tune_folds_over_columns", "mix_snr_db_and_weight_model",
            "mix_snr_db_and_valid_weight_model", "mix_ground_truth_short",
            "sidecar_without_window", "sidecar_not_json", "separate_max_iter_0", "denoise_max_iter_negative",
            "separate_clip_negative_peak", "separate_peak_0_references", "config_not_json",
            "sidecar_sample_rate_0", "sidecar_sample_rate_2_31", "sidecar_length_negative",
            "features_float_wav", "denoise_truncated_wav",
            "train_eps_infinity", "train_mu_H_infinity", "train_tau_A_nan", "mix_snr_db_nan",
            "train_mu_H_int_beyond_float", "tune_peak_infinity", "separate_mu_h_nan", "separate_mu_h_inf",
            "separate_peak_inf", "denoise_mu_h_nan", "eval_peak_nan",
            "space_danmf_tau_S_1", "space_choice_mu_H_negative", "space_uniform_mu_W_negative",
            "space_batch_size_0", "space_eps_0", "space_d_of_three_for_two_sources",
            "separate_sisdr_zero_reference_column", "eval_sisdr_zero_reference_column",
            "tune_sisdr_zero_supervised_column", "denoise_silent_reference"])
    def test_bad_input_fails_before_any_work(self, tmp_path, monkeypatch, argv, edit, message, capsys):
        # valid inputs beside the one at fault: a two-basis bundle and a mix
        # with references, a one-basis STFT bundle and a WAV, synth prefixes
        # whose sidecar lacks its window, is not JSON, or holds a bad rate or
        # length, a config that is not JSON, a float WAV and a truncated one, and a
        # reference whose column 3 is zero, the second supervised source of a sisdr tune config,
        # and a silent reference WAV
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(15)
        save_bundle("model", [rng.random((8, 2)), rng.random((8, 2))])
        write_matrix("mix.anmf", rng.random((8, 30)))
        zero_col = rng.random((8, 30))
        zero_col[:, 3] = 0.0
        write_matrix("zero_col.anmf", zero_col)
        save_bundle("voice", [rng.random((257, 2))])
        write_wav("x.wav", 0.1 * rng.standard_normal(1024), 16000)
        write_wav("silent.wav", np.zeros(1024), 16000)
        sidecar = {"n_fft": 512, "hop": 128, "window": "hann", "sample_rate": 16000, "length": 512}
        sidecars = {
            "feat": json.dumps({k: v for k, v in sidecar.items() if k != "window"}),
            "nojson": "{n_fft: 512}",
            "rate_0": json.dumps({**sidecar, "sample_rate": 0}),
            "rate_2_31": json.dumps({**sidecar, "sample_rate": 2**31}),
            "length_negative": json.dumps({**sidecar, "length": -5}),
        }
        for prefix, text in sidecars.items():
            Path(f"{prefix}.cfg.json").write_text(text)
            write_matrix(f"{prefix}.mag.anmf", np.ones((257, 5)))
            write_matrix(f"{prefix}.phase.anmf", np.zeros((257, 5)))
        Path("bad.json").write_text('{method: "nmf"}')
        Path("float.wav").write_bytes(float32_wav_bytes(np.zeros(1024), 16000))
        Path("short.wav").write_bytes(b"RIFF\x00")
        configs = self._configs(tmp_path)  # writes src_0.anmf and src_1.anmf, 8 x 30
        supervised = {"sources": ["src_0.anmf", "zero_col.anmf"], "mix": "mix.anmf"}
        write_config(tmp_path, "sisdr.json", {**configs["tune"], "metric": "sisdr",
                                              "data": {**configs["tune"]["data"], "supervised": supervised}})
        if edit is not None:
            cfg = configs[argv[0]]
            edit(cfg)
            path = write_config(tmp_path, "c.json", cfg)
            argv, message = [argv[0], "--config", path], f"{path}: {message}"
        monkeypatch.setattr(anmf.cli, "train_smu", lambda *a, **k: pytest.fail("a model was trained"))
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"anmf: error: {message}"]
        assert not list(tmp_path.glob("out*"))

    def test_denoise_separate_needs_two_bases(self, tmp_path, capsys):
        save_bundle(tmp_path / "model", [np.ones((257, 2))])
        write_wav(tmp_path / "x.wav", np.zeros(1024), 16000)
        assert run_cli(["denoise", "--model", str(tmp_path / "model"), "--input", str(tmp_path / "x.wav"),
                        "--output", str(tmp_path / "y.wav"), "--mode", "separate"]) == 1
        assert "needs a bundle of two or more bases" in capsys.readouterr().err
        assert not (tmp_path / "y.wav").exists()

    def test_denoise_rejects_model_rows_of_no_stft(self, tmp_path, capsys):
        # 100 rows are n_fft/2 + 1 for n_fft 198, which is not a power of two
        model = str(tmp_path / "model")
        save_bundle(model, [np.ones((100, 2))])
        write_wav(tmp_path / "x.wav", np.zeros(1024), 16000)
        assert run_cli(["denoise", "--model", model, "--input", str(tmp_path / "x.wav"),
                        "--output", str(tmp_path / "y.wav")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"anmf: error: {model}: 100 basis rows are not n_fft/2 + 1 for a power-of-two n_fft"]
        assert not (tmp_path / "y.wav").exists()

    @pytest.mark.parametrize("ref_rate, ref_len", [(8000, 16000), (16000, 16000), (8000, 32000)],
                             ids=["rate", "length", "rate_alone"])
    def test_denoise_rejects_reference_of_other_rate_or_length(self, tmp_path, ref_rate, ref_len, capsys):
        save_bundle(tmp_path / "model", [np.ones((257, 2))])
        rng = np.random.default_rng(13)
        noisy, clean = (str(tmp_path / name) for name in ("noisy.wav", "clean.wav"))
        write_wav(noisy, 0.1 * rng.standard_normal(32000), 16000)
        write_wav(clean, 0.1 * rng.standard_normal(ref_len), ref_rate)
        assert run_cli(["denoise", "--model", str(tmp_path / "model"), "--input", noisy,
                        "--output", str(tmp_path / "y.wav"), "--reference", clean]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"anmf: error: {clean} has {ref_len} samples at {ref_rate} Hz, but {noisy} has 32000 samples at 16000 Hz"]
        assert not (tmp_path / "y.wav").exists() and not (tmp_path / "y.csv").exists()

    SHAPE_MESSAGE = "need a JSON object with n_sources >= 1 and one d entry per source"

    @pytest.mark.parametrize("manifest, argv, message", [
        ({"n_sources": 2, "m": 8, "d": [2]}, ["separate", "--input", "mix.anmf", "--output-dir", "sep"],
         SHAPE_MESSAGE),
        ([1, 2], ["separate", "--input", "mix.anmf", "--output-dir", "sep"], SHAPE_MESSAGE),
        ({"n_sources": 0, "m": 0, "d": []}, ["denoise", "--input", "x.wav", "--output", "y.wav", "--mode", "project"],
         SHAPE_MESSAGE),
        ({"format_version": 1, "n_sources": 2, "d": [2, 2]}, ["separate", "--input", "mix.anmf", "--output-dir", "sep"],
         "m must be a positive int, got None"),
        ({"format_version": 99, "n_sources": 2, "m": 8, "d": [2, 2]},
         ["separate", "--input", "mix.anmf", "--output-dir", "sep"], "unsupported format_version 99 (need 1)"),
        # a string is the manifest file's text as it stands
        ("{n_sources: 2}", ["separate", "--input", "mix.anmf", "--output-dir", "sep"],
         "not a JSON file (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
    ], ids=["d_shorter_than_n_sources", "not_an_object", "no_sources", "no_m", "format_version_99", "not_json"])
    def test_malformed_manifest_rejected(self, tmp_path, monkeypatch, manifest, argv, message, capsys):
        # the basis files are present, so only the manifest is at fault
        rng = np.random.default_rng(14)
        save_bundle(tmp_path / "model", [rng.random((8, 2)), rng.random((8, 2))])
        text = manifest if isinstance(manifest, str) else json.dumps(manifest)
        (tmp_path / "model" / "manifest.json").write_text(text)
        write_matrix(tmp_path / "mix.anmf", rng.random((8, 5)))
        write_wav(tmp_path / "x.wav", 0.1 * rng.standard_normal(1024), 16000)
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv + ["--model", "model"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"anmf: error: {Path('model', 'manifest.json')}: {message}"]
        assert not (tmp_path / "sep").exists() and not (tmp_path / "y.wav").exists()

    @staticmethod
    def _invert(tmp_path, mag, phase, window="hann"):
        # synth on a hand-written .mag/.phase pair and an n_fft 512 .cfg.json
        prefix = str(tmp_path / "feat")
        (tmp_path / "feat.cfg.json").write_text(json.dumps(
            {"n_fft": 512, "hop": 128, "window": window, "sample_rate": 16000, "length": 512}))
        write_matrix(prefix + ".mag.anmf", mag)
        write_matrix(prefix + ".phase.anmf", phase)
        return run_cli(["synth", "--input-prefix", prefix, "--output", str(tmp_path / "y.wav")])

    def test_features_inverse_rejects_non_finite(self, tmp_path, capsys):
        mag = np.ones((257, 5))
        mag[3, 2] = np.nan
        assert self._invert(tmp_path, mag, np.zeros((257, 5))) == 1
        assert "feat.mag.anmf" in capsys.readouterr().err

    def test_features_inverse_rejects_rows_of_other_n_fft(self, tmp_path, capsys):
        assert self._invert(tmp_path, np.ones((100, 33)), np.zeros((100, 33))) == 1
        assert capsys.readouterr().err.splitlines() == ["anmf: error: spectrum has 100 rows; n_fft 512 needs 257"]
        assert not (tmp_path / "y.wav").exists()

    def test_features_inverse_rejects_phase_of_other_shape(self, tmp_path, capsys):
        assert self._invert(tmp_path, np.ones((257, 33)), np.zeros((257, 1))) == 1
        prefix = tmp_path / "feat"
        err = capsys.readouterr().err
        assert f"anmf: error: {prefix}.phase.anmf has shape (257, 1), but {prefix}.mag.anmf has shape (257, 33)" in err
        assert not (tmp_path / "y.wav").exists()

    def test_features_inverse_rejects_other_window(self, tmp_path, capsys):
        assert self._invert(tmp_path, np.ones((257, 5)), np.zeros((257, 5)), window="hamming") == 1
        assert "anmf: error: unsupported window 'hamming'" in capsys.readouterr().err
        assert not (tmp_path / "y.wav").exists()

    @pytest.mark.parametrize("argv, missing", [
        (["features", "--output-prefix", "f"], "--input"),
        (["features", "--input", "x.wav"], "--output-prefix"),
        (["synth", "--output", "y.wav"], "--input-prefix"),
        (["synth", "--input-prefix", "f"], "--output"),
    ])
    def test_features_names_missing_flag(self, argv, missing, capsys):
        # features and its inverse, synth
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.rstrip().endswith(f"the following arguments are required: {missing}")

    FEATURES = ["features", "--input", "x", "--output-prefix", "o"]
    SYNTH = ["synth", "--input-prefix", "f", "--output", "y"]

    @pytest.mark.parametrize("argv, flag", [
        (["separate", "--model", "m", "--input", "x", "--output-dir", "o"], ["--seed", "1"]),
        (["separate", "--model", "m", "--input", "x", "--output-dir", "o"], ["--config", "c"]),
        (["denoise", "--model", "m", "--input", "x", "--output", "y"], ["--seed", "1"]),
        (["denoise", "--model", "m", "--input", "x", "--output", "y"], ["--config", "c"]),
        (["denoise", "--model", "m", "--input", "x", "--output", "y"], ["--clamp-negatives"]),
        (["denoise", "--model", "m", "--input", "x", "--output", "y"], ["--n-fft", "256"]),
        (["eval", "--estimates", "a", "--references", "a", "--output", "o"], ["--config", "c"]),
        (["eval", "--estimates", "a", "--references", "a", "--output", "o"], ["--clamp-negatives"]),
        (FEATURES, ["--seed", "1"]),
        (FEATURES, ["--config", "c"]),
        (FEATURES, ["--clamp-negatives"]),
        # the flags of features and of its inverse, synth, are not each other's
        (FEATURES, ["--input-prefix", "f"]),
        (SYNTH, ["--n-fft", "256"]),
        (SYNTH, ["--input", "x"]),
        # nor is a flag the prefix of one, such as --output of --output-prefix
        (FEATURES, ["--output", "y"]),
        # the hop is n_fft / 4: neither STFT command takes one
        (["denoise", "--model", "m", "--input", "x", "--output", "y"], ["--hop", "64"]),
        (FEATURES, ["--hop", "64"]),
    ])
    def test_unread_flags_rejected(self, argv, flag, capsys):
        assert run_cli(argv + flag) == 2
        assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err

    def test_threads_option_removed(self, capsys):
        assert run_cli(["eval", "--threads", "2", "--estimates", "a", "--references", "a",
                        "--output", "o.csv"]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_eval_length_mismatch(self, tmp_path):
        write_matrix(tmp_path / "a.anmf", np.ones((2, 2)))
        assert (
            run_cli(
                [
                    "eval",
                    "--estimates",
                    str(tmp_path / "a.anmf"),
                    str(tmp_path / "a.anmf"),
                    "--references",
                    str(tmp_path / "a.anmf"),
                    "--output",
                    str(tmp_path / "o.csv"),
                ]
            )
            == 1
        )
