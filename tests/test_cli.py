import csv
import json

import numpy as np
import pytest

from anmf.cli import build_train_spec, run_cli, score_separation
from anmf.io import load_bundle, read_matrix, write_matrix, write_wav


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def make_sources(tmp_path, rng, m=8, n=30, s=2):
    paths = []
    for i in range(s):
        mat = rng.random((m, n))
        p = tmp_path / f"src_{i}.anmf"
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
        from anmf.cli import CliError

        with pytest.raises(CliError):
            build_train_spec({"tau_A": 0.0}, "anmf")

    def test_overrides_win(self):
        spec = build_train_spec({"mu_W": 1e-3}, "nmf", overrides={"mu_W": 1e-5})
        assert spec.sparsity.mu_W == 1e-5

    def test_seed_argument_beats_config(self):
        assert build_train_spec({"seed": 3}, "nmf", seed=9).seed == 9


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

    def test_denoise_wav(self, tmp_path):
        rng = np.random.default_rng(3)
        t = np.arange(4096) / 16000.0
        clean = 0.4 * np.sin(2 * np.pi * 440.0 * t)
        noisy = clean + 0.05 * rng.standard_normal(len(t))
        write_wav(tmp_path / "noisy.wav", noisy, 16000)
        write_wav(tmp_path / "clean.wav", clean, 16000)
        # train a small basis on the clean magnitude
        from anmf.features import StftConfig, stft
        from anmf.io import save_bundle

        spec = stft(clean, StftConfig())
        from anmf.training import TrainSpec, train_smu
        from anmf.core import SparsityParams, as_array

        state = train_smu(
            [spec.magnitude],
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

    def test_features_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        x = np.clip(0.2 * rng.standard_normal(2048), -0.99, 0.99)
        write_wav(tmp_path / "x.wav", x, 16000)
        prefix = str(tmp_path / "feat")
        assert run_cli(["features", "--input", str(tmp_path / "x.wav"), "--output-prefix", prefix]) == 0
        assert (
            run_cli(
                ["features", "--inverse", "--input-prefix", prefix, "--output", str(tmp_path / "y.wav")]
            )
            == 0
        )
        from anmf.io import load_wav

        y, rate = load_wav(tmp_path / "y.wav")
        assert rate == 16000
        n = min(len(x), len(y))
        # one quantization round trip of error
        assert np.max(np.abs(y[:n] - x[:n])) <= 1.0 / 32768.0 + 1e-9


class TestErrors:
    def test_missing_config(self, capsys):
        assert run_cli(["train"]) == 1
        assert "error" in capsys.readouterr().err

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

    def test_tune_needs_supervised_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "tune.json", {
            "method": "nmf",
            "data": {"sources": make_sources(tmp_path, np.random.default_rng(0))},
            "tuning": {"space": {}},
            "output": str(tmp_path / "out"),
        })
        assert run_cli(["tune", "--config", cfg]) == 1
        assert "data.supervised" in capsys.readouterr().err

    def test_tune_honours_clamp_negatives(self, tmp_path, capsys):
        src = tmp_path / "neg.anmf"
        write_matrix(src, np.array([[1.0, -0.5], [0.2, 0.3]]))
        cfg = write_config(tmp_path, "tune.json", {
            "method": "nmf",
            "data": {"sources": [str(src)]},
            "tuning": {"space": {}},
            "output": str(tmp_path / "out"),
        })
        assert run_cli(["tune", "--config", cfg]) == 1
        assert "negative entries" in capsys.readouterr().err
        # with the flag the source loads and the run stops at the next check
        assert run_cli(["tune", "--config", cfg, "--clamp-negatives"]) == 1
        assert "data.supervised" in capsys.readouterr().err

    def test_tune_records_trial_errors(self, tmp_path):
        rng = np.random.default_rng(0)
        sup = make_sources(tmp_path, rng, n=12)
        write_matrix(tmp_path / "sup_mix.anmf", sum(read_matrix(p) for p in sup))
        out = tmp_path / "out"
        # batch_size 0 fails TrainSpec's validation inside the trial
        cfg = write_config(tmp_path, "tune.json", {
            "method": "nmf",
            "data": {"sources": make_sources(tmp_path, rng),
                     "supervised": {"sources": sup, "mix": str(tmp_path / "sup_mix.anmf")}},
            "train": {"d": 2, "epochs": 3},
            "tuning": {"trials": 6, "space": {"batch_size": {"type": "choice", "options": [0, 5]}}},
            "output": str(out),
        })
        assert run_cli(["tune", "--config", cfg]) == 0

        def strict(name):
            raise AssertionError(f"{name} is not JSON")

        trials = json.loads((out / "tune_result.json").read_text(), parse_constant=strict)["trials"]
        assert {t["params"]["batch_size"] for t in trials} == {0, 5}
        for t in trials:
            if t["params"]["batch_size"] == 0:
                assert t["error"].startswith("ValueError(") and "batch_size" in t["error"]
                assert t["mean_score"] is None
            else:
                assert t["error"] is None and len(t["fold_scores"]) == 1

    def test_tune_rejects_unknown_method_before_trials(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        sup = make_sources(tmp_path, rng, n=12)
        write_matrix(tmp_path / "sup_mix.anmf", sum(read_matrix(p) for p in sup))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "tune.json", {
            "method": "pca",
            "data": {"sources": make_sources(tmp_path, rng),
                     "supervised": {"sources": sup, "mix": str(tmp_path / "sup_mix.anmf")}},
            "tuning": {"trials": 2, "folds": 2, "space": {}},
            "output": str(out),
        })
        assert run_cli(["tune", "--config", cfg]) == 1
        assert "unknown method 'pca'" in capsys.readouterr().err
        assert not (out / "tune_result.json").exists()

    def test_features_inverse_rejects_non_finite(self, tmp_path, capsys):
        prefix = str(tmp_path / "feat")
        (tmp_path / "feat.cfg.json").write_text(json.dumps(
            {"n_fft": 512, "hop": 128, "window": "hann", "sample_rate": 16000, "length": 512}))
        mag = np.ones((257, 5))
        mag[3, 2] = np.nan
        write_matrix(prefix + ".mag.anmf", mag)
        write_matrix(prefix + ".phase.anmf", np.zeros((257, 5)))
        argv = ["features", "--inverse", "--input-prefix", prefix, "--output", str(tmp_path / "y.wav")]
        assert run_cli(argv) == 1
        assert "feat.mag.anmf" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, missing", [
        (["features", "--output-prefix", "f"], "--input"),
        (["features", "--input", "x.wav"], "--output-prefix"),
        (["features", "--inverse", "--output", "y.wav"], "--input-prefix"),
        (["features", "--inverse", "--input-prefix", "f"], "--output"),
    ])
    def test_features_names_missing_flag(self, argv, missing, capsys):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.rstrip().endswith(f"needs {missing}")

    @pytest.mark.parametrize("argv, flag", [
        (["separate", "--model", "m", "--input", "x", "--output-dir", "o"], ["--seed", "1"]),
        (["separate", "--model", "m", "--input", "x", "--output-dir", "o"], ["--config", "c"]),
        (["denoise", "--model", "m", "--input", "x", "--output", "y"], ["--seed", "1"]),
        (["denoise", "--model", "m", "--input", "x", "--output", "y"], ["--config", "c"]),
        (["denoise", "--model", "m", "--input", "x", "--output", "y"], ["--clamp-negatives"]),
        (["eval", "--estimates", "a", "--references", "a", "--output", "o"], ["--config", "c"]),
        (["eval", "--estimates", "a", "--references", "a", "--output", "o"], ["--clamp-negatives"]),
        (["features"], ["--seed", "1"]),
        (["features"], ["--config", "c"]),
        (["features"], ["--clamp-negatives"]),
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
