"""Command-line surface.

Subcommands: train, separate, denoise, tune, eval, mix, features. mix,
train and tune read a JSON --config; each command takes only the flags it
reads. Everything emitted is machine-readable (CSV metrics, JSON
manifests and tuning results).
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import adversarial as adv
from . import features as feat
from . import io as aio
from . import metrics as amet
from .core import SparsityParams, as_array
from .separation import project_denoise, separate, wiener_mask
from .training import TrainSpec, train_semisupervised, train_smu

METHODS = ("nmf", "enmf", "anmf", "dnmf", "danmf", "semi")
CSV_HEADER = ["sample_index", "source", "metric", "value"]


class CliError(Exception):
    pass


def _load_config(args):
    if not args.config:
        raise CliError("this command needs --config PATH")
    try:
        return json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read config {args.config}: {e}")


def _weight_model(cfg, n_sources):
    block = cfg.get("weight_model")
    if block is None:
        return adv.WeightModel.equal(n_sources)
    mode = block.get("mode", "deterministic")
    if mode == "deterministic":
        return adv.WeightModel(values=block["values"])
    return adv.WeightModel(
        mode="dirichlet",
        concentration=block["concentration"],
        mc_samples=int(block.get("mc_samples", 100_000)),
    )


def build_train_spec(train_cfg, method=None, seed=None, overrides=None):
    """Assemble a TrainSpec from the config's train block.

    Method consistency is enforced: nmf and enmf force tau_A = tau_S = 0,
    anmf forces tau_S = 0, dnmf forces tau_S = 1.
    """
    cfg = dict(train_cfg or {})
    cfg.update(overrides or {})
    sparsity = SparsityParams(
        mu_W=float(cfg.get("mu_W", 1e-10)),
        mu_H=float(cfg.get("mu_H", 1e-10)),
        eps=float(cfg.get("eps", 1e-12)),
    )
    tau_A = float(cfg.get("tau_A", 0.1 if method in ("anmf", "danmf") else 0.0))
    tau_S = float(cfg.get("tau_S", 0.5 if method == "danmf" else 0.0))
    epochs = int(cfg.get("epochs", 200))
    if method in ("nmf", "enmf", "semi"):
        tau_A = float(cfg.get("tau_A", 0.0)) if method == "semi" else 0.0
        tau_S = 0.0
    if method == "enmf":
        epochs = 0
    if method == "anmf":
        tau_S = 0.0
        if tau_A <= 0:
            raise CliError("anmf needs tau_A > 0")
    if method == "dnmf":
        tau_S = 1.0
        tau_A = 0.0
    if method == "danmf" and not 0.0 < tau_S < 1.0:
        raise CliError("danmf needs tau_S in (0, 1)")
    return TrainSpec(
        d=cfg.get("d", 16),
        tau_A=tau_A,
        tau_S=tau_S,
        gamma=cfg.get("gamma"),
        sparsity=sparsity,
        epochs=epochs,
        batch_size=int(cfg.get("batch_size", 100)),
        seed=int(seed if seed is not None else cfg.get("seed", 0)),
        init="exemplar" if method == "enmf" else cfg.get("init", "exemplar"),
        sample_anchor=cfg.get("sample_anchor", "supervised" if method == "dnmf" else "true_data"),
    )


def train_with_method(method, sources, mixes, supervised, spec, wm):
    """Run the training pipeline for one method.

    Returns:
        (bases, history): list of basis arrays and per-epoch objectives.
    """
    train_spec = spec
    if method == "semi":
        # the known sources train first (adversarially when tau_A > 0, with
        # the mixes and the other sources as adversarial data); the unknown
        # source's basis is then fitted from the mixes alone
        s_known = len(sources)
        train_spec = TrainSpec(
            d=spec.dims(s_known + 1)[:s_known], tau_A=spec.tau_A, tau_S=0.0, sparsity=spec.sparsity,
            epochs=spec.epochs, batch_size=spec.batch_size, seed=spec.seed, init=spec.init,
        )
    sets = None
    if train_spec.tau_A > 0:
        n_mix = mixes.shape[1] if mixes is not None else 0
        om = adv.default_omega([u.shape[1] for u in sources], n_mix)
        betas = [adv.compute_beta(wm, i, seed=[spec.seed, 77, i]) if n_mix else 0.0 for i in range(len(sources))]
        sets = [adv.assemble_adversarial(i, sources, mixes, om, beta) for i, beta in enumerate(betas)]
    sup = supervised if train_spec.tau_S > 0 else None
    state = train_smu(sources, train_spec, adversarial=sets, supervised=sup)
    if method == "semi":
        state.bases.append(train_semisupervised(mixes, state.bases, spec))
    return state.bases, state.history


def _per_column_scores(estimates, references, metric, peak):
    """metric per column for one source; returns a list of floats."""
    est, ref = as_array(estimates), as_array(references)
    out = []
    for k in range(est.shape[1]):
        if metric == "psnr":
            out.append(amet.psnr(est[:, k], ref[:, k], peak))
        else:
            out.append(amet.si_sdr(est[:, k], ref[:, k]))
    return out


def score_separation(filtered, references, metric, weights, peak=1.0, cap=amet.SENTINEL_CAP_DB):
    """Weighted mean over sources of the per-source median column score."""
    medians = []
    for est, ref in zip(filtered, references):
        scores = amet.cap_scores(_per_column_scores(est, ref, metric, peak), cap)
        medians.append(float(np.median(scores)))
    return amet.weighted_score(medians, weights)


def _write_metrics_csv(path, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def _spec_echo(spec):
    return {
        "d": spec.d if np.isscalar(spec.d) else list(spec.d),
        "tau_A": spec.tau_A,
        "tau_S": spec.tau_S,
        "gamma": None if spec.gamma is None else list(spec.gamma),
        "mu_W": spec.sparsity.mu_W,
        "mu_H": spec.sparsity.mu_H,
        "eps": spec.sparsity.eps,
        "epochs": spec.epochs,
        "batch_size": spec.batch_size,
        "seed": spec.seed,
        "init": spec.init,
        "sample_anchor": spec.sample_anchor,
    }


# ---------------------------------------------------------------- commands


def cmd_mix(args):
    cfg = _load_config(args)
    clamp = cfg.get("clamp_negatives", False) or args.clamp_negatives
    sources = [aio.load_data_matrix(p, clamp) for p in cfg["sources"]]
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    snr_db = cfg.get("snr_db")
    wm = None if snr_db is not None else _weight_model(cfg, len(sources))
    mix, truth, weights = aio.mix_synthetic(sources, wm, snr_db, seed)
    out = cfg["output"]
    aio.write_matrix(out["mix"], mix)
    for path, t in zip(out.get("ground_truth", []), truth):
        aio.write_matrix(path, t)
    if "weights" in out:
        Path(out["weights"]).write_text(json.dumps({"weights": weights.tolist()}, indent=2))
    return 0


def _config_method(cfg):
    method = cfg.get("method", "nmf")
    if method not in METHODS:
        raise CliError(f"unknown method {method!r}")
    return method


def cmd_train(args):
    cfg = _load_config(args)
    method = _config_method(cfg)
    clamp = cfg.get("clamp_negatives", False) or args.clamp_negatives
    data = cfg.get("data", {})
    sources = [aio.load_data_matrix(p, clamp) for p in data.get("sources", [])]
    mixes = aio.load_data_matrix(data["mixes"], clamp) if data.get("mixes") else None
    supervised = None
    if data.get("supervised"):
        sup = data["supervised"]
        supervised = (
            [aio.load_data_matrix(p, clamp) for p in sup["sources"]],
            aio.load_data_matrix(sup["mix"], clamp),
        )
    spec = build_train_spec(cfg.get("train"), method, args.seed)
    wm = _weight_model(cfg, len(sources) or 2)
    bases, history = train_with_method(method, sources or None, mixes, supervised, spec, wm)
    aio.save_bundle(cfg["output"], bases, _spec_echo(spec), history, {"method": method})
    return 0


def cmd_separate(args):
    bundle = aio.load_bundle(args.model)
    clamp = args.clamp_negatives
    V = aio.load_data_matrix(args.input, clamp)
    p = SparsityParams(mu_H=float(args.mu_h), eps=1e-12)
    result = separate(V, bundle.bases, p, max_iter=args.max_iter)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    estimates = []
    for i, u in enumerate(result.filtered):
        u = np.clip(u, 0.0, args.peak) if args.clip else u
        estimates.append(u)
        aio.write_matrix(out_dir / f"source_{i:03d}.anmf", u)
    if args.references:
        refs = [aio.load_data_matrix(r, clamp) for r in args.references]
        rows = []
        for i, (est, ref) in enumerate(zip(estimates, refs)):
            for k, v in enumerate(_per_column_scores(est, ref, args.metric, args.peak)):
                rows.append([k, i, args.metric, min(v, amet.SENTINEL_CAP_DB)])
        _write_metrics_csv(out_dir / "metrics.csv", rows)
    return 0


def cmd_denoise(args):
    bundle = aio.load_bundle(args.model)
    samples, rate = aio.load_wav(args.input)
    cfg = feat.StftConfig(n_fft=args.n_fft, hop=args.hop, sample_rate=rate)
    spec = feat.stft(samples, cfg)
    p = SparsityParams(mu_H=float(args.mu_h))
    if args.mode == "project":
        # projection denoising: project the mixed magnitude onto the
        # speech basis; the unexplained remainder acts as the noise
        # magnitude for the soft mask
        mags = [project_denoise(spec.magnitude, bundle.bases[0], p, max_iter=args.max_iter)]
        mags.append(np.maximum(spec.magnitude - mags[0], 0.0))
    else:
        mags = separate(spec.magnitude, bundle.bases, p, max_iter=args.max_iter).raw
    # soft-mask synthesis of the speech signal alone: the speech mask
    # multiplies the mix in place, and the magnitudes are dropped before
    # the inverse transform to bound peak memory
    mask = wiener_mask(mags[0], sum(mags), len(mags))
    del mags
    spec.apply_gain(mask)
    speech = feat.istft(spec, length=len(samples))
    aio.write_wav(args.output, speech, rate)
    if args.reference:
        ref, _ = aio.load_wav(args.reference)
        n = min(len(ref), len(speech))
        score = amet.si_sdr(speech[:n], ref[:n])
        noisy = amet.si_sdr(samples[:n], ref[:n])
        _write_metrics_csv(
            Path(args.output).with_suffix(".csv"),
            [[0, 0, "sisdr", min(score, amet.SENTINEL_CAP_DB)],
             [0, "input", "sisdr", min(noisy, amet.SENTINEL_CAP_DB)]],
        )
    return 0


def cmd_tune(args):
    cfg = _load_config(args)
    method = _config_method(cfg)
    clamp = cfg.get("clamp_negatives", False) or args.clamp_negatives
    data = cfg.get("data", {})
    sources = [aio.load_data_matrix(p, clamp) for p in data.get("sources", [])]
    mixes = aio.load_data_matrix(data["mixes"], clamp) if data.get("mixes") else None
    sup = data.get("supervised")
    if not sup:
        raise CliError("the tune config needs a data.supervised block (sources and mix) to score trials on")
    sup_sources = [aio.load_data_matrix(p, clamp) for p in sup["sources"]]
    sup_mix = aio.load_data_matrix(sup["mix"], clamp)
    metric = cfg.get("metric", "psnr")
    mweights = cfg.get("metric_weights") or [1.0 / len(sup_sources)] * len(sup_sources)
    peak = float(cfg.get("peak", 1.0))
    tuning = cfg["tuning"]
    space = _parse_space(tuning["space"])
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    use_cv = method in ("dnmf", "danmf")
    base_train_cfg = cfg.get("train", {})
    wm = _weight_model(cfg, max(len(sources), 2))

    def evaluate(params, train_idx, val_idx):
        spec = build_train_spec(base_train_cfg, method, seed, overrides=params)
        if train_idx is not None:
            supervised = ([u[:, train_idx] for u in sup_sources], sup_mix[:, train_idx])
            val = ([u[:, val_idx] for u in sup_sources], sup_mix[:, val_idx])
        else:
            supervised = ([u for u in sup_sources], sup_mix)
            val = supervised
        needs_sup = spec.tau_S > 0
        bases, _ = train_with_method(
            method, sources or None, mixes, supervised if needs_sup else None, spec, wm
        )
        result = separate(val[1], bases, SparsityParams(mu_H=spec.sparsity.mu_H))
        return score_separation(result.filtered, val[0], metric, mweights, peak)

    result = amet.random_search(
        space,
        int(tuning.get("trials", 15)),
        evaluate,
        folds=int(tuning.get("folds", 5)),
        n=sup_mix.shape[1],
        seed=seed,
        use_cv=use_cv,
    )
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "best": result.best,
        "trials": [
            {"params": t.params, "fold_scores": [_json_score(x) for x in t.fold_scores],
             "mean_score": _json_score(t.mean_score), "error": t.error}
            for t in result.trials
        ],
    }
    (out / "tune_result.json").write_text(json.dumps(payload, indent=2, allow_nan=False))
    # retrain the winner on all data and persist it
    best_spec = build_train_spec(base_train_cfg, method, seed, overrides=result.best_trial.params)
    supervised = (sup_sources, sup_mix) if best_spec.tau_S > 0 else None
    bases, history = train_with_method(method, sources or None, mixes, supervised, best_spec, wm)
    aio.save_bundle(out / "best_model", bases, _spec_echo(best_spec), history, {"method": method})
    return 0


def _json_score(x):
    # strict JSON has no infinities: a non-finite score, such as a failed
    # trial's -inf, is written as null
    return x if math.isfinite(x) else None


def _parse_space(block):
    params = {}
    for name, sp in block.items():
        kind = sp["type"]
        if kind == "log_uniform":
            params[name] = amet.LogUniform(float(sp["lo"]), float(sp["hi"]))
        elif kind == "uniform":
            params[name] = amet.Uniform(float(sp["lo"]), float(sp["hi"]))
        elif kind == "choice":
            params[name] = amet.Choice(list(sp["options"]))
        else:
            raise CliError(f"unknown sampler type {kind!r} for {name}")
    return amet.SearchSpace(params)


def cmd_eval(args):
    if len(args.estimates) != len(args.references):
        raise CliError("need one reference per estimate")
    rows = []
    all_scores = {}
    for i, (e, r) in enumerate(zip(args.estimates, args.references)):
        est = aio.load_data_matrix(e, True)
        ref = aio.load_data_matrix(r, True)
        scores = amet.cap_scores(_per_column_scores(est, ref, args.metric, args.peak))
        all_scores[i] = scores
        rows.extend([k, i, args.metric, v] for k, v in enumerate(scores))
    seed = args.seed if args.seed is not None else 0
    for i, scores in all_scores.items():
        rows.append(["median", i, args.metric, float(np.median(scores))])
        rows.append(["bootstrap_se", i, args.metric, amet.median_bootstrap_se(scores, seed=seed)])
    _write_metrics_csv(args.output, rows)
    return 0


def cmd_features(args):
    for flag in ("--input-prefix", "--output") if args.inverse else ("--input", "--output-prefix"):
        if getattr(args, flag[2:].replace("-", "_")) is None:
            raise CliError(f"features needs {flag}")
    if args.inverse:
        cfg_data = json.loads(Path(args.input_prefix + ".cfg.json").read_text())
        cfg = feat.StftConfig(**{k: cfg_data[k] for k in ("n_fft", "hop", "window", "sample_rate")})
        mag = aio.read_matrix(args.input_prefix + ".mag.anmf")
        phase = aio.read_matrix(args.input_prefix + ".phase.anmf")
        spec = feat.Spectrogram(mag * np.exp(1j * phase), mag, cfg)
        signal = feat.istft(spec, length=cfg_data.get("length"))
        aio.write_wav(args.output, signal, cfg.sample_rate)
        return 0
    samples, rate = aio.load_wav(args.input)
    cfg = feat.StftConfig(n_fft=args.n_fft, hop=args.hop, sample_rate=rate)
    spec = feat.stft(samples, cfg)
    aio.write_matrix(args.output_prefix + ".mag.anmf", spec.magnitude)
    aio.write_matrix(args.output_prefix + ".phase.anmf", spec.phase)
    Path(args.output_prefix + ".cfg.json").write_text(
        json.dumps(
            {"n_fft": cfg.n_fft, "hop": cfg.hop, "window": cfg.window,
             "sample_rate": cfg.sample_rate, "length": len(samples)},
            indent=2,
        )
    )
    return 0


# ---------------------------------------------------------------- parser


def _build_parser():
    parser = argparse.ArgumentParser(prog="anmf", description=__doc__)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
    clamp = argparse.ArgumentParser(add_help=False)
    clamp.add_argument("--clamp-negatives", action="store_true")
    configured = argparse.ArgumentParser(add_help=False, parents=[seed, clamp])
    configured.add_argument("--config", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("mix", parents=[configured]).set_defaults(func=cmd_mix)
    sub.add_parser("train", parents=[configured]).set_defaults(func=cmd_train)
    sub.add_parser("tune", parents=[configured]).set_defaults(func=cmd_tune)

    p = sub.add_parser("separate", parents=[clamp])
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--references", nargs="*", default=None)
    p.add_argument("--metric", choices=("psnr", "sisdr"), default="psnr")
    p.add_argument("--peak", type=float, default=1.0)
    p.add_argument("--mu-h", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--clip", action="store_true", help="clamp outputs to [0, peak]")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("denoise")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--mode", choices=("project", "separate"), default="separate")
    p.add_argument("--n-fft", type=int, default=512)
    p.add_argument("--hop", type=int, default=128)
    p.add_argument("--mu-h", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=500)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", parents=[seed])
    p.add_argument("--estimates", nargs="+", required=True)
    p.add_argument("--references", nargs="+", required=True)
    p.add_argument("--metric", choices=("psnr", "sisdr"), default="psnr")
    p.add_argument("--peak", type=float, default=1.0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("features")
    p.add_argument("--input", default=None)
    p.add_argument("--output-prefix", default=None)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--input-prefix", default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--n-fft", type=int, default=512)
    p.add_argument("--hop", type=int, default=128)
    p.set_defaults(func=cmd_features)
    return parser


def run_cli(argv):
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (CliError, aio.FormatError, ValueError, OSError, KeyError) as e:
        print(f"anmf: error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
