"""Command-line surface.

Subcommands: train, separate, denoise, tune, eval, mix, features and
synth, its inverse. mix, train and tune read a JSON --config; each
command takes only the flags and config keys it reads. Everything emitted
is machine-readable (CSV metrics, JSON manifests and tuning results).
"""

import argparse
import csv
import json
import math
import sys
from contextlib import suppress
from dataclasses import fields, replace
from functools import partial
from inspect import formatannotation
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from . import adversarial as adv
from . import features as feat
from . import io as aio
from . import metrics as amet
from .core import SparsityParams, as_array
from .separation import fit_sources, separate, wiener_mask
from .training import TrainSpec, train_smu

# method -> (train values it forces, defaults it puts under the train
# block); everything else falls back to TrainSpec's own defaults
METHODS = {
    "nmf": ({"tau_A": 0.0, "tau_S": 0.0}, {}),
    "enmf": ({"tau_A": 0.0, "tau_S": 0.0, "epochs": 0, "init": "exemplar"}, {}),
    "anmf": ({"tau_S": 0.0}, {"tau_A": 0.1}),
    "dnmf": ({"tau_A": 0.0, "tau_S": 1.0}, {}),
    "danmf": ({}, {"tau_A": 0.1, "tau_S": 0.5}),
}
CSV_HEADER = ["sample_index", "source", "metric", "value"]
# a config block's keys with their types (_typed) and the keys it requires; the train
# block holds a bundle's train_spec keys: TrainSpec's fields, sparsity's in its place
TRAIN_TYPES = {g.name: g.type for f in fields(TrainSpec)
               for g in (fields(SparsityParams) if f.name == "sparsity" else [f])}
MIX_KEYS = ({"sources": list[str], "output": dict, "seed": int, "snr_db": float, "weight_model": dict},
            ("sources", "output"))
DATA_TYPES = {"sources": list[str], "mixes": str, "supervised": dict}
TRAIN_KEYS = ({"output": str, "method": object, "data": dict, "train": dict, "weight_model": dict}, ("output",))
TUNE_KEYS = ({**TRAIN_KEYS[0], "seed": int, "tuning": dict, "metric": str, "metric_weights": list[float],
              "peak": float}, ("output",))
WEIGHT_MODEL_KEYS = {"deterministic": ({"values": list[float], "mode": str}, ("values",)),
                     "dirichlet": ({"concentration": list[float], "mode": str, "mc_samples": int}, ("concentration",))}
# tuning.space entry type -> (sampler, the entry's keys besides type for a
# tuned key of type t); a uniform draw is a float, so only a float key takes one
SAMPLERS = {"log_uniform": (amet.LogUniform, lambda t: {"lo": float, "hi": float}),
            "uniform": (amet.Uniform, lambda t: {"lo": float, "hi": float}),
            "choice": (amet.Choice, lambda t: {"options": list[t]})}


def _load_config(args, keys):
    """The JSON object in --config, checked against keys, a (types, required) pair."""
    return _config_block(aio.read_json(args.config), "config", args.config, *keys)


def _config_block(block, name, path, types, required=()):
    """block, the config object called name, checked against types (_typed, whose
    conversions it keeps): a non-object, a missing required key, an unknown key or a
    value of another type is a ValueError naming the block, the key and the config file."""
    if not isinstance(block, dict):
        raise ValueError(f"{path}: {name} must be a JSON object, not {json.dumps(block)}")
    missing = [k for k in required if k not in block]
    if missing:
        raise ValueError(f"{path}: {name} needs the key {missing[0]!r}")
    unknown = sorted(set(block) - set(types))
    if unknown:
        raise ValueError(f"{path}: unknown {name} keys: {', '.join(unknown)}")
    for k, v in block.items():
        try:
            block[k] = _typed(v, types[k])
        except (TypeError, OverflowError):  # OverflowError: an integer beyond float range for a float key
            where = k if name == "config" else f"{name}.{k}"
            t = "a JSON object" if types[k] is dict else formatannotation(types[k])
            raise ValueError(f"{path}: {where} must be {t}, not {json.dumps(v)}") from None
    return block


def _typed(value, t):
    # value as the JSON type t, such as str, list[str] or int | list[int], or a TypeError; object takes
    # anything, true and false are no numbers, and a number typed float is made a float
    if isinstance(t, UnionType):
        for arm in get_args(t):
            with suppress(TypeError):
                return _typed(value, arm)
    elif get_origin(t) is list:
        if isinstance(value, list):
            return [_typed(x, get_args(t)[0]) for x in value]
    elif t is object or not isinstance(value, bool) and isinstance(value, (int, float) if t is float else t):
        return float(value) if t is float else value
    raise TypeError


def _weight_model(cfg, n_sources, path):
    block = cfg.get("weight_model")
    if block is None:
        return adv.WeightModel.equal(n_sources)
    mode = block.get("mode", "deterministic")
    if mode not in tuple(WEIGHT_MODEL_KEYS):  # a tuple, so an unhashable mode is no TypeError
        raise ValueError(f"{path}: weight_model mode {mode!r} is not one of {', '.join(WEIGHT_MODEL_KEYS)}")
    # the block's keys are WeightModel's fields
    return adv.WeightModel(**_config_block(block, "weight_model", path, *WEIGHT_MODEL_KEYS[mode]))


def build_train_spec(train_cfg, method, seed=None, overrides=None):
    """Assemble a TrainSpec for a method from the config's train block.

    Values are taken, each from the first that has it, from the method's
    forced values in METHODS, the seed argument, the tuning overrides,
    the train block, the method's defaults and TrainSpec's own defaults.
    The callers check keys and types (_config_method, _parse_space); anmf
    with tau_A <= 0 and danmf with tau_S outside (0, 1) are ValueErrors.
    """
    forced, defaults = METHODS[method]
    seeded = {} if seed is None else {"seed": seed}
    cfg = {**defaults, **(train_cfg or {}), **(overrides or {}), **seeded, **forced}
    if method == "anmf" and cfg["tau_A"] <= 0:
        raise ValueError("anmf needs tau_A > 0")
    if method == "danmf" and not 0.0 < cfg["tau_S"] < 1.0:
        raise ValueError("danmf needs tau_S in (0, 1)")
    spec = TrainSpec()
    sparsity = replace(spec.sparsity, **{k: cfg.pop(k) for k in ("mu_W", "mu_H", "eps") if k in cfg})
    return replace(spec, sparsity=sparsity, **cfg)


def _per_column_scores(estimates, references, metric, peak):
    """metric per column for one source, capped by metrics.cap_scores;
    returns a list of floats."""
    est, ref = as_array(estimates), as_array(references)
    if metric == "psnr":
        return amet.cap_scores(amet.psnr_columns(est, ref, peak))
    return amet.cap_scores([amet.si_sdr(est[:, k], ref[:, k]) for k in range(est.shape[1])])


def score_separation(filtered, references, metric, weights, peak=1.0):
    """Weighted mean over sources of the per-source median of the capped
    column scores."""
    medians = [float(np.median(_per_column_scores(e, r, metric, peak))) for e, r in zip(filtered, references)]
    return amet.weighted_score(medians, weights)


def _score_rows(pairs, metric, peak):
    """metrics.csv rows [column, source, metric, score] of each (estimate,
    reference) pair's _per_column_scores, and those scores by source."""
    scores = [_per_column_scores(est, ref, metric, peak) for est, ref in pairs]
    return [[k, i, metric, v] for i, s in enumerate(scores) for k, v in enumerate(s)], scores


def _check_shape(path, mat, other_path, other):
    if mat.shape != other.shape:
        raise ValueError(f"{path} has shape {mat.shape}, but {other_path} has shape {other.shape}")


def _checked_reference(path, ref, other_path, other, metric):
    # ref, read from path, once it has the shape of its estimate other and, under sisdr, no column
    # of zero energy, which si_sdr has no projection onto
    _check_shape(path, ref, other_path, other)
    zero = np.flatnonzero(np.einsum("ij,ij->j", ref, ref) == 0) if metric == "sisdr" else []
    if len(zero):
        raise ValueError(f"{path}: column {zero[0]} is zero, and sisdr needs a nonzero reference")
    return ref


def _write_metrics_csv(path, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


# ---------------------------------------------------------------- commands


def cmd_mix(args):
    cfg = _load_config(args, MIX_KEYS)
    out = _config_block(cfg["output"], "output", args.config, {"mix": str, "ground_truth": list[str], "weights": str},
                        ("mix",))
    if len(out.get("ground_truth", cfg["sources"])) != len(cfg["sources"]):
        raise ValueError(f"{args.config}: output.ground_truth needs one path per source: "
                         f"{len(cfg['sources'])} sources, {len(out['ground_truth'])} paths")
    if "snr_db" in cfg and "weight_model" in cfg:
        raise ValueError(f"{args.config}: snr_db and weight_model exclude each other; SNR mixing reads no weight model")
    sources = [aio.load_data_matrix(p, args.clamp_negatives) for p in cfg["sources"]]
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    snr_db = cfg.get("snr_db")
    wm = None if snr_db is not None else _weight_model(cfg, len(sources), args.config)
    mix, truth, weights = aio.mix_synthetic(sources, wm, snr_db, seed)
    aio.write_matrix(out["mix"], mix)
    for path, t in zip(out.get("ground_truth", []), truth):
        aio.write_matrix(path, t)
    if "weights" in out:
        Path(out["weights"]).write_text(json.dumps({"weights": weights.tolist()}, indent=2))
    return 0


def _config_method(cfg, path):
    """The method of a train or tune config and its train block, whose keys are a bundle's train_spec keys."""
    method = cfg.get("method", "nmf")
    if method not in tuple(METHODS):  # a tuple, so an unhashable method is no TypeError
        raise ValueError(f"{path}: unknown method {method!r}")
    return method, _config_block(cfg.get("train", {}), "train", path, TRAIN_TYPES)


def _data_block(cfg, path, method, scored=False):
    """The checked data block of a train or tune config read from path, with
    its supervised block checked, and the number of bases it trains. Every
    method but dnmf, whose true-data term is off, needs data.sources, and
    dnmf and danmf need data.supervised; so does a config whose trials are
    scored (tune), with one source or more. A missing one is a ValueError."""
    data = _config_block(cfg.get("data", {}), "data", path, DATA_TYPES)
    for key, needed in (("sources", method != "dnmf"), ("supervised", method in ("dnmf", "danmf"))):
        if needed and not data.get(key):
            raise ValueError(f"{method} needs data.{key}")
    if "supervised" in data:
        data["supervised"] = _config_block(data["supervised"], "data.supervised", path,
                                           {"sources": list[str], "mix": str}, ("sources", "mix"))
    if scored and not data.get("supervised", {}).get("sources"):
        raise ValueError("the tune config needs a data.supervised block (sources and mix) to score trials on")
    # one basis per source: dnmf may train on the supervised sources alone
    return data, len(data.get("sources") or data["supervised"]["sources"])


def _training_inputs(clamp, cfg, path, data, seed, adversarial):
    """The sources, adversarial sets and supervised (sources, mix) pair of
    data, _data_block's data block of a train or tune config read from path,
    each None when there is none. Every file's header is read first:
    matrices of different row counts are a ValueError naming two of the
    files before any payload is read. So is a supervised source whose
    shape is not the supervised mix's and, under a tune config's sisdr
    metric, a zero supervised source column.

    With adversarial true, the sets are built here, once, from the source
    files and data.mixes, with betas seeded [seed, 77, i]
    (adversarial.adversarial_sets): each source is read straight into its
    block of a set and trains from it. Without, data.mixes is not read.
    """
    sources = [aio.DataFile(p, clamp) for p in data.get("sources", [])]
    mixes = aio.DataFile(data["mixes"], clamp) if adversarial and data.get("mixes") else None
    sup = data.get("supervised")
    sup_files = [aio.DataFile(p, clamp) for p in sup["sources"] + [sup["mix"]]] if sup else []
    # the data needs checked by _data_block name at least one file
    first, *rest = sources + [mixes] * (mixes is not None) + sup_files
    for f in rest:
        if f.shape[0] != first.shape[0]:
            raise ValueError(f"{f.path} has {f.shape[0]} rows, but {first.path} has {first.shape[0]}")
    sets = None
    if adversarial:
        wm = _weight_model(cfg, max(len(sources), 2), path)
        sets, sources = adv.adversarial_sets(sources, mixes, wm, seed)
    else:
        sources = [f.load() for f in sources]
    supervised = None
    if sup:
        *sup_sources, sup_mix = (f.load() for f in sup_files)
        # the pairs score tune's trials column by column, also when training does not read them
        for src_path, u in zip(sup["sources"], sup_sources):
            _checked_reference(src_path, u, sup["mix"], sup_mix, cfg.get("metric"))
        supervised = sup_sources, sup_mix
    return sources or None, sets, supervised


def _train_and_save(out, method, data, spec):
    sources, sets, supervised = data
    state = train_smu(sources, spec, adversarial=sets, supervised=supervised)
    echo = {k: getattr(spec.sparsity if hasattr(spec.sparsity, k) else spec, k) for k in TRAIN_TYPES}
    aio.save_bundle(out, state.bases, echo, state.history, {"method": method})


def cmd_train(args):
    cfg = _load_config(args, TRAIN_KEYS)
    method, train = _config_method(cfg, args.config)
    # the spec comes first: whether the adversarial sets are built, and their betas' seed, are read from it;
    # it needs one latent dimension and one gamma per basis before any data is read
    spec = build_train_spec(train, method, args.seed)
    data_block, n_bases = _data_block(cfg, args.config, method)
    spec.dims(n_bases)
    spec.gammas(n_bases)
    data = _training_inputs(args.clamp_negatives, cfg, args.config, data_block, spec.seed, spec.tau_A > 0)
    _train_and_save(cfg["output"], method, data, spec)
    return 0


def cmd_separate(args):
    if not 0 < args.peak < math.inf:  # NaN too
        raise ValueError(f"--peak must be positive and finite, not {args.peak}")
    p = SparsityParams(mu_H=float(args.mu_h), eps=1e-12)
    bundle = aio.load_bundle(args.model)
    if args.references is not None and len(args.references) != len(bundle.bases):
        raise ValueError(f"need one reference per basis: {len(bundle.bases)} bases, {len(args.references)} references")
    clamp = args.clamp_negatives
    V = aio.load_data_matrix(args.input, clamp)
    # the references are checked before any source file is written
    refs = [_checked_reference(path, aio.load_data_matrix(path, clamp), args.input, V, args.metric)
            for path in args.references or ()]
    result = separate(V, bundle.bases, p, max_iter=args.max_iter)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    estimates = []
    for i, u in enumerate(result.filtered):
        u = np.clip(u, 0.0, args.peak) if args.clip else u
        estimates.append(u)
        aio.write_matrix(out_dir / f"source_{i:03d}.anmf", u)
    if refs:
        rows, _ = _score_rows(zip(estimates, refs), args.metric, args.peak)
        _write_metrics_csv(out_dir / "metrics.csv", rows)
    return 0


def cmd_denoise(args):
    p = SparsityParams(mu_H=float(args.mu_h))
    bundle = aio.load_bundle(args.model)
    # one basis has nothing to separate the speech from: its mask is 1
    mode = args.mode or ("project" if len(bundle.bases) == 1 else "separate")
    if mode == "separate" and len(bundle.bases) == 1:
        raise ValueError("denoise --mode separate needs a bundle of two or more bases")
    n_fft = 2 * (bundle.manifest["m"] - 1)  # the bases are STFT magnitudes, n_fft/2 + 1 rows
    if n_fft < 2 or n_fft & (n_fft - 1):
        raise ValueError(f"{args.model}: {n_fft // 2 + 1} basis rows are not n_fft/2 + 1 for a power-of-two n_fft")
    samples, rate = aio.load_wav(args.input)
    # the reference is checked before any work, so a mismatch writes
    # nothing; it is read again for scoring, so the fit does not hold it
    if args.reference:
        ref, ref_rate = aio.load_wav(args.reference)
        if (ref_rate, len(ref)) != (rate, len(samples)):
            raise ValueError(f"{args.reference} has {len(ref)} samples at {ref_rate} Hz, "
                             f"but {args.input} has {len(samples)} samples at {rate} Hz")
        if not np.dot(ref, ref):
            raise ValueError(f"{args.reference}: every sample is zero, and sisdr needs a nonzero reference")
        del ref
    cfg = feat.StftConfig(n_fft=n_fft)
    # projection denoising fits the speech basis alone; the unexplained
    # remainder acts as the noise magnitude for the soft mask
    bases = bundle.bases[:1] if mode == "project" else bundle.bases

    def speech_block(spectrum):
        # one block of frames, end to end: every column is fitted on its own,
        # so the blocks give the whole spectrum's fit up to BLAS rounding (see
        # solve_nnls), and no spectrum-sized array outlives its block
        mag = np.abs(spectrum)
        mags = fit_sources(mag, bases, p, max_iter=args.max_iter)
        if mode == "project":  # the clipped remainder, in mag's memory
            mags.append(np.maximum(np.subtract(mag, mags[0], out=mag), 0.0, out=mag))
        # soft-mask synthesis of the speech signal alone: the speech mask multiplies the mix in place
        feat.apply_gain(spectrum, wiener_mask(mags[0], sum(mags), len(mags)))
        return spectrum

    # the padded signal that the blocks are cut from is freed with them
    speech = feat.istft_blocks(map(speech_block, feat.stft_blocks(samples, cfg)), cfg.n_frames(len(samples)), cfg,
                               length=len(samples))
    aio.write_wav(args.output, speech, rate)
    if args.reference:
        ref, _ = aio.load_wav(args.reference)
        scores = amet.cap_scores([amet.si_sdr(x, ref) for x in (speech, samples)])
        rows = [[0, label, "sisdr", v] for label, v in zip((0, "input"), scores)]
        _write_metrics_csv(Path(args.output).with_suffix(".csv"), rows)
    return 0


def cmd_tune(args):
    cfg = _load_config(args, TUNE_KEYS)
    method, base_train_cfg = _config_method(cfg, args.config)
    tuning = _config_block(cfg.get("tuning"), "tuning", args.config, {"space": dict, "trials": int, "folds": int},
                           ("space",))
    trials, folds = tuning.get("trials", 15), tuning.get("folds", 5)
    for key, value, least in (("trials", trials, 1), ("folds", folds, 2)):
        if value < least:
            raise ValueError(f"{args.config}: tuning.{key} must be >= {least}, not {value}")
    space = _parse_space(tuning["space"], args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    # every trial and the retrained winner share one seed
    if "seed" in base_train_cfg or "seed" in space.params:
        raise ValueError("tune takes its seed from --seed or the config's top-level seed, "
                         "not from the train block or the tuning space")
    # every trial's score reads the metric and the peak; a bad one would fail them all
    metric = cfg.get("metric", "psnr")
    if metric not in ("psnr", "sisdr"):
        raise ValueError(f"{args.config}: metric {metric!r} is not one of psnr, sisdr")
    peak = cfg.get("peak", 1.0)
    if not 0 < peak < math.inf:
        raise ValueError(f"{args.config}: peak must be positive and finite, not {peak}")
    # the untuned train keys, and each of them with every value a trial can draw, must
    # make a spec, with one latent dimension and gamma per basis, before any data is read: a
    # value the method rejects would otherwise fail its trials one by one. A trial
    # draws each choice option; uniform and log_uniform draw from [lo, hi), and lo
    # itself almost never, so a range is checked at each end one step inward (a tau_S
    # range [0, 1] is valid for danmf).
    data_block, n_bases = _data_block(cfg, args.config, method, scored=True)
    untuned_cfg = {k: v for k, v in base_train_cfg.items() if k not in space.params}

    def checked_spec(overrides):
        spec = build_train_spec(untuned_cfg, method, seed, overrides=overrides)
        spec.dims(n_bases)
        spec.gammas(n_bases)
        return spec

    untuned = checked_spec({})
    for name, sampler in space.params.items():
        if isinstance(sampler, amet.Choice):
            drawn = [(value, "") for value in sampler.options]
        else:
            lo, hi = sampler.lo, sampler.hi
            drawn = [(float(np.nextafter(a, b)), f" of the range [{lo}, {hi})") for a, b in ((lo, hi), (hi, lo))]
        for value, of in drawn:
            try:
                checked_spec({name: value})
            except ValueError as e:
                raise ValueError(f"{args.config}: tuning.space.{name} value {json.dumps(value)}{of}: {e}") from None
    # trials change neither the data, the weight model nor the seed, so one
    # build of the adversarial sets serves every trial and fold; it is made
    # when the train block or the search can give tau_A > 0
    tuned_tau_A = "tau_A" in space.params and "tau_A" not in METHODS[method][0]
    data = _training_inputs(args.clamp_negatives, cfg, args.config, data_block, seed, untuned.tau_A > 0 or tuned_tau_A)
    sources, sets, supervised = data
    sup_sources, sup_mix = supervised
    # the supervised data score every trial; split them when training reads them too
    use_cv = METHODS[method][0].get("tau_S") != 0.0
    if use_cv and folds > sup_mix.shape[1]:
        raise ValueError(f"{args.config}: tuning.folds must be at most the {sup_mix.shape[1]} supervised columns, "
                         f"not {folds}")
    mweights = cfg.get("metric_weights") or [1.0 / len(sup_sources)] * len(sup_sources)
    try:
        # every trial's score applies this check; a failure here would fail them all
        amet.weighted_score([0.0] * len(sup_sources), mweights)
    except ValueError as e:
        raise ValueError(f"metric_weights: {e}") from None

    def evaluate(params, train_idx, val_idx):
        spec = build_train_spec(base_train_cfg, method, seed, overrides=params)
        if train_idx is not None:
            train = ([u[:, train_idx] for u in sup_sources], sup_mix[:, train_idx])
            val = ([u[:, val_idx] for u in sup_sources], sup_mix[:, val_idx])
        else:
            train = val = supervised
        bases = train_smu(sources, spec, adversarial=sets, supervised=train).bases
        result = separate(val[1], bases, SparsityParams(mu_H=spec.sparsity.mu_H))
        return score_separation(result.filtered, val[0], metric, mweights, peak)

    result = amet.random_search(space, trials, evaluate, folds=folds, n=sup_mix.shape[1], seed=seed, use_cv=use_cv)
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
    _train_and_save(out / "best_model", method, data, best_spec)
    return 0


def _json_score(x):
    # strict JSON has no infinities: a non-finite score, such as a failed
    # trial's -inf, is written as null
    return x if math.isfinite(x) else None


def _parse_space(block, path):
    # a tuning.space names train keys, each with an entry whose type picks its keys from SAMPLERS
    params = {}
    for name, entry in _config_block(block, "tuning.space", path, dict.fromkeys(TRAIN_TYPES, dict)).items():
        where, t = f"tuning.space.{name}", TRAIN_TYPES[name]
        # an entry without a type is rejected by _config_block below
        has_type = "type" in entry
        if has_type and entry["type"] not in tuple(SAMPLERS):  # a tuple, so an unhashable type is no TypeError
            raise ValueError(f"{path}: {where} type {entry['type']!r} is not one of {', '.join(SAMPLERS)}")
        sampler, keys = SAMPLERS[entry["type"]] if has_type else (None, lambda t: {})
        if sampler in (amet.Uniform, amet.LogUniform) and t is not float:
            raise ValueError(f"{path}: {where} type {entry['type']!r} draws floats, "
                             f"but {name} is {formatannotation(t)}")
        _config_block(entry, where, path, {"type": str, **keys(t)}, ("type", *keys(t)))
        params[name] = sampler(*(entry[k] for k in keys(t)))
    return amet.SearchSpace(params)


def cmd_eval(args):
    if len(args.estimates) != len(args.references):
        raise ValueError("need one reference per estimate")
    # each pair is read and checked when its turn to be scored comes, not all pairs up front
    pairs = ((est, _checked_reference(r, aio.read_matrix(r), e, est, args.metric))
             for e, r in zip(args.estimates, args.references) for est in [aio.read_matrix(e)])
    rows, all_scores = _score_rows(pairs, args.metric, args.peak)
    seed = args.seed if args.seed is not None else 0
    for i, scores in enumerate(all_scores):
        rows.append(["median", i, args.metric, float(np.median(scores))])
        rows.append(["bootstrap_se", i, args.metric, amet.median_bootstrap_se(scores, seed=seed)])
    _write_metrics_csv(args.output, rows)
    return 0


def cmd_features(args):
    samples, rate = aio.load_wav(args.input)
    cfg = feat.StftConfig(n_fft=args.n_fft)
    blocks = feat.stft_blocks(samples, cfg)  # a too-short signal fails here, before any file is created
    shape = cfg.n_bins, cfg.n_frames(len(samples))
    # each block's magnitude and phase go straight to the files: no spectrum-sized array is held
    with (aio.matrix_writer(args.output_prefix + ".mag.anmf", *shape) as write_mag,
          aio.matrix_writer(args.output_prefix + ".phase.anmf", *shape) as write_phase):
        for block in blocks:
            write_mag(np.abs(block))
            write_phase(np.angle(block))
    # the window and rate are recorded for readers of the file; synth checks the window
    meta = {"n_fft": cfg.n_fft, "hop": cfg.hop, "window": "hann", "sample_rate": rate, "length": len(samples)}
    Path(args.output_prefix + ".cfg.json").write_text(json.dumps(meta, indent=2))
    return 0


def cmd_synth(args):
    sidecar = args.input_prefix + ".cfg.json"
    cfg_data = _config_block(aio.read_json(sidecar), "config", sidecar,
                             {"n_fft": int, "hop": int, "window": str, "sample_rate": int, "length": int},
                             ("n_fft", "hop", "window", "sample_rate"))
    if cfg_data["window"] != "hann":
        raise ValueError(f"unsupported window {cfg_data['window']!r}")
    cfg = feat.StftConfig(n_fft=cfg_data["n_fft"], hop=cfg_data["hop"])
    mag_path, phase_path = args.input_prefix + ".mag.anmf", args.input_prefix + ".phase.anmf"
    mag, phase = aio.read_matrix(mag_path), aio.read_matrix(phase_path)
    _check_shape(phase_path, phase, mag_path, mag)
    signal = feat.istft(mag * np.exp(1j * phase), cfg, length=cfg_data.get("length"))
    aio.write_wav(args.output, signal, cfg_data["sample_rate"])
    return 0


# ---------------------------------------------------------------- parser


def _build_parser():
    parser = argparse.ArgumentParser(prog="anmf", description=__doc__)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
    clamp = argparse.ArgumentParser(add_help=False)
    clamp.add_argument("--clamp-negatives", action="store_true")
    configured = argparse.ArgumentParser(add_help=False, parents=[seed, clamp])
    configured.add_argument("--config", required=True)
    scored = argparse.ArgumentParser(add_help=False)  # separate --references and eval
    scored.add_argument("--metric", choices=("psnr", "sisdr"), default="psnr")
    scored.add_argument("--peak", type=float, default=1.0)
    fitted = argparse.ArgumentParser(add_help=False)  # separate and denoise
    fitted.add_argument("--mu-h", type=float, default=1e-10)
    fitted.add_argument("--max-iter", type=int, default=500)
    # no abbreviations: synth --input would otherwise be read as --input-prefix
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    sub.add_parser("mix", parents=[configured]).set_defaults(func=cmd_mix)
    sub.add_parser("train", parents=[configured]).set_defaults(func=cmd_train)
    sub.add_parser("tune", parents=[configured]).set_defaults(func=cmd_tune)

    p = sub.add_parser("separate", parents=[clamp, scored, fitted])
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--references", nargs="*", default=None)
    p.add_argument("--clip", action="store_true", help="clamp outputs to [0, peak]")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("denoise", parents=[fitted])
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--mode", choices=("project", "separate"), help="default: project for one basis, else separate")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("eval", parents=[seed, scored])
    p.add_argument("--estimates", nargs="+", required=True)
    p.add_argument("--references", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("features")
    p.add_argument("--input", required=True)
    p.add_argument("--output-prefix", required=True)
    p.add_argument("--n-fft", type=int, default=512)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("synth")
    p.add_argument("--input-prefix", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)
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
    except (ValueError, OSError) as e:
        print(f"anmf: error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
