"""Quality metrics, score aggregation, cross-validation and random search."""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import as_array

SENTINEL_CAP_DB = 100.0


def _psnr_inputs(estimate, reference, peak):
    estimate, reference = as_array(estimate), as_array(reference)
    if estimate.shape != reference.shape:
        raise ValueError(f"shape mismatch {estimate.shape} vs {reference.shape}")
    if not 0 < peak < math.inf:  # NaN too
        raise ValueError(f"peak must be positive and finite, not {peak}")
    return estimate, reference


def _psnr_db(mse, peak):
    return math.inf if mse == 0.0 else 10.0 * math.log10(peak**2 / mse)


def psnr(estimate, reference, peak=1.0):
    """Peak signal-to-noise ratio in dB; +inf on an exact match."""
    estimate, reference = _psnr_inputs(estimate, reference, peak)
    return _psnr_db(float(np.mean((estimate - reference) ** 2)), peak)


def psnr_columns(estimates, references, peak=1.0):
    """psnr of each column of two m x N matrices, as a list of N floats.

    One pass over the column-major squared error: each column's mean is
    summed over contiguous memory, as psnr sums a single column, so the
    scores are bitwise psnr(estimates[:, k], references[:, k]).
    """
    estimates, references = _psnr_inputs(estimates, references, peak)
    if estimates.ndim != 2:
        raise ValueError(f"psnr_columns needs matrices, got shape {estimates.shape}")
    err = np.subtract(estimates, references, order="F")
    np.square(err, out=err)
    return [_psnr_db(float(mse), peak) for mse in np.mean(err, axis=0)]


def si_sdr(estimate, reference):
    """Scale-invariant signal-to-distortion ratio in dB.

    The reference is rescaled by its optimal projection coefficient
    alpha = <estimate, reference> / ||reference||^2 before comparing, so
    the value is invariant to rescalings of the reference. An estimate
    proportional to the reference gives +inf; one with no component along
    the reference (all zero, or orthogonal to it) gives -inf.
    """
    estimate = as_array(estimate).ravel()
    reference = as_array(reference).ravel()
    ref_energy = float(np.dot(reference, reference))
    if ref_energy == 0.0:
        raise ValueError("si_sdr needs a nonzero reference")
    alpha = float(np.dot(estimate, reference)) / ref_energy
    target = alpha * reference
    target_energy = float(np.dot(target, target))
    if target_energy == 0.0:
        return -math.inf
    residual = np.subtract(target, estimate, out=target)
    noise = float(np.dot(residual, residual))
    if noise == 0.0:
        return math.inf
    return 10.0 * math.log10(target_energy / noise)


def cap_scores(scores, cap=SENTINEL_CAP_DB):
    """Clip scores to [-cap, cap], so that the +-inf sentinels keep medians
    and weighted means finite."""
    return [min(max(s, -cap), cap) for s in scores]


def weighted_score(per_source_scores, weights):
    """Weighted mean of per-source scores; weights must lie on the simplex."""
    scores = np.asarray(per_source_scores, dtype=float)
    w = np.asarray(weights, dtype=float)
    if len(scores) != len(w):
        raise ValueError("scores and weights must have equal length")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must lie on the simplex")
    return float(np.dot(w, scores))


def cv_split(n, folds, seed=0):
    """Seeded permutation split into folds of near-equal size.

    Returns a list of (train_indices, validation_indices); every index
    appears in exactly one validation set.
    """
    if not 2 <= folds <= n:
        raise ValueError(f"folds must lie in [2, {n}], got {folds}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    parts = np.array_split(perm, folds)
    out = []
    for k in range(folds):
        val = parts[k]
        train = np.concatenate([parts[j] for j in range(folds) if j != k])
        out.append((train, val))
    return out


def median_bootstrap_se(values, n_boot=1000, seed=0):
    """Bootstrap standard error of the median (seeded, n_boot resamples)."""
    values = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    medians = np.median(values[rng.integers(0, len(values), size=(n_boot, len(values)))], axis=1)
    return float(np.std(medians))


@dataclass
class LogUniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise ValueError("log-uniform needs 0 < lo < hi")

    def sample(self, rng):
        return float(np.exp(rng.uniform(np.log(self.lo), np.log(self.hi))))


@dataclass
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("uniform needs lo < hi")

    def sample(self, rng):
        return float(rng.uniform(self.lo, self.hi))


@dataclass
class Choice:
    options: list

    def __post_init__(self):
        if not self.options:
            raise ValueError("choice list must be non-empty")

    def sample(self, rng):
        return self.options[int(rng.integers(0, len(self.options)))]


@dataclass
class SearchSpace:
    """Per-parameter samplers over training hyperparameters."""

    params: dict

    def sample(self, rng):
        return {name: sampler.sample(rng) for name, sampler in self.params.items()}


@dataclass
class Trial:
    params: dict
    fold_scores: list
    mean_score: float
    error: str | None = None  # repr of the exception that ended the trial


@dataclass
class TuneResult:
    trials: list
    best: int

    @property
    def best_trial(self):
        return self.trials[self.best]


def random_search(space, trials, evaluate, folds=5, n=None, seed=0, use_cv=True):
    """Randomized hyperparameter search with optional cross-validation.

    For each trial t, parameters are sampled from default_rng([seed, t]).
    With use_cv, evaluate(params, train_idx, val_idx) is called once per
    fold of a seeded split of n items (the split is shared across trials);
    without it, evaluate(params, None, None) is called once on the full
    data. A trial whose evaluation raises ValueError, ArithmeticError or
    LinAlgError is kept with score -inf and the exception's repr as its
    error; any other exception propagates.

    Returns:
        TuneResult; best is the earliest trial attaining the maximal mean
        score.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    splits = cv_split(n, folds, seed) if use_cv else [(None, None)]
    results = []
    for t in range(trials):
        params = space.sample(np.random.default_rng([seed, t]))
        scores, error = [], None
        try:
            for train_idx, val_idx in splits:
                scores.append(float(evaluate(params, train_idx, val_idx)))
            mean = float(np.mean(scores))
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            scores, mean, error = [], -math.inf, repr(exc)
        results.append(Trial(params, scores, mean, error))
    best = int(np.argmax([r.mean_score for r in results]))
    return TuneResult(results, best)
