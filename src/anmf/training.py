"""Basis training: multiplicative updates and the stochastic epoch loop.

Covers the whole method family through two weights: tau_S blends the
weakly supervised (per-source samples) objective against the strongly
supervised (paired mixes) one, and tau_A controls how hard the bases are
pushed away from the adversarial data. tau_A = tau_S = 0 is standard NMF,
tau_S = 1 is discriminative NMF, tau_A > 0 with tau_S = 0 is adversarial
NMF, anything else is the combined method.

Randomness is derived from the master seed as follows: the epoch shuffle
stream is ``default_rng([seed, 0])``, the exemplar/random initialization
of basis i uses ``[seed, 1, i]``, and the per-source batch resampling
stream is ``default_rng([seed, 1000 + i])``. Latent matrices start as all
ones (strictly positive, deterministic).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Basis,
    DimensionMismatch,
    Latents,
    SparsityParams,
    as_array,
    init_exemplar,
    init_random,
    normalize_columns,
    update_latents,
)

ANCHORS = ("true_data", "adversarial", "supervised")


@dataclass
class TrainSpec:
    """All training hyperparameters.

    d may be a single int (shared by all sources) or one int per source.
    """

    d: object = 16
    tau_A: float = 0.0
    tau_S: float = 0.0
    gamma: object = None
    sparsity: SparsityParams = field(default_factory=lambda: SparsityParams(1e-10, 1e-10))
    epochs: int = 200
    batch_size: int = 100
    seed: int = 0
    init: str = "exemplar"
    sample_anchor: str = "true_data"

    def __post_init__(self):
        if self.tau_A < 0:
            raise ValueError("tau_A must be >= 0")
        if not 0.0 <= self.tau_S <= 1.0:
            raise ValueError("tau_S must lie in [0, 1]")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.init not in ("exemplar", "random"):
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.sample_anchor not in ANCHORS:
            raise ValueError(f"unknown sample anchor {self.sample_anchor!r}")

    def dims(self, n_sources):
        if np.isscalar(self.d):
            return [int(self.d)] * n_sources
        if len(self.d) != n_sources:
            raise ValueError(f"need {n_sources} latent dimensions, got {len(self.d)}")
        return [int(x) for x in self.d]

    def gammas(self, n_sources):
        if self.gamma is None:
            return np.ones(n_sources)
        g = np.asarray(self.gamma, dtype=float)
        if len(g) != n_sources or np.any(g <= 0):
            raise ValueError("gamma must be a positive vector, one entry per source")
        return g


@dataclass
class TrainState:
    """Everything produced by a training run.

    The latents are in the column order of the last epoch's shuffle, not
    that of the data as given; an inactive term's latents are None.
    """

    bases: list
    latents_true: list
    latents_adv: list
    latents_sup: object
    history: list = field(default_factory=list)


def grad_parts_std(W, U, H, n):
    """Positive/negative gradient parts of the weakly supervised term."""
    W, U, H = as_array(W), as_array(U), as_array(H)
    if n == 0:
        raise ValueError("standard term has no columns")
    if W.shape[0] != U.shape[0] or W.shape[1] != H.shape[0] or U.shape[1] != H.shape[1]:
        raise DimensionMismatch("grad_parts_std", W.shape, U.shape)
    plus = W @ (H @ H.T) / n
    minus = U @ H.T / n
    return plus, minus


def grad_parts_adv(W, Uhat, Hhat, tau_A, nhat):
    """Gradient parts of the adversarial term.

    The data product lands on the positive (denominator) side and the
    Gram product on the negative side, the mirror image of the standard
    term: the update moves the basis away from the adversarial data.
    """
    W = as_array(W)
    if tau_A == 0.0 or Hhat is None:
        z = np.zeros_like(W)
        return z, z.copy()
    Uhat, Hhat = as_array(Uhat), as_array(Hhat)
    plus = tau_A * (Uhat @ Hhat.T) / nhat
    minus = tau_A * (W @ (Hhat @ Hhat.T)) / nhat
    return plus, minus


def grad_parts_sup(W_i, Usup_i, Hsup_i, n_sup):
    """Gradient parts of the strongly supervised term for one source."""
    W_i, Usup_i, Hsup_i = as_array(W_i), as_array(Usup_i), as_array(Hsup_i)
    if n_sup == 0:
        raise ValueError("supervised term has no columns")
    plus = W_i @ (Hsup_i @ Hsup_i.T) / n_sup
    minus = Usup_i @ Hsup_i.T / n_sup
    return plus, minus


def update_basis(W, parts_std, parts_adv, parts_sup, tau_S, mu_W, eps=1e-12):
    """One multiplicative basis update from blended gradient parts.

    Any parts tuple may be None; it then contributes nothing. Returns
    W * num / (den + mu_W + eps) with num/den the (1 - tau_S)-weighted
    standard-plus-adversarial parts plus the tau_S-weighted supervised
    parts.
    """
    W = as_array(W)
    num = np.zeros_like(W)
    den = np.zeros_like(W)
    if tau_S < 1.0:
        for parts in (parts_std, parts_adv):
            if parts is not None:
                den += (1.0 - tau_S) * parts[0]
                num += (1.0 - tau_S) * parts[1]
    if tau_S > 0.0 and parts_sup is not None:
        den += tau_S * parts_sup[0]
        num += tau_S * parts_sup[1]
    return W * num / (den + mu_W + eps)


def _term_weights(spec):
    """Signed objective weight of each term; the adversarial term is
    subtracted. A term is active when its weight is nonzero."""
    w_true = 1.0 - spec.tau_S
    return {"true_data": w_true, "adversarial": -w_true * spec.tau_A, "supervised": spec.tau_S}


def _init_basis(spec, source, d, seed):
    if spec.init == "exemplar":
        return init_exemplar(source, d, seed)
    return init_random(source.shape[0], d, seed)


def train_smu(true_data, spec, adversarial=None, supervised=None):
    """Stochastic multiplicative training of all bases.

    Args:
        true_data: list of per-source sample matrices (entries may be
            None when tau_S = 1 and only supervised data is used).
        spec: TrainSpec.
        adversarial: list of per-source adversarial matrices or
            AdversarialSet objects; required when tau_A > 0.
        supervised: (per-source ground-truth matrices, mixed matrix);
            required when tau_S > 0.

    Bases start from each source's true data, or its supervised data when
    none is given. Each epoch shuffles every active term's data jointly
    with its latent columns, updates the supervised latents, then per
    source normalizes the basis, updates that source's other latents and
    runs the batched basis update; all bases and latents are normalized
    at the end of the epoch. One term (the sample anchor) is fully covered
    by the batches; the other active terms are resampled with replacement
    to the same batch count. The recorded history is the gamma-weighted
    objective per epoch.

    Returns:
        TrainState with final bases, latents and objective history.
    """
    if true_data is None:
        if supervised is None:
            raise ValueError("no training data given")
        true_data = [None] * len(supervised[0])
    s = len(true_data)
    U = [as_array(u) if u is not None else None for u in true_data]
    weight = _term_weights(spec)
    data = {}  # active term -> per-source data, in ANCHORS order
    for name, sets in zip(ANCHORS, (U, adversarial, supervised[0] if supervised is not None else None)):
        if weight[name] == 0:
            continue
        if sets is None or any(x is None for x in sets):
            raise ValueError(f"{name} term is active but its data is missing")
        if len(sets) != s:
            raise ValueError(f"{name} data must cover every source")
        data[name] = [as_array(getattr(x, "matrix", x)) for x in sets]
    if "supervised" in data:
        Vsup = as_array(supervised[1])
        if any(u.shape[1] != Vsup.shape[1] for u in data["supervised"]):
            raise ValueError("supervised sources and mix must have the same column count")

    dims = spec.dims(s)
    gammas = spec.gammas(s)
    p = spec.sparsity
    row0 = np.cumsum([0] + dims)  # row offsets of each source in concatenated latents
    W = [
        _init_basis(spec, U[i] if U[i] is not None else data["supervised"][i], dims[i], [spec.seed, 1, i])
        for i in range(s)
    ]
    L = {name: [np.ones((dims[i], x.shape[1])) for i, x in enumerate(sets)] for name, sets in data.items()}
    per_source = [name for name in data if name != "supervised"]
    anchor = spec.sample_anchor if spec.sample_anchor in data else next(iter(data))
    shuffle_rng = np.random.default_rng([spec.seed, 0])
    samp_rng = [np.random.default_rng([spec.seed, 1000 + i]) for i in range(s)]
    history = []

    def normalize_source(i):
        W[i], scaled = normalize_columns(W[i], [L[name][i] for name in data], p.eps)
        for name, h in zip(data, scaled):
            L[name][i] = h

    def term_batch(name, i, b, n_batches):
        x, h = data[name][i], L[name][i]
        n = x.shape[1]
        if name == anchor:
            sl = slice(b * spec.batch_size, min((b + 1) * spec.batch_size, n))
            return x[:, sl], h[:, sl]
        if n_batches == 1:
            return x, h
        take = max(1, math.ceil(n / n_batches))
        idx = samp_rng[i].integers(0, n, size=take)
        return x[:, idx], h[:, idx]

    def gradient_parts(name, i, ub, hb):
        if name == "true_data":
            return grad_parts_std(W[i], ub, hb, ub.shape[1])
        if name == "adversarial":
            return grad_parts_adv(W[i], ub, hb, spec.tau_A, ub.shape[1])
        plus, minus = grad_parts_sup(W[i], ub, hb, ub.shape[1])
        return gammas[i] * plus, gammas[i] * minus

    for _ in range(spec.epochs):
        # joint column shuffles: one permutation per source and per-source
        # term, then one shared by the supervised sources, their stacked
        # latents and the mix
        for i in range(s):
            for name in per_source:
                perm = shuffle_rng.permutation(data[name][i].shape[1])
                data[name][i], L[name][i] = data[name][i][:, perm], L[name][i][:, perm]
        if "supervised" in data:
            perm = shuffle_rng.permutation(Vsup.shape[1])
            Vsup = Vsup[:, perm]
            data["supervised"] = [u[:, perm] for u in data["supervised"]]
            # pop, so the old row blocks are freed before the joint update
            Hsup = np.concatenate(L.pop("supervised"))[:, perm]
            Hsup = update_latents(Hsup, np.concatenate(W, axis=1), Vsup, p, n_scale=Vsup.shape[1])
            L["supervised"] = [Hsup[row0[i] : row0[i + 1]] for i in range(s)]

        for i in range(s):
            normalize_source(i)
            for name in per_source:
                L[name][i] = update_latents(L[name][i], W[i], data[name][i], p, n_scale=data[name][i].shape[1])
            n_batches = max(1, math.ceil(data[anchor][i].shape[1] / spec.batch_size))
            for b in range(n_batches):
                parts = {name: gradient_parts(name, i, *term_batch(name, i, b, n_batches)) for name in data}
                W[i] = update_basis(W[i], *(parts.get(name) for name in ANCHORS), spec.tau_S, p.mu_W, p.eps)

        for i in range(s):
            normalize_source(i)
        history.append(float(np.dot(gammas, _objective_arrays(W, data, L, weight, p.mu_W))))

    def latents(name):
        return [Latents(h) for h in L[name]] if name in L else [None] * s

    return TrainState(
        bases=[Basis(w) for w in W],
        latents_true=latents("true_data"),
        latents_adv=latents("adversarial"),
        latents_sup=Latents(np.concatenate(L["supervised"])) if "supervised" in L else None,
        history=history,
    )


def _objective_arrays(W, D, L, weight, mu_W):
    # per source: mu_W |W_i|_1 plus, for each term in D, its signed weight
    # times ||D_i - W_i L_i||^2 / N_i
    out = np.zeros(len(W))
    for i, w in enumerate(W):
        f = mu_W * np.sum(np.abs(w))
        for name in D:
            f += weight[name] * np.linalg.norm(D[name][i] - w @ L[name][i]) ** 2 / D[name][i].shape[1]
        out[i] = f
    return out


def objective(state, true_data, spec, adversarial=None, supervised=None):
    """Per-source training objective for an existing state.

    A term enters when its weight is nonzero and its data and latents are
    given. The state's latents, in the column order of the last epoch's
    shuffle, are paired with the data as given, so after a shuffled epoch
    the total differs from the last history entry.

    Returns (per_source, total) where total is the gamma-weighted sum.
    """
    W = [as_array(b) for b in state.bases]
    s = len(W)
    row0 = np.cumsum([0] + [w.shape[1] for w in W])
    sup_latents = [None] * s
    if state.latents_sup is not None:
        sup_latents = [as_array(state.latents_sup)[row0[i] : row0[i + 1]] for i in range(s)]
    weight = _term_weights(spec)
    terms = {
        "true_data": (true_data, state.latents_true),
        "adversarial": (adversarial, state.latents_adv),
        "supervised": (supervised[0] if supervised is not None else None, sup_latents),
    }
    D, L = {}, {}
    for name, (sets, lats) in terms.items():
        if weight[name] != 0 and sets is not None and all(x is not None for x in [*sets, *lats]):
            D[name] = [as_array(getattr(x, "matrix", x)) for x in sets]
            L[name] = [as_array(h) for h in lats]
    per_source = _objective_arrays(W, D, L, weight, spec.sparsity.mu_W)
    return per_source, float(np.dot(spec.gammas(s), per_source))


def train_semisupervised(V, pretrained, spec):
    """Fit the last source's basis from mixed data alone.

    The pretrained bases stay frozen; only the new basis and all latent
    variables are updated against the residual model sum_j W_j H_j. The
    latent dimension of the new basis is the last entry of spec.d.

    Returns:
        The fitted basis as an array.
    """
    V = as_array(V)
    if V.shape[1] == 0:
        raise ValueError("semi-supervised training needs mixed data")
    frozen = [as_array(b) for b in pretrained]
    s = len(frozen) + 1
    dims = spec.dims(s)
    p = spec.sparsity
    n_v = V.shape[1]
    W_s = _init_basis(spec, V, dims[-1], [spec.seed, 1, s - 1])
    bases = frozen + [W_s]
    H = [np.ones((dims[i], n_v)) for i in range(s)]

    for _ in range(spec.epochs):
        bases[-1], (H[-1],) = normalize_columns(bases[-1], [H[-1]], p.eps)
        model = sum(bases[i] @ H[i] for i in range(s))
        for i in range(s):
            num = bases[i].T @ V / n_v
            den = bases[i].T @ model / n_v + p.mu_H + p.eps
            H_new = H[i] * num / den
            model = model + bases[i] @ (H_new - H[i])
            H[i] = H_new
        parts = (model @ H[-1].T / n_v, V @ H[-1].T / n_v)
        bases[-1] = update_basis(bases[-1], parts, None, None, 0.0, p.mu_W, p.eps)
        bases[-1], (H[-1],) = normalize_columns(bases[-1], [H[-1]], p.eps)
    return bases[-1]
