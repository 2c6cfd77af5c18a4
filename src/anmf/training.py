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

    @property
    def method(self):
        if self.tau_S == 1.0:
            return "dnmf"
        if self.tau_S > 0.0:
            return "danmf"
        return "anmf" if self.tau_A > 0.0 else "nmf"

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
    """Everything produced by a training run."""

    bases: list
    latents_true: list
    latents_adv: list
    latents_sup: object
    epoch: int = 0
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
    w_true = 1.0 - spec.tau_S
    return w_true, w_true * spec.tau_A, spec.tau_S


def _resolve_anchor(spec, active):
    if active.get(spec.sample_anchor):
        return spec.sample_anchor
    for name in ANCHORS:
        if active.get(name):
            return name
    raise ValueError("no active training term to anchor batches on")


def _init_basis(spec, source, m, d, seed):
    if spec.init == "exemplar" and source is not None:
        return init_exemplar(source, d, seed)
    return init_random(m, d, seed)


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

    Each epoch shuffles every active dataset jointly with its latent
    columns, updates the supervised latents, then per source normalizes
    the basis, updates that source's latents and runs the batched basis
    update; all bases and latents are normalized at the end of the epoch.
    One term (the sample anchor) is fully covered by the batches; the
    other active terms are resampled with replacement to the same batch
    count. The recorded history is the gamma-weighted objective per epoch.

    Returns:
        TrainState with final bases, latents and objective history.
    """
    if true_data is None:
        if supervised is None:
            raise ValueError("no training data given")
        true_data = [None] * len(supervised[0])
    s = len(true_data)
    w_true, w_adv, w_sup = _term_weights(spec)
    U = [as_array(u) if u is not None else None for u in true_data]
    if w_true > 0 and any(u is None for u in U):
        raise ValueError("weakly supervised term is active but source data is missing")
    if w_adv > 0:
        if adversarial is None or any(a is None for a in adversarial):
            raise ValueError("adversarial term is active but adversarial data is missing")
        Uhat = [as_array(getattr(a, "matrix", a)) for a in adversarial]
    else:
        Uhat = [None] * s
    if w_sup > 0:
        if supervised is None:
            raise ValueError("supervised term is active but supervised data is missing")
        Usup = [as_array(u) for u in supervised[0]]
        Vsup = as_array(supervised[1])
        n_sup = Vsup.shape[1]
        if len(Usup) != s:
            raise ValueError("supervised data must cover every source")
    else:
        Usup, Vsup, n_sup = None, None, 0

    m = next(a.shape[0] for a in (U + (Usup or [])) if a is not None)
    dims = spec.dims(s)
    gammas = spec.gammas(s)
    p = spec.sparsity
    row0 = np.cumsum([0] + dims)  # row offsets of each source in concatenated latents

    W = [
        _init_basis(spec, U[i] if U[i] is not None else (Usup[i] if Usup else None), m, dims[i], [spec.seed, 1, i])
        for i in range(s)
    ]
    H = [np.ones((dims[i], U[i].shape[1])) if w_true > 0 else None for i in range(s)]
    Hhat = [np.ones((dims[i], Uhat[i].shape[1])) if w_adv > 0 else None for i in range(s)]
    Hsup = np.ones((row0[-1], n_sup)) if w_sup > 0 else None

    active = {"true_data": w_true > 0, "adversarial": w_adv > 0, "supervised": w_sup > 0}
    anchor = _resolve_anchor(spec, active)
    shuffle_rng = np.random.default_rng([spec.seed, 0])
    samp_rng = [np.random.default_rng([spec.seed, 1000 + i]) for i in range(s)]
    history = []

    def sup_block(i):
        return Hsup[row0[i] : row0[i + 1]]

    def objective_now():
        per_source = _objective_arrays(W, U, H, Uhat, Hhat, Usup, Hsup, row0, spec)
        return float(np.dot(gammas, per_source))

    def normalize_source(i):
        partners = [H[i], Hhat[i], sup_block(i) if Hsup is not None else None]
        W[i], scaled = normalize_columns(W[i], [x for x in partners if x is not None], p.eps)
        scaled = iter(scaled)
        if H[i] is not None:
            H[i] = next(scaled)
        if Hhat[i] is not None:
            Hhat[i] = next(scaled)
        if Hsup is not None:
            Hsup[row0[i] : row0[i + 1]] = next(scaled)

    def term_batch(data, lat, name, b, n_batches, rng):
        n = data.shape[1]
        if name == anchor:
            sl = slice(b * spec.batch_size, min((b + 1) * spec.batch_size, n))
            return data[:, sl], lat[:, sl]
        if n_batches == 1:
            return data, lat
        take = max(1, math.ceil(n / n_batches))
        idx = rng.integers(0, n, size=take)
        return data[:, idx], lat[:, idx]

    for epoch in range(spec.epochs):
        # joint column shuffles, one permutation per active term
        for i in range(s):
            if active["true_data"]:
                perm = shuffle_rng.permutation(U[i].shape[1])
                U[i], H[i] = U[i][:, perm], H[i][:, perm]
            if active["adversarial"]:
                perm = shuffle_rng.permutation(Uhat[i].shape[1])
                Uhat[i], Hhat[i] = Uhat[i][:, perm], Hhat[i][:, perm]
        if active["supervised"]:
            perm = shuffle_rng.permutation(n_sup)
            Vsup, Hsup = Vsup[:, perm], Hsup[:, perm]
            Usup = [u[:, perm] for u in Usup]
            Wcat = np.concatenate(W, axis=1)
            Hsup = update_latents(Hsup, Wcat, Vsup, p, n_scale=n_sup)

        for i in range(s):
            normalize_source(i)
            if active["true_data"]:
                H[i] = update_latents(H[i], W[i], U[i], p, n_scale=U[i].shape[1])
            if active["adversarial"]:
                Hhat[i] = update_latents(Hhat[i], W[i], Uhat[i], p, n_scale=Uhat[i].shape[1])

            n_anchor = {
                "true_data": U[i].shape[1] if U[i] is not None else 0,
                "adversarial": Uhat[i].shape[1] if Uhat[i] is not None else 0,
                "supervised": n_sup,
            }[anchor]
            n_batches = max(1, math.ceil(n_anchor / spec.batch_size))
            for b in range(n_batches):
                parts_std = parts_adv = parts_sup = None
                if active["true_data"]:
                    ub, hb = term_batch(U[i], H[i], "true_data", b, n_batches, samp_rng[i])
                    parts_std = grad_parts_std(W[i], ub, hb, ub.shape[1])
                if active["adversarial"]:
                    ub, hb = term_batch(Uhat[i], Hhat[i], "adversarial", b, n_batches, samp_rng[i])
                    parts_adv = grad_parts_adv(W[i], ub, hb, spec.tau_A, ub.shape[1])
                if active["supervised"]:
                    ub, hb = term_batch(Usup[i], sup_block(i), "supervised", b, n_batches, samp_rng[i])
                    plus, minus = grad_parts_sup(W[i], ub, hb, ub.shape[1])
                    parts_sup = (gammas[i] * plus, gammas[i] * minus)
                W[i] = update_basis(W[i], parts_std, parts_adv, parts_sup, spec.tau_S, p.mu_W, p.eps)

        for i in range(s):
            normalize_source(i)
        history.append(objective_now())

    return TrainState(
        bases=[Basis(W[i], source_id=i) for i in range(s)],
        latents_true=[Latents(h) if h is not None else None for h in H],
        latents_adv=[Latents(h) if h is not None else None for h in Hhat],
        latents_sup=Latents(Hsup) if Hsup is not None else None,
        epoch=spec.epochs,
        history=history,
    )


def _objective_arrays(W, U, H, Uhat, Hhat, Usup, Hsup, row0, spec):
    w_true, w_adv, w_sup = _term_weights(spec)
    s = len(W)
    out = np.zeros(s)
    for i in range(s):
        f = spec.sparsity.mu_W * np.sum(np.abs(W[i]))
        if w_true > 0 and U[i] is not None and H[i] is not None:
            f += w_true * np.linalg.norm(U[i] - W[i] @ H[i]) ** 2 / U[i].shape[1]
        if w_adv > 0 and Uhat[i] is not None and Hhat[i] is not None:
            f -= w_adv * np.linalg.norm(Uhat[i] - W[i] @ Hhat[i]) ** 2 / Uhat[i].shape[1]
        if w_sup > 0 and Usup is not None and Hsup is not None:
            hs = Hsup[row0[i] : row0[i + 1]]
            f += w_sup * np.linalg.norm(Usup[i] - W[i] @ hs) ** 2 / Usup[i].shape[1]
        out[i] = f
    return out


def objective(state, true_data, spec, adversarial=None, supervised=None):
    """Per-source training objective for an existing state.

    Returns (per_source, total) where total is the gamma-weighted sum.
    """
    W = [as_array(b) for b in state.bases]
    s = len(W)
    dims = [w.shape[1] for w in W]
    row0 = np.cumsum([0] + dims)
    U = [as_array(u) if u is not None else None for u in (true_data or [None] * s)]
    H = [as_array(h) if h is not None else None for h in state.latents_true]
    Uhat = [as_array(getattr(a, "matrix", a)) if a is not None else None for a in (adversarial or [None] * s)]
    Hhat = [as_array(h) if h is not None else None for h in state.latents_adv]
    Usup = [as_array(u) for u in supervised[0]] if supervised is not None else None
    Hsup = as_array(state.latents_sup) if state.latents_sup is not None else None
    per_source = _objective_arrays(W, U, H, Uhat, Hhat, Usup, Hsup, row0, spec)
    total = float(np.dot(spec.gammas(s), per_source))
    return per_source, total


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
    W_s = _init_basis(spec, V, V.shape[0], dims[-1], [spec.seed, 1, s - 1])
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
        num = V @ H[-1].T / n_v
        den = model @ H[-1].T / n_v + p.mu_W + p.eps
        bases[-1] = bases[-1] * num / den
        bases[-1], (H[-1],) = normalize_columns(bases[-1], [H[-1]], p.eps)
    return bases[-1]
