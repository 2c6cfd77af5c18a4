"""Basis training: multiplicative updates and the stochastic epoch loop.

Covers the whole method family through two weights: tau_S blends the
weakly supervised (per-source samples) objective against the strongly
supervised (paired mixes) one, and tau_A controls how hard the bases are
pushed away from the adversarial data. tau_A = tau_S = 0 is standard NMF,
tau_S = 1 is discriminative NMF, tau_A > 0 with tau_S = 0 is adversarial
NMF, anything else is the combined method.

Every term of the objective is a weighted fit weight * ||D - W L||^2 / N,
and the basis step treats them alike (grad_parts): the Gram product
W L L^T goes to the denominator of the multiplicative update and the data
product D L^T to the numerator, each scaled by |weight| / N and swapped
for the subtracted adversarial term; update_basis divides the blended
sums.

The recorded objective is taken from m x d and d x d products: each fit
is expanded as ||D - W L||^2 = ||D||^2 + <W, W (L L^T) - 2 D L^T>, with
||D||^2 computed once per run because a column shuffle leaves it
unchanged. Where the expansion cancels to at
most 1e-8 ||D||^2, rounding could dominate it, and the fit is computed
directly instead.

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
    DimensionMismatch,
    SparsityParams,
    _check_nonneg,
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
    gamma, one positive weight per source (default all ones), scales
    source i's supervised term, and only that term, by gamma_i, in the
    basis step and in the recorded objective alike.
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
    """Everything produced by a training run, as plain arrays.

    bases holds one m x d_i array per source, latents_true and latents_adv
    one d_i x N array per source (None for an inactive term), latents_sup
    the stacked supervised latents or None. The latents are in the column
    order of the last epoch's shuffle, not that of the data as given.
    """

    bases: list
    latents_true: list
    latents_adv: list
    latents_sup: object
    history: list = field(default_factory=list)


def grad_parts(W, U, H, weight):
    """Denominator and numerator parts of the basis gradient of
    weight * ||U - W H||^2 / N.

    They are the Gram product W H H^T and the data product U H^T, both
    scaled by |weight| / N. A negative weight swaps them, so the update
    moves the basis away from that term's data.
    """
    W, U, H = as_array(W), as_array(U), as_array(H)
    n = U.shape[1]
    if n == 0:
        raise ValueError("gradient term has no columns")
    if W.shape[0] != U.shape[0] or W.shape[1] != H.shape[0] or n != H.shape[1]:
        raise DimensionMismatch("grad_parts", W.shape, U.shape)
    gram = abs(weight) * (W @ (H @ H.T)) / n
    data = abs(weight) * (U @ H.T) / n
    return (data, gram) if weight < 0 else (gram, data)


def update_basis(W, den, num, mu_W, eps):
    """One multiplicative basis update, W * num / (den + mu_W + eps), from
    gradient parts summed over the active terms."""
    return as_array(W) * num / (den + mu_W + eps)


def _term_weights(spec, n_sources):
    """Each term's (blend, per-source weights); the objective weighs source
    i's term by blend * weights[i], and a term is active when that product
    is nonzero.

    tau_S blends the weakly supervised objective (true data minus tau_A
    times adversarial) against the strongly supervised one; the weight is
    the term's sign and scale inside its objective, gamma_i for source i's
    supervised term.
    """
    w_true = 1.0 - spec.tau_S
    ones = np.ones(n_sources)
    return {
        "true_data": (w_true, ones),
        "adversarial": (w_true, -spec.tau_A * ones),
        "supervised": (spec.tau_S, spec.gammas(n_sources)),
    }


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
        adversarial: list of per-source adversarial matrices, such as
            assemble_adversarial returns; required when tau_A > 0.
        supervised: (per-source ground-truth matrices, mixed matrix);
            required when tau_S > 0.

    Every active term's data, and the supervised mix, must be finite and
    non-negative; a ValueError names the term that is not.

    Bases start from each source's true data, or its supervised data when
    none is given. Each epoch shuffles every active term's data jointly
    with its latent columns, updates the supervised latents, then per
    source normalizes the basis, updates that source's other latents and
    runs the batched basis update; all bases and latents are normalized
    at the end of the epoch. One term (the sample anchor) is fully covered
    by the batches; the other active terms are resampled with replacement
    to the same batch count. A batch's basis step sums each active term's
    gradient parts, scaled by the term's weight (gamma_i for the
    supervised term) and then by its tau_S blend. The recorded history is
    the total objective after each epoch, the sum over sources of what
    those steps descend.

    Returns:
        TrainState with final bases, latents and objective history.
    """
    if true_data is None:
        if supervised is None:
            raise ValueError("no training data given")
        true_data = [None] * len(supervised[0])
    s = len(true_data)
    U = [as_array(u) if u is not None else None for u in true_data]
    weight = _term_weights(spec, s)
    data = {}  # active term -> per-source data, in ANCHORS order
    for name, sets in zip(ANCHORS, (U, adversarial, supervised[0] if supervised is not None else None)):
        if not np.any(np.multiply(*weight[name])):
            continue
        if sets is None or any(x is None for x in sets):
            raise ValueError(f"{name} term is active but its data is missing")
        if len(sets) != s:
            raise ValueError(f"{name} data must cover every source")
        data[name] = [as_array(x) for x in sets]
        for i, x in enumerate(data[name]):
            _check_nonneg(x, f"{name} data of source {i}")
    if "supervised" in data:
        Vsup = as_array(supervised[1])
        _check_nonneg(Vsup, "supervised mix")
        if any(u.shape[1] != Vsup.shape[1] for u in data["supervised"]):
            raise ValueError("supervised sources and mix must have the same column count")

    dims = spec.dims(s)
    sq_norms = _sq_norms(data)
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
                den = num = 0.0
                for name in data:
                    blend, w = weight[name]
                    g_den, g_num = grad_parts(W[i], *term_batch(name, i, b, n_batches), w[i])
                    den, num = den + blend * g_den, num + blend * g_num
                W[i] = update_basis(W[i], den, num, p.mu_W, p.eps)

        for i in range(s):
            normalize_source(i)
        history.append(float(np.sum(_objective_arrays(W, data, L, weight, p.mu_W, sq_norms))))

    return TrainState(
        bases=W,
        latents_true=L.get("true_data", [None] * s),
        latents_adv=L.get("adversarial", [None] * s),
        latents_sup=np.concatenate(L["supervised"]) if "supervised" in L else None,
        history=history,
    )


def _sq_norms(D):
    # norm ravels in memory order, so a column-major matrix is not copied
    return {name: [np.linalg.norm(x) ** 2 for x in sets] for name, sets in D.items()}


def _objective_arrays(W, D, L, weight, mu_W, sq_norms):
    # per source: mu_W |W_i|_1 plus, for each term in D, blend * weight_i
    # times ||D_i - W_i L_i||^2 / N_i, the squared fit expanded as
    # ||D_i||^2 + <W_i, W_i (L_i L_i^T) - 2 D_i L_i^T>. Every product is
    # m x d or d x d, which BLAS forms from either memory layout without a
    # copy. Where the expansion cancels to at most 1e-8 ||D_i||^2 it may be
    # mostly rounding, so the fit is recomputed directly.
    out = np.zeros(len(W))
    for i, w in enumerate(W):
        f = mu_W * np.sum(np.abs(w))
        for name in D:
            x, h, dd = D[name][i], L[name][i], sq_norms[name][i]
            sq = dd + np.vdot(w, w @ (h @ h.T) - 2 * (x @ h.T))
            if sq <= 1e-8 * dd:
                sq = np.linalg.norm(x - w @ h) ** 2
            blend, wt = weight[name]
            f += blend * wt[i] * sq / x.shape[1]
        out[i] = f
    return out


def objective(state, true_data, spec, adversarial=None, supervised=None):
    """Per-source training objective for an existing state.

    A term enters when its weight is nonzero and its data and latents are
    given; source i's supervised term is weighted by gamma_i, as in the
    basis step. The state's latents, in the column order of the last
    epoch's shuffle, are paired with the data as given, so after a
    shuffled epoch the total differs from the last history entry.

    Returns (per_source, total) where total is the sum over sources.
    """
    W = [as_array(b) for b in state.bases]
    s = len(W)
    row0 = np.cumsum([0] + [w.shape[1] for w in W])
    sup_latents = [None] * s
    if state.latents_sup is not None:
        sup_latents = [as_array(state.latents_sup)[row0[i] : row0[i + 1]] for i in range(s)]
    weight = _term_weights(spec, s)
    terms = {
        "true_data": (true_data, state.latents_true),
        "adversarial": (adversarial, state.latents_adv),
        "supervised": (supervised[0] if supervised is not None else None, sup_latents),
    }
    D, L = {}, {}
    for name, (sets, lats) in terms.items():
        if np.any(np.multiply(*weight[name])) and sets is not None and all(x is not None for x in [*sets, *lats]):
            D[name] = [as_array(x) for x in sets]
            L[name] = [as_array(h) for h in lats]
    per_source = _objective_arrays(W, D, L, weight, spec.sparsity.mu_W, _sq_norms(D))
    return per_source, float(np.sum(per_source))


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
        bases[-1] = update_basis(bases[-1], model @ H[-1].T / n_v, V @ H[-1].T / n_v, p.mu_W, p.eps)
        bases[-1], (H[-1],) = normalize_columns(bases[-1], [H[-1]], p.eps)
    return bases[-1]
