"""Basis training: multiplicative updates and the stochastic epoch loop.

The objective is one weighted sum of fits weight * ||D - W L||^2 / N, with
one signed weight per term and source (_term_weights): 1 - tau_S for the
true data, -tau_A (1 - tau_S) for the adversarial data and tau_S gamma_i
for source i's supervised data. So tau_S blends the weakly supervised
(per-source samples) objective against the strongly supervised (paired
mixes) one, and tau_A sets how hard the bases are pushed away from the
adversarial data. tau_A = tau_S = 0 is standard NMF, tau_S = 1 is
discriminative NMF, tau_A > 0 with tau_S = 0 is adversarial NMF, anything
else is the combined method.

The basis step treats every term alike: it takes the b-th of n_batches =
ceil(N / batch_size) wrapped slices of each term's shuffled columns, for N
true-data columns (supervised ones when tau_S = 1), and update_basis
divides the sums of their grad_parts, swapped for a negative weight.

The objective is reported once, as the history: after each epoch, with
latents paired with their data columns, from m x d and d x d products.
Each fit is expanded as ||D - W L||^2 = ||D||^2 + <W, W (L L^T) - 2 D L^T>,
||D||^2 computed once per run; where that cancels to at most 1e-8 ||D||^2,
which rounding could dominate, the fit is computed directly instead.

Randomness is derived from the master seed alone: the epoch shuffle
stream is ``default_rng([seed, 0])`` and the exemplar/random
initialization of basis i uses ``[seed, 1, i]``. Latent matrices start as
all ones (strictly positive, deterministic).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    SparsityParams,
    _check_entries,
    as_array,
    init_exemplar,
    init_random,
    normalize_columns,
    update_latents,
)

TERMS = ("true_data", "adversarial", "supervised")


@dataclass
class TrainSpec:
    """All training hyperparameters.

    d may be a single int (shared by all sources) or one int per source.
    gamma, one positive weight per source (default all ones), scales
    source i's supervised term, and only that term, by gamma_i, in the
    basis step and in the recorded objective alike.
    """

    d: int | list[int] = 16
    tau_A: float = 0.0
    tau_S: float = 0.0
    gamma: list[float] | None = None
    sparsity: SparsityParams = field(default_factory=lambda: SparsityParams(1e-10, 1e-10))
    epochs: int = 200
    batch_size: int = 100
    seed: int = 0
    init: str = "exemplar"

    def __post_init__(self):
        if not 0 <= self.tau_A < np.inf:  # NaN too
            raise ValueError("tau_A must be >= 0 and finite")
        if not 0.0 <= self.tau_S <= 1.0:
            raise ValueError("tau_S must lie in [0, 1]")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.init not in ("exemplar", "random"):
            raise ValueError(f"unknown init mode {self.init!r}")

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
        if len(g) != n_sources or not np.all((g > 0) & (g < np.inf)):  # NaN fails both
            raise ValueError("gamma must be a positive vector, one entry per source")
        return g


@dataclass
class TrainState:
    """What a training run produces, as plain arrays.

    bases holds one m x d_i array per source, latents_true the true data's
    d_i x N latents per source (None when that term is inactive), in the
    column order of the last epoch's shuffle, not the data's: column j
    belongs to the data column that the composed shuffles moved to
    position j. history holds the objective after each epoch, on latents
    paired with their data.
    """

    bases: list
    latents_true: list
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
    if W.shape[0] != U.shape[0]:
        raise ValueError(f"grad_parts: incompatible shapes {W.shape} and {U.shape}")
    if H.shape != (W.shape[1], n):
        raise ValueError(f"grad_parts latents: shape {H.shape}, need {(W.shape[1], n)}")
    gram = W @ (H @ H.T)
    data = U @ H.T
    for part in (gram, data):
        part *= abs(weight)
        part /= n
    return (data, gram) if weight < 0 else (gram, data)


def update_basis(W, den, num, mu_W, eps):
    """One multiplicative basis update, W * num / (den + mu_W + eps), from
    gradient parts summed over the active terms."""
    return as_array(W) * num / (den + mu_W + eps)


def _term_weights(spec, n_sources):
    """Each term's signed weight per source, as an array (see the module
    docstring); a term is active when any of its weights is nonzero."""
    w_true = 1.0 - spec.tau_S
    return {
        "true_data": np.full(n_sources, w_true),
        "adversarial": np.full(n_sources, -spec.tau_A * w_true),
        "supervised": spec.tau_S * spec.gammas(n_sources),
    }


def _term_table(spec, true_data, adversarial, supervised):
    """(weight, data, mix): _term_weights' table, each active term's
    per-source arrays in TERMS order, and the supervised mix or None.
    An inactive term's data is not read; an active term's must cover every
    source with finite, non-negative columns, or a ValueError names it.
    """
    s = len(true_data)
    weight = _term_weights(spec, s)
    data = {}
    for name, sets in zip(TERMS, (true_data, adversarial, supervised[0] if supervised is not None else None)):
        if not np.any(weight[name]):
            continue
        if sets is None or any(x is None for x in sets):
            raise ValueError(f"{name} term is active but its data is missing")
        if len(sets) != s:
            raise ValueError(f"{name} data must cover every source")
        data[name] = [as_array(x) for x in sets]
        for i, x in enumerate(data[name]):
            if not x.shape[1]:
                raise ValueError(f"{name} data of source {i} has no columns")
            _check_entries(x, f"{name} data of source {i}")
    mix = None
    if "supervised" in data:
        mix = as_array(supervised[1])
        _check_entries(mix, "supervised mix")
        if any(u.shape[1] != mix.shape[1] for u in data["supervised"]):
            raise ValueError("supervised mix must have the same column count as the supervised sources")
    return weight, data, mix


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
            adversarial_sets returns; required when tau_A > 0.
        supervised: (per-source ground-truth matrices, mixed matrix);
            required when tau_S > 0.

    An active term's data (and the supervised mix) must be given for every
    source with finite, non-negative columns, or a ValueError names the term.

    Bases start from each source's true data, or its supervised data when
    none is given. Data and latents keep their given column order: each
    epoch shuffles every active term by composing a new permutation into
    the column order its data and latents share, and batches gather their
    columns through it. Each epoch then updates the supervised latents,
    then per source normalizes the basis, updates that source's other
    latents and runs the batched basis update; all bases and latents are
    normalized at the end of the epoch. Latents are updated and normalized
    in place, so each term holds its latents once. Batch b of each active
    term, of n columns in order o, is o[(b k + arange(k)) % n], k =
    ceil(n / n_batches), n_batches = ceil(N / batch_size) for the true
    data's N (the supervised data's when tau_S = 1): each epoch steps on
    every column, and on none more than twice when n >= n_batches. Each
    basis step sums the active terms' gradient parts, scaled by their
    signed weights. The history is the total objective after each epoch,
    the sum over sources of what those steps descend.

    Returns:
        TrainState with final bases, true-data latents and objective history.
    """
    if true_data is None:
        if supervised is None:
            raise ValueError("no training data given")
        true_data = [None] * len(supervised[0])
    s = len(true_data)
    U = [as_array(u) if u is not None else None for u in true_data]
    weight, data, Vsup = _term_table(spec, U, adversarial, supervised)

    dims = spec.dims(s)
    sq_norms = _sq_norms(data)
    p = spec.sparsity
    W = [
        _init_basis(spec, U[i] if U[i] is not None else data["supervised"][i], dims[i], [spec.seed, 1, i])
        for i in range(s)
    ]
    L = {name: [np.ones((dims[i], x.shape[1])) for i, x in enumerate(sets)]
         for name, sets in data.items() if name != "supervised"}
    if "supervised" in data:
        # one array whose row blocks are the per-source latents takes the joint update in place
        row0 = np.cumsum([0] + dims)
        Hsup = np.ones((row0[-1], Vsup.shape[1]))
        L["supervised"] = [Hsup[row0[i] : row0[i + 1]] for i in range(s)]
    order = {name: [np.arange(x.shape[1]) for x in sets] for name, sets in data.items()}
    per_source = [name for name in data if name != "supervised"]
    # the true data's column count (the supervised data's when tau_S = 1) sets the batch count
    n_batches = [math.ceil(x.shape[1] / spec.batch_size) for x in next(iter(data.values()))]
    shuffle_rng = np.random.default_rng([spec.seed, 0])
    history = []

    def normalize_source(i):
        # the latents are rescaled in place
        W[i], _ = normalize_columns(W[i], [L[name][i] for name in data], p.eps)

    def term_batch(name, i, b):
        # the b-th of n_batches[i] wrapped slices of the term's shuffled columns
        o = order[name][i]
        k = math.ceil(len(o) / n_batches[i])
        cols = o[(b * k + np.arange(k)) % len(o)]
        return data[name][i][:, cols], L[name][i][:, cols]

    for _ in range(spec.epochs):
        # column shuffles, composed into each term's order: one permutation
        # per source and per-source term, then one shared by the supervised
        # sources, their latents and the mix
        for i in range(s):
            for name in per_source:
                o = order[name][i]
                order[name][i] = o[shuffle_rng.permutation(len(o))]
        if "supervised" in data:
            o = order["supervised"][0]
            order["supervised"] = [o[shuffle_rng.permutation(len(o))]] * s
            update_latents(Hsup, np.concatenate(W, axis=1), Vsup, p, n_scale=Vsup.shape[1], out=Hsup)

        for i in range(s):
            normalize_source(i)
            for name in per_source:
                update_latents(L[name][i], W[i], data[name][i], p, n_scale=data[name][i].shape[1], out=L[name][i])
            for b in range(n_batches[i]):
                parts = [grad_parts(W[i], *term_batch(name, i, b), weight[name][i]) for name in data]
                W[i] = update_basis(W[i], *map(sum, zip(*parts)), p.mu_W, p.eps)
                del parts  # freed before the next batch's parts are made

        for i in range(s):
            normalize_source(i)
        history.append(float(np.sum(_objective_arrays(W, data, L, weight, p.mu_W, sq_norms))))

    # the true data's latents into the last epoch's column order, one array at a time
    latents_true = L.get("true_data", [None] * s)
    for i, o in enumerate(order.get("true_data", [])):
        latents_true[i] = latents_true[i][:, o]
    return TrainState(bases=W, latents_true=latents_true, history=history)


def _sq_norms(D):
    # norm ravels in memory order, so a column-major matrix is not copied
    return {name: [np.linalg.norm(x) ** 2 for x in sets] for name, sets in D.items()}


def _objective_arrays(W, D, L, weight, mu_W, sq_norms):
    # per source: mu_W |W_i|_1 plus, for each term in D, its signed weight_i
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
            f += weight[name][i] * sq / x.shape[1]
        out[i] = f
    return out

