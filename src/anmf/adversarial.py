"""Assembly of adversarial datasets.

Source i's adversarial matrix is the other sources' samples followed by
the naively inverted mixes, whose columns are scaled by sqrt(beta_i), the
root second moment of the naive inversion's gain under the weight model.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_array


@dataclass
class WeightModel:
    """Distribution of the mixing weights a_1..a_S.

    Either deterministic (a fixed simplex vector) or Dirichlet with the
    given concentration; mc_samples controls the Monte-Carlo estimate of
    the beta moments in the Dirichlet case.
    """

    mode: str = "deterministic"
    values: np.ndarray | None = None
    concentration: np.ndarray | None = None
    mc_samples: int = 100_000

    def __post_init__(self):
        if self.mode not in ("deterministic", "dirichlet"):
            raise ValueError(f"unknown weight mode {self.mode!r}")
        if self.mode == "deterministic":
            if self.values is None:
                raise ValueError("deterministic weights need values")
            self.values = np.asarray(self.values, dtype=float)
            if np.any(self.values < 0) or abs(self.values.sum() - 1.0) > 1e-9:
                raise ValueError("deterministic weights must lie on the simplex")
        else:
            if self.concentration is None:
                raise ValueError("dirichlet weights need a concentration vector")
            self.concentration = np.asarray(self.concentration, dtype=float)
            if np.any(self.concentration <= 0):
                raise ValueError("dirichlet concentration must be positive")
            if self.mc_samples < 1:
                raise ValueError("mc_samples must be >= 1")

    @classmethod
    def equal(cls, n_sources):
        """Deterministic equal weights 1/S, the default model."""
        return cls(values=np.full(n_sources, 1.0 / n_sources))

    @property
    def n_sources(self):
        """Number of sources S the model weighs."""
        return len(self.values if self.mode == "deterministic" else self.concentration)

    def sample(self, rng, size):
        """Draw size weight vectors, shape (size, S)."""
        if self.mode == "deterministic":
            return np.tile(self.values, (size, 1))
        return rng.dirichlet(self.concentration, size=size)


def compute_beta(wm, i, seed=0):
    """Second moment of source i's naive-inversion gain a_i / sum_j a_j^2.

    Deterministic mode returns (a_i / sum_j a_j^2)^2 exactly; Dirichlet
    mode estimates the same statistic by seeded Monte-Carlo over
    wm.mc_samples draws. A source index outside the model is a ValueError.
    """
    if not 0 <= i < wm.n_sources:
        raise ValueError(f"weight model has {wm.n_sources} sources, no source {i}")
    if wm.mode == "deterministic":
        a = wm.values
        return float((a[i] / np.sum(a**2)) ** 2)
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(wm.concentration, size=wm.mc_samples)
    gains = draws[:, i] / np.sum(draws**2, axis=1)
    return float(np.mean(gains**2))


def adversarial_sets(sources, mixes, wm, seed=0):
    """Every source's adversarial set, built once, and each source's
    training data.

    Set i is the other sources with columns, in order, then the mixes
    times sqrt(beta_i), beta_i = compute_beta(wm, i, seed=[seed, 77, i]).
    Each set is a new array in the inputs' layout; the mix block is scaled
    in place. Source j's training data is a view of its block in the first
    other source's set: the same values in the same layout, so the loaded
    array can be freed. A source that no set holds (one source, or no
    columns) keeps its own array.

    Returns:
        (sets, true_data): per-source lists; the given lists are unchanged.
    """
    arrays = [as_array(u) for u in sources]
    v = as_array(mixes) if mixes is not None else None
    mix = [v] if v is not None and v.shape[1] else []
    m_rows = {a.shape[0] for a in arrays + mix if a.size}
    if len(m_rows) > 1:
        raise ValueError(f"row counts differ across datasets: {sorted(m_rows)}")
    sets, true_data = [], list(arrays)
    for i in range(len(arrays)):
        others = [j for j, a in enumerate(arrays) if j != i and a.shape[1]]
        if not others and not mix:
            raise ValueError(f"no adversarial data available for source {i}")
        out = np.concatenate([arrays[j] for j in others] + mix, axis=1)
        if mix:
            out[:, -v.shape[1] :] *= np.sqrt(compute_beta(wm, i, seed=[seed, 77, i]))
        col = 0
        for j in others:
            n = arrays[j].shape[1]
            if true_data[j] is arrays[j]:
                true_data[j] = out[:, col : col + n]
            col += n
        sets.append(out)
    return sets, true_data
