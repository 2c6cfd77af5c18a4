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


def _load(x, out=None):
    # an entry's values in out, or in an array of its own: a file entry
    # (io.DataFile) loads itself, and an array is copied into out or kept
    if hasattr(x, "load"):
        return x.load(out)
    if out is None:
        return x
    out[...] = x
    return out


def adversarial_sets(sources, mixes, wm, seed=0):
    """Every source's adversarial set, built once, and each source's
    training data.

    Set i is the other sources with columns, in order, then the mixes
    times sqrt(beta_i), beta_i = compute_beta(wm, i, seed=[seed, 77, i]).
    Each set is a new array, column-major unless an array entry is not.
    An entry of sources, and mixes, is an array or a file not yet read
    (io.DataFile): anything with a shape and load(out=None), which reads
    the payload into out, an F-contiguous block, or a new array. Each entry
    is read or copied once, into its block of the first set that holds it,
    and that block is copied into the other sets; the mix blocks are scaled
    in place once all are copied. Source j's training data is its block in
    the first set: the same values in the same layout, and no other copy.
    A source that no set holds (one source, or no columns) keeps its own
    array, or is loaded into one.

    Returns:
        (sets, true_data): per-source lists; the given lists are unchanged.
    """
    # the mixes, if any, are the last entry, which every set holds
    given = list(sources) + ([] if mixes is None else [mixes])
    entries = [x if hasattr(x, "load") else as_array(x) for x in given]
    cols = [x.shape[1] for x in entries]
    n_mix = cols[-1] if mixes is not None else 0
    m_rows = {x.shape[0] for x, n in zip(entries, cols) if x.shape[0] and n}
    if len(m_rows) > 1:
        raise ValueError(f"row counts differ across datasets: {sorted(m_rows)}")
    order = "F" if all(x.flags.f_contiguous for x in entries if isinstance(x, np.ndarray)) else "C"
    held, sets = [None] * len(entries), []
    for i in range(len(sources)):
        blocks = [j for j, n in enumerate(cols) if j != i and n]
        if not blocks:
            raise ValueError(f"no adversarial data available for source {i}")
        out = np.empty((entries[blocks[0]].shape[0], sum(cols[j] for j in blocks)), order=order)
        col = 0
        for j in blocks:
            block = out[:, col : col + cols[j]]
            if held[j] is None:
                held[j] = _load(entries[j], block)
            else:
                block[...] = held[j]
            col += cols[j]
        sets.append(out)
    if n_mix:
        for i, out in enumerate(sets):
            out[:, -n_mix:] *= np.sqrt(compute_beta(wm, i, seed=[seed, 77, i]))
    return sets, [_load(x) if h is None else h for x, h in zip(entries[: len(sources)], held)]
