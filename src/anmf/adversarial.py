"""Assembly of adversarial datasets.

For each source i the adversarial matrix is built from the other sources'
samples and naively inverted mixes, with mixture weights omega, the
second-moment gain beta of the naive inversion, and per-block alpha
scalings that fold the mixture weights into the stored columns.
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

    def sample(self, rng, size=None):
        """Draw weight vectors; shape (S,) or (size, S)."""
        if self.mode == "deterministic":
            if size is None:
                return self.values.copy()
            return np.tile(self.values, (size, 1))
        return rng.dirichlet(self.concentration, size=size)


def compute_beta(wm, i, seed=0):
    """Second moment of source i's naive-inversion gain a_i / sum_j a_j^2.

    Deterministic mode returns (a_i / sum_j a_j^2)^2 exactly; Dirichlet
    mode estimates the same statistic by seeded Monte-Carlo over
    wm.mc_samples draws.
    """
    if wm.mode == "deterministic":
        a = wm.values
        return float((a[i] / np.sum(a**2)) ** 2)
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(wm.concentration, size=wm.mc_samples)
    gains = draws[:, i] / np.sum(draws**2, axis=1)
    return float(np.mean(gains**2))


@dataclass
class OmegaWeights:
    """Mixture weights of the adversarial distribution.

    omega[i, j] is the weight of source j's data in source i's
    adversarial set (diagonal unused); residual[i] is the weight of the
    naively inverted mix data, 1 - sum_{j != i} omega[i, j].
    """

    omega: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.residual = np.asarray(self.residual, dtype=float)
        off = self.omega.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0) or np.any(self.residual < -1e-12):
            raise ValueError("omega weights must be non-negative")


def default_omega(counts, n_mix):
    """Count-proportional omega: omega_ij = N_j / (N_V + sum_{k != i} N_k)."""
    counts = np.asarray(counts, dtype=float)
    s = len(counts)
    omega = np.zeros((s, s))
    residual = np.zeros(s)
    for i in range(s):
        n_hat = n_mix + counts.sum() - counts[i]
        if n_hat <= 0:
            raise ValueError(f"no adversarial data available for source {i}")
        for j in range(s):
            if j != i:
                omega[i, j] = counts[j] / n_hat
        residual[i] = n_mix / n_hat
    return OmegaWeights(omega, residual)


def _snap_unit(x):
    # Count-derived weights should give exact unit scalings; absorb the
    # float roundoff of omega * N_hat / N_j so alpha = 1 blocks are stored
    # bitwise-identically to their origin.
    return 1.0 if abs(x - 1.0) < 1e-12 else x


def assemble_adversarial(i, sources, mixes, om, beta_i):
    """Build the adversarial matrix for source i.

    Concatenates alpha_j * U_j for j != i and alpha_V * V column-wise,
    with alpha_j = sqrt(omega_ij * N_hat_i / N_j) and
    alpha_V = sqrt(residual_i * N_hat_i * beta_i / N_V), into a new array.
    """
    arrays = [as_array(u) for u in sources]
    v = as_array(mixes) if mixes is not None else None
    m_rows = {a.shape[0] for a in arrays if a.size}
    if v is not None and v.size:
        m_rows.add(v.shape[0])
    if len(m_rows) > 1:
        raise ValueError(f"row counts differ across datasets: {sorted(m_rows)}")
    counts = [a.shape[1] for a in arrays]
    n_mix = v.shape[1] if v is not None else 0
    n_hat = n_mix + sum(c for j, c in enumerate(counts) if j != i)
    if n_hat == 0:
        raise ValueError(f"no adversarial data available for source {i}")

    blocks = []
    for j, u in enumerate(arrays):
        if j == i:
            continue
        w = om.omega[i, j]
        if counts[j] == 0:
            if w > 0:
                raise ValueError(f"omega[{i},{j}] > 0 but source {j} has no data")
            continue
        if w == 0:
            continue
        alpha = float(np.sqrt(_snap_unit(w * n_hat / counts[j])))
        blocks.append(u if alpha == 1.0 else alpha * u)
    res = float(om.residual[i])
    if res > 0 and n_mix == 0:
        raise ValueError(f"residual[{i}] > 0 but no mix data present")
    if res > 0 and n_mix > 0:
        alpha_v = float(np.sqrt(_snap_unit(res * n_hat / n_mix) * beta_i))
        blocks.append(v if alpha_v == 1.0 else alpha_v * v)
    if not blocks:
        raise ValueError(f"adversarial set for source {i} is empty")
    return np.concatenate(blocks, axis=1)
