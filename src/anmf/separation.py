"""Test-time inference.

Solves the convex non-negative fitting problem for a mixed signal against
the concatenated bases and applies the Wiener-type filter so that the
recovered sources sum to the mix. Separation and denoising share the one
fit, fit_sources; fitting a single basis is projection onto its cone.
"""

from dataclasses import dataclass

import numpy as np

from .core import SparsityParams, as_array, solve_nnls


@dataclass
class SeparationResult:
    """Per-source raw reconstructions and filtered signals."""

    raw: list
    filtered: list


def fit_sources(V, bases, p=None, max_iter=500, tol=1e-3):
    """Per-source raw reconstructions W_i h_i of the columns of V, where
    h = solve_nnls minimizes 1/2 ||v - [W_1 ... W_S] h||^2 + mu_H |h|_1
    over h >= 0 for each column v, and h_i is its block of rows for W_i."""
    V = as_array(V)
    W = [as_array(b) for b in bases]
    m = V.shape[0]
    for w in W:
        if w.shape[0] != m:
            raise ValueError(f"basis rows {w.shape[0]} do not match signal rows {m}")
    h = solve_nnls(V, np.concatenate(W, axis=1), p, max_iter, tol)

    offsets = np.cumsum([0] + [w.shape[1] for w in W])
    return [w @ h[offsets[i] : offsets[i + 1]] for i, w in enumerate(W)]


def separate(V, bases, p=None, max_iter=500, tol=1e-3):
    """Separate the columns of V against a list of bases: fit_sources,
    then Wiener-filter the raw reconstructions so that they sum to V.
    max_iter and tol are solve_nnls's."""
    p = p or SparsityParams()
    raw = fit_sources(V, bases, p, max_iter, tol)
    return SeparationResult(raw, wiener_filter(V, raw, p.eps))


def wiener_mask(part, total, n_sources, eps=1e-12):
    """Soft mask of one of n_sources sources: part / total entrywise.

    Where total <= eps the mask is 1 / n_sources, an equal split. With
    total the sum of all parts, the n_sources masks sum to one.
    """
    return np.divide(part, total, out=np.full_like(part, 1.0 / n_sources), where=total > eps)


def wiener_filter(v, raw, eps=1e-12):
    """Reallocate the mix proportionally to the raw reconstructions.

    u_i = v * raw_i / sum_j raw_j entrywise, that is v times
    wiener_mask(raw_i, sum_j raw_j, S, eps); where the denominator is
    <= eps the mix is split equally across sources. The outputs sum to v
    wherever the denominator exceeds eps. v may be complex, such as an STFT
    spectrum (features.apply_mask). A raw reconstruction of another shape
    than v's is a ValueError.
    """
    v = np.asarray(v)
    raw = [as_array(r) for r in raw]
    for i, r in enumerate(raw):
        if r.shape != v.shape:
            raise ValueError(f"raw reconstruction {i} has shape {r.shape}, but the mix has shape {v.shape}")
    total = sum(raw)
    return [v * wiener_mask(r, total, len(raw), eps) for r in raw]
