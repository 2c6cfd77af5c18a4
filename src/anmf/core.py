"""Core NMF primitives.

The multiplicative latent update, the non-negative least-squares solver
built on it, cone distance, basis initialization and column normalization
that everything else builds on.

Every kernel takes and returns plain numpy arrays. The one container,
Basis, is the type of a loaded model bundle's bases (io.load_bundle
builds it); the kernels accept it in place of an array.
"""

from dataclasses import dataclass

import numpy as np

EPS = 1e-12
BLOCK_COLUMNS = 512  # latent columns per block of update_latents


def as_array(x):
    """Return the underlying float array of a container or array-like."""
    if x is None:
        raise TypeError("expected a matrix or container, got None")
    if hasattr(x, "entries"):
        x = x.entries
    return np.asarray(x, dtype=float)


def _check_nonneg(a, name):
    # one min/max pair: NaN, +inf and -inf all show in it, before the sign is read
    if not a.size:
        return
    lo, hi = np.min(a), np.max(a)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} must be finite, found NaN or inf entries")
    if lo < 0:
        raise ValueError(f"{name} must be non-negative, found min {lo}")


@dataclass
class SparsityParams:
    """Sparsity penalties and the safe-division floor.

    mu_W and mu_H are the L1 penalty weights on the basis and the latent
    variables; eps is a hard floor added to every denominator so that
    mu = 0 is usable.
    """

    mu_W: float = 0.0
    mu_H: float = 0.0
    eps: float = EPS

    def __post_init__(self):
        # NaN fails every comparison, so each check also rejects it
        if not (0 <= self.mu_W < np.inf and 0 <= self.mu_H < np.inf):
            raise ValueError("sparsity penalties must be non-negative and finite")
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")


@dataclass
class Basis:
    """Non-negative m x d matrix of basis vectors for one source."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        _check_nonneg(self.entries, "basis")


def _latent_step(H, num, G, n, p, out=None, denom=None):
    # the multiplicative latent update H * num / (G @ H / n + mu_H + eps),
    # given num = W.T U / n and G = W.T W; out and denom are optional
    # d x N output buffers, and the result is written to out. H * num is
    # formed first, as the one-line expression did: allocating the
    # denominator first raised training's peak memory by ~5 MB.
    out = np.multiply(H, num, out=out)
    denom = np.matmul(G, H, out=denom)
    if n != 1.0:
        denom /= n
    denom += p.mu_H
    denom += p.eps
    out /= denom
    return out


def update_latents(H, W, U, p=None, n_scale=1.0, out=None):
    """One multiplicative update of the latent variables.

    Returns H * (W.T U / n) / (W.T W H / n + mu_H + eps) entrywise. The
    n_scale factor is the per-term 1/N scaling of the training objective;
    pass 1 for the unscaled update. The result is written to out, which may
    be H itself, or else to a new array. The columns are updated in blocks
    of BLOCK_COLUMNS, so the working arrays are d x BLOCK_COLUMNS whatever
    N is. Up to BLOCK_COLUMNS columns, the result is the one-line update's
    bit for bit; beyond, OpenBLAS can round a column by the width of the
    product it sits in (see solve_nnls), which moved results on random data
    by up to 1.8e-15 relative.
    """
    p = p or SparsityParams()
    H, W, U = as_array(H), as_array(W), as_array(U)
    if n_scale <= 0:
        raise ValueError("n_scale must be positive")
    if W.shape[0] != U.shape[0]:
        raise ValueError(f"update_latents basis: incompatible shapes {W.shape} and {U.shape}")
    if H.shape != (W.shape[1], U.shape[1]):
        raise ValueError(f"update_latents latents: shape {H.shape}, need {(W.shape[1], U.shape[1])}")
    if out is None:
        out = np.empty(H.shape)
    elif out.shape != H.shape:
        raise ValueError(f"update_latents out: shape {out.shape}, need {H.shape}")
    G, n = W.T @ W, U.shape[1]
    num, denom = (np.empty((H.shape[0], min(n, BLOCK_COLUMNS))) for _ in range(2))
    for a in range(0, n, BLOCK_COLUMNS):
        w = min(BLOCK_COLUMNS, n - a)
        # the W.T U block is scaled in place and takes the block's result, as out may be H
        num_b = np.matmul(W.T, U[:, a : a + w], out=num[:, :w])
        num_b /= n_scale
        out[:, a : a + w] = _latent_step(H[:, a : a + w], num_b, G, n_scale, p, num_b, denom[:, :w])
    return out


def solve_nnls(V, W, p=None, max_iter=500, tol=1e-3):
    """Non-negative least squares for every column of V against one basis.

    Minimizes 1/2 ||v - W h||^2 + mu_H |h|_1 over h >= 0 for each column v
    of V by the unscaled multiplicative latent update from the all-ones
    start (zeros are absorbing for the update, so the start must be
    strictly positive). W.T V and W.T W are formed once. Each column stops
    on its own: after every 10th update it takes its projected-gradient
    (KKT) residual r = min(h, W.T W h - W.T v + mu_H + eps) (Lin, Neural
    Computation 2007) and stops at that iterate once ||r|| <= tol ||W.T v||
    (tol 1e-3 by default). The floor eps enters r as it enters the update,
    as an L1 weight, so r vanishes at the update's fixed point.
    max_iter caps each column's updates; below 1 it is a ValueError, since
    the all-ones start is no solution. A column whose W.T v has no entry
    above mu_H has the solution h = 0 and is exactly 0, after no update.
    So a column's result does not depend on the other columns' values, up
    to rounding: OpenBLAS can round a column differently by the width of the
    product it sits in and its place there (one column takes the
    matrix-vector path, and the last few columns of some widths a narrower
    kernel), and live columns are compacted as others stop. Solved in
    blocks of 1, 7 or 64 columns, denoise's fit moves in its last bits
    (tests/test_cli.py::TestAudioBlocks).

    Returns:
        H, the d x N coefficient matrix, column-major.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    p = p or SparsityParams()
    V, W = as_array(V), as_array(W)
    if W.shape[0] != V.shape[0]:
        raise ValueError(f"solve_nnls: incompatible shapes {W.shape} and {V.shape}")
    # W.T V is formed row-major and then converted: a column-major matmul
    # output raised denoise's peak memory
    b, G = np.asfortranarray(W.T @ V), W.T @ W
    out = np.zeros_like(b)
    # the columns still iterating; slicing their columns keeps the layout
    live = np.flatnonzero(np.any(b > p.mu_H, axis=0))
    num = b if live.size == b.shape[1] else b[:, live]
    bound, stopped = tol * np.linalg.norm(b, axis=0)[live], np.zeros(live.size, dtype=bool)
    H, H_new, denom = np.ones_like(num), np.empty_like(num), np.empty_like(num)
    for k in range(max_iter):
        if not live.size:
            break
        _latent_step(H, num, G, 1.0, p, out=H_new, denom=denom)
        if k % 10 == 0 and k:
            # denom holds G H + mu_H + eps for H = H_k: the residual of H_k, in place
            r = np.minimum(H, np.subtract(denom, num, out=denom), out=denom)
            new = ~stopped & (np.sqrt(np.square(r, out=r).sum(axis=0)) <= bound)
            out[:, live[new]] = H[:, new]
            stopped |= new
            # once a tenth have stopped, the live columns j move to the front of free buffers
            j = np.flatnonzero(~stopped)
            if stopped.size - j.size >= 0.1 * stopped.size:
                num, denom = np.take(num.T, j, 0, denom[:, : j.size].T, "clip").T, num[:, : j.size]
                H_new, H = np.take(H_new.T, j, 0, H[:, : j.size].T, "clip").T, H_new[:, : j.size]
                live, bound, stopped = live[j], bound[j], stopped[j]
        H, H_new = H_new, H
    out[:, live[~stopped]] = H[:, ~stopped]
    return out


def cone_distance(W, u, p=None, max_iter=500, tol=1e-3):
    """Distance from u to the convex cone spanned by the columns of W.

    Solves min_{h >= 0} 1/2 ||u - W h||^2 + mu_H |h|_1 with solve_nnls: at
    most max_iter updates, and a stop at the first 10th-update check whose
    KKT residual is at most tol ||W.T u||.

    Returns:
        (h, distance): the minimizing coefficients and ||u - W h||_2.
    """
    W = as_array(W)
    u = as_array(u).reshape(-1, 1)
    h = solve_nnls(u, W, p, max_iter, tol)
    return h.ravel(), float(np.linalg.norm(u - W @ h))


def init_exemplar(U, d, seed):
    """Exemplar basis: d columns sampled from the data.

    Samples uniformly without replacement when the data has at least d
    columns, with replacement otherwise. The column indices are drawn as
    ``np.random.default_rng(seed).choice(N, size=d, replace=...)``.
    """
    U = as_array(U)
    if U.ndim != 2 or U.shape[1] == 0:
        raise ValueError("exemplar initialization needs a non-empty data matrix")
    if d < 1:
        raise ValueError("latent dimension must be >= 1")
    rng = np.random.default_rng(seed)
    n = U.shape[1]
    idx = rng.choice(n, size=d, replace=n < d)
    return U[:, idx].copy()


def init_random(m, d, seed):
    """Random basis: entries uniform on (0, 1], columns unit-normalized."""
    if m < 1 or d < 1:
        raise ValueError("basis dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    W = 1.0 - rng.random((m, d))
    return W / np.linalg.norm(W, axis=0)


def normalize_columns(W, partners=(), eps=EPS):
    """Scale the columns of W to unit norm, compensating in the partners.

    Column j of W is divided by its Euclidean norm and row j of every
    partner latent matrix is multiplied by the same norm, in place, so all
    products W @ partner are preserved. Columns with norm <= eps are left
    alone.

    Returns:
        (W, partners): the rescaled basis, a new array, and the list of the
        partners, rescaled in place.
    """
    W = as_array(W)
    norms = np.linalg.norm(W, axis=0)
    scale = np.where(norms > eps, norms, 1.0)
    partners = [as_array(P) for P in partners]
    for P in partners:
        P *= scale[:, None]
    return W / scale, partners
