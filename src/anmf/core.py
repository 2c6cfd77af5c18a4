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


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""

    def __init__(self, what, shape_a, shape_b):
        super().__init__(f"{what}: incompatible shapes {shape_a} and {shape_b}")


def as_array(x):
    """Return the underlying float array of a container or array-like."""
    if x is None:
        raise TypeError("expected a matrix or container, got None")
    if hasattr(x, "entries"):
        x = x.entries
    return np.asarray(x, dtype=float)


def _check_nonneg(a, name):
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, found NaN or inf entries")
    if a.size and np.min(a) < 0:
        raise ValueError(f"{name} must be non-negative, found min {np.min(a)}")


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
        if self.mu_W < 0 or self.mu_H < 0:
            raise ValueError("sparsity penalties must be non-negative")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


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


def update_latents(H, W, U, p=None, n_scale=1.0):
    """One multiplicative update of the latent variables.

    Returns H * (W.T U / n) / (W.T W H / n + mu_H + eps) entrywise. The
    n_scale factor is the per-term 1/N scaling of the training objective;
    pass 1 for the unscaled update.
    """
    p = p or SparsityParams()
    H, W, U = as_array(H), as_array(W), as_array(U)
    if n_scale <= 0:
        raise ValueError("n_scale must be positive")
    if W.shape[0] != U.shape[0] or W.shape[1] != H.shape[0]:
        raise DimensionMismatch("update_latents basis", W.shape, U.shape)
    if H.shape[1] != U.shape[1]:
        raise DimensionMismatch("update_latents latents", H.shape, U.shape)
    return _latent_step(H, W.T @ U / n_scale, W.T @ W, n_scale, p)


def solve_nnls(V, W, p=None, max_iter=500, tol=1e-8):
    """Non-negative least squares for every column of V against one basis.

    Minimizes ||V - W H||_F^2 + mu_H |H|_1 over H >= 0 by iterating the
    unscaled multiplicative latent update from the all-ones start (zeros
    are absorbing for the update, so the start must be strictly positive).
    W.T V and W.T W are formed once. The run stops after max_iter updates,
    or earlier once ||H_new - H||_F <= tol * max(||H_new||_F, eps), where
    the norms are taken over the whole block of columns.

    Returns:
        H, the d x N coefficient matrix.
    """
    p = p or SparsityParams()
    V, W = as_array(V), as_array(W)
    if W.shape[0] != V.shape[0]:
        raise DimensionMismatch("solve_nnls", W.shape, V.shape)
    num = W.T @ V
    G = W.T @ W
    H = np.ones((W.shape[1], V.shape[1]))
    H_new, denom, diff = np.empty_like(H), np.empty_like(H), np.empty_like(H)
    for _ in range(max_iter):
        _latent_step(H, num, G, 1.0, p, out=H_new, denom=denom)
        delta = np.linalg.norm(np.subtract(H_new, H, out=diff))
        H, H_new = H_new, H
        if delta <= tol * max(np.linalg.norm(H), p.eps):
            break
    return H


def cone_distance(W, u, p=None, max_iter=500, tol=1e-8):
    """Distance from u to the convex cone spanned by the columns of W.

    Solves min_{h >= 0} ||u - W h||^2 + mu_H |h|_1 with solve_nnls.

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
    partner latent matrix is multiplied by the same norm, so all products
    W @ partner are preserved. Columns with norm <= eps are left alone.

    Returns:
        (W, partners): the rescaled basis and list of rescaled partners.
    """
    W = as_array(W)
    norms = np.linalg.norm(W, axis=0)
    scale = np.where(norms > eps, norms, 1.0)
    W_out = W / scale
    partners_out = [as_array(P) * scale[:, None] for P in partners]
    return W_out, partners_out
