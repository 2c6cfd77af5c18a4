"""Independent reference implementations used to check the library.

These deliberately avoid the code paths they verify: brute-force grid
refinement for non-negative least squares, a column-at-a-time
multiplicative NNLS loop, naive triple-loop matrix products, a plain
full-batch multiplicative NMF loop, and a WAV file in a format the
library rejects.
"""

import struct

import numpy as np


def nnls_grid_1d(w, u, lo=0.0, hi=None, iters=40, points=101):
    """min_{h >= 0} ||u - w h||^2 by scalar grid search with refinement."""
    w = np.asarray(w, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if hi is None:
        hi = 2.0 * (np.linalg.norm(u) / max(np.linalg.norm(w), 1e-30) + 1.0)
    for _ in range(iters):
        grid = np.linspace(lo, hi, points)
        errs = [np.linalg.norm(u - w * h) for h in grid]
        k = int(np.argmin(errs))
        lo = max(0.0, grid[max(k - 1, 0)])
        hi = grid[min(k + 1, points - 1)]
        if hi - lo < 1e-12:
            break
    h = 0.5 * (lo + hi)
    return h, float(np.linalg.norm(u - w * h))


def nnls_grid_2d(W, u, hi=None, iters=60, points=61):
    """min_{h >= 0} ||u - W h||^2 over a 2-d grid with refinement.

    The box is re-centered on the grid argmin and halved each iteration,
    which keeps the true minimizer inside even along correlated valleys.
    """
    W = np.asarray(W, dtype=float)
    u = np.asarray(u, dtype=float).ravel()
    assert W.shape[1] == 2
    if hi is None:
        hi = 2.0 * (np.linalg.norm(u) / max(np.min(np.linalg.norm(W, axis=0)), 1e-30) + 1.0)
    center = np.array([hi / 2.0, hi / 2.0])
    half = np.array([hi / 2.0, hi / 2.0])
    best_h = center.copy()
    for _ in range(iters):
        g1 = np.linspace(max(0.0, center[0] - half[0]), center[0] + half[0], points)
        g2 = np.linspace(max(0.0, center[1] - half[1]), center[1] + half[1], points)
        best = (np.inf, 0, 0)
        for a, h1 in enumerate(g1):
            r = u[:, None] - np.outer(W[:, 0], np.full(points, h1)) - np.outer(W[:, 1], g2)
            errs = np.linalg.norm(r, axis=0)
            b = int(np.argmin(errs))
            if errs[b] < best[0]:
                best = (errs[b], a, b)
        _, a, b = best
        center = np.array([g1[a], g2[b]])
        best_h = center.copy()
        half = half / 2.0
    return best_h, float(np.linalg.norm(u - W @ best_h))


def nnls_per_column(V, W, p, max_iter, tol):
    """Multiplicative NNLS one column v at a time, with the per-column stop.

    h starts at all ones and takes h * b / (G h + mu_H + eps), with
    G = W.T W and b = W.T v. After every 10th update the KKT residual
    r = min(h, G h - b + mu_H + eps) is taken, and the column stops once
    ||r|| <= tol ||b||. A column with no entry of b above mu_H is 0 after
    no update.

    Returns:
        (H, iters, ratios): the d x N solution, the updates each column
        ran, and per column the ratios ||r|| / ||b|| at its checks.
    """
    W, V = np.asarray(W, dtype=float), np.asarray(V, dtype=float)
    G = W.T @ W
    H = np.zeros((W.shape[1], V.shape[1]))
    iters = np.zeros(V.shape[1], dtype=int)
    ratios = [[] for _ in range(V.shape[1])]
    for j in range(V.shape[1]):
        b = W.T @ V[:, j]
        if not np.any(b > p.mu_H):
            continue
        h = np.ones(W.shape[1])
        for k in range(1, max_iter + 1):
            h = h * b / (G @ h + p.mu_H + p.eps)
            if k % 10 == 0:
                r = np.linalg.norm(np.minimum(h, G @ h - b + p.mu_H + p.eps))
                ratios[j].append(r / np.linalg.norm(b))
                if r <= tol * np.linalg.norm(b):
                    break
        H[:, j], iters[j] = h, k
    return H, iters, ratios


def trained_mix(seed, m=257, d=128, n=200, train_cols=300):
    """A dense m x n mix of two sources and a d-column basis trained on them.

    Each source is a sparse non-negative mixture of 40 Gaussian spectral
    bumps plus a noise floor; plain NMF learns d/2 basis columns for each
    from train_cols further columns. The defaults have the shapes of the
    separate benchmark's inputs.
    """
    from anmf.core import as_array
    from anmf.training import TrainSpec, train_smu

    rng = np.random.default_rng(seed)
    f = np.arange(m)[:, None]
    sources = []
    for _ in range(2):
        atoms = np.exp(-0.5 * ((f - rng.uniform(0, m, 40)) / rng.uniform(2.0, 40.0, 40)) ** 2)
        act = rng.gamma(0.5, 1.0, (40, train_cols + n)) * (rng.random((40, train_cols + n)) < 0.15)
        sources.append(atoms @ act + 0.01 * rng.random((m, train_cols + n)))
    state = train_smu([u[:, :train_cols] for u in sources], TrainSpec(d=d // 2, epochs=10, seed=seed))
    return sum(u[:, train_cols:] for u in sources), np.concatenate([as_array(b) for b in state.bases], axis=1)


def triple_loop_product(A, B):
    """Dense matmul by explicit loops."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    out = np.zeros((A.shape[0], B.shape[1]))
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0.0
            for k in range(A.shape[1]):
                acc += A[i, k] * B[k, j]
            out[i, j] = acc
    return out


def plain_nmf_trajectory(U, d, spec):
    """Full-batch multiplicative NMF loop mirroring the documented
    seed derivation; returns the per-epoch (W, H) trajectory."""
    from anmf.core import init_exemplar, init_random, normalize_columns, update_latents

    p = spec.sparsity
    U = np.asarray(U, dtype=float).copy()
    if spec.init == "exemplar":
        W = init_exemplar(U, d, [spec.seed, 1, 0])
    else:
        W = init_random(U.shape[0], d, [spec.seed, 1, 0])
    H = np.ones((d, U.shape[1]))
    rng = np.random.default_rng([spec.seed, 0])
    n = U.shape[1]
    traj = []
    for _ in range(spec.epochs):
        perm = rng.permutation(U.shape[1])
        U, H = U[:, perm], H[:, perm]
        W, (H,) = normalize_columns(W, [H], p.eps)
        H = update_latents(H, W, U, p, n_scale=U.shape[1])
        W = W * (U @ H.T / n) / (W @ (H @ H.T) / n + p.mu_W + p.eps)
        W, (H,) = normalize_columns(W, [H], p.eps)
        traj.append((W.copy(), H.copy()))
    return traj


def float32_wav_bytes(samples, rate):
    """A mono IEEE-float WAV file (format tag 3), which the wave module cannot write."""
    data = np.asarray(samples, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, rate, 4 * rate, 4, 32)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body
