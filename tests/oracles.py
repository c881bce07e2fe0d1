"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written the slow, obvious way (index loops,
string enumeration) and never calls the code paths it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def loop_partial_trace(mat: np.ndarray, dims: tuple[int, ...], keep: list[int]) -> np.ndarray:
    """Partial trace by explicit summation over every index pair."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep], dtype=np.int64))
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(idx: tuple[int, ...]) -> int:
        f = 0
        for k, d in zip(idx, dims):
            f = f * d + k
        return f

    keep_ranges = [range(dims[i]) for i in keep]
    traced_ranges = [range(dims[i]) for i in traced]
    for row_keep in itertools.product(*keep_ranges):
        for col_keep in itertools.product(*keep_ranges):
            acc = 0.0 + 0.0j
            for tr in itertools.product(*traced_ranges):
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, val in zip(keep, row_keep):
                    row[pos] = val
                for pos, val in zip(keep, col_keep):
                    col[pos] = val
                for pos, val in zip(traced, tr):
                    row[pos] = val
                    col[pos] = val
                acc += mat[flat(tuple(row)), flat(tuple(col))]
            r = 0
            for v, i in zip(row_keep, keep):
                r = r * dims[i] + v
            c = 0
            for v, i in zip(col_keep, keep):
                c = c * dims[i] + v
            out[r, c] = acc
    return out


def loop_vector_partial_trace(vec: np.ndarray, dims: tuple[int, ...], keep: list[int]) -> np.ndarray:
    return loop_partial_trace(np.outer(vec, vec.conj()), dims, keep)


def sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    w[w < 1e-14] = 0.0  # sqrt of eigensolver noise would pollute at 1e-8
    return (v * np.sqrt(w)) @ v.conj().T


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1 via singular values."""
    return float(np.linalg.svd(sqrtm_psd(rho) @ sqrtm_psd(sigma), compute_uv=False).sum())


def enumerate_typical(eigenvalues: np.ndarray, n: int, delta: float) -> tuple[int, float]:
    """Rank and weight of the typical set by enumerating all d^n strings."""
    lam = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, 1.0)
    probs = lam[lam > 1e-12]
    entropy = float(-(probs * np.log2(probs)).sum())
    lo = -n * (entropy + delta)
    hi = -n * (entropy - delta)
    with np.errstate(divide="ignore"):
        logs = np.log2(lam)
    rank = 0
    weight = 0.0
    for string in itertools.product(range(lam.size), repeat=n):
        lp = 0.0
        for s in string:
            lp += logs[s]
        if lo <= lp <= hi:
            rank += 1
            weight += 2.0**lp
    return rank, weight


def typical_projector(rho: np.ndarray, n: int, delta: float) -> np.ndarray:
    """Projector onto the typical subspace of rho^(x)n, summed string by string.

    Same window as ``enumerate_typical``: eigenvector product strings whose
    summed log2 eigenvalue lies in [-n (S + delta), -n (S - delta)].
    """
    lam, vecs = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, 1.0)
    probs = lam[lam > 1e-12]
    entropy = float(-(probs * np.log2(probs)).sum())
    out = np.zeros((lam.size**n, lam.size**n), dtype=complex)
    for string in itertools.product(range(lam.size), repeat=n):
        if min(lam[s] for s in string) <= 0.0:
            continue
        lp = 0.0
        vec = np.ones(1, dtype=complex)
        for s in string:
            lp += math.log2(lam[s])
            vec = np.kron(vec, vecs[:, s])
        if -n * (entropy + delta) <= lp <= -n * (entropy - delta):
            out += np.outer(vec, vec.conj())
    return out


def multinomial(n: int, counts: tuple[int, ...]) -> int:
    out = 1
    rem = n
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def polar_isometry(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """conj(u vh) from the dense SVD of X = n^H m: the isometry (d_C x d_B) aligning m onto n.

    Rows of m (d_S x d_B) and n (d_S x d_C) index the shared system.
    """
    u, _, vh = np.linalg.svd(n.conj().T @ m, full_matrices=False)
    return (u @ vh).conj()


def _matricize(tensor: np.ndarray, rows: tuple[int, ...]) -> np.ndarray:
    cols = [i for i in range(tensor.ndim) if i not in rows]
    d_rows = math.prod(tensor.shape[i] for i in rows)
    return tensor.transpose(list(rows) + cols).reshape(d_rows, -1)


def protocol_isometries(
    phi: np.ndarray, u: np.ndarray, cut: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Encoder W (C1 C3 A -> A2 C'' A'') and decoder V (C2 C3 B -> B1 C' B') as dense polar factors.

    ``phi`` is the (C, A, B, R) amplitude tensor serving as both references
    and ``u`` the unitary on C = C1 C2 C3 with dims ``cut``.  Each half aligns
    U.phi with Phi_{kept partner} (x) phi on the shared systems (C2 B R for
    W, C1 A R for V).
    """
    d1, d2, d3 = cut
    _, d_a, d_b, d_r = phi.shape
    rotated = np.tensordot(u, phi, axes=(1, 0)).reshape(d1, d2, d3, d_a, d_b, d_r)

    def pair(d: int) -> np.ndarray:  # axes (kept, partner, C, A, B, R)
        return np.multiply.outer(np.eye(d) / np.sqrt(d), phi)

    w = polar_isometry(_matricize(rotated, (1, 4, 5)), _matricize(pair(d2), (0, 4, 5)))
    v = polar_isometry(_matricize(rotated, (0, 3, 5)), _matricize(pair(d1), (0, 3, 5)))
    return w, v


def uhlmann_polar(m: np.ndarray, n: np.ndarray) -> tuple[float, float, float]:
    """(overlap, eps_in, distance_out) of aligning m (d_S x d_B) onto n (d_S x d_C).

    Rows index the shared system.  Uses the dense SVD of the whole cross
    operator X = n^H m, its polar factor, and trace norms of explicit
    outer-product differences.
    """
    s = np.linalg.svd(n.conj().T @ m, compute_uv=False)
    k = polar_isometry(m, n)
    moved = (m @ k.T).reshape(-1)
    target = n.reshape(-1)
    eps_in = np.abs(np.linalg.eigvalsh(m @ m.conj().T - n @ n.conj().T)).sum()
    diff = np.outer(moved, moved.conj()) - np.outer(target, target.conj())
    return float(s.sum()), float(eps_in), float(np.abs(np.linalg.eigvalsh(diff)).sum())
