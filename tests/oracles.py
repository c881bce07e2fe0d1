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


def shared_first_factors(
    hat: np.ndarray, check: np.ndarray, u: np.ndarray, cut: tuple[int, int, int]
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(M, N) of the encoder and of the decoder alignment, rows over the shared systems.

    ``hat`` and ``check`` are (C, A, B, R) amplitude tensors and ``u`` the
    unitary on C = C1 C2 C3 with dims ``cut``.  The encoder aligns U.hat with
    Phi_{C2 A2} (x) hat on C2 B R, the decoder U.check with Phi_{C1 B1} (x)
    check on C1 A R.
    """
    d1, d2, d3 = cut

    def rotated(ref: np.ndarray) -> np.ndarray:  # axes (C1, C2, C3, A, B, R)
        return np.tensordot(u, ref, axes=(1, 0)).reshape(d1, d2, d3, *ref.shape[1:])

    def pair(d: int, ref: np.ndarray) -> np.ndarray:  # axes (kept, partner, C, A, B, R)
        return np.multiply.outer(np.eye(d) / np.sqrt(d), ref)

    return (
        (_matricize(rotated(hat), (1, 4, 5)), _matricize(pair(d2, hat), (0, 4, 5))),
        (_matricize(rotated(check), (0, 3, 5)), _matricize(pair(d1, check), (0, 3, 5))),
    )


def protocol_isometries(
    phi: np.ndarray, u: np.ndarray, cut: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Encoder W (C1 C3 A -> A2 C'' A'') and decoder V (C2 C3 B -> B1 C' B') as dense polar factors.

    ``phi`` is the (C, A, B, R) amplitude tensor serving as both references
    (see :func:`shared_first_factors`).
    """
    (m_w, n_w), (m_v, n_v) = shared_first_factors(phi, phi, u, cut)
    return polar_isometry(m_w, n_w), polar_isometry(m_v, n_v)


def inverse_rotation(ref: np.ndarray, u: np.ndarray, side: int) -> np.ndarray:
    """The dense K = U^H (x) I_side applied to U.ref, flat in ref's (C, A, B, R) order.

    ``ref`` is a (C, A, B, R) amplitude tensor, ``u`` the unitary on C and
    ``side`` the axis (1 for A, 2 for B) that K carries with C.  This is the
    closed-form alignment of a protocol half whose kept factor is trivial;
    the result should be ``ref`` itself.
    """
    order = (0, side, *(a for a in (1, 2, 3) if a != side))
    rotated = np.tensordot(u, ref, axes=(1, 0)).transpose(order)
    k = np.kron(u.conj().T, np.eye(ref.shape[side]))
    out = (k @ rotated.reshape(len(k), -1)).reshape(rotated.shape)
    return out.transpose(np.argsort(order)).reshape(-1)


def decoupling_residuals(
    vec: np.ndarray, dims: tuple[int, ...], side: tuple[int, ...], keep: int,
    cut: tuple[int, int, int], us: np.ndarray,
) -> np.ndarray:
    """The decoupling residual kernel's expression before it subtracted in place, for equality checks.

    ``keep`` is the kept factor's axis in (C1, C2, C3); for each U of the
    stack, one eigvalsh of M M^H - pi_kept (x) the side marginal.
    """
    d1, d2, d3 = cut
    d_kept, s = cut[keep], _matricize(vec.reshape(dims), side)
    rotated = (us @ vec.reshape(dims[0], -1)).reshape((len(us), d1, d2, d3, *dims[1:]))
    rows = [1 + keep] + [3 + a for a in side]
    m = np.moveaxis(rotated, rows, range(1, len(rows) + 1)).reshape(len(us), d_kept * len(s), -1)
    target = np.kron(np.eye(d_kept) / d_kept, s @ s.conj().T)
    return np.abs(np.linalg.eigvalsh(m @ m.conj().transpose(0, 2, 1) - target)).sum(axis=1)


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


def protocol_run(
    start: np.ndarray, labels: tuple[str, ...], dims: dict[str, int],
    undo: tuple[np.ndarray, tuple[str, ...], tuple[str, ...]],
    redo: tuple[np.ndarray, tuple[str, ...], tuple[str, ...]],
    target_labels: tuple[str, ...],
) -> np.ndarray:
    """The unnormalized final vector of a protocol run, flat over ``target_labels``.

    ``start`` is flat over ``labels``, with every label's dimension in
    ``dims``.  ``undo`` and ``redo`` are dense isometries K (d_out x d_in)
    with their input and output labels.  The adjoint of ``undo`` replaces its
    output labels by its input labels, then ``redo`` replaces its input
    labels by its output labels; C3 changes hands by its name alone.  Each
    step is one ``einsum`` over named indices.
    """
    letters: dict[str, str] = {}

    def sub(labs) -> str:
        return "".join(letters.setdefault(lab, chr(ord("a") + len(letters))) for lab in labs)

    def tensor(k: np.ndarray, rows: tuple[str, ...], cols: tuple[str, ...]) -> np.ndarray:
        return k.reshape([dims[lab] for lab in rows + cols])

    (k_undo, undo_in, undo_out), (k_redo, redo_in, redo_out) = undo, redo
    vec = start.reshape([dims[lab] for lab in labels])
    after = tuple(lab for lab in labels if lab not in undo_out) + undo_in
    # (K^H)[in, out] = conj(K[out, in]): contract K's output indices with the state's.
    vec = np.einsum(f"{sub(undo_out)}{sub(undo_in)},{sub(labels)}->{sub(after)}",
                    tensor(k_undo.conj(), undo_out, undo_in), vec)
    vec = np.einsum(f"{sub(redo_out)}{sub(redo_in)},{sub(after)}->{sub(target_labels)}",
                    tensor(k_redo, redo_out, redo_in), vec)
    return vec.reshape(-1)


def pure_pair_distance(v: np.ndarray, t: np.ndarray) -> float:
    """|| |v><v| - |t><t| ||_1 for unnormalized v and t, from a 2 x 2 operator.

    The QR factorization [t v] = Q R gives coordinates of t and v in an
    orthonormal basis of their span (the columns of R), where the difference
    of outer products is a 2 x 2 matrix.  Householder QR keeps the component
    of v orthogonal to t accurate when the two nearly coincide.
    """
    r = np.linalg.qr(np.stack([t, v], axis=1), mode="r")
    op = np.outer(r[:, 1], r[:, 1].conj()) - np.outer(r[:, 0], r[:, 0].conj())
    return float(np.abs(np.linalg.eigvalsh(op)).sum())


def eigvalsh_pure_trace_distance(u: np.ndarray, v: np.ndarray) -> float:
    """||uu* - vv*||_1 for (possibly subnormalized) vectors, from eigvalsh of a 2 x 2 operator.

    Gram-Schmidt gives u = nu e1 and v = c e1 + nw e2 in an orthonormal basis of span(u, v); the
    difference of outer products is summed over both eigenvalues' magnitudes.  A zero u or a
    collinear pair (nw below 1e-15) leaves a rank-one difference.
    """
    u, v = np.asarray(u).reshape(-1), np.asarray(v).reshape(-1)
    nu = np.linalg.norm(u)
    if nu < 1e-300:
        return float(np.linalg.norm(v) ** 2)
    c = np.vdot(u / nu, v)
    nw = np.linalg.norm(v - c * u / nu)
    if nw < 1e-15:
        return float(abs(nu**2 - abs(c) ** 2))
    u2 = np.array([nu, 0.0], dtype=complex)
    v2 = np.array([c, nw], dtype=complex)
    op = np.outer(u2, u2.conj()) - np.outer(v2, v2.conj())
    return float(np.abs(np.linalg.eigvalsh(op)).sum())
