"""Alignment of two purifications sharing a subsystem.

Given pure states mu on S (x) B and nu on S (x) C with d_B <= d_C, the polar
factor of the cross operator X[c,b] = sum_s <s,c|nu>* <s,b|mu> is the isometry
K: B -> C maximizing |<nu|(I (x) K)|mu>|.  The maximum equals the Uhlmann
fidelity F(mu_S, nu_S), so when the shared marginals are eps-close in trace
distance the aligned states are within 2 sqrt(eps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import gram_trace_distance, pure_trace_distance
from .qstate import (
    InvariantViolation,
    LayoutError,
    LinearMap,
    PureState,
    permute_unchecked,
)

_NULL_SPACE_CUTOFF = 1e-12
# Smallest accepted diagonal entry of the completion's Cholesky factor L.  The
# completion multiplies rounding errors by about 1 / L_ii^2, so 1e-2 keeps
# them near 1e-12, well inside the 1e-10 isometry check.
_PIVOT_FLOOR = 1e-2


def _shared_first(
    mu: PureState, nu: PureState, shared: "list[str] | tuple[str, ...]"
) -> tuple[np.ndarray, np.ndarray, list[str], list[str]]:
    """M (d_S x d_B), N (d_S x d_C) and the own labels of mu and nu.

    Both amplitude vectors are reordered with the shared labels first, in
    mu's layout order, so M M^H and N N^H are the shared marginals in one
    basis and X = N^H M.
    """
    shared = set(shared)
    for state in (mu, nu):
        missing = shared - set(state.layout.labels)
        if missing:
            raise LayoutError(f"shared labels {sorted(missing)} absent from layout {state.layout.labels}")
    mu_shared = [lab for lab in mu.layout.labels if lab in shared]
    mu_own = [lab for lab in mu.layout.labels if lab not in shared]
    nu_own = [lab for lab in nu.layout.labels if lab not in shared]
    for lab in mu_shared:
        if mu.layout.dim_of(lab) != nu.layout.dim_of(lab):
            raise LayoutError(
                f"shared label {lab!r} has dims {mu.layout.dim_of(lab)} vs {nu.layout.dim_of(lab)}"
            )
    d_b = mu.layout.dim_of_set(mu_own)
    d_c = nu.layout.dim_of_set(nu_own)
    if d_b > d_c:
        raise LayoutError(f"purifier dim {d_b} exceeds target dim {d_c}; embed first")
    d_s = mu.layout.dim_of_set(mu_shared)
    _, mu_vec = permute_unchecked(mu.layout, mu.amplitudes, mu_shared + mu_own)
    _, nu_vec = permute_unchecked(nu.layout, nu.amplitudes, mu_shared + nu_own)
    return mu_vec.reshape(d_s, d_b), nu_vec.reshape(d_s, d_c), mu_own, nu_own


def cross_operator(mu: PureState, nu: PureState, shared: "list[str] | tuple[str, ...]") -> np.ndarray:
    """Cross operator X (d_C x d_B) with X[c,b] = sum_s <s,c|nu>* <s,b|mu>.

    ``s`` runs over the shared subsystems (taken in mu's layout order for both
    states), ``b`` over mu's remaining subsystems, ``c`` over nu's remaining
    subsystems.  Requires d_B <= d_C; larger mu-side purifiers must be
    embedded by the caller first.
    """
    m, n, _, _ = _shared_first(mu, nu, shared)
    return n.conj().T @ m


def _inverse_cholesky(h: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """L^{-H} for L L^H = I - h_E h_E^H on ``rows`` E; raises if L is near singular."""
    h_e = h[rows]
    try:
        chol = np.linalg.cholesky(np.eye(rows.size) - h_e @ h_e.conj().T)
    except np.linalg.LinAlgError as exc:
        raise InvariantViolation("completion rows are linearly dependent") from exc
    if np.diagonal(chol).real.min() < _PIVOT_FLOOR:
        raise InvariantViolation("completion rows are nearly linearly dependent")
    return np.linalg.inv(chol).conj().T


def _pivoted_rows(h: np.ndarray, count: int) -> np.ndarray:
    """Greedy rows: pivoted Cholesky of I - h h^H, taking the row with most weight left."""
    residual = 1.0 - np.sum(np.abs(h) ** 2, axis=1)
    cols = np.zeros((h.shape[0], count), dtype=complex)
    rows = np.empty(count, dtype=np.intp)
    for j in range(count):
        p = rows[j] = int(np.argmax(residual))
        if residual[p] < _PIVOT_FLOOR**2:
            raise InvariantViolation("failed to complete orthonormal columns")
        col = -(h @ h[p].conj()) - cols[:, :j] @ cols[p, :j].conj()
        col[p] += 1.0
        cols[:, j] = col / np.sqrt(residual[p])
        residual -= np.abs(cols[:, j]) ** 2
        residual[p] = -np.inf
    return rows


def _completion(h: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows E and c = L^{-H} such that (E - h h_E^H) c completes the columns of h.

    E holds ``count`` standard basis vectors and L L^H = I - h_E h_E^H is
    their Gram matrix after projecting out span(h), so the completion is
    orthonormal and orthogonal to h.  The rows least represented in h are
    tried first; a near-singular choice falls back to pivoted rows.
    """
    rows = np.argsort(np.sum(np.abs(h) ** 2, axis=1), kind="stable")[:count]
    try:
        return rows, _inverse_cholesky(h, rows)
    except InvariantViolation:
        rows = _pivoted_rows(h, count)
        return rows, _inverse_cholesky(h, rows)


def _complete_columns(existing: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal columns completing ``existing``, built from the standard basis."""
    rows, c = _completion(existing, count)
    tail = -(existing @ (existing[rows].conj().T @ c))
    tail[rows] += c
    return tail


@dataclass(frozen=True)
class UhlmannResult:
    """Constructed isometry plus the overlap/distance bookkeeping of one alignment."""

    isometry: LinearMap
    achieved_overlap: float
    epsilon_in: float
    distance_out: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.achieved_overlap <= 1.0 + 1e-9:
            raise InvariantViolation(f"overlap {self.achieved_overlap} outside [0, 1]")
        slack = 2.0 * np.sqrt(max(self.epsilon_in, 0.0)) + 1e-8
        if not self.distance_out <= slack:
            raise InvariantViolation(
                f"distance_out {self.distance_out} violates the 2*sqrt(eps) guarantee {slack}"
            )


def uhlmann_isometry(
    mu: PureState, nu: PureState, shared: "list[str] | tuple[str, ...]"
) -> UhlmannResult:
    """Construct the overlap-maximizing isometry from mu's purifier to nu's.

    The polar factor of the cross operator is completed deterministically on
    any null space; the global phase is fixed so the achieved overlap
    <nu|(I (x) K)|mu> is real nonnegative (it equals the Uhlmann fidelity of
    the shared marginals).
    """
    m, n, mu_own, nu_own = _shared_first(mu, nu, shared)
    d_s, d_b = m.shape
    if d_s < d_b:
        # rank X <= d_S: with N^H = Qn Rn and M^H = Qm Rm, X = Qn (Rn Rm^H) Qm^H,
        # so the SVD of the d_S x d_S core gives the nonzero singular triples.
        qn, rn = np.linalg.qr(n.conj().T)
        qm, rm = np.linalg.qr(m.conj().T)
        uz, s, vzh = np.linalg.svd(rn @ rm.conj().T)
        u, v = qn @ uz, qm @ vzh.conj().T
    else:
        u, s, vh = np.linalg.svd(n.conj().T @ m, full_matrices=False)
        v = vh.conj().T
    rank = int(np.sum(s > _NULL_SPACE_CUTOFF))
    h, v_r = u[:, :rank].conj(), v[:, :rank]

    # K = h v_r^T + tail v_perp^T with tail = (E - h h_E^H) c: the second term
    # is scattered into rows E plus a rank-r correction, never a dense tail.
    if rank == d_b:
        k = h @ v_r.T
    else:
        v_perp = v[:, rank:] if d_s >= d_b else _complete_columns(v_r, d_b - rank)
        rows, c = _completion(h, d_b - rank)
        w = c @ v_perp.T
        k = h @ (v_r.T - h[rows].conj().T @ w)
        k[rows] += w
    k_map = LinearMap(
        mu.layout.restrict(mu_own), nu.layout.restrict(nu_own), k, kind="isometry"
    )
    return UhlmannResult(
        isometry=k_map,
        achieved_overlap=float(s.sum()),
        epsilon_in=gram_trace_distance(m, n),
        distance_out=pure_trace_distance((k @ m.T).T, n),
    )
