"""Alignment of two purifications sharing a subsystem.

Given pure states mu on S (x) B and nu on S (x) C with d_B <= d_C, the
conjugated polar factor K of the cross operator X[c,b] = sum_s <s,c|nu>* <s,b|mu>
is an isometry B -> C maximizing |<nu|(I (x) K)|mu>|.  The maximum equals the
Uhlmann fidelity F(mu_S, nu_S), so when the shared marginals are eps-close in
trace distance the aligned states are within 2 sqrt(eps).  The fidelity fixes
K only on the support of X; any isometric extension off it gives the same
overlap and the same bound, so each construction below takes the extension
its factorization hands it.
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


def _householder(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Y, T, R of the Householder QR of ``a`` (d x k, k <= d) in compact WY form.

    Q = I - Y T Y^H is unitary and Q[:, :k] R = a, so the columns of Q past k
    complete the column space of ``a``.  T is LAPACK zlarft's forward
    recursion, which also covers reflectors with tau = 0.
    """
    raw, tau = np.linalg.qr(a, mode="raw")
    d, k = a.shape
    y = np.tril(raw.T, -1) + np.eye(d, k)
    gram = y.conj().T @ y
    t = np.zeros((k, k), dtype=complex)
    for i in range(k):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
        t[i, i] = tau[i]
    return y, t, np.triu(raw.T[:k])


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

    With d_S >= d_B the thin SVD X = U S V^H gives K = conj(U V^H), singular
    directions of a rank-deficient X included.  With d_S < d_B, conj(X) =
    N^T conj(M) has rank at most d_S: one Householder QR per side,
    N^T = Q_N R_N and M^T = Q_M R_M, reduces it to the d_S x d_S core
    R_N R_M^H = Uz S Vz^H, and K = Q_N[:, :d_B] diag(Uz Vz^H, I) Q_M^H, at cost
    O(d_C d_S d_B + d_S d_B^2).  The achieved overlap <nu|(I (x) K)|mu> = sum S
    is real nonnegative (the Uhlmann fidelity of the shared marginals).
    """
    m, n, mu_own, nu_own = _shared_first(mu, nu, shared)
    d_s, d_b = m.shape
    if d_s >= d_b:
        u, s, vh = np.linalg.svd(n.conj().T @ m, full_matrices=False)
        k = u.conj() @ vh.conj()
    else:
        y_n, t_n, r_n = _householder(n.T)
        y_m, t_m, r_m = _householder(m.T)
        uz, s, vzh = np.linalg.svd(r_n @ r_m.conj().T)
        # Z = diag(Uz Vz^H, I) Q_M^H is d_B x d_B; Q_N[:, :d_B] Z is Z in the
        # first d_B rows minus Y_N T_N Y_N[:d_B]^H Z, so Q_N is never formed.
        z = np.eye(d_b, dtype=complex)
        z[:d_s, :d_s] = uz @ vzh
        z -= (z @ y_m) @ (t_m.conj().T @ y_m.conj().T)
        k = -(y_n @ (t_n @ (y_n[:d_b].conj().T @ z)))
        k[:d_b] += z
    k_map = LinearMap(
        mu.layout.restrict(mu_own), nu.layout.restrict(nu_own), k, kind="isometry"
    )
    return UhlmannResult(
        isometry=k_map,
        achieved_overlap=float(s.sum()),
        epsilon_in=gram_trace_distance(m, n),
        distance_out=pure_trace_distance((k @ m.T).T, n),
    )
