"""Alignment of two purifications sharing a subsystem.

Given pure states mu on S (x) B and nu on S (x) C with d_B <= d_C, the
conjugated polar factor K of the cross operator X[c,b] = sum_s <s,c|nu>* <s,b|mu>
is an isometry B -> C maximizing |<nu|(I (x) K)|mu>|.  The maximum equals the
Uhlmann fidelity F(mu_S, nu_S), so when the shared marginals are eps-close in
trace distance the aligned states are within 2 sqrt(eps).  The fidelity fixes
K only on the support of X; any isometric extension off it gives the same
overlap and the same bound, so each construction below takes the extension
its factorization hands it, and keeps K in the factors that built it
(:class:`FactoredIsometry`, which also holds a closed-form K = U^H (x) I as its
U^H, relying on U's own check); the dense matrix is an explicit, guarded export.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import gram_trace_distance, pure_trace_distance
from .qstate import (
    LayoutError,
    LinearMap,
    PureState,
    SystemLayout,
    _check_isometry,
    _gram_rows,
    _matricize,
    check_bound,
    check_guard,
    check_range,
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
    m, n = (_matricize(state.amplitudes, state.dims, state.layout.axes(mu_shared)) for state in (mu, nu))
    return m, n, mu_own, nu_own


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
    k = a.shape[1]
    r, y = np.triu(raw.T[:k]), np.tril(raw.T, -1)
    del raw  # qr's copy of ``a`` and Y's conjugate below are never alive at once
    y[np.arange(k), np.arange(k)] = 1.0
    gram = y.conj().T @ y
    t = np.zeros((k, k), dtype=complex)
    for i in range(k):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
        t[i, i] = tau[i]
    return y, t, r


def _leading(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x (a (x) I_rest)^T as one GEMM, not one per row; at rest = 1 it is (a x^T)^T, as dense K always was."""
    return (a @ x.T.reshape(a.shape[1], -1)).reshape(-1, len(x)).T


@dataclass(frozen=True, eq=False)
class FactoredIsometry:
    """An isometry K from ``input_layout`` to ``output_layout``, kept as the factors that built it.

    With reflectors ``y`` (d_out x r) and ``t`` (r x r), K = (I - Y T Y^H)[:, :d_in] Z
    with a d_in x d_in unitary ``z``, and K is never formed; without them
    K = z (x) I_rest, ``z`` acting on the leading factor of both layouts (``z`` is
    K at ``rest = 1``).  Checked on construction at the factors' cost: Z^H Z = I (but see
    :class:`_CheckedRotation`), and T + T^H = T^H (Y^H Y) T, which makes I - Y T Y^H unitary.
    """

    input_layout: SystemLayout
    output_layout: SystemLayout
    z: np.ndarray
    y: "np.ndarray | None" = None
    t: "np.ndarray | None" = None
    rest: int = 1

    def __post_init__(self) -> None:
        d_in, d_out, rest = self.input_layout.total_dim, self.output_layout.total_dim, self.rest
        r = 0 if self.t is None else len(self.t)
        want = [(d_out // rest, d_in // rest)] if self.y is None else [(d_in, d_in), (d_out, r), (r, r)]
        got = [np.shape(f) for f in (self.z, self.y, self.t)[: len(want)]]
        if d_out < d_in or got != want or d_in % rest or d_out % rest or (rest > 1 and self.y is not None):
            raise LayoutError(f"isometry {d_in} -> {d_out} has factor shapes {got} and rest {rest}, want {want}")
        if self.y is not None:
            t, th, gram = self.t, self.t.conj().T, np.vstack([g for _, g in _gram_rows(self.y)])
            _check_isometry(self.z, np.abs(t + th - th @ gram @ t).max())
        elif not isinstance(self, _CheckedRotation):
            _check_isometry(self.z)

    def to_linear_map(self) -> LinearMap:
        """K as a dense, validated LinearMap; refused above the size guard."""
        d_in = self.input_layout.total_dim
        check_guard("the dense isometry", self.output_layout.total_dim * d_in)
        k = self.z if self.y is None and self.rest == 1 else self.apply(np.eye(d_in)).T
        return LinearMap(self.input_layout, self.output_layout, k, kind="isometry")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x K^T: K on each row of ``x``, a matrix whose columns run over the input."""
        if self.y is None:
            return _leading(self.z, x)
        a = x @ self.z.T
        out = -(((a @ self.y[: a.shape[1]].conj()) @ self.t.T) @ self.y.T)
        out[:, : a.shape[1]] += a
        return out

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """x conj(K) = (K^H x^T)^T: K^H on each row of ``x`` (columns over the output), no renormalization."""
        if self.y is None:
            return x @ self.z.conj() if self.rest == 1 else _leading(self.z.conj().T, x)
        d_in = len(self.z)
        return (x[:, :d_in] - ((x @ self.y.conj()) @ self.t.conj()) @ self.y[:d_in].T) @ self.z.conj()


class _CheckedRotation(FactoredIsometry):
    """K = Z (x) I_rest with Z = U^H for a U already checked as a unitary ``LinearMap``: Z is not checked again."""


@dataclass(frozen=True)
class UhlmannResult:
    """Constructed isometry plus the overlap/distance bookkeeping of one alignment."""

    isometry: "LinearMap | FactoredIsometry"
    achieved_overlap: float
    epsilon_in: float
    distance_out: float

    def __post_init__(self) -> None:
        check_range("overlap", self.achieved_overlap, 1.0)
        check_bound("the 2*sqrt(eps) guarantee", self.distance_out, 2.0 * np.sqrt(max(self.epsilon_in, 0.0)))


def _align(
    m: np.ndarray, n: np.ndarray, source: SystemLayout, dest: SystemLayout
) -> tuple[FactoredIsometry, float, float]:
    """The isometry aligning M (d_S x d_B) onto N (d_S x d_C), its overlap and its distance_out.

    Rows index the shared systems in one basis, columns ``source`` and ``dest``.
    """
    d_s, d_b = m.shape
    if d_s >= d_b:
        u, s, vh = np.linalg.svd(n.conj().T @ m, full_matrices=False)
        k = u @ vh
        del u, vh
        iso = FactoredIsometry(source, dest, np.conj(k, out=k))
    else:
        y_n, t_n, r_n = _householder(n.T)
        y_m, t_m, r_m = _householder(m.T)
        uz, s, vzh = np.linalg.svd(r_n @ r_m.conj().T)
        z = np.eye(d_b, dtype=complex)
        z[:d_s, :d_s] = uz @ vzh
        z -= (z @ y_m) @ (t_m.conj().T @ y_m.conj().T)
        iso = FactoredIsometry(source, dest, z, y_n, t_n)
    return iso, float(s.sum()), pure_trace_distance(iso.apply(m), n)


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
    is real nonnegative (the Uhlmann fidelity of the shared marginals).  K is
    returned dense (:meth:`FactoredIsometry.to_linear_map`, size-guarded).
    """
    m, n, mu_own, nu_own = _shared_first(mu, nu, shared)
    iso, overlap, distance = _align(m, n, mu.layout.restrict(mu_own), nu.layout.restrict(nu_own))
    return UhlmannResult(iso.to_linear_map(), overlap, gram_trace_distance(m, n), distance)
