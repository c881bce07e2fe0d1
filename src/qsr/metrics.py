"""Distances, entropies, and resource-rate formulas.

All entropies are in bits (log base 2) so they line up with the qubit/ebit
ledger used everywhere else.  Trace distance follows the unnormalized
convention ||rho - sigma||_1, ranging over [0, 2] for states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .config import DEFAULT_TOLS
from .qstate import (
    DensityOperator,
    InvariantViolation,
    LayoutError,
    PureState,
    gram_spectrum,
)

ROLES = ("C", "A", "B", "R")


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values of a square matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"trace norm needs a square matrix, got shape {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False).sum())


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """||rho - sigma||_1 for same-layout operators (sum of |eigenvalues|)."""
    if rho.layout != sigma.layout:
        raise LayoutError("trace_distance requires operators on the same layout")
    return hermitian_trace_distance(rho.matrix, sigma.matrix)


def hermitian_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Raw-array trace distance for Hermitian matrices (no validation)."""
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def gram_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a a* - b b*||_1 for column factors a (d x k1) and b (d x k2).

    When k1 + k2 < d the difference lives in the span of [a | b]; the R factor
    of its thin QR carries it onto a (k1 + k2)-wide matrix.
    """
    k1 = a.shape[1]
    if k1 + b.shape[1] < a.shape[0]:
        r = np.linalg.qr(np.hstack([a, b]), mode="r")
        a, b = r[:, :k1], r[:, k1:]
    return float(np.abs(np.linalg.eigvalsh(a @ a.conj().T - b @ b.conj().T)).sum())


def pure_trace_distance(u: np.ndarray, v: np.ndarray) -> float:
    """||uu* - vv*||_1 for (possibly subnormalized) vectors.

    The difference operator lives in span(u, v); its nonzero eigenvalues are
    computed from the 2x2 restriction, which keeps the cost linear in the
    ambient dimension.
    """
    u = np.asarray(u).reshape(-1)
    v = np.asarray(v).reshape(-1)
    nu = np.linalg.norm(u)
    if nu < 1e-300:
        return float(np.linalg.norm(v) ** 2)
    e1 = u / nu
    c = np.vdot(e1, v)
    w = v - c * e1
    nw = np.linalg.norm(w)
    if nw < 1e-15:
        # Collinear: difference is rank one.
        return float(abs(nu**2 - abs(c) ** 2))
    u2 = np.array([nu, 0.0], dtype=complex)
    v2 = np.array([c, nw], dtype=complex)
    d = np.outer(u2, u2.conj()) - np.outer(v2, v2.conj())
    return float(np.abs(np.linalg.eigvalsh(d)).sum())


def purity(rho: DensityOperator) -> float:
    """Tr(rho^2), in [1/d, 1]."""
    return float(np.sum(np.abs(rho.matrix) ** 2).real)


def entropy_bits(eigenvalues: np.ndarray) -> float:
    """Shannon entropy (bits) of a spectrum, clamped into [0, 1]."""
    lam = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, 1.0)
    lam = lam[lam > DEFAULT_TOLS.eigenvalue_clamp]
    if lam.size == 0:
        return 0.0
    return float(-(lam * np.log2(lam)).sum())


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -sum lambda log2 lambda with 0 log 0 := 0."""
    return entropy_bits(np.linalg.eigvalsh(rho.matrix))


def marginal_entropy(phi: PureState, labels: Iterable[str]) -> float:
    """Entropy of the reduced state of ``phi`` on ``labels``."""
    labels = list(labels)
    axes = phi.layout.axes(labels)
    return entropy_bits(gram_spectrum(phi.amplitudes, phi.layout.dims, axes))


def _check_disjoint(*groups: list[str]) -> None:
    seen: set[str] = set()
    for g in groups:
        overlap = seen & set(g)
        if overlap:
            raise LayoutError(f"label sets overlap on {sorted(overlap)}")
        seen |= set(g)


def mutual_information(phi: PureState, x: Iterable[str], y: Iterable[str]) -> float:
    """I(X;Y) = S(X) + S(Y) - S(XY) on the global pure state."""
    x, y = list(x), list(y)
    _check_disjoint(x, y)
    return marginal_entropy(phi, x) + marginal_entropy(phi, y) - marginal_entropy(phi, x + y)


def conditional_mutual_information(
    phi: PureState, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> float:
    """I(X;Y|Z) = S(XZ) + S(YZ) - S(Z) - S(XYZ) on the global pure state."""
    x, y, z = list(x), list(y), list(z)
    _check_disjoint(x, y, z)
    return (
        marginal_entropy(phi, x + z)
        + marginal_entropy(phi, y + z)
        - marginal_entropy(phi, z)
        - marginal_entropy(phi, x + y + z)
    )


@dataclass(frozen=True)
class ResourceRates:
    """Per-copy asymptotic ledger: qubits sent, ebits consumed, ebits distilled."""

    qubits: float
    ebits_consumed: float
    ebits_distilled: float
    net_ebits: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "net_ebits", self.ebits_consumed - self.ebits_distilled)
        tol = DEFAULT_TOLS.derived
        for name in ("qubits", "ebits_consumed", "ebits_distilled"):
            if getattr(self, name) < -tol:
                raise InvariantViolation(f"{name} = {getattr(self, name)} is negative beyond {tol}")


def role_groups(layout_labels: Iterable[str], roles: Mapping[str, str]) -> dict[str, list[str]]:
    """Group layout labels by their role, validating a full C/A/B/R partition."""
    labels = list(layout_labels)
    groups: dict[str, list[str]] = {r: [] for r in ROLES}
    for lab in labels:
        if lab not in roles:
            raise LayoutError(f"label {lab!r} has no role assignment")
        role = roles[lab]
        if role not in groups:
            raise LayoutError(f"unknown role {role!r} for label {lab!r} (want one of {ROLES})")
        groups[role].append(lab)
    extra = set(roles) - set(labels)
    if extra:
        raise LayoutError(f"roles assigned to labels not in the layout: {sorted(extra)}")
    missing = [r for r, g in groups.items() if not g]
    if missing:
        raise LayoutError(f"missing role assignment for {missing}")
    return groups


def resource_rates(phi: PureState, roles: Mapping[str, str]) -> ResourceRates:
    """Rates for redistributing the C part of a pure state held as AC|B.

    Q = I(C;R|B)/2 qubits, E1 = I(A;C)/2 ebits consumed, E2 = I(B;C)/2 ebits
    distilled; roles maps each layout label to one of C, A, B, R.
    """
    g = role_groups(phi.layout.labels, roles)
    q = conditional_mutual_information(phi, g["C"], g["R"], g["B"]) / 2.0
    e1 = mutual_information(phi, g["A"], g["C"]) / 2.0
    e2 = mutual_information(phi, g["B"], g["C"]) / 2.0
    return ResourceRates(qubits=q, ebits_consumed=e1, ebits_distilled=e2)
