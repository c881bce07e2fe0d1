"""Typical subspaces and the tensor-power experiment driver.

A string of eigenvalues of rho^(x)n is typical when its product lies in
[2^{-n(S+delta)}, 2^{-n(S-delta)}] (S in bits).  Rank and weight of the
typical projector are computed combinatorially over type classes, so no
2^n-dimensional operator is ever materialized; projections onto typical
subspaces of grouped subsystems act through per-copy eigenbasis rotations and
an index mask.

The experiment driver builds phi^(x)n, measures the typical projector on the
C copies, constructs the two projected reference states, allocates the cut
dimensions from the entropic targets (powers of two, remainder absorbed by
the transmitted register), embeds the typical C subspace into the allocated
product register, and runs the one-shot protocol on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .decoupling import CutPartition
from .metrics import ResourceRates, entropy_bits, resource_rates
from .protocol import (
    IDENTITY_ROLES,
    ProtocolPlan,
    ProtocolReport,
    build_plan,
    canonicalize,
    run_forward,
)
from .qstate import (
    DensityOperator,
    LayoutError,
    LinearMap,
    PureState,
    SystemLayout,
    apply_unchecked,
    permute_unchecked,
    relabel,
    tensor,
)
from .sampling import SeededStream


class GuardExceededError(RuntimeError):
    """The requested tensor power would exceed the materialization guard."""


class InfeasibleAllocationError(RuntimeError):
    """The back-solved dimension slack left the admissible window (n too small)."""


class DegenerateProjectionError(RuntimeError):
    """A typical projection annihilated the state."""


DEFAULT_GUARD = 2**20  # max vector entries the driver will materialize


@dataclass(frozen=True)
class TypicalSpec:
    """Parameters of the typicality window: copies n, width delta, constant t > 1."""

    n: int
    delta: float
    t: float = 1.5

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be > 0 and finite, got {self.delta}")
        if not 1 < self.t < math.inf:
            raise ValueError(f"t must be > 1 and finite, got {self.t}")


def log2_window(eigenvalues: np.ndarray, spec: TypicalSpec) -> tuple[float, float]:
    """Inclusive [lo, hi] window for log2 of a typical eigenvalue product."""
    s = entropy_bits(np.asarray(eigenvalues, dtype=float))
    return (-spec.n * (s + spec.delta), -spec.n * (s - spec.delta))


def _log2_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    lam = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        return np.log2(lam)


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _compositions(n - k, parts - 1):
            yield (k,) + rest


@dataclass(frozen=True)
class TypicalProjector:
    """Combinatorial description of one typical projector.

    ``typical_types`` lists the eigenvalue count vectors whose strings are
    typical; rank counts the strings, weight their total probability.
    """

    base_eigenvalues: tuple[float, ...]
    n: int
    typical_types: tuple[tuple[int, ...], ...]
    rank: int
    weight: float
    log2_lo: float
    log2_hi: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.weight <= 1.0 + 1e-9:
            raise ValueError(f"weight {self.weight} outside [0, 1]")


def typical_stats(rho: "DensityOperator | np.ndarray", spec: TypicalSpec) -> TypicalProjector:
    """Rank and weight of the typical projector, via type-class counting."""
    eigs = np.linalg.eigvalsh(rho.matrix) if isinstance(rho, DensityOperator) else np.asarray(rho, float)
    eigs = np.clip(eigs, 0.0, 1.0)
    lo, hi = log2_window(eigs, spec)
    logs = _log2_spectrum(eigs)
    d = eigs.shape[0]
    types: list[tuple[int, ...]] = []
    rank = 0
    weight = 0.0
    for counts in _compositions(spec.n, d):
        lp = 0.0
        for c, lg in zip(counts, logs):
            if c:
                lp += c * lg
        if lo <= lp <= hi:
            mult = 1
            rem = spec.n
            for c in counts:
                mult *= math.comb(rem, c)
                rem -= c
            types.append(counts)
            rank += mult
            weight += mult * 2.0**lp
    return TypicalProjector(
        base_eigenvalues=tuple(float(x) for x in eigs),
        n=spec.n,
        typical_types=tuple(types),
        rank=rank,
        weight=float(weight),
        log2_lo=lo,
        log2_hi=hi,
    )


def string_mask(eigenvalues: np.ndarray, spec: TypicalSpec) -> np.ndarray:
    """Boolean mask over d^n eigenvalue strings (mixed-radix order).

    A string is typical when its type class is one of ``typical_stats``'
    typical types, so the mask count equals the combinatorial rank.  A type
    is keyed by its sorted string read in base d.
    """
    stats = typical_stats(eigenvalues, spec)
    d, n = len(stats.base_eigenvalues), spec.n
    powers = d ** np.arange(n, dtype=np.int64)
    symbols = np.indices((d,) * n, dtype=np.min_scalar_type(d - 1)).reshape(n, -1)
    strings = np.sort(symbols, axis=0)
    keys = np.zeros(strings.shape[1], dtype=np.int64)
    for j in range(n):
        keys += powers[j] * strings[j]
    typical = [int(powers @ np.repeat(np.arange(d), counts)) for counts in stats.typical_types]
    return np.isin(keys, typical)


def tensor_power(phi: PureState, n: int) -> PureState:
    """phi^(x)n with per-copy labels ``<label><i>`` (copies are 1-based)."""
    out = relabel(phi, {lab: f"{lab}1" for lab in phi.layout.labels})
    for i in range(2, n + 1):
        out = tensor(out, relabel(phi, {lab: f"{lab}{i}" for lab in phi.layout.labels}))
    return out


def project_typical(
    psi: PureState,
    steps: Sequence[tuple[tuple[str, ...], DensityOperator]],
    spec: TypicalSpec,
) -> tuple[PureState, float]:
    """Apply typical projectors for each (group, single-copy marginal) in order.

    ``psi`` is a tensor power with per-copy labels ``<label><i>``; each step
    names the per-copy group (e.g. ``("A", "R")``) and supplies the marginal
    whose eigenbasis defines the projector.  Projectors of different steps
    need not commute; the given order is applied left to right.  Returns the
    renormalized state and the cumulative squared norm kept.
    """
    canonical_order = psi.layout.labels
    layout = psi.layout
    vec = psi.amplitudes
    for group, rho in steps:
        eigs, vecs = np.linalg.eigh(rho.matrix)
        d_g = rho.layout.total_dim
        group_dims = rho.layout.dims
        if tuple(lab for lab, _ in rho.layout.subsystems) != tuple(group):
            raise LayoutError(f"marginal layout {rho.layout.labels} does not match group {group}")
        temp_labels = [f"typ:{'.'.join(group)}:{i}" for i in range(1, spec.n + 1)]
        # Rotate every copy into the group eigenbasis.
        for i in range(1, spec.n + 1):
            targets = tuple(f"{lab}{i}" for lab in group)
            step_in = LinearMap(
                SystemLayout(tuple((t, d) for t, d in zip(targets, group_dims))),
                SystemLayout.of((temp_labels[i - 1], d_g)),
                vecs.conj().T,
                kind="unitary",
            )
            layout, vec = apply_unchecked(step_in, layout, vec, targets)
        # Zero out non-typical eigenvalue strings.
        mask = string_mask(eigs, spec)
        axes = layout.axes(temp_labels)
        arr = vec.reshape(layout.dims)
        arr = np.moveaxis(arr, axes, range(spec.n))
        flat = arr.reshape(d_g**spec.n, -1)
        flat = flat * mask[:, None]
        arr = flat.reshape((d_g,) * spec.n + tuple(
            d for j, d in enumerate(layout.dims) if j not in set(axes)
        ))
        arr = np.moveaxis(arr, range(spec.n), axes)
        vec = arr.reshape(-1)
        # Rotate back to the computational basis.
        for i in range(1, spec.n + 1):
            targets = tuple(f"{lab}{i}" for lab in group)
            step_out = LinearMap(
                SystemLayout.of((temp_labels[i - 1], d_g)),
                SystemLayout(tuple((t, d) for t, d in zip(targets, group_dims))),
                vecs,
                kind="unitary",
            )
            layout, vec = apply_unchecked(step_out, layout, vec, (temp_labels[i - 1],))
    layout, vec = permute_unchecked(layout, vec, canonical_order)
    kept = float(np.linalg.norm(vec) ** 2)
    if kept < 1e-24:
        raise DegenerateProjectionError("typical projection annihilated the state")
    return PureState(layout, vec / np.sqrt(kept)), kept


@dataclass(frozen=True)
class IidAllocation:
    """Cut dimensions for the typical C register, plus the realized slack.

    d1/d2 are the largest powers of two below their entropic targets (floored
    at 1); d3 is the smallest integer completing the register; eta_slack is
    the deviation of the realized total log-dimension from n S(C) per copy.
    """

    d1: int
    d2: int
    d3: int
    eta_slack: float
    padding: int
    target_log2_d1: float
    target_log2_d2: float
    target_log2_d3: float

    @property
    def partition(self) -> CutPartition:
        return CutPartition(self.d1, self.d2, self.d3)


def allocate_partition(rank: int, rates: ResourceRates, spec: TypicalSpec) -> IidAllocation:
    """Allocate d1, d2, d3 for a typical rank from the entropic targets.

    Raises InfeasibleAllocationError when the realized slack eta leaves
    [-t delta, t delta], which happens when n is too small for this delta/t.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    n, delta, t = spec.n, spec.delta, spec.t
    q, e1, e2 = rates.qubits, rates.ebits_consumed, rates.ebits_distilled
    target1 = n * (e2 - 3.0 * t * delta)  # = n [I(B;C) - 6 t delta] / 2
    target2 = n * (e1 - 3.0 * t * delta)  # = n [I(A;C) - 6 t delta] / 2
    d1 = 1 << max(0, math.floor(target1 + 1e-9))
    d2 = 1 << max(0, math.floor(target2 + 1e-9))
    d3 = -(-rank // (d1 * d2))  # ceil
    padding = d1 * d2 * d3 - rank
    s_c = q + e1 + e2  # 2 S(C) = I(B;C) + I(A;C) + I(C;R|B)
    eta = math.log2(d1 * d2 * d3) / n - s_c
    target3 = n * (q + 6.0 * t * delta + eta)
    alloc = IidAllocation(
        d1=d1,
        d2=d2,
        d3=d3,
        eta_slack=eta,
        padding=padding,
        target_log2_d1=target1,
        target_log2_d2=target2,
        target_log2_d3=target3,
    )
    if abs(eta) > t * delta + 1e-9:
        raise InfeasibleAllocationError(
            f"eta slack {eta:.6f} outside [-{t * delta:.6f}, {t * delta:.6f}] "
            f"(n = {n} too small for delta = {delta}, t = {t}); allocation was {alloc}"
        )
    return alloc


def _embed_typical_c(
    psi: PureState, n: int, c_eigvecs: np.ndarray, typical_indices: np.ndarray, total_dim: int
) -> PureState:
    """Isometric embedding of the typical C^n subspace into the allocated register.

    Rotates every C copy into the eigenbasis, gathers the typical strings into
    consecutive indices, zero-pads to ``total_dim``, and merges the A/B/R
    copies into single subsystems.  Part of Alice's encoder; costs nothing.
    """
    d_c = c_eigvecs.shape[0]
    layout, vec = psi.layout, psi.amplitudes
    for i in range(1, n + 1):
        rot = LinearMap(
            SystemLayout.of((f"C{i}", d_c)),
            SystemLayout.of((f"C{i}", d_c)),
            c_eigvecs.conj().T,
            kind="unitary",
        )
        layout, vec = apply_unchecked(rot, layout, vec, (f"C{i}",))
    order = [f"{lab}{i}" for lab in ("C", "A", "B", "R") for i in range(1, n + 1)]
    layout, vec = permute_unchecked(layout, vec, order)
    dims = layout.dims
    d_cn = d_c**n
    rest = int(np.prod(dims[n:], dtype=np.int64)) if len(dims) > n else 1
    mat = vec.reshape(d_cn, rest)
    gathered = mat[typical_indices, :]
    out = np.zeros((total_dim, rest), dtype=np.complex128)
    out[: gathered.shape[0], :] = gathered
    flat = out.reshape(-1)
    norm = float(np.linalg.norm(flat))
    if norm < 1e-12:
        raise DegenerateProjectionError("embedding dropped all amplitude mass")
    d_a = int(np.prod(dims[n : 2 * n], dtype=np.int64))
    d_b = int(np.prod(dims[2 * n : 3 * n], dtype=np.int64))
    d_r = int(np.prod(dims[3 * n :], dtype=np.int64))
    new_layout = SystemLayout.of(("C", total_dim), ("A", d_a), ("B", d_b), ("R", d_r))
    return PureState(new_layout, flat / norm)


@dataclass(frozen=True)
class IidExperimentReport:
    """One tensor-power run: projection statistics, allocation, protocol outcome."""

    n: int
    success_probability: float
    allocation: IidAllocation
    protocol: ProtocolReport
    plan: ProtocolPlan
    per_copy_qubits: float
    per_copy_ebits_consumed: float
    per_copy_ebits_distilled: float
    target_rates: ResourceRates
    gamma1: float
    gamma2: float
    asymptotic_bound_tail: float
    typical_rank: int
    typical_weight: float


def iid_experiment(
    phi: PureState,
    roles: Mapping[str, str],
    spec: TypicalSpec,
    stream: "SeededStream | None" = None,
    guard: int = DEFAULT_GUARD,
    search_budget: int = 64,
) -> IidExperimentReport:
    """Redistribute the C part of phi^(x)n through the one-shot protocol.

    Builds the tensor power, measures the typical projector on the C copies
    (failure branch dropped, success probability reported), constructs the
    two projected reference states, allocates the cut, embeds, and runs the
    protocol forward.  Refuses with a size report when the tensor power would
    exceed ``guard`` vector entries.
    """
    canon = canonicalize(phi, roles)
    size = canon.layout.total_dim ** spec.n
    if size > guard:
        raise GuardExceededError(
            f"phi^(x){spec.n} needs {size} vector entries, above the guard of {guard}"
        )
    if stream is None:
        stream = SeededStream(0)
    rates = resource_rates(canon, IDENTITY_ROLES)

    from .qstate import partial_trace

    rho_c = partial_trace(canon, ["C"])
    rho_a = partial_trace(canon, ["A"])
    rho_b = partial_trace(canon, ["B"])
    rho_ar = partial_trace(canon, ["A", "R"])
    rho_br = partial_trace(canon, ["B", "R"])

    psi = tensor_power(canon, spec.n)
    omega, p_success = project_typical(psi, [(("C",), rho_c)], spec)
    hat, _ = project_typical(psi, [(("C",), rho_c), (("A",), rho_a), (("B", "R"), rho_br)], spec)
    check, _ = project_typical(psi, [(("C",), rho_c), (("B",), rho_b), (("A", "R"), rho_ar)], spec)

    c_eigs, c_vecs = np.linalg.eigh(rho_c.matrix)
    typical_indices = np.flatnonzero(string_mask(c_eigs, spec))
    stats = typical_stats(c_eigs, spec)

    allocation = allocate_partition(stats.rank, rates, spec)
    total = allocation.d1 * allocation.d2 * allocation.d3
    omega_e = _embed_typical_c(omega, spec.n, c_vecs, typical_indices, total)
    hat_e = _embed_typical_c(hat, spec.n, c_vecs, typical_indices, total)
    check_e = _embed_typical_c(check, spec.n, c_vecs, typical_indices, total)

    plan = build_plan(
        omega_e,
        IDENTITY_ROLES,
        allocation.partition,
        refs=(hat_e, check_e),
        search_budget=search_budget,
        stream=stream.derive(1),
    )
    report = run_forward(omega_e, plan)

    n, delta, t = spec.n, spec.delta, spec.t
    tail = 4.0 * (2.0 * 2.0 ** (-n * (2.0 * allocation.eta_slack + 3.0 * t * delta))) ** 0.25
    return IidExperimentReport(
        n=n,
        success_probability=p_success,
        allocation=allocation,
        protocol=report,
        plan=plan,
        per_copy_qubits=float(np.log2(allocation.d3)) / n,
        per_copy_ebits_consumed=float(np.log2(allocation.d2)) / n,
        per_copy_ebits_distilled=float(np.log2(allocation.d1)) / n,
        target_rates=rates,
        gamma1=plan.gamma1,
        gamma2=plan.gamma2,
        asymptotic_bound_tail=tail,
        typical_rank=stats.rank,
        typical_weight=stats.weight,
    )
