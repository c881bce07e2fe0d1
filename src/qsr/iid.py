"""Typical subspaces and the tensor-power experiment driver.

A string of eigenvalues of rho^(x)n is typical when its product lies in
[2^{-n(S+delta)}, 2^{-n(S-delta)}] (S in bits).  Rank and weight of the
typical projector are computed combinatorially over type classes, so no
2^n-dimensional operator is ever materialized.  One raw kernel projects onto
the typical subspace of a per-copy group: it brings the group's copies to the
front, rotates each into its eigenbasis, masks, and undoes both, unless the
mask keeps every string and the projector is exactly the identity.

The experiment driver builds phi^(x)n, projects the C copies once and
continues that projection into the two reference states (then A and BR for
hat, B and AR for check), allocates the cut dimensions from the entropic
targets (powers of two, remainder absorbed by the transmitted register),
embeds the typical C subspace into the allocated product register, and runs
the one-shot protocol on the result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import DERIVED_TOL, VANISHING_NORM
from .decoupling import DEFAULT_SEARCH_ITERS, CutPartition
from .metrics import ROLES, ResourceRates, entropy_bits, resource_rates
from .protocol import (
    IDENTITY_ROLES,
    ProtocolPlan,
    ProtocolReport,
    _assemble,
    _eta,
    _plan_entries,
    canonicalize,
    run_forward,
)
from .qstate import (
    DEFAULT_GUARD,
    DensityOperator,
    GuardExceededError,
    LayoutError,
    PureState,
    SystemLayout,
    check_guard,
    check_range,
    permute_unchecked,
    vector_partial_trace,
)
from .sampling import SeededStream


class InfeasibleAllocationError(RuntimeError):
    """The back-solved dimension slack left the admissible window (n too small)."""


class DegenerateProjectionError(RuntimeError):
    """A typical projection annihilated the state, or a typical set is empty."""


_MAX_AXES = 64  # numpy's limit on array axes; phi^(x)n takes one per subsystem copy


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


def _compositions(n: int, parts: int):
    """Count vectors of ``parts`` entries >= 0 summing to ``n`` in lexicographic order, by stars and bars."""
    for bars in itertools.combinations(range(n + parts - 1), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, n + parts - 1)))


@dataclass(frozen=True)
class TypicalProjector:
    """Combinatorial description of one typical projector.

    ``typical_types`` lists the eigenvalue count vectors whose strings are
    typical; rank counts the strings, weight their total probability.
    """

    n: int
    typical_types: tuple[tuple[int, ...], ...]
    rank: int
    weight: float

    def __post_init__(self) -> None:
        check_range("weight", self.weight, 1.0)


def typical_stats(rho: "DensityOperator | np.ndarray", spec: TypicalSpec) -> TypicalProjector:
    """Rank and weight of the typical projector, via type-class counting."""
    eigs = np.linalg.eigvalsh(rho.matrix) if isinstance(rho, DensityOperator) else np.asarray(rho, float)
    eigs = np.clip(eigs, 0.0, 1.0)
    lo, hi = log2_window(eigs, spec)
    with np.errstate(divide="ignore"):
        logs = np.log2(eigs)
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
            mult = math.factorial(spec.n) // math.prod(math.factorial(c) for c in counts)
            types.append(counts)
            rank += mult
            try:
                weight += mult * 2.0**lp
            except OverflowError:  # mult exceeds the float range: keep its leading 64 bits
                shift = mult.bit_length() - 64
                weight += (mult >> shift) * 2.0 ** (lp + shift)
    return TypicalProjector(spec.n, tuple(types), rank, float(weight))


def _mask(stats: TypicalProjector, d: int) -> np.ndarray:
    """Boolean mask over the d^n eigenvalue strings of ``stats`` on a d-level spectrum (mixed-radix order).

    A string is typical when its type class is one of the typical types, so
    the mask count equals the combinatorial rank.  A type is keyed by its
    sorted string read in base d.
    """
    n = stats.n
    powers = d ** np.arange(n, dtype=np.int64)
    symbols = np.indices((d,) * n, dtype=np.min_scalar_type(d - 1)).reshape(n, -1)
    strings = np.sort(symbols, axis=0)
    keys = np.zeros(strings.shape[1], dtype=np.int64)
    for j in range(n):
        keys += powers[j] * strings[j]
    typical = [int(powers @ np.repeat(np.arange(d), counts)) for counts in stats.typical_types]
    return np.isin(keys, typical)


def string_mask(eigenvalues: np.ndarray, spec: TypicalSpec) -> np.ndarray:
    """Boolean mask over d^n eigenvalue strings, typical ones set (see ``_mask``)."""
    return _mask(typical_stats(eigenvalues, spec), len(eigenvalues))


def tensor_power(phi: PureState, n: int) -> PureState:
    """phi^(x)n with per-copy labels ``<label><i>`` (copies are 1-based)."""
    subsystems = [(f"{lab}{i}", d) for i in range(1, n + 1) for lab, d in phi.layout.subsystems]
    vec = phi.amplitudes
    for _ in range(n - 1):
        vec = np.kron(vec, phi.amplitudes)
    return PureState(SystemLayout(tuple(subsystems)), vec)


def _rotate_copies(vec: np.ndarray, n: int, u: np.ndarray) -> np.ndarray:
    """Apply ``u`` to each of the n leading copy axes of ``vec``, copy 1 first: one stacked product per axis."""
    d = u.shape[0]
    for i in range(n):
        vec = np.matmul(u, vec.reshape(d**i, d, -1)).reshape(-1)
    return vec


def _project(
    layout: SystemLayout, vec: np.ndarray, group: Sequence[str], n: int, vecs: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Unnormalized typical projection of one per-copy group; ``vec`` stays in ``layout`` order.

    The group's copies go to the front (``g1_1 g2_1 g1_2 ...``), each copy is
    rotated into the eigenbasis ``vecs``, non-typical strings are zeroed, and
    the rotation and permutation are undone.
    """
    if mask.all():  # the projector is exactly the identity
        return vec
    front = [f"{lab}{i}" for i in range(1, n + 1) for lab in group]
    rest = [lab for lab in layout.labels if lab not in front]
    front_layout, vec = permute_unchecked(layout, vec, front + rest)
    vec = _rotate_copies(vec, n, vecs.conj().T)
    vec = (vec.reshape(mask.size, -1) * mask[:, None]).reshape(-1)
    vec = _rotate_copies(vec, n, vecs)
    return permute_unchecked(front_layout, vec, layout.labels)[1]


def _normalized(vec: np.ndarray) -> tuple[np.ndarray, float]:
    kept = float(np.linalg.norm(vec) ** 2)
    if kept < VANISHING_NORM**2:
        raise DegenerateProjectionError("typical projection annihilated the state")
    return vec / np.sqrt(kept), kept


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
    vec = psi.amplitudes
    for group, rho in steps:
        copies = tuple(psi.layout.dim_of(f"{lab}{i}") for i in range(1, spec.n + 1) for lab in group)
        if rho.layout.labels != tuple(group) or copies != rho.dims * spec.n:
            raise LayoutError(f"marginal layout {rho.layout.subsystems} does not match group {group}")
        eigs, vecs = np.linalg.eigh(rho.matrix)
        vec = _project(psi.layout, vec, group, spec.n, vecs, string_mask(eigs, spec))
    vec, kept = _normalized(vec)
    return PureState(psi.layout, vec), kept


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
    d1 = 1 << math.floor(max(0.0, target1 + DERIVED_TOL))
    d2 = 1 << math.floor(max(0.0, target2 + DERIVED_TOL))
    d3 = -(-rank // (d1 * d2))  # ceil
    padding = d1 * d2 * d3 - rank
    s_c = q + e1 + e2  # 2 S(C) = I(B;C) + I(A;C) + I(C;R|B)
    eta = math.log2(d1 * d2 * d3) / n - s_c
    target3 = n * (q + 6.0 * t * delta + eta)
    alloc = IidAllocation(d1, d2, d3, eta_slack=eta, padding=padding, target_log2_d1=target1,
                          target_log2_d2=target2, target_log2_d3=target3)
    if abs(eta) > t * delta + DERIVED_TOL:
        raise InfeasibleAllocationError(
            f"eta slack {eta:.6f} outside [-{t * delta:.6f}, {t * delta:.6f}] "
            f"(n = {n} too small for delta = {delta}, t = {t}); allocation was {alloc}"
        )
    return alloc


def _embed_typical_c(
    layout: SystemLayout, vec: np.ndarray, n: int, c_eigvecs: np.ndarray, mask: np.ndarray, total_dim: int
) -> PureState:
    """Isometric embedding of the typical C^n subspace into the allocated register.

    Puts the C copies first, rotates each into the eigenbasis, gathers the
    typical strings into consecutive indices, zero-pads to ``total_dim``, and
    merges the A/B/R copies into single subsystems.  Part of Alice's encoder;
    costs nothing.
    """
    order = [f"{lab}{i}" for lab in ROLES for i in range(1, n + 1)]
    layout, vec = permute_unchecked(layout, vec, order)
    vec = _rotate_copies(vec, n, c_eigvecs.conj().T)
    gathered = vec.reshape(mask.size, -1)[mask]
    out = np.zeros((total_dim, gathered.shape[1]), dtype=np.complex128)
    out[: gathered.shape[0], :] = gathered
    flat = out.reshape(-1)
    norm = float(np.linalg.norm(flat))
    if norm < VANISHING_NORM:
        raise DegenerateProjectionError("embedding dropped all amplitude mass")
    d_a, d_b, d_r = (math.prod(layout.dims[k * n : (k + 1) * n]) for k in (1, 2, 3))
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
    stream: SeededStream,
    guard: int = DEFAULT_GUARD,
    search_budget: int = DEFAULT_SEARCH_ITERS,
) -> IidExperimentReport:
    """Redistribute the C part of phi^(x)n through the one-shot protocol.

    Builds the tensor power, measures the typical projector on the C copies
    (failure branch dropped, success probability reported), constructs the
    two projected reference states, allocates the cut, embeds, and runs the
    protocol forward.  Refuses with a size report, before allocating, when
    the tensor power or the protocol's largest array (predicted from the
    single-copy spectra) would exceed ``guard`` entries, when a projected
    group's type enumeration would (``typical_stats`` walks comb(n + d - 1,
    d - 1) count vectors of d entries), or when the tensor power would
    exceed numpy's limit on array axes; refuses an empty typical set of the
    C copies before allocating the cut.
    """
    canon = canonicalize(phi, roles)
    axes = len(canon.layout.dims) * spec.n  # checked first: it bounds n before total_dim ** n is formed
    if axes > _MAX_AXES:
        raise GuardExceededError(f"phi^(x){spec.n} needs {axes} per-copy axes; numpy allows {_MAX_AXES}")
    check_guard(f"phi^(x){spec.n}", canon.layout.total_dim ** spec.n, guard)
    for group in (("C",), ("A",), ("B", "R"), ("B",), ("A", "R")):
        d = canon.layout.dim_of_set(group)
        types = math.comb(spec.n + d - 1, d - 1)
        check_guard(f"the type enumeration of {''.join(group)}^(x){spec.n}", types * d, guard)
    rates = resource_rates(canon, IDENTITY_ROLES)
    n = spec.n

    def basis(*group: str) -> tuple[np.ndarray, TypicalProjector, np.ndarray]:
        """Eigenvectors, typical statistics and string mask of one group's single-copy marginal."""
        eigs, vecs = np.linalg.eigh(vector_partial_trace(canon.amplitudes, canon.dims, canon.layout.axes(group)))
        stats = typical_stats(eigs, spec)
        return vecs, stats, _mask(stats, len(eigs))

    def project(vec: np.ndarray, *group: str) -> np.ndarray:
        vecs, _, mask = basis(*group)
        return _project(layout, vec, group, n, vecs, mask)

    # The cut and the protocol's largest array follow from single-copy
    # spectra, so both are settled before phi^(x)n exists.
    c_vecs, stats, c_mask = basis("C")
    if stats.rank == 0:
        raise DegenerateProjectionError(f"C^(x){n} has an empty typical set at delta = {spec.delta}")
    allocation = allocate_partition(stats.rank, rates, spec)
    p = allocation.partition
    check_guard("the protocol's largest array", _plan_entries((p.total, *(d**n for d in canon.dims[1:])), p), guard)

    def embed(vec: np.ndarray) -> PureState:
        return _embed_typical_c(layout, vec, n, c_vecs, c_mask, p.total)

    def reference(first: str, second: str) -> "PureState | None":  # hat or check; None: no projection acted
        vec = project(project(projected, first), second, "R")
        return None if vec is projected else embed(_normalized(vec)[0])

    # One C projection serves all three states: omega is its normalization, hat and
    # check continue from it (or are omega itself).  Each is dropped once embedded.
    psi = tensor_power(canon, n)
    layout = psi.layout
    projected = _project(layout, psi.amplitudes, ("C",), n, c_vecs, c_mask)
    del psi
    hat, check = reference("A", "B"), reference("B", "A")
    omega, p_success = _normalized(projected)
    del projected
    omega = embed(omega)
    hat, check = (omega if ref is None else ref for ref in (hat, check))

    plan = _assemble(omega, hat, check, IDENTITY_ROLES, p, search_budget, stream.derive(1))
    report = run_forward(omega, plan)

    tail = 2.0 * _eta(2.0 ** (-n * (2.0 * allocation.eta_slack + 3.0 * spec.t * spec.delta)))
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
