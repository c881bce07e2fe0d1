"""One-shot redistribution of the C register of a shared pure state.

Given phi on C A B R (Alice holds A C, Bob holds B, R purifies), a cut
C = C1 C2 C3, and a pair of reference states, the plan assembles

* a unitary U on C that simultaneously decouples C2 from B R in the first
  reference (tracing C1 C3) and C1 from A R in the second (tracing C2 C3);
  both conditions, residuals and bounds, are evaluated by the kernels of
  qsr.decoupling on the pure references, the same ones ``qsr decouple`` runs,
* an encoder isometry  W: C1 C3 A -> A2 C'' A''  aligning U applied to the
  first reference with Phi_{C2 A2} (x) reference, shared systems C2 B R,
* a decoder isometry   V: C2 C3 B -> B1 C' B'   aligning U applied to the
  second reference with Phi_{C1 B1} (x) reference, shared systems C1 A R.

The forward run starts from Phi_{C2 A2} (x) phi, applies the adjoint of W on
Alice's side, hands C3 to Bob, applies V, and compares with
Phi_{C1 B1} (x) phi.  Resources: log2 d3 qubits sent, log2 d2 ebits consumed,
log2 d1 ebits distilled.  The reverse run mirrors everything.  U itself never
appears in the executed circuit: both isometries are built relative to the
same U, so it cancels between W's adjoint and V; that cancellation is what
makes this three-step circuit sufficient.

Error accounting is honest: components of the input outside W's range are
dropped by the adjoint without renormalization, so the reported trace
distance includes them.  The analytic bound Delta1 + Delta2 (usually vacuous
at desk scale) is reported next to the measured bound
gamma1 + gamma2 + 2 sqrt(eps1) + 2 sqrt(eps2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .decoupling import CutPartition, _bound, _residuals_of, search_unitary
from .metrics import ROLES, pure_trace_distance, role_groups
from .qstate import (
    InvariantViolation,
    LayoutError,
    LinearMap,
    PureState,
    SystemLayout,
    _matricize,
    check_guard,
    maximally_entangled,
    merge_subsystems,
    permute,
    permute_unchecked,
    split_subsystem,
)
from .sampling import SeededStream, as_generator
from .uhlmann import FactoredIsometry, UhlmannResult, _align as _uhlmann_align

def canonicalize(phi: PureState, roles: Mapping[str, str]) -> PureState:
    """Merge role groups into the canonical four-subsystem layout C, A, B, R (``phi`` itself if it is)."""
    groups = role_groups(phi.layout.labels, roles)
    ordered = [lab for role in ROLES for lab in groups[role]]
    layout, vec = permute_unchecked(phi.layout, phi.amplitudes, ordered)
    # Merge under temporary names first: a label may equal another group's
    # role (e.g. swapping the A and B assignments).
    for role in ROLES:
        layout = merge_subsystems(layout, groups[role], f"role:{role}")
    layout = layout.renamed({f"role:{role}": role for role in ROLES})
    if layout == phi.layout and ordered == list(phi.layout.labels):
        return phi
    return PureState(layout, vec)


IDENTITY_ROLES = {r: r for r in ROLES}


@dataclass(frozen=True)
class ReferencePair:
    """Two reference states for the encoder/decoder constructions.

    gamma1/gamma2 are twice the trace distance from the redistributed state to
    the respective reference (0 when the references are the state itself).
    """

    hat: PureState
    check: PureState
    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        for g in (self.gamma1, self.gamma2):
            if not -1e-12 <= g <= 4.0 + 1e-9:
                raise InvariantViolation(f"gamma {g} outside [0, 4]")

    @staticmethod
    def for_state(phi: PureState, hat: PureState, check: PureState) -> "ReferencePair":
        if hat.layout != phi.layout or check.layout != phi.layout:
            raise LayoutError("reference states must share the redistributed state's layout")

        def gamma(ref: PureState) -> float:
            if np.array_equal(ref.amplitudes, phi.amplitudes):
                return 0.0
            return 2.0 * pure_trace_distance(phi.amplitudes, ref.amplitudes)

        return ReferencePair(hat, check, gamma(hat), gamma(check))


@dataclass(frozen=True)
class _Half:
    """One half of the protocol, named by its systems.

    ``kept`` is the factor of C = C1 C2 C3 that U must decouple and
    ``partner`` its ebit partner; ``renames`` primes the reference systems
    that the half's isometry outputs; ``shared`` are the systems the
    isometry leaves alone: the kept factor first, then the side it must
    decouple from.
    """

    kept: str
    partner: str
    renames: Mapping[str, str]
    shared: tuple[str, ...]


# The encoder W is built from the hat reference, the decoder V from the check
# reference; each half is the time reverse of the other.
_ENCODER = _Half("C2", "A2", {"C": "Cpp", "A": "App"}, ("C2", "B", "R"))
_DECODER = _Half("C1", "B1", {"C": "Cp", "B": "Bp"}, ("C1", "A", "R"))


def _cut(p: CutPartition) -> dict[str, int]:
    return {"C1": p.d1, "C2": p.d2, "C3": p.d3}


def _condition(half: _Half, ref: PureState) -> tuple:
    """The half's decoupling condition on canonical ``ref`` as an operand of the qsr.decoupling kernels."""
    return ref.amplitudes, ref.dims, ref.layout.axes(half.shared[1:]), half.kept


def _eta(bound: float) -> float:
    return 2.0 * (2.0 * bound) ** 0.25


def _pair_state(half: _Half, ref: PureState, p: CutPartition) -> PureState:
    """Phi_{kept partner} (x) ref, with ref's systems renamed by ``half.renames``."""
    pair = maximally_entangled(_cut(p)[half.kept], (half.kept, half.partner))
    layout = pair.layout.concat(ref.layout.renamed(half.renames))
    return PureState(layout, np.kron(pair.amplitudes, ref.amplitudes))


def _align(half: _Half, ref: PureState, u: np.ndarray, p: CutPartition, eps: float) -> UhlmannResult:
    """The isometry taking U.ref (C split) to the half's pair state, with ``half.shared`` fixed.

    M (U.ref) and N (the pair state) are matricized on the shared systems
    straight from ``ref``; the half's residual ``eps`` is ||M M^H - N N^H||_1.
    """
    mu_layout = split_subsystem(ref.layout, "C", tuple(_cut(p).items()))
    d = _cut(p)[half.kept]
    nu_layout = SystemLayout.of((half.kept, d), (half.partner, d)).concat(ref.layout.renamed(half.renames))
    m = _matricize(u @ ref.amplitudes.reshape(p.total, -1), mu_layout.dims, mu_layout.axes(half.shared))
    side = ref.layout.axes(half.shared[1:])
    n = np.kron(np.eye(d, dtype=complex) / np.sqrt(d), _matricize(ref.amplitudes, ref.dims, side))
    iso, overlap, distance = _uhlmann_align(
        m, n, *(lay.restrict(set(lay.labels) - set(half.shared)) for lay in (mu_layout, nu_layout))
    )
    return UhlmannResult(iso, overlap, eps, distance)


def _plan_entries(dims: Sequence[int], p: CutPartition) -> int:
    """Entries of the largest array of a plan and its runs, from the canonical (C, A, B, R) dims.

    A pair state (which bounds each dense isometry and each factor Y), a
    residual's Gram matrix, or an isometry's factor Z.
    """
    d_c, d_a, d_b, d_r = dims
    pair_state, gram_enc, gram_dec = max(p.d1, p.d2) ** 2 * d_c * d_a * d_b * d_r, p.d2 * d_b * d_r, p.d1 * d_a * d_r
    return max(pair_state, gram_enc**2, gram_dec**2, (p.d1 * p.d3 * d_a) ** 2, (p.d2 * p.d3 * d_b) ** 2)


def eta_bounds(refs: ReferencePair, p: CutPartition) -> tuple[float, float]:
    """Fourth-root decoupling bounds for the encoder (eta1) and decoder (eta2).

    eta1 = 2 * (2 d_C d_BR Tr(hat_CBR^2) / d_{C1 C3}^2)^(1/4)   (decouple C2 from B R)
    eta2 = 2 * (2 d_C d_AR Tr(check_CAR^2) / d_{C2 C3}^2)^(1/4) (decouple C1 from A R)
    """
    hat, check = (canonicalize(ref, IDENTITY_ROLES) for ref in (refs.hat, refs.check))
    return _eta(_bound(*_condition(_ENCODER, hat), p)), _eta(_bound(*_condition(_DECODER, check), p))


@dataclass(frozen=True)
class ProtocolPlan:
    """Assembled protocol: the unitary, both isometries, and all bounds."""

    partition: CutPartition
    unitary: LinearMap
    encoder: FactoredIsometry  # W: C1 C3 A -> A2 C'' A''
    decoder: FactoredIsometry  # V: C2 C3 B -> B1 C' B'
    eta1: float
    eta2: float
    delta1: float
    delta2: float
    measured_eps1: float  # residual of the C2-from-BR condition (encoder side)
    measured_eps2: float  # residual of the C1-from-AR condition (decoder side)
    gamma1: float
    gamma2: float
    accepted: bool
    iterations_used: int
    phi: PureState  # canonical (C, A, B, R) state the plan was built for
    roles: Mapping[str, str]
    refs: ReferencePair
    encoder_alignment: UhlmannResult
    decoder_alignment: UhlmannResult

    @property
    def analytic_bound(self) -> float:
        return self.delta1 + self.delta2

    @property
    def measured_bound(self) -> float:
        return (
            self.gamma1
            + self.gamma2
            + 2.0 * np.sqrt(max(self.measured_eps1, 0.0))
            + 2.0 * np.sqrt(max(self.measured_eps2, 0.0))
        )


@dataclass(frozen=True)
class ProtocolReport:
    """Outcome of one run: distance to the ideal target and the resource ledger."""

    final_state: PureState
    distance_to_target: float
    analytic_bound: float
    measured_bound: float
    qubits_sent: float
    ebits_consumed: float
    ebits_distilled: float
    final_norm: float

    def __post_init__(self) -> None:
        for bound in (self.measured_bound, self.analytic_bound):
            if not self.distance_to_target <= min(2.0, bound) + 1e-8:
                raise InvariantViolation(
                    f"distance {self.distance_to_target} exceeds min(2, {bound}) + 1e-8"
                )


def build_plan(
    phi: PureState,
    roles: Mapping[str, str],
    p: CutPartition,
    refs: "tuple[PureState, PureState] | None" = None,
    search_budget: int = 64,
    stream: "SeededStream | np.random.Generator | None" = None,
) -> ProtocolPlan:
    """Assemble U, W, V for redistributing the C role of ``phi``.

    ``refs`` are (hat, check) reference states on phi's layout; omitted refs
    default to phi itself (gamma = 0).  The unitary search is deterministic
    given ``stream``; non-acceptance within ``search_budget`` is recorded, not
    fatal, since the constructions only need the measured residuals.  A plan
    whose largest array would exceed the size guard is refused before
    anything is built.
    """
    dims = [phi.layout.dim_of_set(g) for g in role_groups(phi.layout.labels, roles).values()]
    p.check_total(dims[0])
    check_guard("the protocol's largest array", _plan_entries(dims, p))
    canon = canonicalize(phi, roles)
    hat, check = (canon, canon) if refs is None else (canonicalize(ref, roles) for ref in refs)
    return _assemble(canon, hat, check, roles, p, search_budget, stream)


def _assemble(
    canon: PureState, hat: PureState, check: PureState, roles: Mapping[str, str], p: CutPartition,
    search_budget: int, stream: "SeededStream | np.random.Generator | None",
) -> ProtocolPlan:
    """:func:`build_plan` on canonical states, after the caller's size check."""
    pair = ReferencePair.for_state(canon, hat, check)
    if stream is None:
        stream = SeededStream(0)
    rng = as_generator(stream)

    # alpha bounds the decoder's condition on check, beta the encoder's on hat.
    first, second = _condition(_DECODER, check), _condition(_ENCODER, hat)
    alpha, beta = _bound(*first, p), _bound(*second, p)
    u, res, iters = search_unitary(p.total, _residuals_of(first, second, p), alpha, beta, search_budget, rng)
    c_layout = SystemLayout.of(("C", p.total))
    u = LinearMap(c_layout, c_layout, u, kind="unitary")
    # res.eps2 is the encoder's (keep C2) residual, res.eps1 the decoder's
    # (keep C1); eta1 bounds the former, eta2 the latter.
    w_res = _align(_ENCODER, hat, u.matrix, p, res.eps2)
    v_res = _align(_DECODER, check, u.matrix, p, res.eps1)
    eta1, eta2 = _eta(beta), _eta(alpha)
    return ProtocolPlan(
        partition=p,
        unitary=u,
        encoder=w_res.isometry,
        decoder=v_res.isometry,
        eta1=eta1,
        eta2=eta2,
        delta1=pair.gamma1 + eta1,
        delta2=pair.gamma2 + eta2,
        measured_eps1=res.eps2,
        measured_eps2=res.eps1,
        gamma1=pair.gamma1,
        gamma2=pair.gamma2,
        accepted=res.accepted,
        iterations_used=iters,
        phi=canon,
        roles=dict(roles),
        refs=pair,
        encoder_alignment=w_res,
        decoder_alignment=v_res,
    )


def initial_state(plan: ProtocolPlan) -> PureState:
    """Phi_{C2 A2} (x) phi with Alice holding A2 C'' A'' and Bob C2 B."""
    return _pair_state(_ENCODER, plan.phi, plan.partition)


def final_state_target(plan: ProtocolPlan) -> PureState:
    """Phi_{C1 B1} (x) phi with Alice holding C1 A and Bob B1 C' B'."""
    return _pair_state(_DECODER, plan.phi, plan.partition)


def _run(
    start: PureState, undo: FactoredIsometry, redo: FactoredIsometry, target: PureState, plan: ProtocolPlan
) -> ProtocolReport:
    """Apply ``undo``'s adjoint on one side, hand C3 over, apply ``redo``; compare with ``target``.

    The ledger is log2 d3 qubits sent, the start's ebit pair consumed and the
    target's distilled; both pair states list their pair first.
    """
    layout, vec = undo.adjoint(start.layout, start.amplitudes)
    # C3 changes hands here; pure bookkeeping, no matrix action.
    layout, vec = redo.apply(layout, vec)
    layout, vec = permute_unchecked(layout, vec, target.layout.labels)
    distance = pure_trace_distance(vec, target.amplitudes)
    norm = float(np.linalg.norm(vec))
    if not norm >= 1e-12:
        raise InvariantViolation("final state has vanished; cannot report a normalized state")
    vec /= norm
    return ProtocolReport(
        final_state=PureState(layout, vec),
        distance_to_target=distance,
        analytic_bound=plan.analytic_bound,
        measured_bound=plan.measured_bound,
        qubits_sent=np.log2(plan.partition.d3),
        ebits_consumed=np.log2(start.layout.dims[0]),
        ebits_distilled=np.log2(target.layout.dims[0]),
        final_norm=norm,
    )


def run_forward(phi: PureState, plan: ProtocolPlan) -> ProtocolReport:
    """Run encode, transmit C3, decode; report distance and the ledger.

    The encoder acts as W's adjoint restricted to its range; out-of-range
    components are dropped without renormalization so the distance is honest.
    """
    canon = phi if phi.layout == plan.phi.layout else canonicalize(phi, plan.roles)
    if canon.layout != plan.phi.layout:
        raise LayoutError(f"state layout {canon.layout} does not match the plan's {plan.phi.layout}")
    start = _pair_state(_ENCODER, canon, plan.partition)
    return _run(start, plan.encoder, plan.decoder, final_state_target(plan), plan)


def run_reverse(plan: ProtocolPlan, upsilon_final: "PureState | None" = None) -> ProtocolReport:
    """Undo the redistribution: V's adjoint, C3 back to Alice, then W.

    Consumes log2 d1 ebits, distills log2 d2, sends log2 d3 qubits Bob to
    Alice.  ``upsilon_final`` defaults to the ideal final state; a forward
    run's final_state can be passed directly.
    """
    ideal = final_state_target(plan)
    start = ideal if upsilon_final is None else permute(upsilon_final, ideal.layout.labels)
    if start.layout != ideal.layout:
        raise LayoutError(f"reverse input layout {start.layout} != expected {ideal.layout}")
    return _run(start, plan.decoder, plan.encoder, initial_state(plan), plan)
