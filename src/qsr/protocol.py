"""One-shot redistribution of the C register of a shared pure state.

Given phi on C A B R (Alice holds A C, Bob holds B, R purifies), a cut
C = C1 C2 C3, and a pair of reference states, the plan assembles

* a unitary U on C that simultaneously decouples C2 from B R in the first
  reference (tracing C1 C3) and C1 from A R in the second (tracing C2 C3),
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
from typing import Mapping

import numpy as np

from .decoupling import CutPartition, decoupling_bound, search_unitary
from .metrics import hermitian_trace_distance, pure_trace_distance, role_groups
from .qstate import (
    InvariantViolation,
    LayoutError,
    LinearMap,
    PureState,
    SystemLayout,
    apply,
    apply_unchecked,
    marginal_purity,
    maximally_entangled,
    merge_subsystems,
    permute,
    permute_unchecked,
    reinterpret,
    relabel,
    split_subsystem,
    tensor,
    vector_apply,
    vector_partial_trace,
)
from .sampling import SeededStream, as_generator
from .uhlmann import UhlmannResult, uhlmann_isometry

CANONICAL_ROLES = ("C", "A", "B", "R")

# Axis positions in the canonical (C, A, B, R) layout and its split variant.
_AX = {"C": 0, "A": 1, "B": 2, "R": 3}
_SPLIT_AX = {"C1": 0, "C2": 1, "C3": 2, "A": 3, "B": 4, "R": 5}


def canonicalize(phi: PureState, roles: Mapping[str, str]) -> PureState:
    """Merge role groups into the canonical four-subsystem layout C, A, B, R."""
    groups = role_groups(phi.layout.labels, roles)
    ordered = [lab for role in CANONICAL_ROLES for lab in groups[role]]
    state = permute(phi, ordered)
    layout = state.layout
    # Merge under temporary names first: a label may equal another group's
    # role (e.g. swapping the A and B assignments).
    for role in CANONICAL_ROLES:
        layout = merge_subsystems(layout, groups[role], f"role:{role}")
    state = reinterpret(state, layout)
    return relabel(state, {f"role:{role}": role for role in CANONICAL_ROLES})


IDENTITY_ROLES = {r: r for r in CANONICAL_ROLES}


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


def eta_bounds(refs: ReferencePair, p: CutPartition) -> tuple[float, float]:
    """Fourth-root decoupling bounds for the encoder (eta1) and decoder (eta2).

    eta1 = 2 * (2 d_C d_BR Tr(hat_CBR^2) / d_{C1 C3}^2)^(1/4)   (decouple C2 from B R)
    eta2 = 2 * (2 d_C d_AR Tr(check_CAR^2) / d_{C2 C3}^2)^(1/4) (decouple C1 from A R)
    """
    hat, check = refs.hat, refs.check
    dims = hat.layout.dims
    d_c, d_a, d_b, d_r = dims
    p.check_total(d_c)
    pur_hat = marginal_purity(hat.amplitudes, dims, [_AX["C"], _AX["B"], _AX["R"]])
    pur_check = marginal_purity(check.amplitudes, dims, [_AX["C"], _AX["A"], _AX["R"]])
    eta1 = 2.0 * (2.0 * decoupling_bound(d_c, d_b * d_r, pur_hat, p.d13)) ** 0.25
    eta2 = 2.0 * (2.0 * decoupling_bound(d_c, d_a * d_r, pur_check, p.d23)) ** 0.25
    return eta1, eta2


@dataclass(frozen=True)
class ProtocolPlan:
    """Assembled protocol: the unitary, both isometries, and all bounds."""

    partition: CutPartition
    unitary: LinearMap
    encoder: LinearMap  # W: C1 C3 A -> A2 C'' A''
    decoder: LinearMap  # V: C2 C3 B -> B1 C' B'
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
            if self.distance_to_target > min(2.0, bound) + 1e-8:
                raise InvariantViolation(
                    f"distance {self.distance_to_target} exceeds min(2, {bound}) + 1e-8"
                )


def _split_c(state: PureState, p: CutPartition) -> PureState:
    layout = split_subsystem(
        state.layout, "C", (("C1", p.d1), ("C2", p.d2), ("C3", p.d3))
    )
    return reinterpret(state, layout)


def _decoupling_residuals(
    ref: PureState, u: np.ndarray, p: CutPartition, keep_role: str
) -> float:
    """Residual of one condition straight from the pure reference state.

    keep_role "C2": || Tr_{C1 C3 A}[U.ref] - pi_{C2} (x) ref_BR ||_1
    keep_role "C1": || Tr_{C2 C3 B}[U.ref] - pi_{C1} (x) ref_AR ||_1
    """
    dims = ref.layout.dims
    d_c = dims[0]
    rotated, _ = vector_apply(ref.amplitudes, dims, [0], u, (dims[0],))
    split_dims = (p.d1, p.d2, p.d3) + dims[1:]
    if keep_role == "C2":
        keep_axes = [_SPLIT_AX["C2"], _SPLIT_AX["B"], _SPLIT_AX["R"]]
        side_axes = [_AX["B"], _AX["R"]]
        d_kept = p.d2
    elif keep_role == "C1":
        keep_axes = [_SPLIT_AX["C1"], _SPLIT_AX["A"], _SPLIT_AX["R"]]
        side_axes = [_AX["A"], _AX["R"]]
        d_kept = p.d1
    else:
        raise ValueError(f"keep_role must be 'C1' or 'C2', got {keep_role!r}")
    reduced = vector_partial_trace(rotated, split_dims, keep_axes)
    side = vector_partial_trace(ref.amplitudes, dims, side_axes)
    target = np.kron(np.eye(d_kept) / d_kept, side)
    return hermitian_trace_distance(reduced, target)


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
    fatal, since the constructions only need the measured residuals.
    """
    canon = canonicalize(phi, roles)
    if refs is None:
        hat = check = canon
    else:
        hat = canonicalize(refs[0], roles)
        check = canonicalize(refs[1], roles)
    pair = ReferencePair.for_state(canon, hat, check)

    dims = canon.layout.dims
    d_c, d_a, d_b, d_r = dims
    p.check_total(d_c)
    if stream is None:
        stream = SeededStream(0)
    rng = as_generator(stream)

    # Bounds: alpha governs keeping C1 of the check reference, beta keeping C2
    # of the hat reference (matching the two residuals below).
    pur_check = marginal_purity(check.amplitudes, dims, [_AX["C"], _AX["A"], _AX["R"]])
    pur_hat = marginal_purity(hat.amplitudes, dims, [_AX["C"], _AX["B"], _AX["R"]])
    alpha_check = decoupling_bound(d_c, d_a * d_r, pur_check, p.d23)
    beta_hat = decoupling_bound(d_c, d_b * d_r, pur_hat, p.d13)

    def residuals_of(u: np.ndarray) -> tuple[float, float]:
        return (
            _decoupling_residuals(check, u, p, keep_role="C1"),
            _decoupling_residuals(hat, u, p, keep_role="C2"),
        )

    u_mat, res, iters = search_unitary(
        d_c, residuals_of, alpha_check, beta_hat, search_budget, rng
    )
    c_layout = SystemLayout.of(("C", d_c))
    u_map = LinearMap(c_layout, c_layout, u_mat, kind="unitary")

    # Encoder W aligns U.hat with Phi_{C2 A2} (x) hat_{C'' A'' B R}.
    mu_w = _split_c(apply(u_map, hat, ("C",)), p)
    nu_w = tensor(
        maximally_entangled(p.d2, ("C2", "A2")),
        relabel(hat, {"C": "Cpp", "A": "App"}),
    )
    w_res = uhlmann_isometry(mu_w, nu_w, shared=("C2", "B", "R"))

    # Decoder V aligns U.check with Phi_{C1 B1} (x) check_{C' A B' R}.
    mu_v = _split_c(apply(u_map, check, ("C",)), p)
    nu_v = tensor(
        maximally_entangled(p.d1, ("C1", "B1")),
        relabel(check, {"C": "Cp", "B": "Bp"}),
    )
    v_res = uhlmann_isometry(mu_v, nu_v, shared=("C1", "A", "R"))

    eta1, eta2 = eta_bounds(pair, p)
    # res.eps2 is the keep-C2 (hat/encoder) residual, res.eps1 the keep-C1
    # (check/decoder) residual; eta1 bounds the former, eta2 the latter.
    return ProtocolPlan(
        partition=p,
        unitary=u_map,
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
    return tensor(
        maximally_entangled(plan.partition.d2, ("C2", "A2")),
        relabel(plan.phi, {"C": "Cpp", "A": "App"}),
    )


def final_state_target(plan: ProtocolPlan) -> PureState:
    """Phi_{C1 B1} (x) phi with Alice holding C1 A and Bob B1 C' B'."""
    return tensor(
        maximally_entangled(plan.partition.d1, ("C1", "B1")),
        relabel(plan.phi, {"C": "Cp", "B": "Bp"}),
    )


def _finish_run(
    layout: SystemLayout,
    vec: np.ndarray,
    target: PureState,
    plan: ProtocolPlan,
    ledger: tuple[float, float, float],
) -> ProtocolReport:
    new_layout, aligned = permute_unchecked(layout, vec, target.layout.labels)
    distance = pure_trace_distance(aligned, target.amplitudes)
    norm = float(np.linalg.norm(aligned))
    if norm < 1e-12:
        raise InvariantViolation("final state has vanished; cannot report a normalized state")
    qubits, consumed, distilled = ledger
    return ProtocolReport(
        final_state=PureState(new_layout, aligned / norm),
        distance_to_target=distance,
        analytic_bound=plan.analytic_bound,
        measured_bound=plan.measured_bound,
        qubits_sent=qubits,
        ebits_consumed=consumed,
        ebits_distilled=distilled,
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
    ups = tensor(
        maximally_entangled(plan.partition.d2, ("C2", "A2")),
        relabel(canon, {"C": "Cpp", "A": "App"}),
    )
    layout, vec = apply_unchecked(
        plan.encoder.adjoint(), ups.layout, ups.amplitudes, ("A2", "Cpp", "App")
    )
    # C3 moves from Alice to Bob here; pure bookkeeping, no matrix action.
    layout, vec = apply_unchecked(plan.decoder, layout, vec, ("C2", "C3", "B"))
    target = final_state_target(plan)
    p = plan.partition
    return _finish_run(
        layout, vec, target, plan, (np.log2(p.d3), np.log2(p.d2), np.log2(p.d1))
    )


def run_reverse(plan: ProtocolPlan, upsilon_final: "PureState | None" = None) -> ProtocolReport:
    """Undo the redistribution: V's adjoint, C3 back to Alice, then W.

    Consumes log2 d1 ebits, distills log2 d2, sends log2 d3 qubits Bob to
    Alice.  ``upsilon_final`` defaults to the ideal final state; a forward
    run's final_state can be passed directly.
    """
    if upsilon_final is None:
        upsilon_final = final_state_target(plan)
    expected = final_state_target(plan).layout
    state = permute(upsilon_final, expected.labels)
    if state.layout != expected:
        raise LayoutError(f"reverse input layout {state.layout} != expected {expected}")
    layout, vec = apply_unchecked(
        plan.decoder.adjoint(), state.layout, state.amplitudes, ("B1", "Cp", "Bp")
    )
    layout, vec = apply_unchecked(plan.encoder, layout, vec, ("C1", "C3", "A"))
    target = initial_state(plan)
    p = plan.partition
    return _finish_run(
        layout, vec, target, plan, (np.log2(p.d3), np.log2(p.d1), np.log2(p.d2))
    )
