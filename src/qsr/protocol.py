"""One-shot redistribution of the C register of a shared pure state.

Given phi on C A B R (Alice holds A C, Bob holds B, R purifies), a cut
C = C1 C2 C3 and two reference states, the plan assembles

* a unitary U on C that decouples C2 from B R in the first reference and C1
  from A R in the second, both conditions evaluated by the kernels of
  qsr.decoupling (the ones ``qsr decouple`` runs),
* an encoder W: C1 C3 A -> A2 C'' A'' aligning U.hat with Phi_{C2 A2} (x) hat
  on the shared systems C2 B R, and a decoder V: C2 C3 B -> B1 C' B'
  aligning U.check with Phi_{C1 B1} (x) check on C1 A R.  A half with a trivial
  kept factor (d2 = 1 for W, d1 = 1 for V) has a vacuous condition; its isometry
  U^H (x) I aligns exactly, and both such halves share one U^H, checked as U.

Each half is two label tuples, its shared systems and its pair state's order;
its layouts, run reshapes and size preflight are derived once per (dims, cut).  The
forward run takes Phi_{C2 A2} (x) phi through four steps on shared-first
matrices: W's adjoint, one axis swap that hands C3 to Bob, V, and one
transpose to the order of Phi_{C1 B1} (x) phi.  It sends log2 d3 qubits,
consumes log2 d2 ebits and distills log2 d1; the reverse run mirrors it.  U
never appears in the circuit: both isometries are built relative to it, so it
cancels between W's adjoint and V.

Error accounting is honest: components of the input outside W's range are
dropped by the adjoint without renormalization, so the reported trace
distance includes them.  The analytic bound Delta1 + Delta2 (usually vacuous
at desk scale) is reported next to the measured bound
gamma1 + gamma2 + 2 sqrt(eps1) + 2 sqrt(eps2).
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import VANISHING_NORM
from .decoupling import DEFAULT_SEARCH_ITERS, CutPartition, _bound, _factors, search_unitary
from .metrics import ROLES, pure_trace_distance, role_groups
from .qstate import (
    InvariantViolation,
    LayoutError,
    LinearMap,
    PureState,
    SystemLayout,
    _matricize,
    check_bound,
    check_guard,
    check_range,
)
from .sampling import SeededStream
from .uhlmann import UhlmannResult, _align as _uhlmann_align, _CheckedRotation

def canonicalize(phi: PureState, roles: Mapping[str, str]) -> PureState:
    """Merge role groups into the canonical four-subsystem layout C, A, B, R (``phi`` itself if it is)."""
    groups = role_groups(phi.layout.labels, roles)
    ordered = [lab for role in ROLES for lab in groups[role]]
    if tuple(ordered) == phi.layout.labels == ROLES:
        return phi
    layout = SystemLayout(tuple((role, phi.layout.dim_of_set(groups[role])) for role in ROLES))
    return PureState(layout, phi.amplitudes.reshape(phi.dims).transpose(phi.layout.axes(ordered)))


IDENTITY_ROLES = {r: r for r in ROLES}


def _order(labels: Sequence[str], source: Sequence[str]) -> tuple[int, ...]:
    return tuple(source.index(lab) for lab in labels)


class _Half:
    """One half of the protocol as two label tuples; every label order a run needs is derived once, here.

    ``shared``: the kept factor of C, then the side U decouples it from; ``layout``: the order of the
    half's pair state.  Its isometry maps ``own`` (the rest of the C-split reference) to ``out``; a
    run's shared-first orders are ``inputs`` and ``outputs``; it matricizes ``layout`` on
    ``shared_axes`` and permutes ``outputs`` back by ``to_layout``.
    """

    def __init__(self, shared: tuple[str, ...], layout: tuple[str, ...]) -> None:
        self.shared, self.layout = shared, layout
        self.side = _order(shared[1:], ROLES)
        self.own = tuple(lab for lab in ("C1", "C2", "C3", "A", "B", "R") if lab not in shared)
        self.out = tuple(lab for lab in layout if lab not in shared)
        self.inputs, self.outputs = shared + self.own, shared + self.out
        self.shared_axes, self.to_layout = _order(shared, layout), _order(layout, self.outputs)


# The encoder W is built from the hat reference, the decoder V from the check
# reference; each half is the time reverse of the other.  A run hands C3 over
# between the halves' shared-first inputs by one permutation, the same in both
# directions.
_ENCODER = _Half(("C2", "B", "R"), ("C2", "A2", "Cpp", "App", "B", "R"))
_DECODER = _Half(("C1", "A", "R"), ("C1", "B1", "Cp", "A", "Bp", "R"))
_HANDOVER = _order(_DECODER.inputs, _ENCODER.inputs)
assert _HANDOVER == _order(_ENCODER.inputs, _DECODER.inputs)


def _sizes(dims: Sequence[int], p: CutPartition) -> dict[str, int]:
    """Every label of a plan and its runs with its dimension, from the canonical (C, A, B, R) dims."""
    d_c, d_a, d_b, d_r = dims
    return {"C1": p.d1, "C2": p.d2, "C3": p.d3, "A": d_a, "B": d_b, "R": d_r,
            "A2": p.d2, "Cpp": d_c, "App": d_a, "B1": p.d1, "Cp": d_c, "Bp": d_b}


# One half at one (dims, cut): the layouts of its isometry (own -> out) and pair state, the kept dimension, a run's
# reshapes (layout, inputs, outputs), its shared rows, whether its condition is the other half's, and its largest
# array: the pair state (which bounds a dense K and both Y), the residual's Gram or the core W (shared^2), or the
# d_C^2 U^H of a trivial kept factor.
_Geometry = collections.namedtuple("_Geometry", "half source dest pair kept dims inputs outputs shared entries alike")


@functools.lru_cache(maxsize=64)
def _geometry(dims: tuple[int, ...], p: CutPartition) -> tuple[_Geometry, _Geometry]:
    """The encoder's and the decoder's geometry at canonical (C, A, B, R) ``dims`` and cut ``p``.

    Both halves and both runs of a plan read it, and plans of one shape (a cut grid, an n-sweep, a
    cut scan) repeat it, so it is derived once per (dims, cut).  The two conditions are one (``alike``) when
    their M rows (kept factor, then side) name the same non-trivial labels: M, S and d_kept then agree.
    """
    sizes = _sizes(dims, p)
    alike = [lab for lab in _ENCODER.shared if sizes[lab] > 1] == [lab for lab in _DECODER.shared if sizes[lab] > 1]

    def of(labels: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(sizes[lab] for lab in labels)

    def geometry(h: _Half) -> _Geometry:
        source, dest, pair = (SystemLayout(tuple(zip(labels, of(labels)))) for labels in (h.own, h.out, h.layout))
        kept, shared = sizes[h.shared[0]], math.prod(of(h.shared))
        entries = max(pair.total_dim, shared**2, p.total**2 if kept == 1 else 0)
        return _Geometry(h, source, dest, pair, kept, of(h.layout), of(h.inputs), of(h.outputs), shared, entries,
                         alike)

    return geometry(_ENCODER), geometry(_DECODER)


def _condition(half: _Half, ref: PureState) -> tuple:
    """The half's decoupling condition on canonical ``ref`` as an operand of the qsr.decoupling kernels."""
    return ref.amplitudes, ref.dims, half.side, half.shared[0]


def _eta(bound: float) -> float:
    return 2.0 * (2.0 * bound) ** 0.25


def _gamma(phi: PureState, ref: PureState) -> float:
    """Twice the trace distance from ``phi`` to the reference ``ref`` (0 when ``ref`` is ``phi`` itself)."""
    if ref is not phi and ref.layout != phi.layout:
        raise LayoutError("reference states must share the redistributed state's layout")
    if ref is phi or np.array_equal(ref.amplitudes, phi.amplitudes):
        return 0.0
    return 2.0 * pure_trace_distance(phi.amplitudes, ref.amplitudes)


@functools.lru_cache(maxsize=16)
def _coefficient(d: int) -> np.ndarray:
    """I/sqrt(d), built once per ``d``, read-only."""
    (coef := np.eye(d, dtype=complex) / np.sqrt(d)).setflags(write=False)
    return coef


def _entangled(x: np.ndarray, d: int) -> np.ndarray:
    """I/sqrt(d) (x) x for a matrix ``x``, by one broadcast product.

    With x = S it is the alignment's N; with the one-row x = ref it is the pair vector
    Phi_{kept partner} (x) ref over a half's layout, as a d x (d len(ref)) matrix.  It forms every
    product of the Kronecker product, so the off-diagonal blocks keep their signed zeros: on the
    Householder branch of the alignment a reflector's sign follows the sign of an exactly zero
    pivot, and all-positive zeros would pick another (equally valid) extension.
    """
    return (_coefficient(d)[:, None, :, None] * x[None, :, None, :]).reshape(d * len(x), -1)


def _align(g: _Geometry, ref: PureState, u: np.ndarray, u_h: "np.ndarray | None", p: CutPartition,
           eps: float) -> UhlmannResult:
    """The isometry taking U.ref (C split) to the half's pair state, with the half's shared systems fixed.

    M (U.ref) is the decoupling kernel's, and N = I/sqrt(d_kept) (x) S, where S is ``ref`` on the side;
    the half's residual ``eps`` is ||M M^H - N N^H||_1.  A trivial kept factor makes the condition vacuous
    (Tr_C[U rho U^H] = Tr_C rho): K = U^H (x) I (``u_h``) gives K M = S, overlap 1 and distance_out 0.
    """
    if g.kept == 1:
        return UhlmannResult(_CheckedRotation(g.source, g.dest, u_h, rest=g.source.total_dim // p.total), 1.0, eps, 0.0)
    m, s = _factors(*_condition(g.half, ref), p, u[None])
    iso, overlap, distance = _uhlmann_align(m[0], _entangled(s, g.kept), g.source, g.dest)
    return UhlmannResult(iso, overlap, eps, distance)


def _plan_entries(dims: Sequence[int], p: CutPartition) -> int:
    """Entries of the largest array of a plan and its runs, from the canonical (C, A, B, R) dims."""
    return max(g.entries for g in _geometry(tuple(dims), p))


def eta_bounds(hat: PureState, check: PureState, p: CutPartition) -> tuple[float, float]:
    """Fourth-root decoupling bounds for the encoder (eta1) and decoder (eta2).

    eta1 = 2 * (2 d_C d_BR Tr(hat_CBR^2) / d_{C1 C3}^2)^(1/4)   (decouple C2 from B R)
    eta2 = 2 * (2 d_C d_AR Tr(check_CAR^2) / d_{C2 C3}^2)^(1/4) (decouple C1 from A R)
    """
    hat, check = (canonicalize(ref, IDENTITY_ROLES) for ref in (hat, check))
    return _eta(_bound(*_condition(_ENCODER, hat), p)), _eta(_bound(*_condition(_DECODER, check), p))


@dataclass(frozen=True)
class ProtocolPlan:
    """Assembled protocol: the unitary, both alignments and the bounds.

    gamma1/gamma2 are twice the trace distance from ``phi`` to the hat/check
    reference (0 when the reference is ``phi`` itself); Delta_i = gamma_i + eta_i.
    """

    partition: CutPartition
    unitary: LinearMap
    encoder_alignment: UhlmannResult  # W: C1 C3 A -> A2 C'' A''; eps_in of the C2-from-BR condition
    decoder_alignment: UhlmannResult  # V: C2 C3 B -> B1 C' B'; eps_in of the C1-from-AR condition
    eta1: float
    eta2: float
    gamma1: float
    gamma2: float
    accepted: bool
    iterations_used: int
    phi: PureState  # canonical (C, A, B, R) state the plan was built for
    roles: Mapping[str, str]

    def __post_init__(self) -> None:
        for g in (self.gamma1, self.gamma2):
            check_range("gamma", g, 4.0)

    @property
    def measured_eps1(self) -> float:
        return self.encoder_alignment.epsilon_in

    @property
    def measured_eps2(self) -> float:
        return self.decoder_alignment.epsilon_in

    @property
    def analytic_bound(self) -> float:
        return (self.gamma1 + self.eta1) + (self.gamma2 + self.eta2)

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
        check_bound("min(2, measured bound)", self.distance_to_target, min(2.0, self.measured_bound))
        check_bound("min(2, analytic bound)", self.distance_to_target, min(2.0, self.analytic_bound))


def build_plan(
    phi: PureState,
    roles: Mapping[str, str],
    p: CutPartition,
    refs: "tuple[PureState, PureState] | None" = None,
    search_budget: int = DEFAULT_SEARCH_ITERS,
    *,
    stream: SeededStream,
) -> ProtocolPlan:
    """Assemble U, W, V for redistributing the C role of ``phi``.

    ``refs`` are (hat, check) reference states on phi's layout; omitted refs
    default to phi itself (gamma = 0).  The unitary search is deterministic
    given ``stream``; non-acceptance within ``search_budget`` is recorded, not
    fatal, since the constructions only need the measured residuals.  A plan
    whose largest array would exceed the size guard is refused before
    anything is built.
    """
    canon = canonicalize(phi, roles)
    p.check_total(canon.dims[0])
    check_guard("the protocol's largest array", _plan_entries(canon.dims, p))
    hat, check = (canon, canon) if refs is None else (canonicalize(ref, roles) for ref in refs)
    return _assemble(canon, hat, check, roles, p, search_budget, stream)


def _assemble(
    canon: PureState, hat: PureState, check: PureState, roles: Mapping[str, str], p: CutPartition,
    search_budget: int, stream: SeededStream,
) -> ProtocolPlan:
    """:func:`build_plan` on canonical states, after the caller's size check."""
    gamma1, gamma2 = _gamma(canon, hat), _gamma(canon, check)

    # alpha bounds the decoder's condition on check, beta the encoder's on hat; one met twice is searched once.
    encoder, decoder = _geometry(canon.dims, p)
    first, second = _condition(_DECODER, check), _condition(_ENCODER, hat)
    alpha, beta = _bound(*first, p), _bound(*second, p)
    second = first if encoder.alike and hat is check else second
    u, res, iters = search_unitary(first, second, p, alpha, beta, search_budget, stream.generator())
    u_h = u.conj().T if min(p.d1, p.d2) == 1 else None  # shared by both closed-form halves
    c_layout = SystemLayout.of(("C", p.total))
    u = LinearMap(c_layout, c_layout, u, kind="unitary")  # the plan's one check of U, which u_h relies on
    # res.eps2 is the encoder's (keep C2) residual, res.eps1 the decoder's
    # (keep C1); eta1 bounds the former, eta2 the latter.
    w_res = _align(encoder, hat, u.matrix, u_h, p, res.eps2)
    v_res = _align(decoder, check, u.matrix, u_h, p, res.eps1)
    return ProtocolPlan(
        partition=p, unitary=u, encoder_alignment=w_res, decoder_alignment=v_res,
        eta1=_eta(beta), eta2=_eta(alpha), gamma1=gamma1, gamma2=gamma2,
        accepted=res.accepted, iterations_used=iters, phi=canon, roles=dict(roles),
    )


def initial_state(plan: ProtocolPlan) -> PureState:
    """Phi_{C2 A2} (x) phi with Alice holding A2 C'' A'' and Bob C2 B."""
    g = _geometry(plan.phi.dims, plan.partition)[0]
    return PureState(g.pair, _entangled(plan.phi.amplitudes[None], g.kept))


def final_state_target(plan: ProtocolPlan) -> PureState:
    """Phi_{C1 B1} (x) phi with Alice holding C1 A and Bob B1 C' B'."""
    g = _geometry(plan.phi.dims, plan.partition)[1]
    return PureState(g.pair, _entangled(plan.phi.amplitudes[None], g.kept))


def _run(start: np.ndarray, undo: _Geometry, redo: _Geometry, plan: ProtocolPlan) -> ProtocolReport:
    """Undo one half's isometry on the pair vector ``start``, hand C3 over, apply the other half's.

    The result is compared with the other half's pair vector of the plan's state.  The ledger is
    log2 d3 qubits sent, the start's ebit pair consumed and the target's distilled.
    """
    undo_iso, redo_iso = ((plan.encoder_alignment if g.half is _ENCODER else plan.decoder_alignment).isometry
                          for g in (undo, redo))
    vec = undo_iso.adjoint(_matricize(start, undo.dims, undo.half.shared_axes))
    vec = vec.reshape(undo.inputs).transpose(_HANDOVER)
    vec = redo_iso.apply(vec.reshape(redo.shared, -1))
    vec = vec.reshape(redo.outputs).transpose(redo.half.to_layout).reshape(-1)
    distance = pure_trace_distance(vec, _entangled(plan.phi.amplitudes[None], redo.kept))
    norm = float(np.linalg.norm(vec))
    if not norm >= VANISHING_NORM:
        raise InvariantViolation("final state has vanished; cannot report a normalized state")
    vec /= norm
    return ProtocolReport(
        final_state=PureState(redo.pair, vec),
        distance_to_target=distance,
        analytic_bound=plan.analytic_bound,
        measured_bound=plan.measured_bound,
        qubits_sent=np.log2(plan.partition.d3),
        ebits_consumed=np.log2(undo.kept),
        ebits_distilled=np.log2(redo.kept),
        final_norm=norm,
    )


def run_forward(phi: PureState, plan: ProtocolPlan) -> ProtocolReport:
    """Run encode, transmit C3, decode; report distance and the ledger.

    ``phi`` is in the labels given to :func:`build_plan` (it is canonicalized by the plan's
    roles), or is ``plan.phi`` itself.  The encoder acts as W's adjoint restricted to its range;
    out-of-range components are dropped without renormalization so the distance is honest.
    """
    canon = phi if phi is plan.phi else canonicalize(phi, plan.roles)
    if canon.layout != plan.phi.layout:
        raise LayoutError(f"state layout {canon.layout} does not match the plan's {plan.phi.layout}")
    encoder, decoder = _geometry(plan.phi.dims, plan.partition)
    return _run(_entangled(canon.amplitudes[None], encoder.kept), encoder, decoder, plan)


def run_reverse(plan: ProtocolPlan, upsilon_final: "PureState | None" = None) -> ProtocolReport:
    """Undo the redistribution: V's adjoint, C3 back to Alice, then W.

    Consumes log2 d1 ebits, distills log2 d2, sends log2 d3 qubits Bob to
    Alice.  ``upsilon_final`` defaults to the ideal final state; otherwise it
    is in the decoder's pair layout, which a forward run's final_state is.
    """
    encoder, decoder = _geometry(plan.phi.dims, plan.partition)
    if upsilon_final is None:
        start = _entangled(plan.phi.amplitudes[None], decoder.kept)
    elif upsilon_final.layout == decoder.pair:
        start = upsilon_final.amplitudes
    else:
        raise LayoutError(f"reverse input layout {upsilon_final.layout} != expected {decoder.pair}")
    return _run(start, decoder, encoder, plan)
