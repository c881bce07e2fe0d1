"""Multipartite state algebra over labeled subsystems.

States are dense complex numpy arrays indexed in mixed radix with the
first-listed subsystem most significant, i.e. ``amplitudes.reshape(dims)``
puts the subsystems on the axes in layout order (C order).  All values are
immutable after construction and every operation is a pure function.

Public surface:

* :class:`SystemLayout`, :class:`PureState`, :class:`DensityOperator`,
  :class:`LinearMap` value types with validated invariants.
* ``tensor``, ``partial_trace``, ``apply``, ``purify``, ``permute``,
  ``split_subsystem``, ``merge_subsystems``, ``relabel``.
* ``maximally_entangled`` / ``maximally_mixed`` constructors.
* JSON text format (``qsr-state/1``) readers/writers consumed by the CLI.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import BOUND_SLACK, DERIVED_TOL, EIGENVALUE_CLAMP, INVARIANT_TOL

STATE_FORMAT_VERSION = "qsr-state/1"


class LayoutError(ValueError):
    """A label/dimension bookkeeping precondition was violated."""


class InvariantViolation(ValueError):
    """A numerical invariant (norm, hermiticity, isometry, ...) failed."""


class GuardExceededError(RuntimeError):
    """A requested array would exceed the materialization guard."""


DEFAULT_GUARD = 2**20  # max array entries the library and the CLI will materialize


def check_guard(what: str, entries: int, guard: int = DEFAULT_GUARD) -> None:
    """Refuse, before any allocation, an array of more than ``guard`` entries (a count above 2^63 by its magnitude)."""
    if entries > guard:
        count = entries if entries <= 2**63 else f"at least 2^{entries.bit_length() - 1}"  # a huge int has no str()
        raise GuardExceededError(f"{what} needs {count} entries, above the guard of {guard}")


def check_range(what: str, value: float, high: float) -> None:
    """Refuse a ``value`` outside [0, ``high``] beyond rounding: below -EIGENVALUE_CLAMP or above high + DERIVED_TOL."""
    if not -EIGENVALUE_CLAMP <= value <= high + DERIVED_TOL:
        raise InvariantViolation(f"{what} {value} outside [0, {high:g}]")


def check_bound(what: str, distance: float, bound: float) -> None:
    """Refuse a ``distance`` above ``bound`` (named ``what``) by more than BOUND_SLACK."""
    if not distance <= bound + BOUND_SLACK:
        raise InvariantViolation(f"distance {distance} exceeds {what} {bound} + {BOUND_SLACK}")


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemLayout:
    """Ordered, labeled subsystems with dimensions.

    The layout is the index algebra for every tensor operation: position in
    ``subsystems`` is the axis of the reshaped array, and the flat index is
    mixed radix with the first subsystem most significant.
    """

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        labels = [lab for lab, _ in self.subsystems]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate labels in layout: {labels}")
        for lab, d in self.subsystems:
            if d < 1:
                raise LayoutError(f"subsystem {lab!r} has dimension {d} < 1")

    @staticmethod
    def of(*subsystems: tuple[str, int]) -> "SystemLayout":
        return SystemLayout(tuple((str(lab), int(d)) for lab, d in subsystems))

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.subsystems)

    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    @functools.cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.subsystems):
            if lab == label:
                return i
        raise LayoutError(f"unknown label {label!r}; layout has {self.labels}")

    def axes(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.axis(lab) for lab in labels)

    def dim_of(self, label: str) -> int:
        return self.subsystems[self.axis(label)][1]

    def dim_of_set(self, labels: Iterable[str]) -> int:
        return math.prod(self.dim_of(lab) for lab in labels)

    def restrict(self, labels: Iterable[str]) -> "SystemLayout":
        """Sub-layout of ``labels`` kept in their original relative order."""
        want = set(labels)
        missing = want - set(self.labels)
        if missing:
            raise LayoutError(f"unknown labels {sorted(missing)}")
        return SystemLayout(tuple(s for s in self.subsystems if s[0] in want))

    def renamed(self, mapping: Mapping[str, str]) -> "SystemLayout":
        """The same subsystems with labels renamed by ``mapping`` (others unchanged)."""
        return SystemLayout(tuple((mapping.get(lab, lab), d) for lab, d in self.subsystems))

    def concat(self, other: "SystemLayout") -> "SystemLayout":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise LayoutError(f"label conflict in tensor product: {sorted(overlap)}")
        return SystemLayout(self.subsystems + other.subsystems)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over a layout."""

    layout: SystemLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _frozen(np.asarray(self.amplitudes).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.layout.total_dim,):
            raise LayoutError(
                f"amplitude length {amps.shape[0]} != layout dimension {self.layout.total_dim}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= INVARIANT_TOL:
            raise InvariantViolation(f"pure state norm {norm} deviates from 1 beyond {INVARIANT_TOL}")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    def projector(self) -> "DensityOperator":
        v = self.amplitudes
        return DensityOperator(self.layout, np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """PSD, unit-trace operator over a layout."""

    layout: SystemLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _frozen(np.asarray(self.matrix))
        object.__setattr__(self, "matrix", mat)
        d = self.layout.total_dim
        if mat.shape != (d, d):
            raise LayoutError(f"matrix shape {mat.shape} != layout dimension ({d}, {d})")
        if not np.max(np.abs(mat - mat.conj().T)) <= INVARIANT_TOL:
            raise InvariantViolation("density operator is not Hermitian within tolerance")
        tr = float(mat.trace().real)
        if not abs(tr - 1.0) <= INVARIANT_TOL:
            raise InvariantViolation(f"density operator trace {tr} deviates from 1")
        evals = np.linalg.eigvalsh(mat)
        if not float(evals.min()) >= -INVARIANT_TOL * max(1.0, float(evals.max())):
            raise InvariantViolation(f"density operator has negative eigenvalue {evals.min()}")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims


def _gram_rows(a: np.ndarray):
    """Blocks (j, rows j .. j+255 of a^H a), each one complex product: a 256-column slice's conjugate with ``a``.

    Peak memory is one block and the slice's conjugate, never a conjugated copy of all of ``a``.
    """
    for j in range(0, a.shape[1], 256):
        yield j, a[:, j : j + 256].conj().T @ a


def _check_isometry(a: np.ndarray, *defects: float) -> None:
    """Refuse ``a`` unless |a^H a - I| (taken blockwise) and every further ``defect`` are within tolerance."""
    defect = functools.reduce(np.maximum, defects, 0.0)  # unlike max(), np.maximum keeps a NaN
    for j, g in _gram_rows(a):
        g.reshape(-1)[j :: g.shape[1] + 1] -= 1.0  # a^H a - I in place: the block's diagonal starts at column j
        defect = np.maximum(defect, np.abs(g).max())
    if not defect <= INVARIANT_TOL:
        raise InvariantViolation(f"isometry defect {defect} exceeds {INVARIANT_TOL}")


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Matrix with explicit input/output layouts.

    ``kind`` is one of ``"unitary"``, ``"isometry"``, ``"general"``; the first
    two are validated on construction.
    """

    input_layout: SystemLayout
    output_layout: SystemLayout
    matrix: np.ndarray
    kind: str = "general"

    def __post_init__(self) -> None:
        mat = _frozen(np.asarray(self.matrix))
        object.__setattr__(self, "matrix", mat)
        d_in = self.input_layout.total_dim
        d_out = self.output_layout.total_dim
        if mat.shape != (d_out, d_in):
            raise LayoutError(f"matrix shape {mat.shape} != ({d_out}, {d_in})")
        if self.kind not in ("unitary", "isometry", "general"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.kind == "unitary" and d_in != d_out:
            raise InvariantViolation("unitary map must be square")
        if self.kind in ("unitary", "isometry"):
            if d_out < d_in:
                raise InvariantViolation("isometry needs output dimension >= input dimension")
            _check_isometry(mat)


# ---------------------------------------------------------------------------
# Raw-array helpers (shared with protocol internals and tests)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _axis_order(ndim: int, axes: tuple[int, ...]) -> tuple[int, ...]:
    return (*axes, *(a for a in range(ndim) if a not in axes))


def _matricize(vec: np.ndarray, dims: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """``vec`` as a matrix: rows run over ``axes`` (in the given order), columns over the rest.

    The one subsystems-first reshape (partial traces, maps, decoupling factors, protocol runs).
    """
    order = _axis_order(len(dims), tuple(axes))
    return np.asarray(vec).reshape(dims).transpose(order).reshape(math.prod([dims[a] for a in axes]), -1)


def _smaller_gram(vec: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]) -> np.ndarray:
    """The smaller of M M^H and M^H M (same nonzero spectrum), M = vec matricized on ``keep_axes``."""
    m = _matricize(vec, tuple(int(d) for d in dims), sorted(keep_axes))
    return m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m


def vector_apply(
    vec: np.ndarray,
    dims: Sequence[int],
    target_axes: Sequence[int],
    matrix: np.ndarray,
    out_dims: Sequence[int],
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Apply ``matrix`` to ``target_axes`` of a flat vector.

    The output axes replace the targets at the position of the earliest
    target; the remaining axes keep their relative order.  Returns the flat
    result and the new dims tuple.  No normalization is performed, so
    non-isometric matrices propagate their norm change honestly.
    """
    dims = tuple(int(d) for d in dims)
    targets = list(target_axes)
    rest_dims = tuple(d for i, d in enumerate(dims) if i not in set(targets))
    out = np.asarray(matrix) @ _matricize(vec, dims, targets)
    out_dims = tuple(int(d) for d in out_dims)
    out = out.reshape(out_dims + rest_dims)

    # Every axis before the earliest target survives, so the output block
    # moves from the front to that position.
    at = min(targets)
    n_out = len(out_dims)
    out = np.moveaxis(out, range(n_out), range(at, at + n_out))
    new_dims = rest_dims[:at] + out_dims + rest_dims[at:]
    return out.reshape(-1), new_dims


def vector_partial_trace(
    vec: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]
) -> np.ndarray:
    """Reduced density matrix of a pure vector on ``keep_axes`` (original order)."""
    m = _matricize(vec, tuple(int(d) for d in dims), sorted(keep_axes))
    return m @ m.conj().T


def matrix_partial_trace(
    mat: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]
) -> np.ndarray:
    """Partial trace of a square matrix over all axes not in ``keep_axes``: one trace over the traced block."""
    dims = tuple(int(d) for d in dims)
    keep = sorted(keep_axes)
    d_keep = math.prod([dims[a] for a in keep])
    m = _matricize(mat, dims + dims, (*keep, *(len(dims) + a for a in keep)))
    d_traced = math.prod(dims) // d_keep
    return np.trace(m.reshape(d_keep, d_keep, d_traced, d_traced), axis1=2, axis2=3)


def gram_spectrum(vec: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]) -> np.ndarray:
    """Eigenvalues of the reduced state on ``keep_axes``, via the smaller Gram factor."""
    return np.linalg.eigvalsh(_smaller_gram(vec, dims, keep_axes))


def marginal_purity(vec: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]) -> float:
    """Tr(rho^2) of the reduced state on ``keep_axes`` without materializing it."""
    return float(np.sum(np.abs(_smaller_gram(vec, dims, keep_axes)) ** 2).real)


# ---------------------------------------------------------------------------
# Operations on typed states
# ---------------------------------------------------------------------------


def tensor(a, b):
    """Tensor product of two states of the same kind.

    The result layout is the concatenation of the operand layouts; duplicate
    labels raise a layout-conflict error.
    """
    layout = a.layout.concat(b.layout)
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(layout, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(layout, np.kron(a.matrix, b.matrix))
    raise TypeError("tensor requires two PureStates or two DensityOperators")


def partial_trace(state, keep: Iterable[str]) -> DensityOperator:
    """Trace out everything except ``keep`` (kept labels stay in layout order)."""
    keep = list(keep)
    layout = state.layout
    axes = layout.axes(keep)  # validates labels
    kept_layout = layout.restrict(keep)
    if isinstance(state, PureState):
        mat = vector_partial_trace(state.amplitudes, layout.dims, axes)
    elif isinstance(state, DensityOperator):
        mat = matrix_partial_trace(state.matrix, layout.dims, axes)
    else:
        raise TypeError("partial_trace requires a PureState or DensityOperator")
    return DensityOperator(kept_layout, mat)


def apply_layout(layout: SystemLayout, m: LinearMap, targets: Sequence[str]) -> SystemLayout:
    """Layout after applying ``m`` to ``targets``: they are replaced by its output at the earliest target."""
    targets = list(targets)
    if not targets:
        raise LayoutError("apply needs at least one target subsystem")
    got = tuple(layout.dim_of(t) for t in targets)
    if got != m.input_layout.dims:
        raise LayoutError(f"target dims {got} do not match map input dims {m.input_layout.dims}")
    out_labels = m.output_layout.labels
    survivors = [lab for lab in layout.labels if lab not in set(targets)]
    conflict = set(out_labels) & set(survivors)
    if conflict:
        raise LayoutError(f"output labels {sorted(conflict)} collide with untouched subsystems")
    axes = layout.axes(targets)
    insert_at = min(axes)
    new_subsystems = (
        tuple((lab, layout.dim_of(lab)) for lab in survivors[:insert_at])
        + m.output_layout.subsystems
        + tuple((lab, layout.dim_of(lab)) for lab in survivors[insert_at:])
    )
    return SystemLayout(new_subsystems)


def apply_unchecked(
    m: LinearMap, layout: SystemLayout, vec: np.ndarray, targets: Sequence[str]
) -> tuple[SystemLayout, np.ndarray]:
    """Raw vector apply without the PureState norm invariant (the kernel of :func:`apply`).

    Used for intermediate data movement and where a map is intentionally
    norm-decreasing (an isometry's adjoint acting on a state with mass outside
    its range).
    """
    new_layout = apply_layout(layout, m, targets)
    out, _ = vector_apply(vec, layout.dims, layout.axes(targets), m.matrix, m.output_layout.dims)
    return new_layout, out


def permute_unchecked(
    layout: SystemLayout, vec: np.ndarray, new_order: Sequence[str]
) -> tuple[SystemLayout, np.ndarray]:
    """Raw vector permute (same contract as :func:`permute`)."""
    if sorted(new_order) != sorted(layout.labels):
        raise LayoutError(f"{list(new_order)} is not a permutation of {layout.labels}")
    axes = layout.axes(new_order)
    new_layout = SystemLayout(tuple(layout.subsystems[a] for a in axes))
    arr = np.asarray(vec).reshape(layout.dims)
    return new_layout, np.transpose(arr, axes).reshape(-1)


def apply(m: LinearMap, state, targets: Sequence[str]):
    """Apply ``m`` to the named target subsystems.

    The targets must match ``m.input_layout`` dimensions in order; they are
    replaced (at the position of the earliest target) by ``m.output_layout``'s
    subsystems.  Remaining subsystems are untouched.
    """
    if isinstance(state, PureState):
        return PureState(*apply_unchecked(m, state.layout, state.amplitudes, targets))
    if isinstance(state, DensityOperator):
        layout, d = state.layout, state.layout.total_dim
        new_layout = apply_layout(layout, m, targets)
        a, _ = vector_apply(np.eye(d), layout.dims + (d,), layout.axes(targets), m.matrix, m.output_layout.dims)
        a = a.reshape(new_layout.total_dim, d)  # the map on the whole register, column by column
        return DensityOperator(new_layout, a @ state.matrix @ a.conj().T)
    raise TypeError("apply requires a PureState or DensityOperator")


def permute(state: PureState, new_order: Sequence[str]) -> PureState:
    """Reorder subsystems to ``new_order`` (a permutation of the labels)."""
    return PureState(*permute_unchecked(state.layout, state.amplitudes, new_order))


def relabel(state: PureState, mapping: dict[str, str]) -> PureState:
    """Rename subsystems without touching data."""
    return reinterpret(state, state.layout.renamed(mapping))


def split_subsystem(layout: SystemLayout, label: str, parts: Sequence[tuple[str, int]]) -> SystemLayout:
    """Replace ``label`` in place by labeled factors whose dims multiply to it.

    Pure reinterpretation: mixed-radix indexing makes the amplitude data of a
    state over the old and new layout bit-identical.
    """
    axis = layout.axis(label)
    prod = math.prod(d for _, d in parts)
    if prod != layout.dim_of(label):
        raise LayoutError(
            f"split of {label!r}: factor product {prod} != subsystem dimension {layout.dim_of(label)}"
        )
    new_subsystems = (
        layout.subsystems[:axis]
        + tuple((str(lab), int(d)) for lab, d in parts)
        + layout.subsystems[axis + 1 :]
    )
    return SystemLayout(new_subsystems)


def merge_subsystems(layout: SystemLayout, labels: Sequence[str], new_label: str) -> SystemLayout:
    """Inverse of split: merge consecutive subsystems into one (data unchanged)."""
    axes = layout.axes(labels)
    if list(axes) != list(range(axes[0], axes[0] + len(axes))):
        raise LayoutError(f"labels {list(labels)} are not consecutive in {layout.labels}")
    merged_dim = layout.dim_of_set(labels)
    new_subsystems = (
        layout.subsystems[: axes[0]]
        + ((new_label, merged_dim),)
        + layout.subsystems[axes[-1] + 1 :]
    )
    return SystemLayout(new_subsystems)


def reinterpret(state: PureState, new_layout: SystemLayout) -> PureState:
    """Attach a different layout of equal total dimension to the same data."""
    if new_layout.total_dim != state.layout.total_dim:
        raise LayoutError("reinterpretation must preserve total dimension")
    return PureState(new_layout, state.amplitudes)


def purify(rho: DensityOperator, purifier_label: str) -> PureState:
    """Purification with purifier dimension equal to rank(rho).

    Tracing the purifier out of the result recovers ``rho``.
    """
    if purifier_label in rho.layout.labels:
        raise LayoutError(f"purifier label {purifier_label!r} already in layout")
    factor = _purifying_factor(rho.matrix)
    layout = rho.layout.concat(SystemLayout.of((purifier_label, factor.shape[1])))
    return PureState(layout, factor.reshape(-1))


def _purifying_factor(mat: np.ndarray) -> np.ndarray:
    """F with F F^H = ``mat``: entry (i, r) is sqrt(lambda_r) v_r[i] over the eigenvalues above the clamp."""
    evals, evecs = np.linalg.eigh(mat)
    keep = evals > EIGENVALUE_CLAMP
    return evecs[:, keep] * np.sqrt(evals[keep])


def maximally_entangled(d: int, labels: tuple[str, str] = ("M0", "M1")) -> PureState:
    """The state (1/sqrt d) sum_i |ii> over two d-dimensional subsystems."""
    if d < 1:
        raise LayoutError(f"dimension {d} < 1")
    amps = np.zeros(d * d, dtype=np.complex128)
    amps[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return PureState(SystemLayout.of((labels[0], d), (labels[1], d)), amps)


def maximally_mixed(d: int, label: str = "M") -> DensityOperator:
    """I/d on one subsystem."""
    if d < 1:
        raise LayoutError(f"dimension {d} < 1")
    return DensityOperator(SystemLayout.of((label, d)), np.eye(d) / d)


def basis_state(layout: SystemLayout, occupation: Sequence[int]) -> PureState:
    """Computational basis vector |occupation> in mixed-radix order."""
    if len(occupation) != len(layout.dims):
        raise LayoutError("occupation length != number of subsystems")
    idx = 0
    for k, d in zip(occupation, layout.dims):
        if not 0 <= k < d:
            raise LayoutError(f"occupation {list(occupation)} out of range for dims {layout.dims}")
        idx = idx * d + k
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[idx] = 1.0
    return PureState(layout, amps)


# ---------------------------------------------------------------------------
# Text format (qsr-state/1)
# ---------------------------------------------------------------------------


def state_to_json(state: PureState) -> str:
    """Serialize a pure state to the qsr-state/1 text format (deterministic)."""
    doc = {
        "format": STATE_FORMAT_VERSION,
        "subsystems": [{"label": lab, "dim": d} for lab, d in state.layout.subsystems],
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def state_from_json(text: str) -> PureState:
    """Parse the qsr-state/1 text format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LayoutError(f"state file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT_VERSION:
        raise LayoutError(f"state file must declare format {STATE_FORMAT_VERSION!r}")
    try:
        subsystems = tuple((str(s["label"]), int(s["dim"])) for s in doc["subsystems"])
        amps = np.array([complex(re, im) for re, im in doc["amplitudes"]], dtype=np.complex128)
    except (KeyError, TypeError, ValueError) as exc:
        raise LayoutError(f"malformed state file: {exc}") from exc
    return PureState(SystemLayout(subsystems), amps)
