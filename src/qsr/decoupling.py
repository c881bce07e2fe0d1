"""Generalized decoupling: bounds, residuals, Haar averages, unitary search.

The bound for keeping C1 of C = C1 C2 C3 while tracing C2 C3 out of U.rho is

    alpha = d_C * d_side * Tr(rho^2) / (d_C2 * d_C3)^2

and symmetrically for keeping C2 (denominator d_C1 * d_C3).  A Haar-averaged
squared residual never exceeds the bound, which Markov-translates into more
than half of all unitaries satisfying residual^2 <= 2 * bound; the search
below exploits exactly that.

This is the only module that evaluates a decoupling condition: one kernel for
the residual and one for the bound, both on a pure vector with C on axis 0.
The residual's Gram and eigensolver run on the side marginal's support only
(the other rows are exact zeros, see :func:`_residuals`), so a typical
projection of phi^(x)n pays for the side strings it keeps, not for d_side.
The protocol passes its reference states, and its alignments take the
residual's factors M and S; the density-operator API below (what ``qsr
decouple`` runs) purifies its operand once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import DensityOperator, LayoutError, LinearMap, SystemLayout, check_guard, check_range, marginal_purity
from .qstate import _matricize, _purifying_factor
from .sampling import SeededStream, haar_unitary_batch, haar_unitary_matrix

DEFAULT_SEARCH_ITERS = 64
MIN_HAAR_SAMPLES = 100

# Draws per block in haar_average_check are HAAR_BLOCK_BYTES // rho.matrix.nbytes:
# 64 at d_C = 8 with a qubit side system.  Each draw's rotated purification is
# at most rho's size, so a block's stack stays within this many bytes.
HAAR_BLOCK_BYTES = 1 << 18

KEEP_C1 = "C1"
KEEP_C2 = "C2"


@dataclass(frozen=True)
class CutPartition:
    """Factorization d_C = d1 * d2 * d3 of the transfer register."""

    d1: int
    d2: int
    d3: int

    def __post_init__(self) -> None:
        for d in (self.d1, self.d2, self.d3):
            if d < 1:
                raise LayoutError(f"partition factors must be >= 1, got {self}")

    @property
    def total(self) -> int:
        return self.d1 * self.d2 * self.d3

    def check_total(self, d_c: int) -> None:
        if self.total != d_c:
            raise LayoutError(f"partition {self} does not factor d_C = {d_c}")


@dataclass(frozen=True)
class DecouplingBounds:
    alpha: float
    beta: float


@dataclass(frozen=True)
class DecouplingResiduals:
    """Measured trace-distance residuals for the two decoupling conditions."""

    eps1: float  # keep C1, trace C2 C3
    eps2: float  # keep C2, trace C1 C3
    accepted: bool

    def __post_init__(self) -> None:
        for eps in (self.eps1, self.eps2):
            check_range("residual", eps, 2.0)  # the trace-distance range


def decoupling_bound(d_c: int, d_side: int, rho_purity: float, d_traced: int) -> float:
    """Haar-average decoupling bound: d_C * d_side * Tr(rho^2) / d_traced^2."""
    return d_c * d_side * rho_purity / d_traced**2


def _keep_index(keep: str) -> int:
    """0 for keep C1, 1 for keep C2: the kept factor's axis in (C1, C2, C3)."""
    if keep not in (KEEP_C1, KEEP_C2):
        raise ValueError(f"keep must be {KEEP_C1!r} or {KEEP_C2!r}, got {keep!r}")
    return 0 if keep == KEEP_C1 else 1


def _bound(vec: np.ndarray, dims: tuple[int, ...], side: Sequence[int], keep: str, p: CutPartition) -> float:
    """The bound of the condition :func:`_residuals` measures; Tr(rho^2) of ``vec`` on C and ``side``."""
    p.check_total(dims[0])
    d_side, traced = math.prod(dims[a] for a in side), p.total // (p.d1, p.d2)[_keep_index(keep)]
    return decoupling_bound(dims[0], d_side, marginal_purity(vec, dims, (0, *side)), traced)


def _rotate(vec: np.ndarray, d_c: int, us: np.ndarray) -> np.ndarray:
    return us @ vec.reshape(d_c, -1)  # U.vec for each U of the stack: one GEMM


def _factors(
    vec: np.ndarray, dims: tuple[int, ...], side: Sequence[int], keep: str, p: CutPartition, us: np.ndarray,
    rotated: "np.ndarray | None" = None,  # U.vec (:func:`_rotate`), when the caller formed it
) -> tuple[np.ndarray, np.ndarray]:
    """M (k, d_kept d_side, rest), each U.vec on (kept factor, side), and S (d_side, rest), ``vec`` on the side.

    A raw kernel: the entry points check that ``p`` factors d_C and that ``us`` is (k, d_C, d_C).
    """
    k, axis = len(us), _keep_index(keep)
    rotated = _rotate(vec, dims[0], us) if rotated is None else rotated
    m = _matricize(rotated, (k, p.d1, p.d2, p.d3, *dims[1:]), (0, 1 + axis, *(3 + a for a in side)))
    return m.reshape(k, -1, m.shape[1]), _matricize(vec, dims, side)


def _residuals(
    vec: np.ndarray, dims: tuple[int, ...], side: Sequence[int], keep: str, p: CutPartition, us: np.ndarray,
    rotated: "np.ndarray | None" = None,
) -> np.ndarray:
    """|| M M^H - pi_kept (x) S S^H ||_1 (M, S of :func:`_factors`) for each U, by one batched ``eigvalsh``.

    A side row where ``vec`` is exactly zero is zero in S and in every U.vec (U acts on C only), so
    row and column k * len(S) + s of the difference are exact zeros for every kept index k: they
    add only zero eigenvalues, and the difference is formed and solved on the other rows alone.
    """
    m, s = _factors(vec, dims, side, keep, p, us, rotated)
    rows = np.flatnonzero(s.any(axis=1))
    diff = _difference(m, s, (p.d1, p.d2)[_keep_index(keep)], slice(None) if len(rows) == len(s) else rows)
    return np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)


def _difference(m: np.ndarray, s: np.ndarray, d_kept: int, rows: "np.ndarray | slice" = slice(None)) -> np.ndarray:
    """M M^H - I/d_kept (x) S S^H for each M of the stack ``m``, on rows and columns k * len(s) + r, r in ``rows``.

    Each live row of the Gram is formed against every column of M^H (``M[live] @ M^H``) and only
    then cut to the live columns, so every entry keeps the full Gram's dot product, bit for bit; a
    square ``M[live] @ M[live]^H`` rounds differently.  A full slice (the default) is the full Gram
    with no copy.  The target is block diagonal, so S S^H / d_kept comes off each of the d_kept
    diagonal blocks in place: besides the Gram, only an array 1/d_kept^2 of its size is alive.
    """
    live = rows if isinstance(rows, slice) else (np.arange(0, d_kept * len(s), len(s))[:, None] + rows).reshape(-1)
    gram = (m[:, live] @ m.conj().transpose(0, 2, 1))[:, :, live]
    block = (s[rows] @ s.conj().T)[:, rows]
    block *= 1.0 / d_kept
    w = len(block)
    for i in range(d_kept):
        gram[:, i * w : (i + 1) * w, i * w : (i + 1) * w] -= block
    return gram


def _purified(rho: DensityOperator, keep: str) -> tuple:
    """The kernels' operand for ``rho`` (C first, then the side): its purification, purifier last."""
    factor = _purifying_factor(rho.matrix)
    dims = rho.layout.dims + (factor.shape[1],)
    return factor.reshape(-1), dims, tuple(range(1, len(dims) - 1)), keep


def single_bound(rho: DensityOperator, p: CutPartition, keep: str) -> float:
    """The Haar-average bound for one decoupling condition on ``rho``.

    ``rho``'s first subsystem is the C register (dimension p.total); the rest
    is the side system that must stay intact.
    """
    return _bound(*_purified(rho, keep), p)


def bounds(omega: DensityOperator, psi: DensityOperator, p: CutPartition) -> DecouplingBounds:
    """Bounds (alpha, beta) for keep C1 on omega and keep C2 on psi; ``p`` must factor both C registers."""
    return DecouplingBounds(alpha=single_bound(omega, p, KEEP_C1), beta=single_bound(psi, p, KEEP_C2))


def residual_stack(rho: DensityOperator, us: np.ndarray, p: CutPartition, keep: str) -> np.ndarray:
    """The residual of :func:`residual` for each unitary of a (k, d_C, d_C) stack.

    ``rho`` is purified once and the stack goes through one kernel call.
    Memory: a few stacks of k vectors of rank(rho) times ``rho``'s dimension.
    """
    d_c = rho.layout.dims[0]
    p.check_total(d_c)
    if us.ndim != 3 or us.shape[1:] != (d_c, d_c):
        raise LayoutError(f"unitary stack shape {us.shape} does not match d_C = {d_c}")
    return _residuals(*_purified(rho, keep), p, us)


def residual(rho: DensityOperator, u: "LinearMap | np.ndarray", p: CutPartition, keep: str) -> float:
    """Trace distance between the kept factor of U.rho and its decoupled target.

    keep C1: || Tr_{C2 C3}[U.rho] - pi_{C1} (x) rho_side ||_1, and symmetrically
    for C2.  ``rho`` lives on C (x) side with C first.
    """
    u_mat = u.matrix if isinstance(u, LinearMap) else np.asarray(u)
    return float(residual_stack(rho, u_mat[None], p, keep)[0])


@dataclass(frozen=True)
class HaarAverageCheck:
    """Monte Carlo estimate of the averaged squared residual against its bound."""

    mean_square: float
    std_error: float
    bound: float
    passed: bool
    n_samples: int


def haar_average_check(
    rho: DensityOperator,
    p: CutPartition,
    keep: str,
    n_samples: int,
    stream: SeededStream,
) -> HaarAverageCheck:
    """Estimate E_U[residual^2] over Haar unitaries and compare with the bound.

    Passes when mean <= bound + 3 * standard error.  The draws are taken in
    consecutive blocks of ``HAAR_BLOCK_BYTES // rho.matrix.nbytes`` unitaries
    (at least one), so the generator yields exactly ``n_samples`` unitaries,
    the same as one-by-one draws, while the rotated-operator stack stays
    within the byte budget whatever ``n_samples`` is.  A partition that does not factor
    d_C, or more samples than the size guard admits, is refused before the first draw.
    """
    if n_samples < MIN_HAAR_SAMPLES:
        raise ValueError(f"need at least {MIN_HAAR_SAMPLES} samples, got {n_samples}")
    check_guard("the Haar average", n_samples)  # it stores one squared residual per sample
    condition, d_c = _purified(rho, keep), rho.layout.dims[0]
    bound_value = _bound(*condition, p)
    rng = stream.generator()
    block = max(1, HAAR_BLOCK_BYTES // rho.matrix.nbytes)
    sq = np.empty(n_samples)
    for start in range(0, n_samples, block):
        us = haar_unitary_batch(min(block, n_samples - start), d_c, rng)
        sq[start:start + len(us)] = _residuals(*condition, p, us) ** 2
    mean = float(sq.mean())
    se = float(sq.std(ddof=1) / np.sqrt(n_samples))
    return HaarAverageCheck(
        mean_square=mean,
        std_error=se,
        bound=bound_value,
        passed=mean <= bound_value + 3.0 * se,
        n_samples=n_samples,
    )


def condition_met(eps: float, bound: float) -> bool:
    """One decoupling condition: eps^2 <= 2 * bound.

    A vacuous bound (2 * bound >= 4) is always met because trace distances
    cannot exceed 2.
    """
    return eps * eps <= 2.0 * bound


def search_unitary(
    first: tuple,
    second: tuple,
    p: CutPartition,
    alpha: float,
    beta: float,
    max_iters: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, DecouplingResiduals, int]:
    """Sample Haar unitaries on C until both conditions hold, else best-so-far.

    ``first`` and ``second`` are the two conditions' kernel operands (vec, dims, side, keep), bounded
    by ``alpha`` and ``beta``; U.vec is formed once per draw when both read one vector.  The
    best-so-far objective max(eps1^2/(2 alpha), eps2^2/(2 beta)) puts the two unlike bounds on the
    same scale.  Deterministic given ``rng``.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    one_vec = first[0] is second[0]
    best_u: np.ndarray | None = None
    best_res: DecouplingResiduals | None = None
    best_obj = np.inf
    for i in range(1, max_iters + 1):
        u = haar_unitary_matrix(p.total, rng)
        us = u[None]
        rotated = _rotate(first[0], p.total, us) if one_vec else None
        eps1, eps2 = float(_residuals(*first, p, us, rotated)[0]), float(_residuals(*second, p, us, rotated)[0])
        if condition_met(eps1, alpha) and condition_met(eps2, beta):
            return u, DecouplingResiduals(eps1, eps2, accepted=True), i
        obj = max(eps1**2 / (2.0 * alpha), eps2**2 / (2.0 * beta))
        if obj < best_obj:
            best_u, best_res, best_obj = u, DecouplingResiduals(eps1, eps2, accepted=False), obj
    assert best_u is not None and best_res is not None
    return best_u, best_res, max_iters


def find_simultaneous_unitary(
    omega: DensityOperator,
    psi: DensityOperator,
    p: CutPartition,
    max_iters: int,
    stream: SeededStream,
) -> tuple[LinearMap, DecouplingResiduals, int]:
    """Find one unitary on C satisfying both decoupling conditions at once.

    Condition 1 keeps C1 of ``omega`` (bound alpha); condition 2 keeps C2 of
    ``psi`` (bound beta).  Non-acceptance within the budget returns the
    best-so-far candidate with ``accepted=False``; downstream constructions
    only need the measured residuals.
    """
    first, second = _purified(omega, KEEP_C1), _purified(psi, KEEP_C2)
    alpha, beta = _bound(*first, p), _bound(*second, p)  # each checks that p factors its C
    u, res, iters = search_unitary(first, second, p, alpha, beta, max_iters, stream.generator())
    layout = SystemLayout.of(("C", p.total))
    return LinearMap(layout, layout, u, kind="unitary"), res, iters
