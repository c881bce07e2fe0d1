"""Reproducible randomness: Haar unitaries, random states, seeded streams.

Streams are counter based (Philox keyed by (seed, stream_index)), so the same
pair always reproduces identical draws bit-exactly and distinct stream indices
never share output.  The generator algorithm name is part of the report
format so archived experiments stay reproducible.  Entry points take a
SeededStream; only the kernels take the live generator it makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import DensityOperator, LayoutError, LinearMap, PureState, SystemLayout

GENERATOR_VERSION = "philox4x64/qsr-1"

_DERIVE_MIX = 0x9E3779B97F4A7C15  # golden-ratio odd constant keeps derived indices spread out


@dataclass(frozen=True)
class SeededStream:
    """A named point in the global randomness space.

    Value-like: fork with :meth:`derive`, never share a live generator between
    logical uses.  ``generator()`` always restarts the stream from the top.
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_index & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, tag: int) -> "SeededStream":
        """Deterministic child stream for sub-tasks/workers."""
        mixed = (self.stream_index * _DERIVE_MIX + tag + 1) & 0xFFFFFFFFFFFFFFFF
        return SeededStream(self.seed, mixed)


def ginibre(d_out: int, d_in: int, rng: np.random.Generator) -> np.ndarray:
    """Complex standard Gaussian matrix."""
    return (rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))) / np.sqrt(2.0)


def haar_unitary_batch(k: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """A (k, d, d) stack of Haar-distributed unitaries via QR of Ginibre matrices.

    Draw order: unitary i consumes ``rng`` for its d x d real part, then its
    imaginary part, before unitary i + 1.  So one stack of k, k single draws,
    or any split of k into consecutive stacks yield bit-identical unitaries.
    The columns of each Q are rescaled by the phases of R's diagonal; without
    this correction the QR output is not Haar distributed.  Memory is
    O(k d^2): callers bound k to bound it.
    """
    if d < 1:
        raise LayoutError(f"dimension {d} < 1")
    g = rng.standard_normal((k, 2, d, d))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed d x d unitary (a stack of one)."""
    return haar_unitary_batch(1, d, rng)[0]


def haar_unitary(d: int, stream: SeededStream, label: str = "U") -> LinearMap:
    """Sample one Haar unitary as a LinearMap on a single subsystem."""
    u = haar_unitary_matrix(d, stream.generator())
    layout = SystemLayout.of((label, d))
    return LinearMap(layout, layout, u, kind="unitary")


def random_pure_state(layout: SystemLayout, stream: SeededStream) -> PureState:
    """Haar-random pure state over the layout (normalized Gaussian vector)."""
    v = ginibre(layout.total_dim, 1, stream.generator()).reshape(-1)
    return PureState(layout, v / np.linalg.norm(v))


def random_density(layout: SystemLayout, rank: int, stream: SeededStream) -> DensityOperator:
    """Wishart-style random density operator of the given rank."""
    d = layout.total_dim
    if not 1 <= rank <= d:
        raise LayoutError(f"rank {rank} out of range [1, {d}]")
    g = ginibre(d, rank, stream.generator())
    m = g @ g.conj().T
    return DensityOperator(layout, m / m.trace().real)
