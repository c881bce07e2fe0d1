"""Named edge-case states used by the CLI and acceptance tests.

Every preset lives on the canonical labels C, A, B, R (roles equal labels);
systems not participating in a preset's correlations get dimension 1, which
keeps tensor powers small.
"""

from __future__ import annotations

import math

import numpy as np

from .metrics import ROLES
from .protocol import IDENTITY_ROLES
from .qstate import PureState, SystemLayout
from .sampling import SeededStream, random_pure_state

# Weights of the non-maximally-entangled ("tilted") presets; chosen so the C
# spectrum is visibly non-flat while keeping typicality windows forgiving.
_TILT = (0.85, 0.15)

PRESET_ROLES = IDENTITY_ROLES  # every preset's roles equal its labels

_BELL = {0: 1.0 / np.sqrt(2.0), 3: 1.0 / np.sqrt(2.0)}
_TILTED = np.sqrt(_TILT)

# name -> (dims of C, A, B, R; nonzero amplitudes by index).
_PRESETS = {
    "bell-CA": ((2, 2, 1, 1), _BELL),
    "bell-CB": ((2, 1, 2, 1), _BELL),
    "bell-CR": ((2, 1, 1, 2), _BELL),
    "ghz-CBR": ((2, 1, 2, 2), {0: np.sqrt(0.5), 7: np.sqrt(0.5)}),
    "product": ((2, 2, 2, 2), {0: 1.0}),
    "tilted-CR": ((2, 1, 1, 2), {0: _TILTED[0], 3: _TILTED[1]}),
    "tilted-ghz-CBR": ((2, 1, 2, 2), {0: _TILTED[0], 7: _TILTED[1]}),
}

PRESET_NAMES = tuple(sorted((*_PRESETS, "random")))


def _preset(dims: tuple[int, ...], amplitudes: dict[int, float]) -> PureState:
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    for index, value in amplitudes.items():
        amps[index] = value
    return PureState(SystemLayout.of(*zip(ROLES, dims)), amps)


def preset_state(name: str, stream: "SeededStream | None" = None) -> PureState:
    """Construct a preset by name; ``random`` draws a 4-qubit state from ``stream``."""
    if name == "random":
        if stream is None:
            raise ValueError("the random preset needs a seed stream")
        return random_pure_state(SystemLayout.of(*zip(ROLES, (2, 2, 2, 2))), stream)
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return _preset(*_PRESETS[name])
