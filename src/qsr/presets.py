"""Named edge-case states used by the CLI and acceptance tests.

Every preset lives on the canonical labels C, A, B, R (roles equal labels);
systems not participating in a preset's correlations get dimension 1, which
keeps tensor powers small.
"""

from __future__ import annotations

import numpy as np

from .protocol import IDENTITY_ROLES
from .qstate import PureState, SystemLayout
from .sampling import SeededStream, random_pure_state

# Weights of the non-maximally-entangled ("tilted") presets; chosen so the C
# spectrum is visibly non-flat while keeping typicality windows forgiving.
_TILT = (0.85, 0.15)

PRESET_ROLES = IDENTITY_ROLES  # every preset's roles equal its labels


def _two_party(partner: str) -> PureState:
    dims = {"C": 2, "A": 1, "B": 1, "R": 1}
    dims[partner] = 2
    layout = SystemLayout.of(("C", dims["C"]), ("A", dims["A"]), ("B", dims["B"]), ("R", dims["R"]))
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = amps[3] = 1.0 / np.sqrt(2.0)
    return PureState(layout, amps)


def _tilted_pair(partner: str, weights: tuple[float, float]) -> PureState:
    dims = {"C": 2, "A": 1, "B": 1, "R": 1}
    dims[partner] = 2
    layout = SystemLayout.of(("C", dims["C"]), ("A", dims["A"]), ("B", dims["B"]), ("R", dims["R"]))
    amps = np.zeros(4, dtype=np.complex128)
    amps[0], amps[3] = np.sqrt(weights[0]), np.sqrt(weights[1])
    return PureState(layout, amps)


def _ghz_cbr(weights: tuple[float, float]) -> PureState:
    layout = SystemLayout.of(("C", 2), ("A", 1), ("B", 2), ("R", 2))
    amps = np.zeros(8, dtype=np.complex128)
    amps[0], amps[7] = np.sqrt(weights[0]), np.sqrt(weights[1])
    return PureState(layout, amps)


def _product() -> PureState:
    layout = SystemLayout.of(("C", 2), ("A", 2), ("B", 2), ("R", 2))
    amps = np.zeros(16, dtype=np.complex128)
    amps[0] = 1.0
    return PureState(layout, amps)


PRESET_NAMES = (
    "bell-CA",
    "bell-CB",
    "bell-CR",
    "ghz-CBR",
    "product",
    "random",
    "tilted-CR",
    "tilted-ghz-CBR",
)


def preset_state(name: str, stream: "SeededStream | None" = None) -> PureState:
    """Construct a preset by name; ``random`` draws a 4-qubit state from ``stream``."""
    if name == "bell-CA":
        return _two_party("A")
    if name == "bell-CB":
        return _two_party("B")
    if name == "bell-CR":
        return _two_party("R")
    if name == "ghz-CBR":
        return _ghz_cbr((0.5, 0.5))
    if name == "product":
        return _product()
    if name == "tilted-CR":
        return _tilted_pair("R", _TILT)
    if name == "tilted-ghz-CBR":
        return _ghz_cbr(_TILT)
    if name == "random":
        if stream is None:
            raise ValueError("the random preset needs a seed stream")
        layout = SystemLayout.of(("C", 2), ("A", 2), ("B", 2), ("R", 2))
        return random_pure_state(layout, stream)
    raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
