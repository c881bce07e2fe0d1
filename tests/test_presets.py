"""Preset states: layouts and amplitude bytes pinned to literal values."""

import hashlib

import numpy as np
import pytest

from qsr.presets import PRESET_NAMES, preset_state
from qsr.sampling import SeededStream

BELL = float.fromhex("0x1.6a09e667f3bccp-1")  # 1 / sqrt(2.0)
HALF_ROOT = float.fromhex("0x1.6a09e667f3bcdp-1")  # sqrt(0.5), one ulp above BELL
TILT_HI = float.fromhex("0x1.d80a69c19e42ap-1")  # sqrt(0.85)
TILT_LO = float.fromhex("0x1.8c97ef43f7248p-2")  # sqrt(0.15)

# name -> (dims of C, A, B, R; nonzero real amplitudes by index)
FIXED = {
    "bell-CA": ((2, 2, 1, 1), {0: BELL, 3: BELL}),
    "bell-CB": ((2, 1, 2, 1), {0: BELL, 3: BELL}),
    "bell-CR": ((2, 1, 1, 2), {0: BELL, 3: BELL}),
    "ghz-CBR": ((2, 1, 2, 2), {0: HALF_ROOT, 7: HALF_ROOT}),
    "product": ((2, 2, 2, 2), {0: 1.0}),
    "tilted-CR": ((2, 1, 1, 2), {0: TILT_HI, 3: TILT_LO}),
    "tilted-ghz-CBR": ((2, 1, 2, 2), {0: TILT_HI, 7: TILT_LO}),
}


def test_names():
    assert PRESET_NAMES == ("bell-CA", "bell-CB", "bell-CR", "ghz-CBR", "product", "random",
                            "tilted-CR", "tilted-ghz-CBR")


@pytest.mark.parametrize("name", sorted(FIXED))
def test_layout_and_amplitude_bytes(name):
    dims, nonzero = FIXED[name]
    state = preset_state(name)
    assert state.layout.subsystems == tuple(zip("CABR", dims))
    want = np.zeros(np.prod(dims), dtype=np.complex128)
    for index, value in nonzero.items():
        want[index] = value
    assert state.amplitudes.tobytes() == want.tobytes()


def test_random_preset_bytes():
    state = preset_state("random", SeededStream(7))
    assert state.layout.subsystems == tuple(zip("CABR", (2, 2, 2, 2)))
    digest = hashlib.sha256(state.amplitudes.tobytes()).hexdigest()
    assert digest == "bfb4d4e776aad9b6376d3898dcd927f5239a9d8b40ec5150b9c314442593eb22"
    with pytest.raises(ValueError):
        preset_state("random")


def test_unknown_name_is_refused():
    with pytest.raises(KeyError):
        preset_state("bell-AB")
