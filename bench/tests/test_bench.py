"""Tests of the benchmark's own machinery (not of qsr).

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as T  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


def test_self_time_on_synthetic_tree():
    # op [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has overlapping children d [5, 7] and e [6, 8].
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["d", 5.0, 7.0, 3, 0],
        ["e", 6.0, 8.0, 3, 0],
    ]
    assert T.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])
    agg = T.aggregate(spans)
    assert agg["op"] == pytest.approx((1, 10.0, 3.0))
    assert agg["b"] == pytest.approx((1, 4.0, 1.0))
    # Top-level spans a and b cover 7 of the op's 10 seconds.
    assert T.uncovered_share(spans) == pytest.approx((0.3, 0.3))


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.samples_beyond(99, 90) == 9
    assert run.samples_beyond(100, 90) == 10
    assert run.tail_percentile(99) is None
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(1000) == 99
    assert run.percentile(list(range(1, 101)), 90) == 90
    assert run.percentile([5.0], 50) == 5.0


def _qsr_objects() -> dict[tuple[str, str], object]:
    out = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "qsr" or name.startswith("qsr.")):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(f"{name}.{attr}", cattr)] = cvalue
    return out


def test_install_and_uninstall_leave_qsr_identical():
    before = _qsr_objects()
    tr = T.Tracer()
    patches = T.install(tr)
    try:
        import qsr.protocol

        assert qsr.protocol.search_unitary is not before[("qsr.decoupling", "search_unitary")]
        inp = W.protocol_inputs(3)[0]
        tr.run_op(0, lambda: W.protocol_op(inp))
        names = {span[0] for span in tr.spans}
        assert {"op", "protocol.build_plan", "decoupling.search_unitary",
                "qstate.PureState.__post_init__"} <= names
    finally:
        T.uninstall(patches)
    after = _qsr_objects()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_perturbed_reference_field_is_a_failure():
    workload = W.WORKLOADS["protocol-grid"]
    inputs = W.protocol_inputs(W.DEFAULT_SEED)[:2]
    reference = W.load_reference("protocol-grid")[:2]
    clean = worker.run_phase(workload, inputs, 0.0, reference)
    assert clean["failures"] == []

    bad = copy.deepcopy(reference)
    bad[1]["fwd_distance"] += 1e-6
    perturbed = worker.run_phase(workload, inputs, 0.0, bad)
    assert [i for i, _ in perturbed["failures"]] == [1]
    assert "fwd_distance" in perturbed["failures"][0][1][0]

    bad = copy.deepcopy(reference)
    bad[0]["iterations"] += 1
    assert W.compare_reference(bad[0], reference[0]) != []


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    make = W.WORKLOADS[name].make_inputs

    def fingerprint(items):
        out = []
        for item in items:
            for value in vars(item).values():
                for attr in ("matrix", "amplitudes"):
                    if hasattr(value, attr):
                        value = getattr(value, attr).tobytes()
                out.append(value)
        return out

    assert fingerprint(make(5)) == fingerprint(make(5))
    assert fingerprint(make(5)) != fingerprint(make(6))
