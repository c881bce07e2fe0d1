"""The benchmark's three workloads: inputs made from a seed, one op, its checks.

Each op calls qsr through module attributes (``qsr.protocol.build_plan``, not a
name imported once), so wrappers installed by ``tracer.install`` are the ones
called.  An op makes only library calls and returns their results; ``fields``
flattens them into the dict that ``check`` and the stored reference compare,
outside the op's timing.  ``check`` returns the violated conditions (empty
when the op is correct).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qsr.decoupling as dec
import qsr.iid as iid
import qsr.presets as presets
import qsr.protocol as proto
from qsr.qstate import DensityOperator, PureState, SystemLayout
from qsr.sampling import SeededStream

DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
FLOAT_TOL = 1e-9
ROLES = {"C": "C", "A": "A", "B": "B", "R": "R"}

# decouple-mc: the shape of the ``qsr decouple`` default.
DECOUPLE_POOL = 8
DECOUPLE_CUT = (2, 2, 2)
DECOUPLE_DIM_C = 8
DECOUPLE_RANK = 2
DECOUPLE_SAMPLES = 500
SEARCH_BUDGET = 64

# protocol-grid: criterion 7's shape, random d_C = 4 states over all six cuts.
PROTOCOL_STATES = 8
PROTOCOL_CUTS = ((1, 1, 4), (1, 2, 2), (1, 4, 1), (2, 1, 2), (2, 2, 1), (4, 1, 1))
PROTOCOL_LAYOUT = (("C", 4), ("A", 2), ("B", 2), ("R", 2))

# iid-sweep: (preset, n, delta, t).  bell-CA n = 6 (15.8 s, 1.87 GB peak RSS
# per op) and n >= 7 (killed for memory on a 7 GB machine) are the scaling
# these cases stand in for; see README.md.
IID_CASES = (
    ("bell-CR", 9, 0.05, 1.5),
    ("bell-CA", 5, 0.05, 1.5),
    ("bell-CB", 5, 0.05, 1.5),
    ("ghz-CBR", 5, 0.05, 1.5),
    ("tilted-ghz-CBR", 5, 0.2, 1.5),
)
BELL_DISTANCE = 1e-6


def _rng(seed: int, workload: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload])


def _ginibre(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# decouple-mc
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecoupleInput:
    omega: DensityOperator
    psi: DensityOperator
    streams: tuple[SeededStream, SeededStream, SeededStream]


def decouple_inputs(seed: int) -> list[DecoupleInput]:
    rng = _rng(seed, 1)
    out = []
    for k in range(DECOUPLE_POOL):
        ops = []
        for side in ("F", "E"):
            g = _ginibre(rng, (2 * DECOUPLE_DIM_C, DECOUPLE_RANK))
            m = g @ g.conj().T
            layout = SystemLayout.of(("C", DECOUPLE_DIM_C), (side, 2))
            ops.append(DensityOperator(layout, m / m.trace().real))
        streams = tuple(SeededStream(seed, 3 * k + j) for j in range(3))
        out.append(DecoupleInput(ops[0], ops[1], streams))
    return out


def decouple_op(inp: DecoupleInput) -> tuple:
    p = dec.CutPartition(*DECOUPLE_CUT)
    b = dec.bounds(inp.omega, inp.psi, p)
    c1 = dec.haar_average_check(inp.omega, p, dec.KEEP_C1, DECOUPLE_SAMPLES, inp.streams[0])
    c2 = dec.haar_average_check(inp.psi, p, dec.KEEP_C2, DECOUPLE_SAMPLES, inp.streams[1])
    _, res, iters = dec.find_simultaneous_unitary(inp.omega, inp.psi, p, SEARCH_BUDGET, inp.streams[2])
    return b, c1, c2, res, iters


def decouple_fields(out: tuple) -> dict[str, Any]:
    b, c1, c2, res, iters = out
    fields: dict[str, Any] = {"alpha": b.alpha, "beta": b.beta}
    for tag, c in (("c1", c1), ("c2", c2)):
        fields.update({
            f"{tag}_mean_square": c.mean_square, f"{tag}_std_error": c.std_error,
            f"{tag}_bound": c.bound, f"{tag}_passed": c.passed, f"{tag}_samples": c.n_samples,
        })
    fields.update({"eps1": res.eps1, "eps2": res.eps2, "accepted": res.accepted, "iterations": iters})
    return fields


def decouple_check(inp: DecoupleInput, f: dict[str, Any]) -> list[str]:
    return [f"{tag}: Haar-average check failed" for tag in ("c1", "c2") if not f[f"{tag}_passed"]]


# ---------------------------------------------------------------------------
# protocol-grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolInput:
    phi: PureState
    cut: tuple[int, int, int]
    stream: SeededStream


def protocol_inputs(seed: int) -> list[ProtocolInput]:
    rng = _rng(seed, 2)
    layout = SystemLayout.of(*PROTOCOL_LAYOUT)
    out = []
    for s in range(PROTOCOL_STATES):
        v = _ginibre(rng, (layout.total_dim,))
        phi = PureState(layout, v / np.linalg.norm(v))
        for c, cut in enumerate(PROTOCOL_CUTS):
            out.append(ProtocolInput(phi, cut, SeededStream(seed, 1000 + len(PROTOCOL_CUTS) * s + c)))
    return out


def _report_fields(tag: str, rep) -> dict[str, Any]:
    return {
        f"{tag}_distance": rep.distance_to_target,
        f"{tag}_measured_bound": rep.measured_bound,
        f"{tag}_analytic_bound": rep.analytic_bound,
        f"{tag}_qubits": rep.qubits_sent,
        f"{tag}_ebits_consumed": rep.ebits_consumed,
        f"{tag}_ebits_distilled": rep.ebits_distilled,
        f"{tag}_final_norm": rep.final_norm,
    }


def protocol_op(inp: ProtocolInput) -> tuple:
    plan = proto.build_plan(inp.phi, ROLES, dec.CutPartition(*inp.cut), search_budget=SEARCH_BUDGET,
                            stream=inp.stream)
    fwd = proto.run_forward(inp.phi, plan)
    rev = proto.run_reverse(plan, fwd.final_state)
    return plan, fwd, rev


def protocol_fields(out: tuple) -> dict[str, Any]:
    plan, fwd, rev = out
    fields = {"iterations": plan.iterations_used, "accepted": plan.accepted}
    fields.update(_report_fields("fwd", fwd))
    fields.update(_report_fields("rev", rev))
    return fields


def protocol_check(inp: ProtocolInput, f: dict[str, Any]) -> list[str]:
    d1, d2, d3 = (math.log2(d) for d in inp.cut)
    ledgers = {"fwd": (d3, d2, d1), "rev": (d3, d1, d2)}
    problems = []
    for tag, want in ledgers.items():
        limit = min(2.0, f[f"{tag}_measured_bound"]) + 1e-8
        if not f[f"{tag}_distance"] <= limit:
            problems.append(f"{tag}: distance {f[f'{tag}_distance']} > {limit}")
        got = (f[f"{tag}_qubits"], f[f"{tag}_ebits_consumed"], f[f"{tag}_ebits_distilled"])
        if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
            problems.append(f"{tag}: ledger {got} != {want}")
    return problems


# ---------------------------------------------------------------------------
# iid-sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IidInput:
    preset: str
    phi: PureState
    spec: iid.TypicalSpec
    stream: SeededStream


def iid_inputs(seed: int) -> list[IidInput]:
    return [
        IidInput(name, presets.preset_state(name), iid.TypicalSpec(n=n, delta=delta, t=t),
                 SeededStream(seed, 2000 + i))
        for i, (name, n, delta, t) in enumerate(IID_CASES)
    ]


def iid_op(inp: IidInput):
    return iid.iid_experiment(inp.phi, ROLES, inp.spec, stream=inp.stream, search_budget=SEARCH_BUDGET)


def iid_fields(rep) -> dict[str, Any]:
    a = rep.allocation
    return {
        "n": rep.n, "success_probability": rep.success_probability,
        "typical_rank": rep.typical_rank, "typical_weight": rep.typical_weight,
        "d1": a.d1, "d2": a.d2, "d3": a.d3, "eta_slack": a.eta_slack, "padding": a.padding,
        "per_copy_qubits": rep.per_copy_qubits,
        "per_copy_ebits_consumed": rep.per_copy_ebits_consumed,
        "per_copy_ebits_distilled": rep.per_copy_ebits_distilled,
        "target_qubits": rep.target_rates.qubits,
        "target_ebits_consumed": rep.target_rates.ebits_consumed,
        "target_ebits_distilled": rep.target_rates.ebits_distilled,
        "gamma1": rep.gamma1, "gamma2": rep.gamma2,
        "distance": rep.protocol.distance_to_target,
        "measured_bound": rep.protocol.measured_bound,
        "asymptotic_bound_tail": rep.asymptotic_bound_tail,
        "iterations": rep.plan.iterations_used, "accepted": rep.plan.accepted,
    }


def iid_check(inp: IidInput, f: dict[str, Any]) -> list[str]:
    problems = []
    if not f["distance"] <= f["measured_bound"]:
        problems.append(f"distance {f['distance']} > measured bound {f['measured_bound']}")
    if inp.preset.startswith("bell-") and not f["distance"] <= BELL_DISTANCE:
        problems.append(f"bell distance {f['distance']} > {BELL_DISTANCE}")
    n = f["n"]
    for field, dim in (("per_copy_qubits", "d3"), ("per_copy_ebits_consumed", "d2"),
                       ("per_copy_ebits_distilled", "d1")):
        want = math.log2(f[dim]) / n
        if abs(f[field] - want) > 1e-12:
            problems.append(f"{field} {f[field]} != log2 {dim} / n = {want}")
    return problems


# ---------------------------------------------------------------------------
# Registry and reference comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    op: Callable[[Any], Any]
    fields: Callable[[Any], dict[str, Any]]
    check: Callable[[Any, dict[str, Any]], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decouple-mc", decouple_inputs, decouple_op, decouple_fields, decouple_check),
        Workload("protocol-grid", protocol_inputs, protocol_op, protocol_fields, protocol_check),
        Workload("iid-sweep", iid_inputs, iid_op, iid_fields, iid_check),
    )
}


def compare_reference(fields: dict[str, Any], ref: dict[str, Any]) -> list[str]:
    """Integers and booleans must match exactly, floats within FLOAT_TOL."""
    problems = []
    for key in sorted(set(fields) | set(ref)):
        if key not in fields or key not in ref:
            problems.append(f"reference field {key!r} missing on one side")
            continue
        got, want = fields[key], ref[key]
        if isinstance(want, float) or isinstance(got, float):
            ok = abs(float(got) - float(want)) <= FLOAT_TOL
        else:
            ok = type(got) is type(want) and got == want
        if not ok:
            problems.append(f"{key}: {got!r} differs from reference {want!r}")
    return problems


def load_reference(workload: str) -> list[dict[str, Any]]:
    return json.loads(REFERENCE_PATH.read_text())[workload]


def _plain(value: Any) -> Any:
    """numpy scalars to the matching Python type, so JSON and comparisons agree."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def result_fields(workload: Workload, out: Any) -> dict[str, Any]:
    return {k: _plain(v) for k, v in workload.fields(out).items()}


def write_reference(path: Path = REFERENCE_PATH) -> None:
    """Record every input's result fields at DEFAULT_SEED (run when outputs change on purpose)."""
    doc = {
        name: [result_fields(w, w.op(inp)) for inp in w.make_inputs(DEFAULT_SEED)]
        for name, w in WORKLOADS.items()
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    # PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/workloads.py
    write_reference()
