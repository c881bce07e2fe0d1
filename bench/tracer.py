"""Spans and counts around qsr's public functions, installed from outside the library.

``install`` replaces each target function by a wrapper that records a span
(name, start, end, parent, op id) and returns the function's result.  Because
``from .x import f`` copies the binding, every qsr module attribute that holds
the original function object is rebound, not only the defining one.
``uninstall`` puts every original object back.  Nothing in ``src/qsr`` is
edited.

Span names are ``<layer>.<function>``; the layer is the qsr module name.
Each benchmark op is the root span ``op``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Iterable

# Public functions wrapped per layer (module).  Private helpers are left out:
# their time lands in the self time of the public function that calls them.
TARGETS: dict[str, tuple[str, ...]] = {
    "qsr.qstate": (
        "vector_apply", "vector_partial_trace", "matrix_partial_trace", "gram_spectrum",
        "marginal_purity", "tensor", "partial_trace", "apply", "apply_layout",
        "apply_unchecked", "permute", "permute_unchecked", "relabel", "reinterpret",
        "split_subsystem", "merge_subsystems", "purify", "maximally_entangled",
        "maximally_mixed",
    ),
    "qsr.metrics": (
        "trace_norm", "trace_distance", "hermitian_trace_distance", "pure_trace_distance",
        "purity", "entropy_bits", "von_neumann_entropy", "marginal_entropy",
        "mutual_information", "conditional_mutual_information", "resource_rates",
    ),
    "qsr.sampling": ("haar_unitary_matrix", "haar_unitary", "random_pure_state", "random_density"),
    "qsr.decoupling": (
        "single_bound", "bounds", "residual", "haar_average_check", "search_unitary",
        "find_simultaneous_unitary",
    ),
    "qsr.uhlmann": ("cross_operator", "uhlmann_isometry"),
    "qsr.protocol": (
        "canonicalize", "eta_bounds", "build_plan", "initial_state", "final_state_target",
        "run_forward", "run_reverse",
    ),
    "qsr.iid": (
        "typical_stats", "string_mask", "tensor_power", "project_typical",
        "allocate_partition", "iid_experiment",
    ),
}

# Typed values whose construction-time validation is counted and timed.
VALIDATED_TYPES = ("PureState", "DensityOperator", "LinearMap")

ROOT = "op"


class Tracer:
    """In-memory span log plus the counters and maxima that hooks record."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index (-1 for none), op id].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn: Callable[[], object]) -> object:
        """Run one benchmark op under a root span."""
        self._op = op_id
        idx = self.open(ROOT)
        try:
            return fn()
        finally:
            self.close(idx)
            self._op = None


# ---------------------------------------------------------------------------
# Hooks: counts that need a function's arguments or result
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _eig_dim(attr: str | None, name: str):
    def hook(tr: Tracer, args, kwargs, result) -> None:
        m = _arg(args, kwargs, 0, name)
        m = getattr(m, attr) if attr else m
        tr.maxima["metrics.eig_dim"] = max(tr.maxima["metrics.eig_dim"], m.shape[0])
    return hook


def _vector_apply(tr: Tracer, args, kwargs, result) -> None:
    # Computed, not measured: one read of the vector and the matrix, one write
    # of the output.  Transposition copies and cache misses are not counted.
    vec = _arg(args, kwargs, 0, "vec")
    mat = _arg(args, kwargs, 3, "matrix")
    tr.counts["qstate.bytes"] += vec.nbytes + mat.nbytes + result[0].nbytes


def _search(tr: Tracer, args, kwargs, result) -> None:
    _, res, iters = result
    tr.counts["decoupling.search.iters"] += iters
    tr.counts["decoupling.search.accepted"] += bool(res.accepted)


def _uhlmann(tr: Tracer, args, kwargs, result) -> None:
    mu = _arg(args, kwargs, 0, "mu")
    shared = list(_arg(args, kwargs, 2, "shared"))
    rows, cols = result.isometry.matrix.shape
    mb = 16.0 * rows * cols / 1e6
    if mb > tr.maxima["uhlmann.isometry_mb"]:
        tr.maxima["uhlmann.isometry_mb"] = mb
        tr.maxima["uhlmann.shared_dim_ratio"] = mu.layout.dim_of_set(shared) / cols


def _tensor_power(tr: Tracer, args, kwargs, result) -> None:
    tr.maxima["iid.state_mb"] = max(tr.maxima["iid.state_mb"], result.amplitudes.nbytes / 1e6)


def _iid_experiment(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["iid.kept_weight"] += result.success_probability


HOOKS: dict[str, Callable] = {
    "metrics.trace_norm": _eig_dim(None, "m"),
    "metrics.trace_distance": _eig_dim("matrix", "rho"),
    "metrics.hermitian_trace_distance": _eig_dim(None, "a"),
    "metrics.von_neumann_entropy": _eig_dim("matrix", "rho"),
    "qstate.vector_apply": _vector_apply,
    "decoupling.search_unitary": _search,
    "uhlmann.uhlmann_isometry": _uhlmann,
    "iid.tensor_power": _tensor_power,
    "iid.iid_experiment": _iid_experiment,
}

# Peak Python-heap allocation (numpy arrays included) is traced per call of
# these functions only, because tracemalloc slows every small allocation.
TRACED_MEMORY = {"iid.iid_experiment": "iid.peak_traced_mb"}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    key = TRACED_MEMORY.get(name)
    if key is None:
        return wrapper

    @functools.wraps(fn)
    def with_memory(*args, **kwargs):
        tracemalloc.start()
        try:
            return wrapper(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.maxima[key] = max(tracer.maxima[key], peak / 1e6)

    return with_memory


Patch = tuple[object, str, object]


def install(tracer: Tracer) -> list[Patch]:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    replacements: dict[int, tuple[object, Callable]] = {}
    for modname, names in TARGETS.items():
        module = importlib.import_module(modname)
        layer = modname.split(".", 1)[1]
        for fname in names:
            fn = getattr(module, fname)
            replacements[id(fn)] = (fn, _wrap(tracer, f"{layer}.{fname}", fn))

    patches: list[Patch] = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "qsr" or modname.startswith("qsr.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patches.append((module, attr, value))

    qstate = sys.modules["qsr.qstate"]
    for cls_name in VALIDATED_TYPES:
        cls = getattr(qstate, cls_name)
        original = cls.__dict__["__post_init__"]
        setattr(cls, "__post_init__", _wrap(tracer, f"qstate.{cls_name}.__post_init__", original))
        patches.append((cls, "__post_init__", original))
    return patches


def uninstall(patches: Iterable[Patch]) -> None:
    for obj, attr, original in reversed(list(patches)):
        setattr(obj, attr, original)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(i, []), start, end)
        for i, (name, start, end, parent, _) in enumerate(spans)
    ]


def aggregate(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        row = out[span[0]]
        row[0] += 1
        row[1] += span[2] - span[1]
        row[2] += own
    return {k: tuple(v) for k, v in out.items()}


def uncovered_share(spans: list[list]) -> tuple[float, float]:
    """(share of all op time outside top-level layer spans, worst single op share).

    An op's uncovered time is the self time of its root span.
    """
    total = gap = worst = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span[0] == ROOT:
            dur = span[2] - span[1]
            total += dur
            gap += own
            if dur > 0:
                worst = max(worst, own / dur)
    return (gap / total if total > 0 else 0.0), worst


def layer_metrics(tracer: Tracer, agg: dict[str, tuple[int, float, float]],
                  overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced phase, per op.

    A value is 0 where its layer did not run.
    """
    n_ops = max(1, agg.get(ROOT, (0, 0.0, 0.0))[0])

    def calls(*names: str) -> float:
        return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names) / n_ops

    def own(*names: str) -> float:
        return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names) / n_ops

    def layer_self(layer: str) -> float:
        return sum(v[2] for k, v in agg.items() if k.startswith(layer + ".")) / n_ops

    searches = agg.get("decoupling.search_unitary", (0, 0.0, 0.0))[0]
    experiments = agg.get("iid.iid_experiment", (0, 0.0, 0.0))[0]
    haar = ("sampling.haar_unitary_matrix", "sampling.haar_unitary")
    distances = ("metrics.trace_distance", "metrics.hermitian_trace_distance",
                 "metrics.pure_trace_distance")
    c, m = tracer.counts, tracer.maxima
    return {
        "sampling.haar.calls": calls(*haar),
        "sampling.haar.self_s": own(*haar),
        "decoupling.residual.calls": calls("decoupling.residual"),
        "decoupling.self_s": layer_self("decoupling"),
        "decoupling.search.iters_per_call": c["decoupling.search.iters"] / searches if searches else 0.0,
        "decoupling.accept_ratio": c["decoupling.search.accepted"] / searches if searches else 0.0,
        "metrics.trace_distance.calls": calls(*distances),
        "metrics.self_s": layer_self("metrics"),
        "metrics.eig_dim_max": m["metrics.eig_dim"],
        "qstate.typed_constructions": calls(*(f"qstate.{t}.__post_init__" for t in VALIDATED_TYPES)),
        "qstate.self_s": layer_self("qstate"),
        "qstate.vector_apply.calls": calls("qstate.vector_apply"),
        "qstate.vector_apply.self_s": own("qstate.vector_apply"),
        "qstate.bytes_computed": c["qstate.bytes"] / n_ops,
        "uhlmann.calls": calls("uhlmann.uhlmann_isometry"),
        "uhlmann.self_s": layer_self("uhlmann"),
        "uhlmann.isometry_mb": m["uhlmann.isometry_mb"],
        "uhlmann.shared_dim_ratio": m["uhlmann.shared_dim_ratio"],
        "protocol.build_plan.self_s": own("protocol.build_plan"),
        "protocol.run_forward.self_s": own("protocol.run_forward"),
        "protocol.run_reverse.self_s": own("protocol.run_reverse"),
        "iid.tensor_power.self_s": own("iid.tensor_power"),
        "iid.project_typical.self_s": own("iid.project_typical"),
        "iid.typical_stats.self_s": own("iid.typical_stats"),
        "iid.kept_weight": c["iid.kept_weight"] / experiments if experiments else 0.0,
        "iid.state_mb": m["iid.state_mb"],
        "iid.peak_traced_mb": m["iid.peak_traced_mb"],
        "trace.overhead_ratio": overhead_ratio,
        "trace.uncovered_share": agg[ROOT][2] / agg[ROOT][1] if ROOT in agg else 0.0,
    }
