"""One benchmark process: set up one workload, then measure it (or only set up).

Started by ``run.py`` with the BLAS thread count pinned in its environment and
``src`` on ``PYTHONPATH``.  Prints one JSON object as its last stdout line.
Setup is timed from the start of this module, before numpy and qsr are
imported, to the end of one untimed warm-up op, so it counts import, input
generation and first-call costs.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402  (imports numpy and qsr)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_FAILURES_SHOWN = 5


def run_phase(workload, inputs, seconds: float, reference, tracer=None) -> dict:
    """Closed loop, one client: whole passes over ``inputs`` until ``seconds`` pass.

    Whole passes keep the mix of inputs identical between runs.  Every op is
    checked after its timing stops; a raised exception or a violated check
    counts as a failed op.
    """
    times: list[float] = []
    failures: list[tuple[int, list[str]]] = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        k = i % len(inputs)
        inp = inputs[k]
        t = time.perf_counter()
        try:
            out = workload.op(inp) if tracer is None else tracer.run_op(i, lambda: workload.op(inp))
            problems = None
        except Exception:  # a failed op is counted and reported, the run goes on
            problems = [traceback.format_exc(limit=3)]
        times.append(time.perf_counter() - t)
        if problems is None:
            fields = W.result_fields(workload, out)
            problems = workload.check(inp, fields)
            if reference is not None:
                problems += W.compare_reference(fields, reference[k])
        if problems:
            failures.append((i, problems))
        i += 1
        if k == len(inputs) - 1 and time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start
    return {"times": times, "failures": failures, "elapsed": elapsed}


def _blas_threads() -> "int | None":
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _commit() -> "str | None":
    """HEAD of the measured tree when it is a git checkout (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsr").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = W.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    workload.op(inputs[0])
    setup_s = time.perf_counter() - SETUP_START
    out: dict = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    reference = W.load_reference(args.workload) if args.seed == W.DEFAULT_SEED else None
    if args.trace:
        # Half the time untraced, half traced: their throughput ratio is the
        # tracing overhead.  Only the traced half feeds the per-layer numbers.
        plain = run_phase(workload, inputs, args.seconds / 2, reference)
        tr = T.Tracer()
        patches = T.install(tr)
        try:
            traced = run_phase(workload, inputs, args.seconds / 2, reference, tracer=tr)
        finally:
            T.uninstall(patches)
        ops_plain = len(plain["times"]) / plain["elapsed"]
        ops_traced = len(traced["times"]) / traced["elapsed"]
        agg = T.aggregate(tr.spans)
        out["layers"] = T.layer_metrics(tr, agg, ops_plain / ops_traced)
        out["spans"] = {k: list(v) for k, v in sorted(agg.items())}
        out["worst_op_uncovered"] = T.uncovered_share(tr.spans)[1]
        out["span_count"] = len(tr.spans)
        phases = [plain, traced]
    else:
        phases = [run_phase(workload, inputs, args.seconds, reference)]

    measured = phases[-1]
    failures = [f for ph in phases for f in ph["failures"]]
    out.update({
        "times": measured["times"],
        "elapsed": measured["elapsed"],
        "attempted": sum(len(ph["times"]) for ph in phases),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "reference_checked": reference is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(args.seed),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
