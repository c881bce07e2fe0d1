"""qsr benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {decouple-mc,protocol-grid,iid-sweep} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each run starts fresh worker processes
(``worker.py``) with one BLAS thread and ``src`` on ``PYTHONPATH``:

* ``--trace 0``: SETUP_REPEATS - 1 set-up-only workers, then one worker that
  sets up and measures for ``--seconds``.  Prints every end-to-end metric.
* ``--trace 1``: one worker that measures half the time untraced and half
  with the layer wrappers installed.  Prints every per-layer metric.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary and the full record (environment, samples, failures).
Exits 2 without a result when ``src/qsr`` is missing, 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decouple-mc", "protocol-grid", "iid-sweep")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - int(max(1, -(-n * q // 100)))


def tail_percentile(n: int) -> "int | None":
    """Highest of p99/p90 with at least ten samples beyond it, else None."""
    for q in (99, 90):
        if samples_beyond(n, q) >= 10:
            return q
    return None


def _worker(args: argparse.Namespace, env: dict, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def end_to_end(record: dict, setups: list[float]) -> dict[str, float]:
    times = record["times"]
    ok = record["attempted"] - record["failed"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ok / record["elapsed"],
        "op_p50_ms": 1000.0 * statistics.median(times),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def _summary(args, record: dict, metrics: dict, units: dict) -> list[str]:
    lines = [f"qsr benchmark  workload={args.workload}  seed={args.seed}  "
             f"seconds={args.seconds}  trace={args.trace}"]
    for name, value in metrics.items():
        lines.append(f"  {name:<36} {value:>14.6g} {units[name]}")
    n = len(record["times"])
    if not args.trace:
        q = tail_percentile(n)
        tail = (f"p{q} {1000.0 * percentile(record['times'], q):.3f} ms"
                if q else "no percentile above p50 has 10 samples beyond it")
        lines.append(f"  op time samples: {n}; {tail}")
    attempted, failed = record["attempted"], record["failed"]
    lines.append(f"  fail_ratio {failed / attempted:.6g} ({failed} failed of {attempted} attempted; "
                 f"reference {'compared' if record['reference_checked'] else 'not compared'})")
    if args.trace:
        worst = record["worst_op_uncovered"]
        lines.append(f"  span coverage: {metrics['trace.uncovered_share']:.3%} of op time outside "
                     f"top-level layer spans, {worst:.3%} in the worst op "
                     f"({'within' if worst <= 0.1 else 'ABOVE'} the 10% limit; "
                     f"{record['span_count']} spans)")
        lines.append(f"  {'span':<44}{'calls':>10}{'total_s':>12}{'self_s':>12}")
        for name, (calls, total, own) in record["spans"].items():
            lines.append(f"  {name:<44}{calls:>10}{total:>12.4f}{own:>12.4f}")
    for i, problems in record["failures"]:
        lines.append(f"  FAILED op {i}: {' | '.join(p.strip() for p in problems)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="1 also compares results with reference.json")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "qsr" / "__init__.py").is_file():
        print(f"no qsr sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    env = _env()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = [] if args.trace else [
            _worker(args, env, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_REPEATS - 1)
        ]
        record = _worker(args, env, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = record["layers"]
    else:
        setups.append(record["setup_s"])
        record["setup_samples"] = setups
        metrics = end_to_end(record, setups)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    for line in _summary(args, record, metrics, units):
        print(line)
    record["op_samples"] = len(record.pop("times"))
    print(json.dumps({"record": record}))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
