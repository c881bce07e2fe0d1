"""The benchmark's seed-DEFAULT_SEED pass: every workload input's checks and stored reference.

Runs every input of ``bench/workloads.py`` once, in one subprocess with one BLAS thread (as
``bench/worker.py`` runs them), so a change that breaks the reference fails here and not only
in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PASS = """
import json
import workloads as W

problems = []
for name, w in W.WORKLOADS.items():
    inputs, ref = w.make_inputs(W.DEFAULT_SEED), W.load_reference(name)
    if len(ref) != len(inputs):
        problems.append(f"{name}: {len(inputs)} inputs, {len(ref)} reference records")
        continue
    for k, inp in enumerate(inputs):
        fields = W.result_fields(w, w.op(inp))
        problems += [f"{name}[{k}]: {p}" for p in w.check(inp, fields) + W.compare_reference(fields, ref[k])]
print(json.dumps(problems))
"""


def test_every_input_meets_its_checks_and_reference():
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]), **threads)
    done = subprocess.run([sys.executable, "-c", PASS], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
