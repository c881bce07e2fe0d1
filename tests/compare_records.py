"""Compare the CLI's bit-identity records of the working tree with those of a git revision.

Usage: python tests/compare_records.py <git-rev>

The revision's ``src`` is extracted with ``git archive`` (from the local object store) into a
temporary directory.  Each command of ``tests/test_cli.py::BIT_IDENTITY_COMMANDS`` then runs, in
order, under both trees, each tree in its own fresh working directory and with one BLAS thread.
Per command it compares the exit code, the stdout records without their timings (CSV rows as
they are), stderr and the bytes of ``s.json``, and prints one SAME or DIFF line, the latter
naming what differs.  Exits 1 if any command differs.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_cli import BIT_IDENTITY_COMMANDS, comparable_output  # noqa: E402


def _run(src: Path, workdir: Path, command: str) -> tuple:
    """(exit code, comparable stdout, stderr, s.json bytes or None) of one command under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "qsr.cli", *command.split()], cwd=workdir, env=env,
                          capture_output=True, text=True)
    state = workdir / "s.json"
    return done.returncode, comparable_output(done.stdout), done.stderr, state.read_bytes() if state.exists() else None


def _differences(old: tuple, new: tuple) -> list[str]:
    """What differs between two runs of one command: exit code, result fields, other output, stderr, s.json."""
    (old_code, old_out, old_err, old_state), (new_code, new_out, new_err, new_state) = old, new
    diffs = [f"exit {old_code} -> {new_code}"] if old_code != new_code else []
    if len(old_out) != len(new_out):
        diffs.append(f"{len(old_out)} -> {len(new_out)} stdout lines")
    for i, (a, b) in enumerate(zip(old_out, new_out)):
        if a == b:
            continue
        if not (isinstance(a, dict) and isinstance(b, dict)):
            diffs.append(f"line {i}: {a!r} -> {b!r}")
            continue
        fields = sorted(set(a["results"]) | set(b["results"]))
        diffs += [f"results.{f}: {a['results'].get(f)!r} -> {b['results'].get(f)!r}"
                  for f in fields if a["results"].get(f) != b["results"].get(f)]
        diffs += [f"line {i} {key}" for key in sorted((set(a) | set(b)) - {"results"}) if a.get(key) != b.get(key)]
    if old_err != new_err:
        diffs.append(f"stderr {old_err.strip()!r} -> {new_err.strip()!r}")
    if old_state != new_state:
        diffs.append("s.json")
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", argv[0], "src"], capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode().strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        trees = {"rev": tmp / "rev" / "src", "head": ROOT / "src"}
        for name in trees:
            (tmp / f"work-{name}").mkdir()
        differing = 0
        for command, _ in BIT_IDENTITY_COMMANDS:
            old, new = (_run(src, tmp / f"work-{name}", command) for name, src in trees.items())
            diffs = _differences(old, new)
            differing += bool(diffs)
            print(f"{'DIFF' if diffs else 'SAME'}  {command}" + (f"  ({'; '.join(diffs)})" if diffs else ""))
    print(f"{len(BIT_IDENTITY_COMMANDS) - differing} of {len(BIT_IDENTITY_COMMANDS)} commands SAME against {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
