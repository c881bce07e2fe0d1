"""Which statements of src/qsr each kind of caller runs.

Usage: python tests/line_audit.py

Four caller sets run in this process under a ``sys.settrace`` line tracer:

* tier-1: the test suite, through ``pytest.main`` on ``tests`` and ``bench/tests``;
* cli: ``tests/test_cli.py::BIT_IDENTITY_COMMANDS`` in order, through ``qsr.cli.main``, in one
  temporary directory;
* bench: one seed-1 pass over every input of every ``bench/workloads.py`` workload (its op,
  fields and check);
* demos: each ``demos/*.py`` through ``runpy``.

Lines run while ``qsr`` is first imported count for every set.  Only statements inside function
bodies are audited; a compound statement counts as run when its header runs.  For each function
with findings, one line names the statements (by first line) that no set runs and those that
only tier-1 runs.  Work done in child processes is not seen.  Exits 0 whatever it finds.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import pkgutil
import runpy
import sys
import tempfile
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsr"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]


class LineTracer:
    """Records (file, line) of every line event in a frame whose code lives in ``PACKAGE``."""

    def __init__(self) -> None:
        self.hits: set[tuple[str, int]] = set()
        self._wanted: dict[str, bool] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        wanted = self._wanted.get(name)
        if wanted is None:
            wanted = self._wanted[name] = Path(os.path.abspath(name)).parent == PACKAGE
        return self._local if wanted else None

    @contextlib.contextmanager
    def running(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)

    def lines(self) -> dict[str, set[int]]:
        out: dict[str, set[int]] = defaultdict(set)
        for name, line in self.hits:
            out[os.path.abspath(name)].add(line)
        return out


def _code_lines(code: types.CodeType) -> set[int]:
    """Lines that carry bytecode in ``code`` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node: ast.stmt, body: list) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path) -> dict[str, dict[int, set[int]]]:
    """{function: {statement's first line: lines attributed to it}} for statements in function bodies.

    A line is attributed to the innermost statement spanning it; statements with no bytecode
    (docstrings, bare ``else`` blocks' headers) are left out.
    """
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    owner: dict[int, tuple[str, ast.stmt]] = {}  # line -> (function, innermost statement)

    def visit(body: list, function: "str | None", prefix: str) -> None:
        for node in body:
            if function is not None and not _is_docstring(node, body):
                for line in range(node.lineno, node.end_lineno + 1):
                    owner[line] = (function, node)  # nested statements overwrite below
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, prefix + node.name, prefix + node.name + ".")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, None, prefix + node.name + ".")
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(node, field, []), function, prefix)
                for handler in getattr(node, "handlers", []):
                    visit(handler.body, function, prefix)
                for case in getattr(node, "cases", []):
                    visit(case.body, function, prefix)

    visit(ast.parse(source).body, None, "")
    out: dict[str, dict[int, set[int]]] = defaultdict(dict)
    for line, (function, node) in owner.items():
        if line in executable:
            out[function].setdefault(node.lineno, set()).add(line)
    return out


def run_tier1() -> int:
    import pytest

    with contextlib.chdir(ROOT):
        return int(pytest.main(["-q", "-p", "no:cacheprovider", "tests", "bench/tests"]))


def run_cli() -> int:
    from qsr.cli import main
    from test_cli import BIT_IDENTITY_COMMANDS

    failed = 0
    with tempfile.TemporaryDirectory() as directory, contextlib.chdir(directory):
        for command, code in BIT_IDENTITY_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                failed += main(command.split()) != code
    return failed


def run_bench() -> int:
    import workloads

    failed = 0
    for workload in workloads.WORKLOADS.values():
        for inp in workload.make_inputs(1):
            failed += bool(workload.check(inp, workload.fields(workload.op(inp))))
    return failed


def run_demos() -> int:
    with tempfile.TemporaryDirectory() as directory, contextlib.chdir(directory):
        for path in sorted((ROOT / "demos").glob("*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
    return 0


def _import_package() -> None:
    import qsr

    for module in pkgutil.iter_modules(qsr.__path__):
        importlib.import_module(f"qsr.{module.name}")


def main() -> int:
    imported = LineTracer()
    with imported.running():
        _import_package()
    runs: dict[str, dict[str, set[int]]] = {}
    for name, run in (("tier-1", run_tier1), ("cli", run_cli), ("bench", run_bench), ("demos", run_demos)):
        tracer = LineTracer()
        with tracer.running():
            status = run()
        print(f"{name}: {'ok' if status == 0 else f'status {status}'}")
        runs[name] = tracer.lines()
        for path, lines in imported.lines().items():
            runs[name].setdefault(path, set()).update(lines)

    totals = defaultdict(int)
    for path in sorted(PACKAGE.glob("*.py")):
        hit = {name: lines.get(str(path), set()) for name, lines in runs.items()}
        for function, stmts in sorted(statements(path).items(), key=lambda kv: min(kv[1])):
            ran = {first: {name for name in runs if own & hit[name]} for first, own in stmts.items()}
            unrun = sorted(first for first, names in ran.items() if not names)
            tier1_only = sorted(first for first, names in ran.items() if names == {"tier-1"})
            totals["statements"] += len(stmts)
            totals["unrun"] += len(unrun)
            totals["tier-1 only"] += len(tier1_only)
            if unrun or tier1_only:
                print(f"{path.name}:{function}  unrun: {_lines(unrun)}  tier-1 only: {_lines(tier1_only)}")
    print(", ".join(f"{key} {value}" for key, value in totals.items()))
    return 0


def _lines(lines: list[int]) -> str:
    return ",".join(map(str, lines)) or "-"


if __name__ == "__main__":
    sys.exit(main())
