"""The library's invariant checks at their thresholds, and where their tolerances live.

Every bounded scalar (a gamma, a residual, a typical weight, an Uhlmann overlap) is refused outside
[0, high] beyond rounding, and every distance above its bound beyond rounding; both refusals are an
``InvariantViolation``, which the CLI maps to exit 3.  The thresholds here are literals of the
tests' own, so loosening a library constant fails them.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from qsr.decoupling import DecouplingResiduals
from qsr.iid import TypicalProjector
from qsr.protocol import ProtocolPlan, ProtocolReport
from qsr.qstate import InvariantViolation, maximally_entangled
from qsr.uhlmann import UhlmannResult

SRC = Path(__file__).resolve().parent.parent / "src" / "qsr"


def _plan(gamma):
    blank = {f.name: None for f in dataclasses.fields(ProtocolPlan)}
    return ProtocolPlan(**{**blank, "gamma1": gamma, "gamma2": 0.0})


# (what, constructor of an object holding the checked value, high end of its range)
RANGE_CHECKS = [
    ("gamma", _plan, 4.0),
    ("residual", lambda eps: DecouplingResiduals(eps, 0.0, accepted=False), 2.0),
    ("weight", lambda w: TypicalProjector(n=1, typical_types=(), rank=0, weight=w), 1.0),
    ("overlap", lambda f: UhlmannResult(None, achieved_overlap=f, epsilon_in=0.0, distance_out=0.0), 1.0),
]


class TestRangeChecks:
    @pytest.mark.parametrize("what,make,high", RANGE_CHECKS, ids=[c[0] for c in RANGE_CHECKS])
    def test_rounding_is_forgiven_at_both_ends(self, what, make, high):
        for value in (0.0, high, high + 5e-10, -5e-13):
            make(value)

    @pytest.mark.parametrize("what,make,high", RANGE_CHECKS, ids=[c[0] for c in RANGE_CHECKS])
    def test_beyond_rounding_is_refused_at_both_ends(self, what, make, high):
        for value in (high + 2e-9, -2e-12, float("nan")):
            with pytest.raises(InvariantViolation, match=what):
                make(value)

    def test_residual_and_weight_refusals_are_invariant_violations(self):
        # Both raised a plain ValueError once, which the CLI did not map to an exit code.
        with pytest.raises(InvariantViolation, match="residual"):
            DecouplingResiduals(0.0, 2.5, accepted=True)
        with pytest.raises(InvariantViolation, match="weight"):
            TypicalProjector(n=2, typical_types=((1, 1),), rank=2, weight=1.5)


class TestBoundChecks:
    @staticmethod
    def _report(distance, bound):
        return ProtocolReport(maximally_entangled(2), distance, bound, bound, 1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def _alignment(distance, eps):
        return UhlmannResult(None, achieved_overlap=1.0, epsilon_in=eps, distance_out=distance)

    def test_report_forgives_rounding_above_its_bound(self):
        self._report(0.3 + 5e-9, 0.3)
        self._report(2.0 + 5e-9, 7.0)  # the cap at 2 gets the same slack

    def test_report_refuses_beyond_rounding(self):
        for distance, bound in ((0.3 + 2e-8, 0.3), (2.0 + 2e-8, 7.0)):
            with pytest.raises(InvariantViolation, match="exceeds"):
                self._report(distance, bound)

    def test_alignment_forgives_rounding_above_two_sqrt_eps(self):
        self._alignment(0.2 + 5e-9, 0.01)
        self._alignment(5e-9, 0.0)

    def test_alignment_refuses_beyond_rounding(self):
        for distance, eps in ((0.2 + 2e-8, 0.01), (2e-8, 0.0), (float("nan"), 0.01)):
            with pytest.raises(InvariantViolation, match=r"2\*sqrt\(eps\)"):
                self._alignment(distance, eps)


# (function, value) of the small float literals that are not tolerances: pure_trace_distance's
# zero-vector guard of 1e-300 keeps a division finite, and no rounding model would change it.
ALLOWED = {("pure_trace_distance", 1e-300)}


def _small_literals(path):
    """(function name or None, line, value) of each float literal with 0 < |x| < 1e-6 in ``path``."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            if 0 < abs(node.value) < 1e-6:
                found.append((func, node.lineno, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


class TestToleranceLiterals:
    def test_tolerances_are_named_in_config_only(self):
        files = sorted(SRC.glob("*.py"))
        assert len(files) > 5
        stray = [f"{path.name}:{line} ({func}): {value!r}"
                 for path in files if path.name != "config.py"
                 for func, line, value in _small_literals(path) if (func, value) not in ALLOWED]
        assert not stray, "tolerance literals outside qsr.config: " + ", ".join(stray)

    def test_the_scan_sees_a_literal(self, tmp_path):
        probe = tmp_path / "probe.py"
        probe.write_text("def f(x):\n    return x < 1e-9 or x > -2.5e-7 or x == 1e-3\n")
        assert _small_literals(probe) == [("f", 2, 1e-9), ("f", 2, 2.5e-7)]
