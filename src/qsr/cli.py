"""Command line surface: rates, decouple, protocol, iid, sample-state.

Reports are line-delimited JSON records on stdout (CSV for i.i.d. sweeps);
every record echoes enough input (state digest, flags, seed, generator
version) to reproduce its result fields bit-exactly.  Exit codes: 0 all
requested checks passed, 1 usage error, 2 infeasible allocation or guard
refusal, 3 numerical invariant violation or failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any

from .decoupling import (
    DEFAULT_SEARCH_ITERS,
    KEEP_C1,
    KEEP_C2,
    MIN_HAAR_SAMPLES,
    CutPartition,
    bounds,
    find_simultaneous_unitary,
    haar_average_check,
)
from .iid import DegenerateProjectionError, InfeasibleAllocationError, TypicalSpec, iid_experiment
from .metrics import ROLES, marginal_entropy, resource_rates, role_groups
from .presets import PRESET_NAMES, PRESET_ROLES, preset_state
from .protocol import build_plan, run_forward, run_reverse
from .qstate import (
    DEFAULT_GUARD,
    GuardExceededError,
    InvariantViolation,
    LayoutError,
    PureState,
    STATE_FORMAT_VERSION,
    SystemLayout,
    check_guard,
    maximally_mixed,
    state_from_json,
    state_to_json,
    tensor,
)
from .sampling import GENERATOR_VERSION, SeededStream, random_density, random_pure_state


class UsageError(ValueError):
    """Bad flags or malformed inputs; maps to exit code 1."""


class CheckFailed(RuntimeError):
    """A requested numerical check did not pass; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def _parse_partition(text: str) -> CutPartition:
    try:
        d1, d2, d3 = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--partition wants d1,d2,d3 integers, got {text!r}") from exc
    return CutPartition(d1, d2, d3)


def _parse_roles(text: str) -> dict[str, str]:
    """``C=q0+q1,A=a,B=b,R=r`` -> {label: role}."""
    out: dict[str, str] = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise UsageError(f"--roles entry {chunk!r} is not ROLE=labels")
        role, labels = chunk.split("=", 1)
        role = role.strip()
        for lab in labels.split("+"):
            lab = lab.strip()
            if not lab:
                raise UsageError(f"--roles entry {chunk!r} has an empty label")
            if lab in out:
                raise UsageError(f"label {lab!r} assigned to two roles")
            out[lab] = role
    return out


def _parse_dims(text: str) -> SystemLayout:
    subsystems = []
    for chunk in text.split(","):
        if "=" not in chunk:
            raise UsageError(f"--dims entry {chunk!r} is not LABEL=dim")
        lab, dim = (part.strip() for part in chunk.split("=", 1))
        if not lab:
            raise UsageError(f"--dims entry {chunk!r} has an empty label")
        try:
            subsystems.append((lab, int(dim)))
        except ValueError as exc:
            raise UsageError(f"--dims entry {chunk!r} has a non-integer dim") from exc
    return SystemLayout(tuple(subsystems))


def _load_state(args: argparse.Namespace, stream: SeededStream) -> tuple[PureState, dict[str, str], str]:
    """Resolve --state (a preset or a qsr-state/1 file) and --roles: (state, roles, digest of its serialization).

    Without --roles, a preset takes its own roles and a file each of its labels that names a role.
    """
    spec = args.state
    if spec in PRESET_NAMES:
        state = preset_state(spec, stream=stream)
        roles = dict(PRESET_ROLES)
    else:
        path = Path(spec)
        if not path.exists():
            raise UsageError(f"--state {spec!r} is neither a preset ({', '.join(PRESET_NAMES)}) nor a file")
        try:
            state = state_from_json(path.read_text())
        except (OSError, ValueError) as exc:  # unreadable, not text, or not a valid state
            raise UsageError(f"{spec}: {exc}") from exc
        roles = {lab: lab for lab in state.layout.labels if lab in ROLES}
    if args.roles is not None:
        roles = _parse_roles(args.roles)
    role_groups(state.layout.labels, roles)  # a LayoutError here is a usage error
    digest = hashlib.sha256(state_to_json(state).encode()).hexdigest()
    return state, roles, digest


def _emit(args: argparse.Namespace, results: dict[str, Any], timings: dict[str, float], **inputs: Any) -> None:
    """Write one record; its inputs are ``inputs``, the seed, each other parsed flag but the sweep, the versions."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", "seed", "sweep")}
    inputs.update(seed=args.seed, flags=flags, generator_version=GENERATOR_VERSION,
                  format_version=STATE_FORMAT_VERSION)
    record = {"command": args.command, "inputs": inputs, "results": results, "timings": timings}
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_rates(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    state, roles, digest = _load_state(args, SeededStream(args.seed))
    groups = role_groups(state.layout.labels, roles)
    rates = resource_rates(state, roles)
    entropies = {role: marginal_entropy(state, labs) for role, labs in groups.items()}
    for x, y in ("CA", "CB", "CR", "AB", "AR", "BR"):
        entropies[x + y] = marginal_entropy(state, groups[x] + groups[y])
    results = {
        "qubits": rates.qubits,
        "ebits_consumed": rates.ebits_consumed,
        "ebits_distilled": rates.ebits_distilled,
        "net_ebits": rates.net_ebits,
        "entropies": entropies,
    }
    _emit(args, results, {"total_s": time.perf_counter() - t0}, state_digest=digest)
    return 0


def _decouple_operand(kind: str, layout: SystemLayout, rank: int, stream: SeededStream):
    if kind == "pi":
        return tensor(maximally_mixed(layout.dims[0], "C"), maximally_mixed(layout.dims[1], "F"))
    return random_density(layout, rank, stream)


def cmd_decouple(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    p = _parse_partition(args.partition)
    stream = SeededStream(args.seed)
    lay_f = SystemLayout.of(("C", args.dim_c), ("F", args.dim_f))
    lay_e = SystemLayout.of(("C", args.dim_c), ("E", args.dim_e))
    p.check_total(args.dim_c)
    check_guard("a decoupling operand", (args.dim_c * max(args.dim_f, args.dim_e)) ** 2)
    omega = _decouple_operand(args.omega, lay_f, args.rank, stream.derive(1))
    psi = _decouple_operand(args.psi, lay_e, args.rank, stream.derive(2))

    b = bounds(omega, psi, p)
    check1 = haar_average_check(omega, p, KEEP_C1, args.samples, stream.derive(3))
    check2 = haar_average_check(psi, p, KEEP_C2, args.samples, stream.derive(4))
    _, res, iters = find_simultaneous_unitary(omega, psi, p, args.search_budget, stream.derive(5))

    results = {
        "alpha": b.alpha,
        "beta": b.beta,
        "checks": [
            {"keep": keep, "mean_square": c.mean_square, "std_error": c.std_error,
             "bound": c.bound, "passed": c.passed}
            for keep, c in ((KEEP_C1, check1), (KEEP_C2, check2))
        ],
        "best_residuals": {"eps1": res.eps1, "eps2": res.eps2},
        "accepted": res.accepted,
        "iterations_used": iters,
    }
    _emit(args, results, {"total_s": time.perf_counter() - t0})
    if not (check1.passed and check2.passed):
        raise CheckFailed("Haar-average bound check failed")
    return 0


def cmd_protocol(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    p = _parse_partition(args.partition)
    stream = SeededStream(args.seed)
    state, roles, digest = _load_state(args, stream.derive(0))
    t_plan = time.perf_counter()
    plan = build_plan(state, roles, p, search_budget=args.search_budget, stream=stream.derive(1))
    t_run = time.perf_counter()
    report = run_reverse(plan) if args.reverse else run_forward(state, plan)
    t_end = time.perf_counter()
    results = {
        "direction": "reverse" if args.reverse else "forward",
        "distance_to_target": report.distance_to_target,
        "analytic_bound": report.analytic_bound,
        "measured_bound": report.measured_bound,
        "qubits_sent": report.qubits_sent,
        "ebits_consumed": report.ebits_consumed,
        "ebits_distilled": report.ebits_distilled,
        "final_norm": report.final_norm,
        "measured_eps1": plan.measured_eps1,
        "measured_eps2": plan.measured_eps2,
        "eta1": plan.eta1,
        "eta2": plan.eta2,
        "gamma1": plan.gamma1,
        "gamma2": plan.gamma2,
        "accepted": plan.accepted,
        "iterations_used": plan.iterations_used,
    }
    _emit(args, results, {"plan_s": t_run - t_plan, "run_s": t_end - t_run, "total_s": t_end - t0}, state_digest=digest)
    return 0


def _iid_results(rep) -> dict[str, Any]:
    return {
        "n": rep.n,
        "success_probability": rep.success_probability,
        "typical_rank": rep.typical_rank,
        "typical_weight": rep.typical_weight,
        "d1": rep.allocation.d1,
        "d2": rep.allocation.d2,
        "d3": rep.allocation.d3,
        "eta_slack": rep.allocation.eta_slack,
        "padding": rep.allocation.padding,
        "per_copy_qubits": rep.per_copy_qubits,
        "per_copy_ebits_consumed": rep.per_copy_ebits_consumed,
        "per_copy_ebits_distilled": rep.per_copy_ebits_distilled,
        "target_qubits": rep.target_rates.qubits,
        "target_ebits_consumed": rep.target_rates.ebits_consumed,
        "target_ebits_distilled": rep.target_rates.ebits_distilled,
        "gamma1": rep.gamma1,
        "gamma2": rep.gamma2,
        "distance_to_target": rep.protocol.distance_to_target,
        "measured_bound": rep.protocol.measured_bound,
        "asymptotic_bound_tail": rep.asymptotic_bound_tail,
    }


_CSV_FIELDS = (
    "n", "success_probability", "typical_rank", "d1", "d2", "d3", "eta_slack",
    "per_copy_qubits", "per_copy_ebits_consumed", "per_copy_ebits_distilled",
    "target_qubits", "target_ebits_consumed", "target_ebits_distilled",
    "distance_to_target", "measured_bound", "asymptotic_bound_tail",
)


def cmd_iid(args: argparse.Namespace) -> int:
    stream = SeededStream(args.seed)
    state, roles, digest = _load_state(args, stream.derive(0))

    if args.sweep is not None:
        try:
            lo, hi = (int(x) for x in args.sweep.split(".."))
        except ValueError as exc:
            raise UsageError(f"--sweep wants n1..n2, got {args.sweep!r}") from exc
        if lo > hi:
            raise UsageError(f"--sweep {args.sweep!r} is empty: n1 must not exceed n2")
        ns = range(lo, hi + 1)
    else:
        ns = (args.n,)
    try:  # n only grows, so the first spec settles every domain check; the rest are built as the loop reaches them
        TypicalSpec(n=ns[0], delta=args.delta, t=args.t)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if args.sweep is not None:
        sys.stdout.write(",".join(_CSV_FIELDS) + "\n")
    for n in ns:
        spec = TypicalSpec(n=n, delta=args.delta, t=args.t)
        t0 = time.perf_counter()
        rep = iid_experiment(state, roles, spec, stream=stream.derive(spec.n), guard=args.guard)
        elapsed = time.perf_counter() - t0
        results = _iid_results(rep)
        if args.sweep is not None:
            sys.stdout.write(",".join(repr(float(results[f])) if isinstance(results[f], float) else str(results[f])
                                      for f in _CSV_FIELDS) + "\n")
            sys.stdout.flush()
        else:
            _emit(args, results, {"total_s": elapsed}, state_digest=digest)
    return 0


def cmd_sample_state(args: argparse.Namespace) -> int:
    layout = _parse_dims(args.dims)
    check_guard("the random state", layout.total_dim)
    state = random_pure_state(layout, SeededStream(args.seed))
    text = state_to_json(state)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise UsageError(f"--out {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="qsr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags shared by several subcommands, each declared once.
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    state = _Parser(add_help=False)
    state.add_argument("--state", required=True, help="preset name or qsr-state/1 file")
    state.add_argument("--roles", help="ROLE=label[+label...] assignments, e.g. C=C,A=A,B=B,R=R")
    cut = _Parser(add_help=False)
    cut.add_argument("--partition", required=True, help="d1,d2,d3")
    cut.add_argument("--search-budget", type=_int_at_least(1), default=DEFAULT_SEARCH_ITERS)

    pr = sub.add_parser("rates", parents=[state, seed], help="resource rates (Q, E1, E2) and marginal entropies")
    pr.set_defaults(func=cmd_rates)

    pd = sub.add_parser("decouple", parents=[cut, seed], help="decoupling bounds, Haar averages, unitary search")
    pd.add_argument("--samples", type=_int_at_least(MIN_HAAR_SAMPLES), default=2000)
    pd.add_argument("--dim-c", type=int, default=8)
    pd.add_argument("--dim-f", type=int, default=2)
    pd.add_argument("--dim-e", type=int, default=2)
    pd.add_argument("--omega", choices=("pi", "random"), default="random")
    pd.add_argument("--psi", choices=("pi", "random"), default="random")
    pd.add_argument("--rank", type=int, default=2, help="rank of random operands")
    pd.set_defaults(func=cmd_decouple)

    pp = sub.add_parser("protocol", parents=[state, cut, seed], help="assemble and run the one-shot redistribution")
    pp.add_argument("--reverse", action="store_true", help="run the reverse redistribution")
    pp.set_defaults(func=cmd_protocol)

    pi = sub.add_parser("iid", parents=[state, seed], help="tensor-power experiment with typical projections")
    copies = pi.add_mutually_exclusive_group(required=True)
    copies.add_argument("--n", type=int)
    copies.add_argument("--sweep", help="n1..n2 (emits CSV rows)")
    pi.add_argument("--delta", type=float, default=0.1)
    pi.add_argument("--t", type=float, default=1.5)
    pi.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    pi.set_defaults(func=cmd_iid)

    ps = sub.add_parser("sample-state", parents=[seed], help="write a seeded random pure state file")
    ps.add_argument("--dims", required=True, help="LABEL=dim,... e.g. C=2,A=2,B=2,R=2")
    ps.add_argument("--out", help="output path (stdout if omitted)")
    ps.set_defaults(func=cmd_sample_state)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, LayoutError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GuardExceededError, InfeasibleAllocationError, DegenerateProjectionError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, CheckFailed) as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
