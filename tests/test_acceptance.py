"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one pass line when it finishes (run with -s to see them);
a pytest failure is the fail line.  Seeds are fixed so every number here is
reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from qsr.decoupling import (
    KEEP_C1,
    KEEP_C2,
    CutPartition,
    condition_met,
    residual_stack,
    single_bound,
)
from qsr.iid import TypicalSpec, iid_experiment, project_typical, tensor_power, typical_stats
from qsr.metrics import (
    marginal_entropy,
    pure_trace_distance,
    resource_rates,
)
from qsr.presets import PRESET_ROLES, preset_state
from qsr.protocol import build_plan, canonicalize, initial_state, run_forward, run_reverse
from qsr.qstate import InvariantViolation, SystemLayout, partial_trace
from qsr.sampling import (
    SeededStream,
    haar_unitary_batch,
    haar_unitary_matrix,
    random_density,
    random_pure_state,
)
from qsr.uhlmann import uhlmann_isometry
from qsr.qstate import PureState

from oracles import enumerate_typical

FOUR_QUBITS = SystemLayout.of(("C", 2), ("A", 2), ("B", 2), ("R", 2))
WIDE_C = SystemLayout.of(("C", 4), ("A", 2), ("B", 2), ("R", 2))
LABELS = ("C", "A", "B", "R")


def _entropy_table(phi):
    """Entropies of every nonempty proper label subset, each from its own marginal."""
    table = {}
    for mask in range(1, 15 + 1):
        subset = tuple(lab for i, lab in enumerate(LABELS) if mask >> i & 1)
        table[frozenset(subset)] = marginal_entropy(phi, subset)
    return table


def _cmi(table, x, y, z):
    s = lambda *labs: table[frozenset(labs)] if labs else 0.0
    return s(x, *z) + s(y, *z) - s(*z) - s(x, y, *z)


def test_criterion_1_entropy_identities():
    """1000 random 4-qubit states: rate symmetry, SSA, complement symmetry; <= 10 s."""
    t0 = time.perf_counter()
    stream = SeededStream(1001)
    triples = [
        (x, y, (z,))
        for x in LABELS
        for y in LABELS
        for z in LABELS
        if len({x, y, z}) == 3 and x < y
    ]
    for tag in range(1000):
        phi = random_pure_state(FOUR_QUBITS, stream.derive(tag))
        table = _entropy_table(phi)
        # Exchange symmetry of the qubit rate numerator.
        assert abs(_cmi(table, "C", "R", ("B",)) - _cmi(table, "C", "R", ("A",))) <= 1e-9
        # Strong subadditivity over all single-label triples.
        for x, y, z in triples:
            assert _cmi(table, x, y, z) >= -1e-9
        # Complement symmetry of marginal entropies.
        for mask in range(1, 8):  # proper bipartitions, one side vs the other
            subset = frozenset(lab for i, lab in enumerate(LABELS) if mask >> i & 1)
            complement = frozenset(LABELS) - subset
            assert abs(table[subset] - table[complement]) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0, f"entropy suite took {elapsed:.1f} s"
    print(f"\n[criterion 1] PASS: entropy identities on 1000 states in {elapsed:.1f} s")


def test_criterion_2_rate_formula_consistency():
    """E = E1 - E2 exactly; preset trio matches (0,1,0), (1,0,0), (0,0,1)."""
    stream = SeededStream(1002)
    for tag in range(1000):
        phi = random_pure_state(FOUR_QUBITS, stream.derive(tag))
        rates = resource_rates(phi, PRESET_ROLES)
        assert rates.net_ebits == rates.ebits_consumed - rates.ebits_distilled
    for preset, expected in [
        ("bell-CA", (0.0, 1.0, 0.0)),
        ("bell-CR", (1.0, 0.0, 0.0)),
        ("bell-CB", (0.0, 0.0, 1.0)),
    ]:
        rates = resource_rates(preset_state(preset), PRESET_ROLES)
        got = (rates.qubits, rates.ebits_consumed, rates.ebits_distilled)
        assert np.allclose(got, expected, atol=1e-9), (preset, got)
    print("[criterion 2] PASS: net-rate identity and preset trio rates")


@pytest.fixture(scope="module")
def decoupling_monte_carlo():
    """Shared Monte Carlo for criteria 3 and 4: 20 instances, 2000 draws each."""
    t0 = time.perf_counter()
    p = CutPartition(2, 2, 2)
    lay_f = SystemLayout.of(("C", 8), ("F", 2))
    lay_e = SystemLayout.of(("C", 8), ("E", 2))
    results = []
    for inst in range(20):
        omega = random_density(lay_f, 2, SeededStream(1003).derive(2 * inst))
        psi = random_density(lay_e, 2, SeededStream(1003).derive(2 * inst + 1))
        alpha = single_bound(omega, p, KEEP_C1)
        beta = single_bound(psi, p, KEEP_C2)
        rng = SeededStream(1004).derive(inst).generator()
        n = 2000
        us = haar_unitary_batch(n, 8, rng)
        e1 = residual_stack(omega, us, p, KEEP_C1)
        e2 = residual_stack(psi, us, p, KEEP_C2)
        sq1 = e1 * e1
        results.append({
            "alpha": alpha,
            "beta": beta,
            "mean_sq": float(sq1.mean()),
            "se": float(sq1.std(ddof=1) / np.sqrt(n)),
            "freq1": int(np.count_nonzero(condition_met(e1, alpha))) / n,
            "freq2": int(np.count_nonzero(condition_met(e2, beta))) / n,
            "n": n,
        })
    return results, time.perf_counter() - t0


def test_criterion_3_decoupling_monte_carlo(decoupling_monte_carlo):
    """Mean squared residual over 2000 Haar draws stays below alpha + 3 SE; <= 2 min."""
    results, elapsed = decoupling_monte_carlo
    for r in results:
        assert r["mean_sq"] <= r["alpha"] + 3.0 * r["se"], r
    assert elapsed <= 120.0, f"Monte Carlo took {elapsed:.1f} s"
    worst = max(r["mean_sq"] / r["alpha"] for r in results)
    print(f"\n[criterion 3] PASS: 20 instances, worst mean/bound ratio {worst:.3f}, {elapsed:.1f} s")


def test_criterion_4_single_draw_acceptance(decoupling_monte_carlo):
    """Each condition alone accepts a single Haar draw more than half the time."""
    results, _ = decoupling_monte_carlo
    for r in results:
        slack = 3.0 * math.sqrt(0.25 / r["n"])
        assert r["freq1"] > 0.5 - slack, r
        assert r["freq2"] > 0.5 - slack, r
    lo = min(min(r["freq1"], r["freq2"]) for r in results)
    print(f"[criterion 4] PASS: lowest single-condition acceptance frequency {lo:.3f}")


def test_criterion_5_uhlmann_suite():
    """500 purification pairs: isometry defect, 2 sqrt(eps) bound, identity, optimality."""
    d_a, d_b, d_c = 3, 2, 4
    lay_mu = SystemLayout.of(("A", d_a), ("B", d_b))
    lay_nu = SystemLayout.of(("A", d_a), ("C", d_c))
    opt_rng = SeededStream(1006).generator()
    from qsr.qstate import permute

    for tag in range(500):
        mu = random_pure_state(lay_mu, SeededStream(1005).derive(2 * tag))
        noise_rng = SeededStream(1005).derive(2 * tag + 1).generator()
        emb = np.zeros((d_a, d_c), dtype=complex)
        emb[:, :d_b] = mu.amplitudes.reshape(d_a, d_b)
        scale = 0.02 + 0.3 * (tag % 7) / 6.0
        vec = emb.reshape(-1) + scale * (
            noise_rng.standard_normal(d_a * d_c) + 1j * noise_rng.standard_normal(d_a * d_c)
        )
        nu = PureState(lay_nu, vec / np.linalg.norm(vec))

        res = uhlmann_isometry(mu, nu, ["A"])
        k = res.isometry.matrix
        assert np.max(np.abs(k.conj().T @ k - np.eye(d_b))) <= 1e-10
        assert res.distance_out <= 2.0 * np.sqrt(res.epsilon_in) + 1e-12
        want = 2.0 * np.sqrt(max(0.0, 1.0 - res.achieved_overlap**2))
        assert abs(res.distance_out - want) <= 1e-9

        # Polar optimality against 100 Haar-random isometries of the same shape.
        nu_perm = permute(nu, ("A", "C"))
        mu_mat = mu.amplitudes.reshape(d_a, d_b)
        nu_mat = nu_perm.amplitudes.reshape(d_a, d_c)
        for _ in range(100):
            kk = haar_unitary_matrix(d_c, opt_rng)[:, :d_b]
            ov = abs(np.vdot(nu_mat, mu_mat @ kk.T))
            assert ov <= res.achieved_overlap + 1e-9
    print("\n[criterion 5] PASS: 500 purification pairs x 100 competitor isometries")


def test_criterion_6_protocol_exact_cases():
    """Exact Bell cases: zero-error runs with the advertised ledgers, both directions."""
    phi_ca = preset_state("bell-CA")
    plan_ca = build_plan(phi_ca, PRESET_ROLES, CutPartition(1, 2, 1), stream=SeededStream(1007))
    fwd_ca = run_forward(phi_ca, plan_ca)
    assert fwd_ca.distance_to_target <= 1e-6
    assert (fwd_ca.qubits_sent, fwd_ca.ebits_consumed, fwd_ca.ebits_distilled) == (0.0, 1.0, 0.0)

    phi_cr = preset_state("bell-CR")
    plan_cr = build_plan(phi_cr, PRESET_ROLES, CutPartition(1, 1, 2), stream=SeededStream(1008))
    fwd_cr = run_forward(phi_cr, plan_cr)
    assert fwd_cr.distance_to_target <= 1e-6
    assert (fwd_cr.qubits_sent, fwd_cr.ebits_consumed, fwd_cr.ebits_distilled) == (1.0, 0.0, 0.0)

    for plan, fwd in ((plan_ca, fwd_ca), (plan_cr, fwd_cr)):
        back = run_reverse(plan, fwd.final_state)
        assert back.distance_to_target <= 2e-6
        target = initial_state(plan)
        assert pure_trace_distance(back.final_state.amplitudes, target.amplitudes) <= 2e-6
    print("\n[criterion 6] PASS: exact bell-CA and bell-CR runs, forward and reverse")


def test_criterion_7_measured_error_bound():
    """200 random d_C = 4 states, all six cut partitions: measured bound holds."""
    partitions = [(1, 1, 4), (1, 2, 2), (1, 4, 1), (2, 1, 2), (2, 2, 1), (4, 1, 1)]
    t0 = time.perf_counter()
    worst_margin = np.inf
    for tag in range(200):
        phi = random_pure_state(WIDE_C, SeededStream(1009).derive(tag))
        for p in partitions:
            try:
                plan = build_plan(phi, PRESET_ROLES, CutPartition(*p),
                                  stream=SeededStream(1010).derive(tag))
                rep = run_forward(phi, plan)
            except InvariantViolation as exc:  # report constructors enforce the bound
                pytest.fail(f"bound violated for partition {p}: {exc}")
            bound = min(2.0, rep.measured_bound)
            assert rep.distance_to_target <= bound + 1e-8
            worst_margin = min(worst_margin, bound - rep.distance_to_target)
    elapsed = time.perf_counter() - t0
    print(f"\n[criterion 7] PASS: 1200 runs, smallest bound margin {worst_margin:.3e}, {elapsed:.1f} s")


def test_criterion_8_typical_subspace_combinatorics():
    """Type-class rank/weight equal enumeration for n <= 10; bounds and growth hold."""
    lam2 = np.array([0.9, 0.1])
    for n in range(1, 11):
        stats = typical_stats(lam2, TypicalSpec(n=n, delta=0.1))
        rank, weight = enumerate_typical(lam2, n, 0.1)
        assert stats.rank == rank
        assert abs(stats.weight - weight) <= 1e-12

    lam3 = np.array([0.7, 0.2, 0.1])
    for n in range(1, 7):
        stats = typical_stats(lam3, TypicalSpec(n=n, delta=0.15))
        rank, weight = enumerate_typical(lam3, n, 0.15)
        assert stats.rank == rank
        assert abs(stats.weight - weight) <= 1e-12

    for lam in (lam2, lam3):
        probs = lam[lam > 0]
        entropy = float(-(probs * np.log2(probs)).sum())
        for n in (5, 12, 25, 40):
            for delta in (0.05, 0.1, 0.3):
                stats = typical_stats(lam, TypicalSpec(n=n, delta=delta))
                assert stats.rank <= 2 ** (n * (entropy + delta))

    w10 = typical_stats(lam2, TypicalSpec(n=10, delta=0.1)).weight
    w40 = typical_stats(lam2, TypicalSpec(n=40, delta=0.1)).weight
    assert w40 > w10
    print(f"\n[criterion 8] PASS: enumeration agreement, rank bound, weight {w10:.3f} -> {w40:.3f}")


def test_criterion_9_projection_distance_trend():
    """For both tilted presets the distance to the projected state drops n=2 -> n=4."""
    report = {}
    for preset in ("tilted-CR", "tilted-ghz-CBR"):
        phi = canonicalize(preset_state(preset), PRESET_ROLES)
        rho_c = partial_trace(phi, ["C"])
        dist = {}
        for n in (2, 4):
            psi = tensor_power(phi, n)
            omega, _ = project_typical(psi, [(("C",), rho_c)], TypicalSpec(n=n, delta=0.4))
            dist[n] = pure_trace_distance(psi.amplitudes, omega.amplitudes)
        assert dist[4] < dist[2], (preset, dist)
        report[preset] = dist
    print(f"\n[criterion 9] PASS: {report}")


def test_criterion_10_iid_driver():
    """Product preset at n = 5 is free and exact; bell-CR rates hit the slack window."""
    t0 = time.perf_counter()
    rep = iid_experiment(preset_state("product"), PRESET_ROLES,
                         TypicalSpec(n=5, delta=0.1), SeededStream(1011))
    assert (rep.per_copy_qubits, rep.per_copy_ebits_consumed, rep.per_copy_ebits_distilled) == (0, 0, 0)
    assert rep.protocol.distance_to_target <= 1e-6

    for n in (4, 6):
        spec = TypicalSpec(n=n, delta=0.05, t=1.5)
        rep = iid_experiment(preset_state("bell-CR"), PRESET_ROLES, spec, SeededStream(1012))
        assert rep.per_copy_qubits == math.log2(rep.allocation.d3) / n
        slack = 6 * spec.t * spec.delta + 2.0 / n
        assert abs(rep.per_copy_qubits - 1.0) <= slack
        assert rep.protocol.distance_to_target <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0, f"iid suite took {elapsed:.1f} s"
    print(f"\n[criterion 10] PASS: product n=5 and bell-CR n=4,6 in {elapsed:.1f} s")
