"""Typical subspaces, dimension allocation, and the tensor-power driver."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from qsr.iid import (
    DegenerateProjectionError,
    GuardExceededError,
    InfeasibleAllocationError,
    TypicalSpec,
    allocate_partition,
    iid_experiment,
    log2_window,
    project_typical,
    string_mask,
    tensor_power,
    typical_stats,
)
from qsr import decoupling, iid, protocol, qstate, uhlmann
from qsr.iid import _project, _rotate_copies
from qsr.metrics import ResourceRates, pure_trace_distance, resource_rates
from qsr.presets import PRESET_ROLES, preset_state
from qsr.protocol import canonicalize
from qsr.qstate import DensityOperator, SystemLayout, partial_trace, permute, vector_apply
from qsr.sampling import SeededStream, random_pure_state

from oracles import enumerate_typical, multinomial, typical_projector


class TestTypicalStats:
    def test_pure_spectrum(self):
        for n in (1, 5, 20):
            stats = typical_stats(np.array([1.0, 0.0]), TypicalSpec(n=n, delta=0.1))
            assert stats.rank == 1 and abs(stats.weight - 1.0) < 1e-12

    def test_flat_spectrum_every_string_typical(self):
        for n in (1, 4, 10):
            stats = typical_stats(np.array([0.5, 0.5]), TypicalSpec(n=n, delta=0.05))
            assert stats.rank == 2**n and abs(stats.weight - 1.0) < 1e-12

    def test_thousand_level_group_is_enumerated(self):
        # One type per level at n = 1: the type enumeration must not take a
        # stack frame per eigenvalue.
        stats = typical_stats(np.full(1000, 1e-3), TypicalSpec(n=1, delta=0.1))
        assert stats.rank == 1000 and abs(stats.weight - 1.0) < 1e-12
        assert stats.typical_types[0] == (0,) * 999 + (1,) and stats.typical_types[-1] == (1,) + (0,) * 999

    @pytest.mark.parametrize("n", [1100, 2000])
    def test_multiplicities_beyond_the_float_range(self, n):
        # The largest comb(n, k) exceeds the largest float from n = 1030 on;
        # the weight is checked against a log-space sum over typical counts.
        lam, spec = np.array([0.7, 0.3]), TypicalSpec(n=n, delta=0.1)
        stats = typical_stats(lam, spec)
        lo, hi = log2_window(lam, spec)
        logs = np.log2(lam)
        counts = [(a, n - a) for a in range(n + 1) if lo <= a * logs[0] + (n - a) * logs[1] <= hi]
        assert stats.typical_types == tuple(counts)
        assert stats.rank == sum(math.comb(n, a) for a, _ in counts) and stats.rank.bit_length() > 1024
        weight = sum(math.exp(math.lgamma(n + 1) - math.lgamma(a + 1) - math.lgamma(b + 1)
                              + a * math.log(0.7) + b * math.log(0.3)) for a, b in counts)
        assert abs(stats.weight - weight) < 1e-9

    def test_skewed_spectrum_at_n50(self):
        # Admissible counts of the 0.1 eigenvalue at delta = 0.1 are k in {4, 5, 6}.
        stats = typical_stats(np.array([0.9, 0.1]), TypicalSpec(n=50, delta=0.1))
        want_rank = sum(math.comb(50, k) for k in (4, 5, 6))
        want_weight = sum(math.comb(50, k) * 0.9 ** (50 - k) * 0.1**k for k in (4, 5, 6))
        assert stats.rank == want_rank
        assert abs(stats.weight - want_weight) < 1e-12

    @pytest.mark.parametrize("spectrum,delta", [
        ((0.9, 0.1), 0.1),
        ((0.7, 0.2, 0.1), 0.15),
        ((0.5, 0.5), 0.02),
    ])
    def test_matches_enumeration_oracle(self, spectrum, delta):
        for n in (1, 2, 4, 7, 10) if len(spectrum) == 2 else (1, 2, 4, 6):
            stats = typical_stats(np.array(spectrum), TypicalSpec(n=n, delta=delta))
            rank, weight = enumerate_typical(np.array(spectrum), n, delta)
            assert stats.rank == rank
            assert abs(stats.weight - weight) < 1e-12

    def test_rank_bound(self):
        for spectrum in ((0.9, 0.1), (0.6, 0.3, 0.1)):
            lam = np.array(spectrum)
            entropy = float(-(lam * np.log2(lam)).sum())
            for n in (5, 15, 30):
                for delta in (0.05, 0.2):
                    stats = typical_stats(lam, TypicalSpec(n=n, delta=delta))
                    assert stats.rank <= 2 ** (n * (entropy + delta))

    def test_weight_grows_from_n10_to_n40(self):
        spec10 = TypicalSpec(n=10, delta=0.1)
        spec40 = TypicalSpec(n=40, delta=0.1)
        lam = np.array([0.9, 0.1])
        assert typical_stats(lam, spec40).weight > typical_stats(lam, spec10).weight

    def test_mask_count_matches_rank(self):
        lam = np.array([0.8, 0.15, 0.05])
        for n in (2, 5, 8):
            spec = TypicalSpec(n=n, delta=0.12)
            assert int(string_mask(lam, spec).sum()) == typical_stats(lam, spec).rank

    def test_type_multiplicities_consistent(self):
        lam = np.array([0.9, 0.1])
        spec = TypicalSpec(n=12, delta=0.1)
        stats = typical_stats(lam, spec)
        assert stats.rank == sum(multinomial(12, t) for t in stats.typical_types)


class TestProjectorMatrix:
    def test_projector_properties(self):
        rho = DensityOperator(SystemLayout.of(("C", 2)), np.diag([0.8, 0.2]))
        spec = TypicalSpec(n=4, delta=0.3)
        pi = typical_projector(rho.matrix, spec.n, spec.delta)
        np.testing.assert_allclose(pi, pi.conj().T, atol=1e-12)
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-12)
        assert abs(np.trace(pi).real - typical_stats(rho, spec).rank) < 1e-9


class TestProjectTypical:
    def test_product_pure_state_unchanged(self):
        phi = canonicalize(preset_state("product"), PRESET_ROLES)
        psi = tensor_power(phi, 3)
        omega, prob = project_typical(psi, [(("C",), partial_trace(phi, ["C"]))],
                                      TypicalSpec(n=3, delta=0.1))
        assert abs(prob - 1.0) < 1e-12
        np.testing.assert_allclose(omega.amplitudes, psi.amplitudes, atol=1e-12)

    def test_huge_delta_is_identity(self):
        phi = canonicalize(preset_state("tilted-CR"), PRESET_ROLES)
        psi = tensor_power(phi, 2)
        omega, prob = project_typical(psi, [(("C",), partial_trace(phi, ["C"]))],
                                      TypicalSpec(n=2, delta=50.0))
        assert abs(prob - 1.0) < 1e-12
        np.testing.assert_allclose(omega.amplitudes, psi.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("preset", ["tilted-CR", "tilted-ghz-CBR"])
    def test_distance_decreases_n2_to_n4(self, preset):
        phi = canonicalize(preset_state(preset), PRESET_ROLES)
        rho_c = partial_trace(phi, ["C"])
        dist = {}
        for n in (2, 4):
            psi = tensor_power(phi, n)
            omega, _ = project_typical(psi, [(("C",), rho_c)], TypicalSpec(n=n, delta=0.4))
            dist[n] = pure_trace_distance(psi.amplitudes, omega.amplitudes)
        assert dist[4] < dist[2]

    @pytest.mark.parametrize("preset,group", [
        pytest.param("tilted-ghz-CBR", ("B", "R"), id="tilted-ghz-CBR-BR"),
        pytest.param("tilted-ghz-CBR", ("A", "R"), id="tilted-ghz-CBR-AR"),
        pytest.param("random", ("B", "R"), id="random-BR"),
        pytest.param("random", ("A", "R"), id="random-AR"),
    ])
    def test_grouped_projection_matches_matrix_oracle(self, preset, group):
        # Project a group of a 2-copy power and compare against the
        # materialized projector acting on the flat vector.  The random
        # state's marginals have eigenbases that are not permutations; (A, R)
        # is not adjacent in the C A B R layout.
        phi = canonicalize(preset_state(preset, stream=SeededStream(131)), PRESET_ROLES)
        rho = partial_trace(phi, group)
        spec = TypicalSpec(n=2, delta=0.4)
        psi = tensor_power(phi, 2)
        omega, prob = project_typical(psi, [(group, rho)], spec)
        assert 0.0 < prob < 1.0

        pi = typical_projector(rho.matrix, spec.n, spec.delta)  # acts on (g1 g2 ... of copy 1, copy 2)
        copies = [f"{lab}{i}" for i in (1, 2) for lab in group]
        order = [lab for lab in psi.layout.labels if lab not in copies] + copies
        block = permute(psi, order).amplitudes.reshape(-1, pi.shape[0])
        projected = (block @ pi.T).reshape(-1)
        norm = np.linalg.norm(projected)
        assert abs(prob - norm**2) < 1e-12
        np.testing.assert_allclose(permute(omega, order).amplitudes, projected / norm, atol=1e-10)

    def test_mask_keeping_every_string_returns_the_input(self):
        # bell-CR's C and R marginals are flat, so every string is typical and each projector is
        # exactly the identity: the kernel hands back its read-only input, which project_typical
        # only renormalizes.
        phi = canonicalize(preset_state("bell-CR"), PRESET_ROLES)
        spec = TypicalSpec(n=3, delta=0.05)
        psi = tensor_power(phi, spec.n)
        before = psi.amplitudes.copy()
        steps = [((lab,), partial_trace(phi, [lab])) for lab in ("C", "R")]
        for group, rho in steps:
            eigs, vecs = np.linalg.eigh(rho.matrix)
            mask = string_mask(eigs, spec)
            assert mask.all() and not psi.amplitudes.flags.writeable
            assert _project(psi.layout, psi.amplitudes, group, spec.n, vecs, mask) is psi.amplitudes
        omega, kept = project_typical(psi, steps, spec)
        assert kept == float(np.linalg.norm(before) ** 2)
        assert np.array_equal(omega.amplitudes, before / np.sqrt(kept))
        assert np.array_equal(psi.amplitudes, before)

    @pytest.mark.parametrize("group", [("C",), ("A", "R")])
    def test_huge_delta_in_a_rotated_eigenbasis_matches_the_matrix_oracle(self, group):
        # Every string is typical, but the eigenbasis is no permutation of the standard one, so a
        # rotate-mask-undo round trip would not be exact.  The skipped projection must still agree
        # with the materialized projector.
        phi = canonicalize(preset_state("random", stream=SeededStream(137)), PRESET_ROLES)
        rho = partial_trace(phi, group)
        spec = TypicalSpec(n=2, delta=50.0)
        eigs, vecs = np.linalg.eigh(rho.matrix)
        assert string_mask(eigs, spec).all() and np.abs(vecs).max() < 0.99
        psi = tensor_power(phi, 2)
        omega, prob = project_typical(psi, [(group, rho)], spec)
        pi = typical_projector(rho.matrix, spec.n, spec.delta)
        copies = [f"{lab}{i}" for i in (1, 2) for lab in group]
        order = [lab for lab in psi.layout.labels if lab not in copies] + copies
        projected = (permute(psi, order).amplitudes.reshape(-1, pi.shape[0]) @ pi.T).reshape(-1)
        norm = np.linalg.norm(projected)
        assert abs(prob - norm**2) <= 1e-12
        np.testing.assert_allclose(permute(omega, order).amplitudes, projected / norm, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_copy_rotation_matches_the_vector_apply_loop(self, d):
        # One stacked product per copy axis forms the same products as vector_apply on that axis,
        # but BLAS may round them differently: gemm computes a trailing partial tile of columns
        # in another kernel, and the two routes tile the columns differently.  Agreement is to
        # rounding, which a unitary and a unit vector bound by n d eps per entry.
        eps = np.finfo(float).eps
        for n in range(1, 6):
            for rest in (1, 3):
                rng = SeededStream(40).derive(100 * d + 10 * n + rest).generator()
                u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
                vec = rng.standard_normal(d**n * rest) + 1j * rng.standard_normal(d**n * rest)
                vec /= np.linalg.norm(vec)
                want, dims = vec, (d,) * n + (rest,)
                for i in range(n):
                    want, _ = vector_apply(want, dims, (i,), u, (d,))
                np.testing.assert_allclose(_rotate_copies(vec, n, u), want, rtol=0, atol=n * d * eps)

    def test_empty_typical_set_raises(self):
        phi = canonicalize(preset_state("tilted-CR"), PRESET_ROLES)
        psi = tensor_power(phi, 2)
        with pytest.raises(DegenerateProjectionError):
            project_typical(psi, [(("C",), partial_trace(phi, ["C"]))],
                            TypicalSpec(n=2, delta=0.01))


class TestAllocation:
    def _rates(self, q, e1, e2):
        return ResourceRates(qubits=q, ebits_consumed=e1, ebits_distilled=e2)

    def test_rank_one_gives_trivial_register(self):
        alloc = allocate_partition(1, self._rates(0.0, 0.0, 0.0), TypicalSpec(n=5, delta=0.1))
        assert (alloc.d1, alloc.d2, alloc.d3) == (1, 1, 1)
        assert alloc.eta_slack == 0.0 and alloc.padding == 0

    def test_pure_qubit_rate_limit(self):
        # Q = 1, E1 = E2 = 0 (flat C spectrum): d3 carries everything and the
        # per-copy qubit cost is exactly 1.
        for n in (4, 6):
            spec = TypicalSpec(n=n, delta=0.05, t=1.5)
            alloc = allocate_partition(2**n, self._rates(1.0, 0.0, 0.0), spec)
            assert (alloc.d1, alloc.d2) == (1, 1) and alloc.d3 == 2**n
            assert abs(math.log2(alloc.d3) / n - 1.0) <= 6 * spec.t * spec.delta + 2.0 / n

    def test_bell_cb_allocation_from_entropic_targets(self):
        # Phi_CB at n = 6, delta = 0.05, t = 1.5: I(B;C) = 2 so the d1 target
        # is 6*(2 - 0.45)/2 = 4.65 -> d1 = 16; I(A;C) = 0 -> d2 = 1; the flat
        # C spectrum gives rank 64, so d3 = 4 and the realized eta is 0.
        rates = resource_rates(preset_state("bell-CB"), PRESET_ROLES)
        alloc = allocate_partition(64, rates, TypicalSpec(n=6, delta=0.05, t=1.5))
        assert (alloc.d1, alloc.d2, alloc.d3) == (16, 1, 4)
        assert abs(alloc.target_log2_d1 - 4.65) < 1e-9
        assert abs(alloc.eta_slack) < 1e-9
        assert alloc.padding == 0

    def test_infeasible_when_rank_far_from_entropy(self):
        # Rank 1 with S(C) = 1 forces eta = -1, far outside [-t delta, t delta].
        with pytest.raises(InfeasibleAllocationError):
            allocate_partition(1, self._rates(1.0, 0.0, 0.0), TypicalSpec(n=4, delta=0.05, t=1.5))

    def test_per_copy_ledger_identity_on_random_states(self):
        lay = SystemLayout.of(("C", 2), ("A", 2), ("B", 2), ("R", 2))
        spec = TypicalSpec(n=6, delta=0.1, t=1.5)
        for tag in range(10):
            phi = random_pure_state(lay, SeededStream(120).derive(tag))
            rates = resource_rates(phi, PRESET_ROLES)
            s_c = rates.qubits + rates.ebits_consumed + rates.ebits_distilled
            rank = max(1, int(round(2 ** (spec.n * s_c))))  # surrogate rank near 2^{nS}
            try:
                alloc = allocate_partition(rank, rates, spec)
            except InfeasibleAllocationError:
                continue
            lhs = (math.log2(alloc.d2) - math.log2(alloc.d1)) / spec.n
            rhs = rates.ebits_consumed - rates.ebits_distilled
            assert abs(lhs - rhs) <= 6 * spec.t * spec.delta + 2.0 / spec.n + 1e-9

    @pytest.mark.parametrize("delta,t", [(1e308, 2.0), (0.5, 1e308)])
    def test_infinite_ebit_targets_give_unit_registers(self, delta, t):
        # n (e - 3 t delta) is -inf here; the registers fall back to d = 1.
        alloc = allocate_partition(4, self._rates(1.0, 0.5, 0.5), TypicalSpec(n=2, delta=delta, t=t))
        assert alloc.target_log2_d1 == alloc.target_log2_d2 == -math.inf
        assert (alloc.d1, alloc.d2, alloc.d3) == (1, 1, 4)

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            allocate_partition(0, self._rates(0.0, 0.0, 0.0), TypicalSpec(n=2, delta=0.1))


class TestTensorPower:
    def test_labels_and_amplitudes(self):
        phi = canonicalize(preset_state("bell-CR"), PRESET_ROLES)
        psi = tensor_power(phi, 2)
        assert psi.layout.labels == ("C1", "A1", "B1", "R1", "C2", "A2", "B2", "R2")
        np.testing.assert_allclose(
            psi.amplitudes, np.kron(phi.amplitudes, phi.amplitudes), atol=1e-15
        )


class TestExperimentDriver:
    def test_product_preset_trivial_run(self):
        rep = iid_experiment(preset_state("product"), PRESET_ROLES,
                             TypicalSpec(n=3, delta=0.1), SeededStream(121))
        assert rep.success_probability > 1.0 - 1e-12
        assert (rep.per_copy_qubits, rep.per_copy_ebits_consumed, rep.per_copy_ebits_distilled) == (0, 0, 0)
        assert rep.protocol.distance_to_target <= 1e-6

    def test_every_string_kept_leaves_the_tensor_power(self):
        # All five groups of bell-CR keep every string, so omega, hat and check are one normalized
        # tensor power: both gammas are exactly 0 and the success probability is its squared norm.
        phi = preset_state("bell-CR")
        before = phi.amplitudes.copy()
        spec = TypicalSpec(n=4, delta=0.05)
        rep = iid_experiment(phi, PRESET_ROLES, spec, SeededStream(136))
        assert rep.success_probability == float(np.linalg.norm(tensor_power(phi, spec.n).amplitudes) ** 2)
        assert (rep.plan.gamma1, rep.plan.gamma2) == (0.0, 0.0)
        assert np.array_equal(phi.amplitudes, before)

    def test_exact_identities_are_not_computed(self, monkeypatch):
        # bell-CR n = 7 keeps every string in all five groups, and both protocol halves have a trivial
        # kept factor.  So copies are rotated only to embed omega, which is also hat and check; U.omega
        # is formed once per search iteration and M only by the search's residuals, two per iteration;
        # and one check of a d_C x d_C matrix, U's, serves the plan, whose two closed-form halves share
        # one U^H.
        calls = {}

        def spy(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls.setdefault(name, []).append((sys._getframe(1).f_code.co_name, np.shape(args[0])))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(iid, "_rotate_copies")
        for module in (decoupling, protocol):
            spy(module, "_factors")
        spy(decoupling, "_rotate")
        for module in (qstate, uhlmann):
            spy(module, "_check_isometry")
        rep = iid_experiment(preset_state("bell-CR"), PRESET_ROLES, TypicalSpec(n=7, delta=0.05), SeededStream(138))
        p, plan = rep.allocation.partition, rep.plan
        assert (p.d1, p.d2) == (1, 1)
        assert [caller for caller, _ in calls["_rotate_copies"]] == ["_embed_typical_c"]
        assert [caller for caller, _ in calls["_rotate"]] == ["search_unitary"] * plan.iterations_used
        assert [caller for caller, _ in calls["_factors"]] == ["_residuals"] * (2 * plan.iterations_used)
        assert [shape for _, shape in calls["_check_isometry"]].count((p.total, p.total)) == 1
        assert plan.encoder_alignment.isometry.z is plan.decoder_alignment.isometry.z

    def test_bell_ca_ebit_consumption_path(self):
        # E1 = 1 drives d2 > 1, exercising the wide encoder target (its cross
        # operator is heavily rank deficient and needs the fast completion).
        spec = TypicalSpec(n=4, delta=0.05, t=1.5)
        rep = iid_experiment(preset_state("bell-CA"), PRESET_ROLES, spec, SeededStream(129))
        assert (rep.allocation.d1, rep.allocation.d2, rep.allocation.d3) == (1, 8, 2)
        assert rep.per_copy_ebits_consumed == 0.75
        assert abs(rep.per_copy_ebits_consumed - 1.0) <= 6 * spec.t * spec.delta + 2.0 / spec.n
        assert rep.protocol.distance_to_target <= 1e-6

    @pytest.mark.parametrize("preset", ["bell-CA", "ghz-CBR"])
    def test_wide_alignments_meet_the_bounds(self, preset):
        # n = 5: shared dimension 8 against an 8192 x 128 encoder cross operator
        # (bell-CA), 64 against a 2048 x 512 decoder one (ghz-CBR).
        rep = iid_experiment(preset_state(preset), PRESET_ROLES,
                             TypicalSpec(n=5, delta=0.05, t=1.5), SeededStream(130))
        assert rep.protocol.distance_to_target <= rep.protocol.measured_bound
        if preset.startswith("bell-"):
            assert rep.protocol.distance_to_target <= 1e-6

    @pytest.mark.parametrize("preset,n", [("bell-CA", 5), ("ghz-CBR", 4)])
    def test_traced_peak_is_a_small_multiple_of_the_largest_vector(self, preset, n):
        # The isometries stay factored and no state is copied needlessly, so
        # the peak follows the largest state or pair-state vector (bell-CA
        # n = 5: 65536 entries, where a dense 8192 x 128 encoder once took
        # the peak past 50 MB).
        phi = preset_state(preset)
        tracemalloc.start()
        try:
            rep = iid_experiment(phi, PRESET_ROLES, TypicalSpec(n=n, delta=0.05), SeededStream(134))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        p = rep.plan.partition
        largest = 16 * max(phi.layout.total_dim**n, max(p.d1, p.d2) ** 2 * rep.plan.phi.layout.total_dim)
        assert peak <= 16 * largest, (peak, largest)

    def test_bell_cr_rate_approaches_one(self):
        rep = iid_experiment(preset_state("bell-CR"), PRESET_ROLES,
                             TypicalSpec(n=4, delta=0.05, t=1.5), SeededStream(122))
        assert rep.per_copy_qubits == 1.0
        assert rep.protocol.distance_to_target <= 1e-6
        assert rep.gamma1 < 1e-9 and rep.gamma2 < 1e-9

    def test_correlated_random_state_reports(self):
        lay = SystemLayout.of(("C", 2), ("A", 2), ("B", 2), ("R", 2))
        phi = random_pure_state(lay, SeededStream(123))
        spec = TypicalSpec(n=3, delta=0.35, t=1.2)
        rep = iid_experiment(phi, PRESET_ROLES, spec, SeededStream(124))
        p = rep.protocol
        assert p.distance_to_target <= min(2.0, p.measured_bound) + 1e-8
        slack = 6 * spec.t * spec.delta + 2.0 / spec.n
        assert abs(rep.per_copy_qubits - rep.target_rates.qubits) <= slack + 1.0
        assert 0.0 < rep.success_probability <= 1.0

    def test_guard_refusal(self):
        with pytest.raises(GuardExceededError):
            iid_experiment(preset_state("product"), PRESET_ROLES,
                           TypicalSpec(n=6, delta=0.1), SeededStream(125))

    def test_axis_limit_refusal(self):
        # C=2 with unit A, B, R: phi^(x)17 has 2^17 entries, under the entries
        # guard, but 68 per-copy axes; numpy allows 64, so n = 16 still runs.
        lay = SystemLayout.of(("C", 2), ("A", 1), ("B", 1), ("R", 1))
        phi = random_pure_state(lay, SeededStream(131))
        with pytest.raises(GuardExceededError, match="68 per-copy axes"):
            iid_experiment(phi, PRESET_ROLES, TypicalSpec(n=17, delta=0.5), SeededStream(132))
        rep = iid_experiment(phi, PRESET_ROLES, TypicalSpec(n=16, delta=0.5), SeededStream(132))
        assert rep.protocol.distance_to_target <= 1e-6

    def test_type_enumeration_refusal(self):
        # phi^(x)2 of C=2, A=200 has 160,000 entries, under the entries guard,
        # but typical_stats would walk comb(201, 199) = 20,100 types of 200
        # counts for the A copies: refused before any type is enumerated.
        lay = SystemLayout.of(("C", 2), ("A", 200), ("B", 1), ("R", 1))
        phi = random_pure_state(lay, SeededStream(133))
        with pytest.raises(GuardExceededError, match=r"type enumeration of A\^\(x\)2 needs 4020000 entries"):
            iid_experiment(phi, PRESET_ROLES, TypicalSpec(n=2, delta=0.5), SeededStream(134))

    def test_empty_c_typical_set_is_refused(self):
        # No string of tilted-CR's C^(x)3 lies in the delta = 0.1 window: refused before allocating.
        phi, spec = preset_state("tilted-CR"), TypicalSpec(n=3, delta=0.1)
        assert typical_stats(partial_trace(phi, ["C"]), spec).rank == 0
        with pytest.raises(DegenerateProjectionError, match="empty typical set"):
            iid_experiment(phi, PRESET_ROLES, spec, SeededStream(135))

    def test_determinism(self):
        a = iid_experiment(preset_state("tilted-CR"), PRESET_ROLES,
                           TypicalSpec(n=4, delta=0.4), SeededStream(126))
        b = iid_experiment(preset_state("tilted-CR"), PRESET_ROLES,
                           TypicalSpec(n=4, delta=0.4), SeededStream(126))
        assert a.protocol.distance_to_target == b.protocol.distance_to_target
        assert a.success_probability == b.success_probability

    @pytest.mark.parametrize("side,gamma", [
        pytest.param(("A",), "gamma1", id="hat-gamma1"),
        pytest.param(("B",), "gamma2", id="check-gamma2"),
    ])
    def test_embedding_preserves_reference_distances(self, side, gamma):
        # gamma measured after the typical-register embedding must agree with
        # the distance between the projected states before it (isometries
        # preserve trace distances).  hat projects C then A then BR, check C
        # then B then AR.
        lay = SystemLayout.of(("C", 2), ("A", 2), ("B", 2), ("R", 2))
        phi = canonicalize(random_pure_state(lay, SeededStream(128)), PRESET_ROLES)
        spec = TypicalSpec(n=3, delta=0.5, t=1.2)
        psi = tensor_power(phi, spec.n)
        rest = tuple(lab for lab in ("A", "B") if lab not in side) + ("R",)
        steps = [(g, partial_trace(phi, g)) for g in (("C",), side, rest)]
        omega, _ = project_typical(psi, steps[:1], spec)
        reference, _ = project_typical(psi, steps, spec)
        direct = 2.0 * pure_trace_distance(omega.amplitudes, reference.amplitudes)
        rep = iid_experiment(phi, PRESET_ROLES, spec, SeededStream(127))
        assert abs(getattr(rep, gamma) - direct) < 1e-9
        assert getattr(rep, gamma) > 0.0  # the references genuinely deviate here
