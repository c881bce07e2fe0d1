"""Plan assembly, forward/reverse runs, bounds, and the resource ledger."""

import dataclasses

import numpy as np
from qsr.decoupling import KEEP_C1, KEEP_C2, CutPartition, decoupling_bound, residual, single_bound
from qsr.metrics import pure_trace_distance
from qsr.presets import PRESET_ROLES, preset_state
from qsr.protocol import (
    ReferencePair,
    build_plan,
    canonicalize,
    eta_bounds,
    initial_state,
    run_forward,
    run_reverse,
)
from qsr.qstate import (
    LinearMap,
    PureState,
    SystemLayout,
    apply,
    maximally_entangled,
    partial_trace,
    tensor,
)
from qsr.sampling import SeededStream, random_pure_state

from oracles import loop_partial_trace, protocol_isometries

RANDOM_LAYOUT = SystemLayout.of(("C", 4), ("A", 2), ("B", 2), ("R", 2))
ALL_PARTITIONS_OF_4 = [(1, 1, 4), (1, 2, 2), (1, 4, 1), (2, 1, 2), (2, 2, 1), (4, 1, 1)]


def _random_phi(tag):
    return random_pure_state(RANDOM_LAYOUT, SeededStream(90).derive(tag))


class TestCanonicalize:
    def test_merges_role_groups(self):
        lay = SystemLayout.of(("q0", 2), ("q1", 2), ("a", 2), ("b", 2), ("r", 2))
        phi = random_pure_state(lay, SeededStream(91))
        roles = {"q0": "C", "q1": "C", "a": "A", "b": "B", "r": "R"}
        canon = canonicalize(phi, roles)
        assert canon.layout.labels == ("C", "A", "B", "R")
        assert canon.layout.dims == (4, 2, 2, 2)

    def test_identity_on_canonical_states(self):
        phi = preset_state("bell-CA")
        canon = canonicalize(phi, PRESET_ROLES)
        assert canon.layout == phi.layout
        np.testing.assert_allclose(canon.amplitudes, phi.amplitudes)


class TestEtaBounds:
    def test_pure_reference_small_cut(self):
        # hat marginal on C B R is pure (Phi_CB, trivial R), d_BR = d_C = 2,
        # d_{C1 C3} = 1: eta1 = 2 * (2*2*2)^(1/4) = 2 * 8^(1/4).
        phi = preset_state("bell-CB")
        refs = ReferencePair.for_state(phi, phi, phi)
        eta1, _ = eta_bounds(refs, CutPartition(1, 2, 1))
        assert abs(eta1 - 2.0 * 8.0**0.25) < 1e-12
        assert abs(eta1 - 3.3635856610148585) < 1e-9  # vacuous regime, > 2

    def test_fourth_root_scaling(self):
        phi = _random_phi(0)
        refs = ReferencePair.for_state(*(canonicalize(phi, PRESET_ROLES),) * 3)
        e_small, _ = eta_bounds(refs, CutPartition(1, 4, 1))  # d13 = 1
        e_large, _ = eta_bounds(refs, CutPartition(2, 1, 2))  # d13 = 4
        assert abs(e_small / e_large - 2.0) < 1e-9  # quadrupled d13 halves eta1

    def test_maximally_mixed_marginal_formula(self):
        # Entangling C, B, R each with their own slice of A makes the C B R
        # marginal maximally mixed (purity 1/(d_C d_BR)), collapsing eta1 to
        # 2 * 2^(1/4) / sqrt(d_C) at d_{C1 C3} = d_C.
        phi = tensor(
            tensor(maximally_entangled(2, ("C", "A1")), maximally_entangled(2, ("B", "A2"))),
            maximally_entangled(2, ("R", "A3")),
        )
        roles = {"C": "C", "A1": "A", "A2": "A", "A3": "A", "B": "B", "R": "R"}
        canon = canonicalize(phi, roles)
        refs = ReferencePair.for_state(canon, canon, canon)
        eta1, _ = eta_bounds(refs, CutPartition(2, 1, 1))  # d13 = 2 = d_C
        assert abs(eta1 - 2.0 * 2.0**0.25 / np.sqrt(2.0)) < 1e-9


class TestBuildPlan:
    def test_bell_ca_measured_residuals_vanish(self):
        plan = build_plan(preset_state("bell-CA"), PRESET_ROLES, CutPartition(1, 2, 1),
                          stream=SeededStream(92))
        assert plan.measured_eps1 < 1e-9 and plan.measured_eps2 < 1e-9
        assert plan.accepted and plan.gamma1 == 0.0 and plan.gamma2 == 0.0

    def test_bell_cr_measured_residuals_vanish(self):
        plan = build_plan(preset_state("bell-CR"), PRESET_ROLES, CutPartition(1, 1, 2),
                          stream=SeededStream(93))
        assert plan.measured_eps1 < 1e-9 and plan.measured_eps2 < 1e-9

    def test_identical_refs_give_delta_equals_eta(self):
        phi = _random_phi(1)
        plan = build_plan(phi, PRESET_ROLES, CutPartition(2, 2, 1), stream=SeededStream(94))
        assert plan.delta1 == plan.gamma1 + plan.eta1 == plan.eta1
        assert plan.delta2 == plan.eta2

    def test_encoder_decoder_shapes(self):
        phi = _random_phi(2)
        p = CutPartition(2, 1, 2)
        plan = build_plan(phi, PRESET_ROLES, p, stream=SeededStream(95))
        assert plan.encoder.input_layout.labels == ("C1", "C3", "A")
        assert plan.encoder.output_layout.labels == ("A2", "Cpp", "App")
        assert plan.decoder.input_layout.labels == ("C2", "C3", "B")
        assert plan.decoder.output_layout.labels == ("B1", "Cp", "Bp")
        assert plan.encoder.input_layout.total_dim == p.d1 * p.d3 * 2
        assert plan.encoder.output_layout.total_dim == p.d2 * 4 * 2

    def test_encoder_aligns_rotated_reference(self):
        # || W (U.hat) - Phi_{C2 A2} (x) hat || <= 2 sqrt(eps_hat).
        phi = _random_phi(3)
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 2, 2), stream=SeededStream(96))
        assert plan.encoder_alignment.distance_out <= 2.0 * np.sqrt(plan.measured_eps1) + 1e-8
        assert plan.decoder_alignment.distance_out <= 2.0 * np.sqrt(plan.measured_eps2) + 1e-8


class TestForwardRuns:
    def test_bell_ca_exact(self):
        phi = preset_state("bell-CA")
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 2, 1), stream=SeededStream(97))
        rep = run_forward(phi, plan)
        assert rep.distance_to_target <= 1e-6
        assert (rep.qubits_sent, rep.ebits_consumed, rep.ebits_distilled) == (0.0, 1.0, 0.0)
        assert abs(rep.final_norm - 1.0) < 1e-9

    def test_bell_cr_exact(self):
        phi = preset_state("bell-CR")
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 1, 2), stream=SeededStream(98))
        rep = run_forward(phi, plan)
        assert rep.distance_to_target <= 1e-6
        assert (rep.qubits_sent, rep.ebits_consumed, rep.ebits_distilled) == (1.0, 0.0, 0.0)

    def test_random_states_obey_measured_bound(self):
        for tag in range(8):
            phi = _random_phi(10 + tag)
            for p in ALL_PARTITIONS_OF_4:
                plan = build_plan(phi, PRESET_ROLES, CutPartition(*p), stream=SeededStream(99).derive(tag))
                rep = run_forward(phi, plan)
                assert rep.distance_to_target <= min(2.0, rep.measured_bound) + 1e-8
                assert rep.distance_to_target <= min(2.0, rep.analytic_bound) + 1e-8
                assert rep.final_norm <= 1.0 + 1e-10

    def test_prime_dimension_transfer_register(self):
        # d_C = 3 forces fractional ledger entries and non-power-of-2 cuts;
        # sending all of C (cut (1,1,3)) needs no decoupling and runs exactly.
        lay = SystemLayout.of(("C", 3), ("A", 3), ("B", 2), ("R", 2))
        phi = random_pure_state(lay, SeededStream(115))
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 1, 3), stream=SeededStream(116))
        rep = run_forward(phi, plan)
        assert rep.distance_to_target <= 1e-9
        assert abs(rep.qubits_sent - np.log2(3)) < 1e-12
        assert rep.ebits_consumed == 0.0 and rep.ebits_distilled == 0.0
        for p in [(1, 3, 1), (3, 1, 1)]:
            plan = build_plan(phi, PRESET_ROLES, CutPartition(*p), stream=SeededStream(117))
            rep = run_forward(phi, plan)
            assert rep.distance_to_target <= min(2.0, rep.measured_bound) + 1e-8

    def test_final_state_layout(self):
        phi = preset_state("bell-CA")
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 2, 1), stream=SeededStream(100))
        rep = run_forward(phi, plan)
        assert rep.final_state.layout.labels == ("C1", "B1", "Cp", "A", "Bp", "R")


class TestReverseRuns:
    def test_reverse_recovers_initial_state(self):
        phi = preset_state("bell-CA")
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 2, 1), stream=SeededStream(101))
        rep = run_reverse(plan)
        assert rep.distance_to_target <= 1e-6
        assert (rep.qubits_sent, rep.ebits_consumed, rep.ebits_distilled) == (0.0, 0.0, 1.0)

    def test_round_trip_on_exact_case(self):
        phi = preset_state("bell-CR")
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 1, 2), stream=SeededStream(102))
        fwd = run_forward(phi, plan)
        back = run_reverse(plan, fwd.final_state)
        assert back.distance_to_target <= 2e-6
        target = initial_state(plan)
        assert back.final_state.layout == target.layout
        assert pure_trace_distance(back.final_state.amplitudes, target.amplitudes) <= 2e-6

    def test_ledger_antisymmetry(self):
        for p in [(1, 2, 2), (2, 2, 1), (2, 1, 2)]:
            phi = _random_phi(20)
            plan = build_plan(phi, PRESET_ROLES, CutPartition(*p), stream=SeededStream(103))
            fwd = run_forward(phi, plan)
            rev = run_reverse(plan)
            assert fwd.qubits_sent == rev.qubits_sent
            assert fwd.ebits_consumed == rev.ebits_distilled
            assert fwd.ebits_distilled == rev.ebits_consumed

    def test_reverse_obeys_bounds(self):
        for tag in range(4):
            phi = _random_phi(30 + tag)
            plan = build_plan(phi, PRESET_ROLES, CutPartition(2, 2, 1), stream=SeededStream(104))
            rep = run_reverse(plan)
            assert rep.distance_to_target <= min(2.0, rep.measured_bound) + 1e-8


class TestSymmetries:
    def test_ab_exchange_gives_reverse_ledger(self):
        phi = _random_phi(40)
        p = CutPartition(1, 2, 2)
        plan = build_plan(phi, PRESET_ROLES, p, stream=SeededStream(105))
        fwd = run_forward(phi, plan)

        swapped_roles = {"C": "C", "A": "B", "B": "A", "R": "R"}
        swapped_p = CutPartition(p.d2, p.d1, p.d3)
        plan_sw = build_plan(phi, swapped_roles, swapped_p, stream=SeededStream(105))
        fwd_sw = run_forward(phi, plan_sw)
        rev = run_reverse(plan)
        assert fwd_sw.qubits_sent == rev.qubits_sent
        assert fwd_sw.ebits_consumed == rev.ebits_consumed
        assert fwd_sw.ebits_distilled == rev.ebits_distilled
        assert fwd.ebits_consumed == fwd_sw.ebits_distilled

    def test_trace_distance_invariant_under_appended_isometry(self):
        u = random_pure_state(SystemLayout.of(("X", 4)), SeededStream(106))
        v = random_pure_state(SystemLayout.of(("X", 4)), SeededStream(107))
        before = pure_trace_distance(u.amplitudes, v.amplitudes)
        iso = np.linalg.qr(SeededStream(108).generator().standard_normal((7, 4))
                           + 1j * SeededStream(109).generator().standard_normal((7, 4)))[0]
        m = LinearMap(SystemLayout.of(("X", 4)), SystemLayout.of(("Y", 7)), iso, "isometry")
        after = pure_trace_distance(apply(m, u, ["X"]).amplitudes, apply(m, v, ["X"]).amplitudes)
        assert abs(before - after) < 1e-10


class TestReferenceStates:
    def test_gamma_zero_for_identical_references(self):
        phi = canonicalize(_random_phi(50), PRESET_ROLES)
        refs = ReferencePair.for_state(phi, phi, phi)
        assert refs.gamma1 == 0.0 and refs.gamma2 == 0.0

    def test_gamma_range_and_value(self):
        phi = canonicalize(_random_phi(51), PRESET_ROLES)
        other = canonicalize(_random_phi(52), PRESET_ROLES)
        refs = ReferencePair.for_state(phi, other, phi)
        ov = abs(np.vdot(phi.amplitudes, other.amplitudes)) ** 2
        assert abs(refs.gamma1 - 4.0 * np.sqrt(1.0 - ov)) < 1e-9
        assert 0.0 <= refs.gamma1 <= 4.0

    def test_nontrivial_references_enter_bounds(self):
        phi = canonicalize(_random_phi(53), PRESET_ROLES)
        rng = SeededStream(110).generator()
        vec = phi.amplitudes + 0.05 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        hat = PureState(phi.layout, vec / np.linalg.norm(vec))
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 2, 2), refs=(hat, phi),
                          stream=SeededStream(111))
        assert plan.gamma1 > 0.0 and plan.gamma2 == 0.0
        assert plan.delta1 == plan.gamma1 + plan.eta1
        rep = run_forward(phi, plan)
        assert rep.distance_to_target <= min(2.0, rep.measured_bound) + 1e-8

    def test_out_of_range_mass_is_dropped_not_hidden(self):
        # A deviating encoder reference leaves part of the input outside the
        # encoder's range; the norm deficit must show up, not be renormalized.
        phi = canonicalize(_random_phi(54), PRESET_ROLES)
        rng = SeededStream(112).generator()
        vec = phi.amplitudes + 0.15 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        hat = PureState(phi.layout, vec / np.linalg.norm(vec))
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 2, 2), refs=(hat, phi),
                          stream=SeededStream(113))
        rep = run_forward(phi, plan)
        assert rep.final_norm < 1.0 - 1e-6
        assert rep.distance_to_target <= min(2.0, rep.measured_bound) + 1e-8

    def test_accepted_plans_relate_eps_to_eta(self):
        # Acceptance means eps_hat^2 <= 2 beta_hat, whose fourth root is eta1/2,
        # and symmetrically for the decoder side; a side swap would break this.
        for tag in range(10):
            phi = _random_phi(60 + tag)
            for p in ALL_PARTITIONS_OF_4:
                plan = build_plan(phi, PRESET_ROLES, CutPartition(*p),
                                  stream=SeededStream(114).derive(tag))
                if plan.accepted:
                    assert 2.0 * np.sqrt(plan.measured_eps1) <= plan.eta1 + 1e-9
                    assert 2.0 * np.sqrt(plan.measured_eps2) <= plan.eta2 + 1e-9


class TestHalvesAgainstOracles:
    """Residuals and bounds of both halves on references that differ from phi."""

    @staticmethod
    def _trace_norm(m):
        return float(np.abs(np.linalg.eigvalsh(m)).sum())

    def _residual(self, ref, u, p, keep, side):
        # || Tr_rest[U.ref] - pi_kept (x) ref_side ||_1 from explicit density matrices.
        rotated = np.kron(u, np.eye(8)) @ ref.amplitudes
        split_dims = (p.d1, p.d2, p.d3, 2, 2, 2)
        reduced = loop_partial_trace(np.outer(rotated, rotated.conj()), split_dims, keep)
        side_rho = loop_partial_trace(np.outer(ref.amplitudes, ref.amplitudes.conj()), (4, 2, 2, 2), side)
        d_kept = split_dims[keep[0]]
        return self._trace_norm(reduced - np.kron(np.eye(d_kept) / d_kept, side_rho))

    def _bound(self, ref, p, keep_c_side, d_kept):
        rho = loop_partial_trace(np.outer(ref.amplitudes, ref.amplitudes.conj()), (4, 2, 2, 2), keep_c_side)
        return decoupling_bound(4, 4, float(np.trace(rho @ rho).real), 4 // d_kept)

    def test_eps_and_eta_match_oracles(self):
        for tag in range(3):
            phi, hat, check = (_random_phi(200 + 3 * tag + k) for k in range(3))
            for cut in ALL_PARTITIONS_OF_4:
                p = CutPartition(*cut)
                plan = build_plan(phi, PRESET_ROLES, p, refs=(hat, check),
                                  stream=SeededStream(201).derive(tag))
                u = plan.unitary.matrix
                eps_w = self._residual(hat, u, p, [1, 4, 5], [2, 3])  # keep C2, side B R
                eps_v = self._residual(check, u, p, [0, 3, 5], [1, 3])  # keep C1, side A R
                assert abs(plan.measured_eps1 - eps_w) <= 1e-12
                assert abs(plan.measured_eps2 - eps_v) <= 1e-12
                beta = self._bound(hat, p, [0, 2, 3], p.d2)
                alpha = self._bound(check, p, [0, 1, 3], p.d1)
                eta1, eta2 = 2.0 * (2.0 * beta) ** 0.25, 2.0 * (2.0 * alpha) ** 0.25
                assert abs(plan.eta1 - eta1) <= 1e-14 and abs(plan.eta2 - eta2) <= 1e-14
                assert np.allclose(eta_bounds(plan.refs, p), (eta1, eta2), rtol=0.0, atol=1e-14)
                # The same conditions through the density-operator API of qsr.decoupling.
                hat_cbr, check_car = partial_trace(hat, ["C", "B", "R"]), partial_trace(check, ["C", "A", "R"])
                assert abs(plan.measured_eps1 - residual(hat_cbr, plan.unitary, p, KEEP_C2)) <= 1e-12
                assert abs(plan.measured_eps2 - residual(check_car, plan.unitary, p, KEEP_C1)) <= 1e-12
                etas = (2.0 * (2.0 * single_bound(rho, p, keep)) ** 0.25
                        for rho, keep in ((hat_cbr, KEEP_C2), (check_car, KEEP_C1)))
                assert np.allclose(eta_bounds(plan.refs, p), tuple(etas), rtol=0.0, atol=1e-12)
                assert plan.delta1 == plan.gamma1 + plan.eta1 > plan.eta1
                assert plan.delta2 == plan.gamma2 + plan.eta2 > plan.eta2


class TestIsometryExtension:
    def test_dense_polar_isometries_give_the_same_runs(self):
        # The fidelity fixes W and V only on the support of their cross
        # operators.  With phi as both references the runs stay on that
        # support, so dense polar factors built from scratch must agree.
        for tag in range(3):
            phi = canonicalize(_random_phi(300 + tag), PRESET_ROLES)
            for cut in ALL_PARTITIONS_OF_4:
                plan = build_plan(phi, PRESET_ROLES, CutPartition(*cut), stream=SeededStream(301).derive(tag))
                for iso, labels in ((plan.encoder, ("C1", "C3", "A", "A2", "Cpp", "App")),
                                    (plan.decoder, ("C2", "C3", "B", "B1", "Cp", "Bp"))):
                    assert iso.input_layout.labels + iso.output_layout.labels == labels
                w, v = protocol_isometries(phi.amplitudes.reshape(phi.dims), plan.unitary.matrix, cut)
                dense = dataclasses.replace(
                    plan,
                    encoder=LinearMap(plan.encoder.input_layout, plan.encoder.output_layout, w, "isometry"),
                    decoder=LinearMap(plan.decoder.input_layout, plan.decoder.output_layout, v, "isometry"),
                )
                for run in (lambda q: run_forward(phi, q), run_reverse):
                    got, want = run(dense), run(plan)
                    assert abs(got.distance_to_target - want.distance_to_target) <= 1e-12
                    assert abs(got.final_norm - want.final_norm) <= 1e-12
