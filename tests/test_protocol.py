"""Plan assembly, forward/reverse runs, bounds, and the resource ledger."""

import collections
import dataclasses
import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from qsr import decoupling, protocol, qstate, uhlmann
from qsr.decoupling import (
    KEEP_C1, KEEP_C2, CutPartition, _factors, _residuals, decoupling_bound, residual, single_bound,
)
from qsr.iid import TypicalSpec, iid_experiment
from qsr.metrics import gram_trace_distance, pure_trace_distance
from qsr.presets import PRESET_ROLES, preset_state
from qsr.protocol import (
    _DECODER,
    _ENCODER,
    ProtocolPlan,
    ProtocolReport,
    _condition,
    _entangled,
    _gamma,
    _geometry,
    _plan_entries,
    _sizes,
    build_plan,
    canonicalize,
    eta_bounds,
    final_state_target,
    initial_state,
    run_forward,
    run_reverse,
)
from qsr.qstate import (
    InvariantViolation,
    LayoutError,
    LinearMap,
    PureState,
    SystemLayout,
    apply,
    maximally_entangled,
    partial_trace,
    permute,
    tensor,
)
from qsr.sampling import SeededStream, random_pure_state
from qsr.uhlmann import FactoredIsometry, _align

from oracles import (
    inverse_rotation,
    loop_partial_trace,
    protocol_isometries,
    protocol_run,
    pure_pair_distance,
    shared_first_factors,
)

RANDOM_LAYOUT = SystemLayout.of(("C", 4), ("A", 2), ("B", 2), ("R", 2))
ALL_PARTITIONS_OF_4 = [(1, 1, 4), (1, 2, 2), (1, 4, 1), (2, 1, 2), (2, 2, 1), (4, 1, 1)]


def _random_phi(tag):
    return random_pure_state(RANDOM_LAYOUT, SeededStream(90).derive(tag))


@pytest.fixture(scope="module")
def bench_plans():
    """(name, plan) for every input of the benchmark's seed-1 protocol-grid and iid-sweep passes."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads as w

    def plans():  # a generator, so a test's spies see each plan being built
        for inp in w.protocol_inputs(1):
            yield f"protocol-grid {inp.cut}", w.protocol_op(inp)[0]
        for inp in w.iid_inputs(1):
            yield f"iid-sweep {inp.preset}", w.iid_op(inp).plan

    return plans


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

    @staticmethod
    def _oracle(phi, roles):
        """The canonical state by one transpose of the amplitude tensor into role order."""
        labels = phi.layout.labels
        axes = [labels.index(lab) for role in "CABR" for lab in labels if roles[lab] == role]
        dims = tuple(math.prod(d for lab, d in phi.layout.subsystems if roles[lab] == role) for role in "CABR")
        return SystemLayout.of(*zip("CABR", dims)), phi.amplitudes.reshape(phi.dims).transpose(axes).reshape(-1)

    @pytest.mark.parametrize("dims", [(2, 3, 2, 2), (2, 2, 2, 3)])
    def test_labels_named_after_another_role(self, dims):
        # The CLI's --roles C=C,A=B,B=A,R=R: label A holds role B and label B role A.
        phi = random_pure_state(SystemLayout.of(*zip("CABR", dims)), SeededStream(92).derive(sum(dims)))
        roles = {"C": "C", "A": "B", "B": "A", "R": "R"}
        canon = canonicalize(phi, roles)
        layout, amps = self._oracle(phi, roles)
        assert canon is not phi
        assert canon.layout == layout and canon.layout.dims == (dims[0], dims[2], dims[1], dims[3])
        assert canon.amplitudes.tobytes() == amps.tobytes()

    def test_interleaved_multi_label_groups(self):
        lay = SystemLayout.of(("a1", 3), ("q0", 2), ("r", 1), ("b", 2), ("q1", 2), ("a0", 2))
        phi = random_pure_state(lay, SeededStream(93))
        roles = {"q0": "C", "q1": "C", "a1": "A", "a0": "A", "b": "B", "r": "R"}
        canon = canonicalize(phi, roles)
        layout, amps = self._oracle(phi, roles)
        assert canon.layout == layout == SystemLayout.of(("C", 4), ("A", 6), ("B", 2), ("R", 1))
        assert canon.amplitudes.tobytes() == amps.tobytes()

    def test_canonical_input_is_returned_as_is(self):
        for phi in (preset_state("ghz-CBR"), _random_phi(94)):
            assert canonicalize(phi, PRESET_ROLES) is phi


class TestEtaBounds:
    def test_pure_reference_small_cut(self):
        # hat marginal on C B R is pure (Phi_CB, trivial R), d_BR = d_C = 2,
        # d_{C1 C3} = 1: eta1 = 2 * (2*2*2)^(1/4) = 2 * 8^(1/4).
        phi = preset_state("bell-CB")
        eta1, _ = eta_bounds(phi, phi, CutPartition(1, 2, 1))
        assert abs(eta1 - 2.0 * 8.0**0.25) < 1e-12
        assert abs(eta1 - 3.3635856610148585) < 1e-9  # vacuous regime, > 2

    def test_fourth_root_scaling(self):
        phi = _random_phi(0)
        refs = (canonicalize(phi, PRESET_ROLES),) * 2
        e_small, _ = eta_bounds(*refs, CutPartition(1, 4, 1))  # d13 = 1
        e_large, _ = eta_bounds(*refs, CutPartition(2, 1, 2))  # d13 = 4
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
        eta1, _ = eta_bounds(canon, canon, CutPartition(2, 1, 1))  # d13 = 2 = d_C
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
        assert plan.gamma1 + plan.eta1 == plan.eta1
        assert plan.gamma2 + plan.eta2 == plan.eta2

    def test_encoder_decoder_shapes(self):
        phi = _random_phi(2)
        p = CutPartition(2, 1, 2)
        plan = build_plan(phi, PRESET_ROLES, p, stream=SeededStream(95))
        encoder, decoder = plan.encoder_alignment.isometry, plan.decoder_alignment.isometry
        assert encoder.input_layout.labels == ("C1", "C3", "A")
        assert encoder.output_layout.labels == ("A2", "Cpp", "App")
        assert decoder.input_layout.labels == ("C2", "C3", "B")
        assert decoder.output_layout.labels == ("B1", "Cp", "Bp")
        assert encoder.input_layout.total_dim == p.d1 * p.d3 * 2
        assert encoder.output_layout.total_dim == p.d2 * 4 * 2

    def test_encoder_aligns_rotated_reference(self):
        # || W (U.hat) - Phi_{C2 A2} (x) hat || <= 2 sqrt(eps_hat).
        phi = _random_phi(3)
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 2, 2), stream=SeededStream(96))
        assert plan.encoder_alignment.distance_out <= 2.0 * np.sqrt(plan.measured_eps1) + 1e-8
        assert plan.decoder_alignment.distance_out <= 2.0 * np.sqrt(plan.measured_eps2) + 1e-8

    def test_one_field_per_quantity(self):
        # W, V and each half's eps live in the alignments; Delta_i = gamma_i + eta_i is derived.
        assert [f.name for f in dataclasses.fields(ProtocolPlan)] == [
            "partition", "unitary", "encoder_alignment", "decoder_alignment", "eta1", "eta2",
            "gamma1", "gamma2", "accepted", "iterations_used", "phi", "roles",
        ]
        phi = _random_phi(4)
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 2, 2), refs=(_random_phi(5), phi),
                          stream=SeededStream(97))
        assert plan.measured_eps1 == plan.encoder_alignment.epsilon_in
        assert plan.measured_eps2 == plan.decoder_alignment.epsilon_in
        assert plan.analytic_bound == (plan.gamma1 + plan.eta1) + (plan.gamma2 + plan.eta2)

    @pytest.mark.parametrize("other", [0, 1])
    def test_refs_in_another_layout_are_refused(self, other):
        # The reference has phi's labels, so canonicalizing it succeeds, but R is 4-dimensional.
        phi = _random_phi(7)
        wide = random_pure_state(SystemLayout.of(("C", 4), ("A", 2), ("B", 2), ("R", 4)), SeededStream(90).derive(8))
        refs = (wide, phi) if other == 0 else (phi, wide)
        with pytest.raises(LayoutError, match="must share"):
            build_plan(phi, PRESET_ROLES, CutPartition(2, 2, 1), refs=refs, stream=SeededStream(99))

    def test_gamma_outside_its_range_is_refused(self):
        plan = build_plan(_random_phi(6), PRESET_ROLES, CutPartition(2, 2, 1), stream=SeededStream(98))
        for gamma in (4.5, -0.1):
            with pytest.raises(InvariantViolation):
                dataclasses.replace(plan, gamma1=gamma)
            with pytest.raises(InvariantViolation):
                dataclasses.replace(plan, gamma2=gamma)


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

    def test_state_in_another_layout_is_refused(self):
        plan = build_plan(_random_phi(9), PRESET_ROLES, CutPartition(2, 2, 1), stream=SeededStream(100))
        wide = random_pure_state(SystemLayout.of(("C", 4), ("A", 2), ("B", 2), ("R", 4)), SeededStream(90).derive(10))
        with pytest.raises(LayoutError, match="does not match the plan"):
            run_forward(wide, plan)

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

    def test_vanished_final_state_is_refused(self):
        plan = build_plan(preset_state("bell-CA"), PRESET_ROLES, CutPartition(1, 2, 1), stream=SeededStream(100))
        encoder, decoder = _geometry(plan.phi.dims, plan.partition)
        start = initial_state(plan).amplitudes
        for scale in (0.0, 1e-13):
            with pytest.raises(InvariantViolation, match="vanished"):
                protocol._run(start * scale, encoder, decoder, plan)


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

    def test_reverse_refuses_a_permuted_final_state(self):
        phi = _random_phi(21)
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 2, 2), stream=SeededStream(110))
        final = run_forward(phi, plan).final_state
        moved = permute(final, final.layout.labels[::-1])
        with pytest.raises(LayoutError) as exc:
            run_reverse(plan, moved)
        assert f"{moved.layout}" in str(exc.value) and f"{final.layout}" in str(exc.value)

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


@functools.cache
def _corner_runs():
    """(cut, plan, forward run, reverse run) for every cut with d1 = 1 or d2 = 1 of random states
    with d_C in {4, 6, 8} and d_A, d_B, d_R in {1, 2, 3}; the references are phi itself."""
    runs = []
    for tag, (cut, side) in enumerate(_all_cuts_and_sides()):
        d_c = math.prod(cut)
        if d_c in (4, 6, 8) and min(cut[:2]) == 1:
            phi = random_pure_state(SystemLayout.of(*zip("CABR", (d_c, *side))), SeededStream(380).derive(tag))
            plan = build_plan(phi, PRESET_ROLES, CutPartition(*cut), stream=SeededStream(381).derive(tag))
            runs.append((cut, plan, run_forward(phi, plan), run_reverse(plan)))
    return runs


class TestSymmetries:
    def test_fqsw_corner_forward_error_is_the_decoders(self):
        # d2 = 1 is fully quantum Slepian-Wolf: no ebit is consumed and W = U^H (x) I is exact, so the
        # forward run's error is the decoder alignment's alone.
        cases = [(plan, fwd) for cut, plan, fwd, _ in _corner_runs() if cut[1] == 1]
        assert len(cases) == 27 * (3 + 4 + 4)  # 3, 4 and 4 such cuts of d_C = 4, 6 and 8
        for plan, fwd in cases:
            assert fwd.ebits_consumed == 0
            assert abs(fwd.distance_to_target - plan.decoder_alignment.distance_out) <= 1e-12

    def test_fqrs_corner_reverse_error_is_the_encoders(self):
        # d1 = 1 is the fully quantum reverse Shannon corner, FQSW's time reverse: V = U^H (x) I is
        # exact, so the reverse run consumes no ebit and its error is the encoder alignment's alone.
        cases = [(plan, rev) for cut, plan, _, rev in _corner_runs() if cut[0] == 1]
        assert len(cases) == 27 * (3 + 4 + 4)  # 3, 4 and 4 such cuts of d_C = 4, 6 and 8
        for plan, rev in cases:
            assert rev.ebits_consumed == 0
            assert abs(rev.distance_to_target - plan.encoder_alignment.distance_out) <= 1e-12

    def test_both_corners_run_exactly(self):
        # d1 = d2 = 1 sends all of C: both halves are U^H (x) I and both runs are exact.
        cases = [(fwd, rev) for cut, _, fwd, rev in _corner_runs() if cut[:2] == (1, 1)]
        assert len(cases) == 3 * 27  # one (1, 1, d_C) cut per d_C and side
        for fwd, rev in cases:
            assert fwd.distance_to_target <= 1e-12 and rev.distance_to_target <= 1e-12

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

    def test_swapped_roles_run_the_swapped_state(self):
        # A and B have one dimension, so the caller's layout equals the plan's although the roles
        # exchange A and B; the run must still bring the caller's state to the plan's labels.
        phi = _random_phi(41)
        swapped_roles = {"C": "C", "A": "B", "B": "A", "R": "R"}
        for cut in ALL_PARTITIONS_OF_4:
            plan = build_plan(phi, swapped_roles, CutPartition(*cut), stream=SeededStream(109))
            assert phi.layout == plan.phi.layout and plan.phi is not phi
            fwd, own = run_forward(phi, plan), run_forward(plan.phi, plan)
            assert fwd.distance_to_target == own.distance_to_target
            assert np.array_equal(fwd.final_state.amplitudes, own.final_state.amplitudes)
            if cut[:2] == (1, 1):  # both halves are U^H (x) I: the run is exact
                assert fwd.distance_to_target <= 1e-12

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
        assert _gamma(phi, phi) == 0.0

    def test_gamma_range_and_value(self):
        phi = canonicalize(_random_phi(51), PRESET_ROLES)
        other = canonicalize(_random_phi(52), PRESET_ROLES)
        gamma = _gamma(phi, other)
        ov = abs(np.vdot(phi.amplitudes, other.amplitudes)) ** 2
        assert abs(gamma - 4.0 * np.sqrt(1.0 - ov)) < 1e-9
        assert 0.0 <= gamma <= 4.0

    def test_nontrivial_references_enter_bounds(self):
        phi = canonicalize(_random_phi(53), PRESET_ROLES)
        rng = SeededStream(110).generator()
        vec = phi.amplitudes + 0.05 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        hat = PureState(phi.layout, vec / np.linalg.norm(vec))
        plan = build_plan(phi, PRESET_ROLES, CutPartition(1, 2, 2), refs=(hat, phi),
                          stream=SeededStream(111))
        assert plan.gamma1 > 0.0 and plan.gamma2 == 0.0
        assert plan.analytic_bound == (plan.gamma1 + plan.eta1) + plan.eta2
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
                assert np.allclose(eta_bounds(hat, check, p), (eta1, eta2), rtol=0.0, atol=1e-14)
                # The same conditions through the density-operator API of qsr.decoupling.
                hat_cbr, check_car = partial_trace(hat, ["C", "B", "R"]), partial_trace(check, ["C", "A", "R"])
                assert abs(plan.measured_eps1 - residual(hat_cbr, plan.unitary, p, KEEP_C2)) <= 1e-12
                assert abs(plan.measured_eps2 - residual(check_car, plan.unitary, p, KEEP_C1)) <= 1e-12
                etas = (2.0 * (2.0 * single_bound(rho, p, keep)) ** 0.25
                        for rho, keep in ((hat_cbr, KEEP_C2), (check_car, KEEP_C1)))
                assert np.allclose(eta_bounds(hat, check, p), tuple(etas), rtol=0.0, atol=1e-12)
                assert plan.gamma1 + plan.eta1 > plan.eta1
                assert plan.gamma2 + plan.eta2 > plan.eta2


class TestIsometryExtension:
    def test_dense_polar_isometries_give_the_same_runs(self):
        # The fidelity fixes W and V only on the support of their cross
        # operators.  With phi as both references the runs stay on that
        # support, so dense polar factors built from scratch must agree.
        for tag in range(3):
            phi = canonicalize(_random_phi(300 + tag), PRESET_ROLES)
            for cut in ALL_PARTITIONS_OF_4:
                plan = build_plan(phi, PRESET_ROLES, CutPartition(*cut), stream=SeededStream(301).derive(tag))
                alignments = (plan.encoder_alignment, plan.decoder_alignment)
                for res, labels in zip(alignments, (("C1", "C3", "A", "A2", "Cpp", "App"),
                                                    ("C2", "C3", "B", "B1", "Cp", "Bp"))):
                    assert res.isometry.input_layout.labels + res.isometry.output_layout.labels == labels
                w, v = protocol_isometries(phi.amplitudes.reshape(phi.dims), plan.unitary.matrix, cut)
                enc, dec = (dataclasses.replace(res, isometry=FactoredIsometry(
                                res.isometry.input_layout, res.isometry.output_layout, k))
                            for res, k in zip(alignments, (w, v)))
                dense = dataclasses.replace(plan, encoder_alignment=enc, decoder_alignment=dec)
                for run in (lambda q: run_forward(phi, q), run_reverse):
                    got, want = run(dense), run(plan)
                    assert abs(got.distance_to_target - want.distance_to_target) <= 1e-12
                    assert abs(got.final_norm - want.final_norm) <= 1e-12


class TestOneEpsPerHalf:
    def test_alignment_eps_is_the_measured_residual(self):
        # Each half's decoupling residual is its alignment's eps_in, so the
        # plan hands the one number over.  The Gram-factor distance of the
        # shared-first factors, built here from raw tensors, must give it too.
        for tag in range(3):
            phi, hat, check = (canonicalize(_random_phi(310 + 3 * tag + k), PRESET_ROLES) for k in range(3))
            for cut in ALL_PARTITIONS_OF_4:
                plan = build_plan(phi, PRESET_ROLES, CutPartition(*cut), refs=(hat, check),
                                  stream=SeededStream(311).derive(tag))
                assert plan.encoder_alignment.epsilon_in == plan.measured_eps1
                assert plan.decoder_alignment.epsilon_in == plan.measured_eps2
                refs = (ref.amplitudes.reshape(ref.dims) for ref in (hat, check))
                factors = shared_first_factors(*refs, plan.unitary.matrix, cut)
                for (m, n), eps in zip(factors, (plan.measured_eps1, plan.measured_eps2)):
                    assert abs(gram_trace_distance(m, n) - eps) <= 1e-12


ENCODER_PAIR = ("C2", "A2", "Cpp", "App", "B", "R")  # Phi_{C2 A2} (x) phi, C and A primed
DECODER_PAIR = ("C1", "B1", "Cp", "A", "Bp", "R")  # Phi_{C1 B1} (x) phi, C and B primed


class TestRunsAgainstOracle:
    """Both runs against named-index contractions of the dense W and V on the full start vector."""

    @staticmethod
    def _check(plan):
        phi = plan.phi.amplitudes
        w, v = (res.isometry.to_linear_map() for res in (plan.encoder_alignment, plan.decoder_alignment))
        dims = dict(w.input_layout.subsystems + w.output_layout.subsystems + v.input_layout.subsystems
                    + v.output_layout.subsystems + (("R", plan.phi.dims[3]),))
        maps = {m: (m.matrix, m.input_layout.labels, m.output_layout.labels) for m in (w, v)}

        def pair(labels):
            d = dims[labels[0]]
            return np.kron(np.eye(d).reshape(-1) / np.sqrt(d), phi)

        for rep, (start, undo, redo, end) in (
            (run_forward(plan.phi, plan), (ENCODER_PAIR, w, v, DECODER_PAIR)),
            (run_reverse(plan), (DECODER_PAIR, v, w, ENCODER_PAIR)),
        ):
            final = protocol_run(pair(start), start, dims, maps[undo], maps[redo], end)
            norm = np.linalg.norm(final)
            assert rep.final_state.layout == SystemLayout(tuple((lab, dims[lab]) for lab in end))
            np.testing.assert_allclose(rep.final_state.amplitudes, final / norm, rtol=0.0, atol=1e-12)
            assert abs(rep.final_norm - norm) <= 1e-12
            assert abs(rep.distance_to_target - pure_pair_distance(final, pair(end))) <= 1e-12

    def test_random_states_with_distinct_references(self):
        for tag in range(2):
            phi, hat, check = (_random_phi(320 + 3 * tag + k) for k in range(3))
            for cut in ALL_PARTITIONS_OF_4:
                plan = build_plan(phi, PRESET_ROLES, CutPartition(*cut), refs=(hat, check),
                                  stream=SeededStream(321).derive(tag))
                assert plan.gamma1 > 0 and plan.gamma2 > 0 and plan.gamma1 != plan.gamma2
                self._check(plan)

    @pytest.mark.parametrize("side", [(1, 1, 3), (2, 3, 2)])  # (d_A, d_B, d_R): rest = 1, and rest > 1
    @pytest.mark.parametrize("cut", [(1, 2, 2), (2, 1, 2), (1, 1, 4)])
    def test_trivial_kept_factor_is_the_inverse_rotation(self, cut, side):
        # With d2 = 1 (W) or d1 = 1 (V) the half's isometry is U^H on its C
        # factor times the identity on A or B, and it aligns exactly.
        layout = SystemLayout.of(("C", 4), *zip("ABR", side))
        tag = 10 * cut[0] + cut[1] + 100 * side[0]
        phi, hat, check = (random_pure_state(layout, SeededStream(350).derive(3 * tag + k)) for k in range(3))
        plan = build_plan(phi, PRESET_ROLES, CutPartition(*cut), refs=(hat, check), stream=SeededStream(351))
        assert plan.gamma1 > 0 and plan.gamma2 > 0 and plan.gamma1 != plan.gamma2
        assert _assert_closed_form(plan, hat, check) > 0
        self._check(plan)

    def test_every_trivial_half_up_to_d_c_12(self):
        # Every cut of d_C 1..12 with d1 = 1 or d2 = 1, with A, B and R dims in {1, 2, 3} and three
        # distinct random states as phi, hat and check.
        for k, ((d1, d2, d3), side) in enumerate(_all_cuts_and_sides()):
            if min(d1, d2) == 1:
                p = CutPartition(d1, d2, d3)
                layout = SystemLayout.of(("C", p.total), *zip("ABR", side))
                phi, hat, check = (random_pure_state(layout, SeededStream(360).derive(3 * k + j)) for j in range(3))
                plan = build_plan(phi, PRESET_ROLES, p, refs=(hat, check), search_budget=1,
                                  stream=SeededStream(361).derive(k))
                assert _assert_closed_form(plan, hat, check) == (d1 == 1) + (d2 == 1)

    def test_householder_branch_of_an_iid_plan(self):
        rep = iid_experiment(preset_state("bell-CA"), PRESET_ROLES, TypicalSpec(n=5, delta=0.05), SeededStream(90))
        assert any(res.isometry.y is not None for res in (rep.plan.encoder_alignment, rep.plan.decoder_alignment))
        self._check(rep.plan)


def _assert_closed_form(plan, hat, check):
    """Check each half with a trivial kept factor against the dense oracle; return how many there are.

    Its isometry is K = U^H (x) I on its C factor and A (W) or B (V), and its overlap and
    distance_out are the exact 1 and 0 that K M = S gives, so the plan does not form K M.  The
    oracle forms it densely and must give the half's pair state, which with a trivial kept factor
    is the reference itself.  Both runs must stay within the measured bound.
    """
    u = plan.unitary.matrix
    halves = [(res, ref, side) for res, ref, kept, side in ((plan.encoder_alignment, hat, plan.partition.d2, 1),
                                                           (plan.decoder_alignment, check, plan.partition.d1, 2))
              if kept == 1]
    for res, ref, side in halves:
        rest = ref.dims[side]
        assert res.isometry.y is None and res.isometry.rest == rest
        np.testing.assert_allclose(res.isometry.to_linear_map().matrix, np.kron(u.conj().T, np.eye(rest)),
                                   rtol=0.0, atol=1e-12)
        assert (res.achieved_overlap, res.distance_out) == (1.0, 0.0)
        pair = _entangled(ref.amplitudes[None], 1).reshape(-1)
        np.testing.assert_allclose(inverse_rotation(ref.amplitudes.reshape(ref.dims), u, side), pair,
                                   rtol=0.0, atol=1e-12)
    for rep in (run_forward(plan.phi, plan), run_reverse(plan)):
        assert rep.distance_to_target <= plan.measured_bound
    return len(halves)


def _all_cuts_and_sides():
    """Every cut of d_C in 1..12 with A, B and R dims in {1, 2, 3}."""
    for d_c in range(1, 13):
        cuts = [(d1, d2, d_c // (d1 * d2)) for d1 in range(1, d_c + 1) for d2 in range(1, d_c + 1)
                if d_c % (d1 * d2) == 0]
        yield from itertools.product(cuts, itertools.product((1, 2, 3), repeat=3))


def _fresh_layout(labels, sizes):
    return SystemLayout(tuple((lab, sizes[lab]) for lab in labels))


class TestGeometryCache:
    """Each half's geometry is derived once per (canonical dims, cut) and read from a cache."""

    def test_cached_geometry_is_a_fresh_derivation(self):
        # Every cut meets many dims in turn, so a cache keyed on less than (dims, cut) hands back
        # another shape's geometry.  (The preflight's closed form is checked on the same cases.)
        for (d1, d2, d3), side in _all_cuts_and_sides():
            p = CutPartition(d1, d2, d3)
            dims = (p.total, *side)
            sizes = _sizes(dims, p)
            for half, g in zip((_ENCODER, _DECODER), _geometry(dims, p)):
                assert g.half is half
                assert (g.source, g.dest, g.pair) == tuple(_fresh_layout(labels, sizes)
                                                          for labels in (half.own, half.out, half.layout))
                assert (g.dims, g.inputs, g.outputs) == tuple(tuple(sizes[lab] for lab in labels)
                                                             for labels in (half.layout, half.inputs, half.outputs))
                assert g.kept == sizes[half.shared[0]]
                assert g.shared == math.prod(sizes[lab] for lab in half.shared)

    def test_interleaved_shapes_give_the_plans_built_alone(self):
        # Shapes X and Y share a cut; Z has another d_C.
        shapes = [((4, 2, 2, 2), (2, 1, 2)), ((4, 3, 1, 2), (2, 1, 2)), ((6, 1, 2, 3), (3, 2, 1))]

        def outcome(tag):
            dims, cut = shapes[tag]
            phi = random_pure_state(SystemLayout.of(*zip("CABR", dims)), SeededStream(370).derive(tag))
            plan = build_plan(phi, PRESET_ROLES, CutPartition(*cut), stream=SeededStream(371).derive(tag))
            fwd = run_forward(phi, plan)
            rev = run_reverse(plan, fwd.final_state)
            states = (fwd.final_state, rev.final_state, initial_state(plan), final_state_target(plan))
            factors = [f for res in (plan.encoder_alignment, plan.decoder_alignment)
                       for f in (res.isometry.z, res.isometry.y, res.isometry.t) if f is not None]
            return ([repr(x) for x in (plan, fwd, rev)] + [s.layout for s in states]
                    + [a.tobytes() for a in (*factors, *(s.amplitudes for s in states))])

        alone = []
        for tag in range(len(shapes)):
            _geometry.cache_clear()
            alone.append(outcome(tag))
        _geometry.cache_clear()
        for tag in (0, 1, 0, 2, 1, 0):
            assert outcome(tag) == alone[tag]

    @pytest.mark.parametrize("cut", ALL_PARTITIONS_OF_4)
    def test_a_warm_shape_derives_nothing(self, cut, monkeypatch):
        # Once its (dims, cut) is warm, a plan and both its runs build no size map and construct one
        # layout, the plan's unitary's: every other typed value they return reuses a cached one.  They
        # check as many isometries as ever: U and each half with a nontrivial kept factor.
        p, phi = CutPartition(*cut), _random_phi(7)

        def op():
            plan = build_plan(phi, PRESET_ROLES, p, stream=SeededStream(99))
            run_reverse(plan, run_forward(phi, plan).final_state)

        op()
        calls = collections.Counter()
        for owner, name in ((protocol, "_sizes"), (SystemLayout, "__post_init__"), (qstate, "_check_isometry"),
                            (uhlmann, "_check_isometry")):
            def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        op()
        assert calls == {"__post_init__": 1, "_check_isometry": 1 + (p.d1 > 1) + (p.d2 > 1)}


class TestOneResidualPerCondition:
    """Two decoupling conditions that are one are searched with one residual per draw."""

    def test_bell_cr_pays_one_residual_and_the_rest_two(self, bench_plans, monkeypatch):
        # bell-CR's cut is (1, 1, .) and its A and B are trivial, so both conditions keep a trivial
        # factor against R alone: one M, one S, one d_kept.  tilted-ghz-CBR shares the cut, but its B
        # is not trivial; no protocol-grid cut has both kept factors trivial with A and B trivial.
        calls = []

        def counted(*args):
            calls.append(args)
            return _residuals(*args)

        monkeypatch.setattr(decoupling, "_residuals", counted)
        seen = set()
        for name, plan in bench_plans():
            p, one = plan.partition, name == "iid-sweep bell-CR"
            assert len(calls) == (1 if one else 2) * plan.iterations_used, name
            assert _geometry(plan.phi.dims, p)[0].alike is one
            calls.clear()
            seen.add(name)
            if one:
                direct = float(_residuals(*_condition(_ENCODER, plan.phi), p, plan.unitary.matrix[None])[0])
                assert plan.measured_eps1 == plan.measured_eps2 == direct
        assert {"iid-sweep bell-CR", "iid-sweep tilted-ghz-CBR",
                *(f"protocol-grid {cut}" for cut in ALL_PARTITIONS_OF_4)} <= seen

    def test_bell_cr_protocol_plan_pays_one_residual(self, monkeypatch):
        calls = []
        monkeypatch.setattr(decoupling, "_residuals", lambda *args: calls.append(args) or _residuals(*args))
        phi, p = preset_state("bell-CR"), CutPartition(1, 1, 2)
        plan = build_plan(phi, PRESET_ROLES, p, stream=SeededStream(3))
        direct = float(_residuals(*_condition(_ENCODER, plan.phi), p, plan.unitary.matrix[None])[0])
        assert len(calls) == plan.iterations_used
        assert plan.measured_eps1 == plan.measured_eps2 == direct


class TestPreflight:
    def test_plan_entries_match_the_closed_form(self):
        # The preflight is derived from the halves' label tuples; the closed
        # form it replaced is the oracle, so the guard decision cannot drift.
        # A half with a trivial kept factor (d2 = 1 for W, d1 = 1 for V) holds
        # U^H (d_C^2 entries); any other half's factors fit in its pair state or shared^2.
        for (d1, d2, d3), (d_a, d_b, d_r) in _all_cuts_and_sides():
            d_c = d1 * d2 * d3
            want = max(max(d1, d2) ** 2 * d_c * d_a * d_b * d_r, (d2 * d_b * d_r) ** 2,
                       (d1 * d_a * d_r) ** 2, d_c ** 2 if min(d1, d2) == 1 else 0)
            assert _plan_entries((d_c, d_a, d_b, d_r), CutPartition(d1, d2, d3)) == want

    def test_plan_entries_bound_what_a_built_plan_holds(self):
        # The prediction must cover the largest pair state and the largest
        # isometry factor that the built plan actually holds, on every path.
        for k, ((d1, d2, d3), side) in enumerate(_all_cuts_and_sides()):
            p = CutPartition(d1, d2, d3)
            phi = random_pure_state(SystemLayout.of(("C", p.total), *zip("ABR", side)), SeededStream(340).derive(k))
            plan = build_plan(phi, PRESET_ROLES, p, search_budget=1, stream=SeededStream(341).derive(k))
            held = [state.amplitudes.size for state in (initial_state(plan), final_state_target(plan))]
            for res in (plan.encoder_alignment, plan.decoder_alignment):
                held += [np.size(f) for f in (res.isometry.z, res.isometry.y, res.isometry.t) if f is not None]
            assert _plan_entries(phi.dims, p) >= max(held)

    def test_benchmark_plans_hold_no_array_above_the_preflight(self, bench_plans):
        # Every array either isometry holds: a dense K, the shared U^H, or the core W and both reflector
        # pairs of the Householder branch, which ghz-CBR takes.
        forms = set()
        for name, plan in bench_plans():
            limit = _plan_entries(plan.phi.dims, plan.partition)
            for res in (plan.encoder_alignment, plan.decoder_alignment):
                held = [f.size for f in vars(res.isometry).values() if isinstance(f, np.ndarray)]
                assert max(held) <= limit, name
                forms.add((res.isometry.y_in is not None, res.isometry.rest > 1))
        assert forms == {(False, False), (False, True), (True, False)}


class TestKronFreeOperands:
    """The protocol's product operands equal their np.kron definitions."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (8, 2)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_entangled_factor(self, d, shape):
        rng = SeededStream(330).derive(d).generator()
        s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got, want = _entangled(s, d), np.kron(np.eye(d, dtype=complex) / np.sqrt(d), s)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros too: they steer Householder reflectors

    @pytest.mark.parametrize("side", [(1, 1, 1), (2, 3, 1), (3, 1, 2)])
    @pytest.mark.parametrize("cut", [(1, 1, 2), (2, 3, 1), (3, 2, 1)])
    def test_pair_states(self, cut, side):
        # The runs read the pair vectors raw; initial_state and final_state_target type the same bytes.
        p = CutPartition(*cut)
        layout = SystemLayout.of(("C", p.total), *zip("ABR", side))
        ref = random_pure_state(layout, SeededStream(331).derive(10 * sum(cut) + sum(side)))
        sizes = _sizes(ref.dims, p)
        plan = build_plan(ref, PRESET_ROLES, p, stream=SeededStream(332))
        for half, d, typed in ((_ENCODER, p.d2, initial_state), (_DECODER, p.d1, final_state_target)):
            pair = np.eye(d, dtype=complex).reshape(-1) * (1.0 / np.sqrt(d))
            want = np.kron(pair, ref.amplitudes)
            got = _entangled(ref.amplitudes[None], d)
            assert got.shape == (d, d * len(ref.amplitudes))
            assert got.tobytes() == want.tobytes()
            state = typed(plan)
            assert state.dims == tuple(sizes[lab] for lab in half.layout)
            assert state.layout.labels == half.layout
            assert state.amplitudes.tobytes() == want.tobytes()


# Seeded plans (tag, (d_C, d_A, d_B, d_R), cut) on which a half with d_kept >= 2 takes the
# Householder branch of the alignment, found among random states with d_C in 8..18 and A, B, R
# in 1..4.
HOUSEHOLDER_PLANS = [
    (7, (18, 3, 3, 4), (3, 2, 3)), (10, (16, 4, 2, 1), (4, 4, 1)), (11, (9, 1, 4, 2), (3, 1, 3)),
    (17, (16, 4, 1, 1), (2, 2, 4)), (28, (15, 4, 1, 4), (5, 3, 1)), (31, (14, 4, 2, 1), (2, 7, 1)),
    (36, (12, 1, 2, 2), (2, 2, 3)), (44, (15, 1, 4, 2), (3, 5, 1)), (51, (12, 4, 4, 2), (2, 1, 6)),
]


class TestHouseholderExtension:
    """The isometric extension off the cross operator's support, as the plans pick it today."""

    def test_factors_follow_the_signed_zeros_of_a_kron_built_n(self):
        # A reflector's sign follows the sign of an exactly zero pivot, so the extension depends on
        # the signed zeros of N = I/sqrt(d) (x) S.  The plan's factors must be those of np.kron's N;
        # the same N with all-positive zeros gives other (equally valid) factors.
        positive_zeros_agree = []
        for tag, dims, cut in HOUSEHOLDER_PLANS:
            phi = random_pure_state(SystemLayout.of(*zip("CABR", dims)), SeededStream(400).derive(tag))
            p = CutPartition(*cut)
            plan = build_plan(phi, PRESET_ROLES, p, stream=SeededStream(401).derive(tag))
            sizes = _sizes(dims, p)
            halves = [(h, res.isometry) for h, res in ((_ENCODER, plan.encoder_alignment),
                                                       (_DECODER, plan.decoder_alignment))
                      if res.isometry.y is not None and sizes[h.shared[0]] >= 2]
            assert halves
            for half, iso in halves:
                d = sizes[half.shared[0]]
                m, s = _factors(*_condition(half, plan.phi), p, plan.unitary.matrix[None])
                n = np.kron(np.eye(d, dtype=complex) / np.sqrt(d), s)

                def factors(n):
                    k, _, _ = _align(m[0], n, _fresh_layout(half.own, sizes), _fresh_layout(half.out, sizes))
                    return [f.tobytes() for f in (k.z, k.y, k.t)]

                want = [f.tobytes() for f in (iso.z, iso.y, iso.t)]
                assert factors(n) == want
                positive_zeros_agree.append(factors(n + 0.0) == want)
        assert not all(positive_zeros_agree)


class TestProtocolReport:
    @staticmethod
    def _report(distance, analytic, measured):
        return ProtocolReport(maximally_entangled(2), distance, analytic, measured, 1.0, 0.0, 0.0, 1.0)

    def test_distance_within_both_bounds_or_two(self):
        self._report(0.5, 0.5, 0.6)
        self._report(2.0, 5.0, 3.0)  # a bound above 2 is capped at the trace distance's range

    @pytest.mark.parametrize("analytic,measured", [(1.0, 0.1), (0.1, 1.0), (3.0, 1.9)])
    def test_distance_above_a_bound_rejected(self, analytic, measured):
        with pytest.raises(InvariantViolation, match="exceeds"):
            self._report(min(2.0, analytic, measured) + 1e-6, analytic, measured)
