"""State algebra: layouts, tensor ops, partial traces, purification."""

import numpy as np
import pytest

from qsr.qstate import (
    DensityOperator,
    InvariantViolation,
    LayoutError,
    LinearMap,
    PureState,
    SystemLayout,
    apply,
    basis_state,
    maximally_entangled,
    maximally_mixed,
    merge_subsystems,
    partial_trace,
    permute,
    purify,
    reinterpret,
    relabel,
    split_subsystem,
    state_from_json,
    state_to_json,
    tensor,
)
from qsr.sampling import SeededStream, haar_unitary, random_pure_state

from oracles import loop_partial_trace, loop_vector_partial_trace


def qubits(*labels):
    return SystemLayout.of(*((lab, 2) for lab in labels))


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            SystemLayout.of(("C", 2), ("C", 3))

    def test_zero_dimension_rejected(self):
        with pytest.raises(LayoutError):
            SystemLayout.of(("C", 0))

    def test_total_dim_is_product(self):
        assert SystemLayout.of(("C", 2), ("B", 3), ("X", 1)).total_dim == 6


class TestTensor:
    def test_dimension_arithmetic(self):
        a = basis_state(SystemLayout.of(("C", 2)), [0])
        b = basis_state(SystemLayout.of(("B", 3)), [0])
        assert tensor(a, b).layout.total_dim == 6

    def test_mixed_radix_index(self):
        # |0>_C (x) |1>_B lands at index 0*3 + 1 = 1
        a = basis_state(SystemLayout.of(("C", 2)), [0])
        b = basis_state(SystemLayout.of(("B", 3)), [1])
        t = tensor(a, b)
        assert np.argmax(np.abs(t.amplitudes)) == 1

    def test_maximally_mixed_composition(self):
        p4 = tensor(maximally_mixed(2, "X"), maximally_mixed(2, "Y"))
        np.testing.assert_allclose(p4.matrix, np.eye(4) / 4, atol=1e-15)

    def test_duplicate_label_conflict(self):
        a = basis_state(SystemLayout.of(("C", 2)), [0])
        with pytest.raises(LayoutError):
            tensor(a, a)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        bell = maximally_entangled(2, ("C", "A"))
        np.testing.assert_allclose(partial_trace(bell, ["C"]).matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_basis_state(self):
        s = basis_state(qubits("Q1", "Q2"), [0, 1])
        np.testing.assert_allclose(
            partial_trace(s, ["Q1"]).matrix, np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_random_three_qubit_trace_and_psd(self):
        rng_stream = SeededStream(42)
        for tag in range(5):
            psi = random_pure_state(qubits("X", "Y", "Z"), rng_stream.derive(tag))
            red = partial_trace(psi, ["X", "Z"])
            assert abs(red.matrix.trace().real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(red.matrix).min() > -1e-12

    def test_matches_loop_oracle(self):
        psi = random_pure_state(SystemLayout.of(("X", 2), ("Y", 3), ("Z", 2)), SeededStream(7))
        got = partial_trace(psi, ["Y"]).matrix
        want = loop_vector_partial_trace(psi.amplitudes, (2, 3, 2), [1])
        np.testing.assert_allclose(got, want, atol=1e-12)

        rho = psi.projector()
        got2 = partial_trace(rho, ["X", "Z"]).matrix
        want2 = loop_partial_trace(rho.matrix, (2, 3, 2), [0, 2])
        np.testing.assert_allclose(got2, want2, atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(LayoutError):
            partial_trace(maximally_entangled(2, ("C", "A")), ["Q"])

    def test_keeps_original_order(self):
        psi = random_pure_state(SystemLayout.of(("X", 2), ("Y", 3), ("Z", 2)), SeededStream(3))
        red = partial_trace(psi, ["Z", "X"])  # request order must not matter
        assert red.layout.labels == ("X", "Z")


class TestApply:
    def test_bit_flip_on_second_qubit(self):
        s = basis_state(qubits("Q1", "Q2"), [0, 0])
        x = LinearMap(qubits("Q2"), qubits("Q2"), np.array([[0, 1], [1, 0]]), "unitary")
        assert np.argmax(np.abs(apply(x, s, ["Q2"]).amplitudes)) == 1

    def test_identity_changes_nothing(self):
        psi = random_pure_state(qubits("Q1", "Q2"), SeededStream(1))
        ident = LinearMap(qubits("Q1"), qubits("Q1"), np.eye(2), "unitary")
        np.testing.assert_allclose(apply(ident, psi, ["Q1"]).amplitudes, psi.amplitudes)

    def test_isometry_embedding_preserves_other_marginal(self):
        bell = maximally_entangled(2, ("C", "A"))
        before = partial_trace(bell, ["C"]).matrix
        v = np.zeros((3, 2), dtype=complex)
        v[0, 0] = v[2, 1] = 1.0  # qubit -> qutrit embedding
        emb = LinearMap(SystemLayout.of(("A", 2)), SystemLayout.of(("A", 3)), v, "isometry")
        after = partial_trace(apply(emb, bell, ["A"]), ["C"]).matrix
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_isometry_preserves_norm_and_trace(self):
        psi = random_pure_state(qubits("Q1", "Q2"), SeededStream(2))
        v = np.linalg.qr(SeededStream(3).generator().standard_normal((5, 2)))[0]
        emb = LinearMap(SystemLayout.of(("Q2", 2)), SystemLayout.of(("W", 5)), v, "isometry")
        out = apply(emb, psi, ["Q2"])
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10
        out_rho = apply(emb, psi.projector(), ["Q2"])
        assert abs(out_rho.matrix.trace().real - 1.0) < 1e-10

    def test_density_apply_matches_vector_apply(self):
        psi = random_pure_state(SystemLayout.of(("X", 2), ("Y", 3)), SeededStream(4))
        u = haar_unitary(3, SeededStream(5), label="Y")
        via_vec = apply(u, psi, ["Y"]).projector().matrix
        via_mat = apply(u, psi.projector(), ["Y"]).matrix
        np.testing.assert_allclose(via_vec, via_mat, atol=1e-12)

    def test_dim_mismatch(self):
        s = basis_state(qubits("Q1", "Q2"), [0, 0])
        bad = LinearMap(SystemLayout.of(("X", 3)), SystemLayout.of(("X", 3)), np.eye(3), "unitary")
        with pytest.raises(LayoutError):
            apply(bad, s, ["Q2"])

    def test_multi_target_replacement_position(self):
        psi = random_pure_state(SystemLayout.of(("P", 2), ("Q", 2), ("S", 2)), SeededStream(6))
        swap = np.eye(4)[[0, 2, 1, 3]]
        m = LinearMap(qubits("P", "S"), qubits("P2", "S2"), swap, "unitary")
        out = apply(m, psi, ["P", "S"])
        assert out.layout.labels == ("P2", "S2", "Q")


class TestPurify:
    def test_rank_one_gives_product(self):
        rho = DensityOperator(SystemLayout.of(("X", 2)), np.diag([1.0, 0.0]))
        pure = purify(rho, "P")
        assert pure.layout.dims == (2, 1)

    def test_maximally_mixed_purifies_to_bell(self):
        pure = purify(maximally_mixed(2, "X"), "P")
        np.testing.assert_allclose(
            partial_trace(pure, ["X"]).matrix, np.eye(2) / 2, atol=1e-12
        )

    def test_skewed_spectrum_roundtrip(self):
        rho = DensityOperator(SystemLayout.of(("X", 2)), np.diag([0.9, 0.1]))
        back = partial_trace(purify(rho, "P"), ["X"])
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_random_density_roundtrip(self):
        from qsr.sampling import random_density

        rho = random_density(SystemLayout.of(("X", 4)), 3, SeededStream(8))
        pure = purify(rho, "P")
        assert pure.layout.dims == (4, 3)
        np.testing.assert_allclose(partial_trace(pure, ["X"]).matrix, rho.matrix, atol=1e-9)


class TestSplitMerge:
    def test_split_to_three_qubits(self):
        lay = split_subsystem(SystemLayout.of(("C", 8)), "C", (("C1", 2), ("C2", 2), ("C3", 2)))
        assert lay.dims == (2, 2, 2)

    def test_degenerate_factors_allowed(self):
        lay = split_subsystem(SystemLayout.of(("C", 4)), "C", (("C1", 1), ("C2", 4), ("C3", 1)))
        assert lay.dims == (1, 4, 1)

    def test_product_mismatch_rejected(self):
        with pytest.raises(LayoutError):
            split_subsystem(SystemLayout.of(("C", 6)), "C", (("C1", 2), ("C2", 2), ("C3", 2)))

    def test_split_then_merge_is_bit_exact(self):
        psi = random_pure_state(SystemLayout.of(("C", 8), ("S", 3)), SeededStream(9))
        split_lay = split_subsystem(psi.layout, "C", (("C1", 2), ("C2", 2), ("C3", 2)))
        split_state = reinterpret(psi, split_lay)
        merged_lay = merge_subsystems(split_lay, ["C1", "C2", "C3"], "C")
        back = reinterpret(split_state, merged_lay)
        assert back.amplitudes.tobytes() == psi.amplitudes.tobytes()

    def test_merge_requires_consecutive(self):
        lay = SystemLayout.of(("X", 2), ("Y", 2), ("Z", 2))
        with pytest.raises(LayoutError):
            merge_subsystems(lay, ["X", "Z"], "W")


class TestEntangledMixedConstructors:
    def test_dimension_one(self):
        s = maximally_entangled(1, ("X", "Y"))
        assert s.layout.total_dim == 1 and abs(s.amplitudes[0] - 1) < 1e-15
        assert maximally_mixed(1, "X").matrix.shape == (1, 1)

    def test_bell_marginals(self):
        bell = maximally_entangled(2, ("X", "Y"))
        for lab in ("X", "Y"):
            np.testing.assert_allclose(partial_trace(bell, [lab]).matrix, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mixed_purity(self, d):
        from qsr.metrics import purity

        assert abs(purity(maximally_mixed(d, "X")) - 1.0 / d) < 1e-12


class TestInvariants:
    def test_schmidt_symmetry(self):
        stream = SeededStream(10)
        for tag in range(10):
            psi = random_pure_state(SystemLayout.of(("X", 2), ("Y", 3), ("Z", 4)), stream.derive(tag))
            left = np.linalg.eigvalsh(partial_trace(psi, ["X", "Y"]).matrix)
            right = np.linalg.eigvalsh(partial_trace(psi, ["Z"]).matrix)
            left = np.sort(left[left > 1e-9])
            right = np.sort(right[right > 1e-9])
            np.testing.assert_allclose(left, right, atol=1e-9)

    def test_tensor_then_trace_returns_factor(self):
        a = random_pure_state(qubits("X"), SeededStream(11))
        b = random_pure_state(qubits("Y"), SeededStream(12))
        back = partial_trace(tensor(a, b), ["X"])
        np.testing.assert_allclose(back.matrix, a.projector().matrix, atol=1e-12)

    def test_permute_roundtrip(self):
        psi = random_pure_state(SystemLayout.of(("X", 2), ("Y", 3), ("Z", 2)), SeededStream(13))
        out = permute(permute(psi, ["Z", "X", "Y"]), ["X", "Y", "Z"])
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    def test_relabel_keeps_data(self):
        psi = random_pure_state(qubits("X", "Y"), SeededStream(14))
        out = relabel(psi, {"X": "W"})
        assert out.layout.labels == ("W", "Y")
        assert out.amplitudes.tobytes() == psi.amplitudes.tobytes()


class TestValidation:
    def test_unnormalized_pure_state_rejected(self):
        with pytest.raises(InvariantViolation):
            PureState(SystemLayout.of(("X", 2)), np.array([1.0, 1.0]))

    def test_non_hermitian_density_rejected(self):
        with pytest.raises(InvariantViolation):
            DensityOperator(SystemLayout.of(("X", 2)), np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_negative_density_rejected(self):
        with pytest.raises(InvariantViolation):
            DensityOperator(SystemLayout.of(("X", 2)), np.diag([1.5, -0.5]))

    def test_non_isometry_rejected(self):
        with pytest.raises(InvariantViolation):
            LinearMap(qubits("X"), qubits("Y"), np.array([[1, 1], [0, 1]]), "unitary")

    # A NaN compares false with every tolerance, so each check must fail on it.
    @pytest.mark.parametrize("index", [0, 1])
    def test_nan_amplitude_rejected(self, index):
        amps = np.array([1.0, 0.0], dtype=complex)
        amps[index] = np.nan
        with pytest.raises(InvariantViolation):
            PureState(SystemLayout.of(("X", 2)), amps)

    @pytest.mark.parametrize("index", [(0, 0), (0, 1), (1, 1)])
    def test_nan_density_entry_rejected(self, index):
        mat = np.eye(2, dtype=complex) / 2
        mat[index] = np.nan
        with pytest.raises(InvariantViolation):
            DensityOperator(SystemLayout.of(("X", 2)), mat)

    @pytest.mark.parametrize("kind", ["unitary", "isometry"])
    def test_nan_map_entry_rejected(self, kind):
        mat = np.eye(2, dtype=complex)
        mat[1, 0] = np.nan
        with pytest.raises(InvariantViolation):
            LinearMap(qubits("X"), qubits("Y"), mat, kind)


class TestStateFormat:
    def test_roundtrip_is_exact(self):
        psi = random_pure_state(qubits("C", "A"), SeededStream(15))
        back = state_from_json(state_to_json(psi))
        assert back.layout == psi.layout
        assert back.amplitudes.tobytes() == psi.amplitudes.tobytes()

    def test_format_version_required(self):
        with pytest.raises(LayoutError):
            state_from_json('{"subsystems": [], "amplitudes": []}')

    def test_serialization_is_deterministic(self):
        psi = random_pure_state(qubits("C", "A"), SeededStream(16))
        assert state_to_json(psi) == state_to_json(psi)
