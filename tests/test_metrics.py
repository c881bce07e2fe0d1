"""Distances, entropies, mutual informations, resource rates."""

import tracemalloc

import numpy as np
import pytest

from qsr.metrics import (
    ResourceRates,
    conditional_mutual_information,
    gram_trace_distance,
    hermitian_trace_distance,
    marginal_entropy,
    mutual_information,
    pure_trace_distance,
    purity,
    resource_rates,
    role_groups,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)
from qsr.presets import PRESET_ROLES, preset_state
from qsr.qstate import (
    DensityOperator,
    LayoutError,
    SystemLayout,
    basis_state,
    maximally_entangled,
    maximally_mixed,
)
from qsr.sampling import SeededStream, ginibre, random_density, random_pure_state

from oracles import eigvalsh_pure_trace_distance

FOUR_QUBITS = SystemLayout.of(("C", 2), ("A", 2), ("B", 2), ("R", 2))

# Binary entropy of (0.9, 0.1), frozen from -0.9 log2 0.9 - 0.1 log2 0.1.
H_09 = 0.4689955935892812


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        lay = SystemLayout.of(("X", 2))
        a = basis_state(lay, [0]).projector()
        b = basis_state(lay, [1]).projector()
        assert abs(trace_distance(a, b) - 2.0) < 1e-12

    def test_identical_states(self):
        rho = random_density(SystemLayout.of(("X", 3)), 2, SeededStream(0))
        assert trace_distance(rho, rho) == 0.0

    def test_overlap_formula_matches_eigenvalue_route(self):
        lay = SystemLayout.of(("X", 4))
        for tag in range(20):
            mu = random_pure_state(lay, SeededStream(1).derive(tag))
            nu = random_pure_state(lay, SeededStream(2).derive(tag))
            via_eigs = trace_distance(mu.projector(), nu.projector())
            ov = abs(np.vdot(mu.amplitudes, nu.amplitudes)) ** 2
            assert abs(via_eigs - 2.0 * np.sqrt(1.0 - ov)) < 1e-9

    def test_pure_fast_path_matches_dense(self):
        lay = SystemLayout.of(("X", 5))
        rng = SeededStream(3).generator()
        for _ in range(10):
            u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            uptr = u / np.linalg.norm(u)
            v_sub = 0.7 * v / np.linalg.norm(v)  # subnormalized on purpose
            dense = np.abs(
                np.linalg.eigvalsh(np.outer(u, u.conj()) / np.vdot(u, u).real - np.outer(v_sub, v_sub.conj()))
            ).sum()
            fast = pure_trace_distance(u / np.linalg.norm(u), v_sub)
            assert abs(dense - fast) < 1e-10

    def test_triangle_inequality_on_sampled_triples(self):
        lay = SystemLayout.of(("X", 3))
        for tag in range(30):
            r = [random_density(lay, 2, SeededStream(4).derive(3 * tag + k)) for k in range(3)]
            d01 = trace_distance(r[0], r[1])
            d12 = trace_distance(r[1], r[2])
            d02 = trace_distance(r[0], r[2])
            assert d02 <= d01 + d12 + 1e-9

    def test_layout_mismatch(self):
        with pytest.raises(LayoutError):
            trace_distance(maximally_mixed(2, "X"), maximally_mixed(2, "Y"))

    def test_trace_norm_requires_square(self):
        with pytest.raises(ValueError):
            trace_norm(np.ones((2, 3)))

    def test_trace_norm_is_the_sum_of_singular_values(self):
        rng = SeededStream(14).generator()
        for d in (1, 2, 3, 6):
            g = ginibre(d, d, rng)
            for m in (g, g + g.conj().T):  # non-Hermitian, then Hermitian
                expected = np.sqrt(np.clip(np.linalg.eigvalsh(m.conj().T @ m), 0.0, None)).sum()
                assert abs(trace_norm(m) - expected) <= 1e-12


class TestPureTraceDistanceEdgeCases:
    """The closed form against the 2 x 2 eigvalsh oracle where random pairs never land."""

    @staticmethod
    def _pair(tag: int, d: int = 16) -> tuple[np.ndarray, np.ndarray]:
        """A unit vector and a unit vector orthogonal to it."""
        rng = SeededStream(14).derive(tag).generator()
        u, w = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        u /= np.linalg.norm(u)
        w -= np.vdot(u, w) * u
        return u, w / np.linalg.norm(w)

    def test_orthogonal_states_are_at_distance_two(self):
        u, v = np.eye(6, dtype=complex)[[1, 4]]
        assert pure_trace_distance(u, v) == eigvalsh_pure_trace_distance(u, v) == 2.0
        u, v = self._pair(0)
        assert abs(pure_trace_distance(u, v) - 2.0) <= 1e-15
        assert abs(pure_trace_distance(u, v) - eigvalsh_pure_trace_distance(u, v)) <= 1e-15

    def test_collinear_subnormalized_pair(self):
        u, _ = self._pair(1)
        v = 0.6j * u  # |v|^2 = 0.36: the difference is rank one with trace 0.64
        for a, b in ((u, v), (v, u)):
            assert abs(pure_trace_distance(a, b) - 0.64) <= 1e-15
            assert abs(pure_trace_distance(a, b) - eigvalsh_pure_trace_distance(a, b)) <= 1e-15

    @pytest.mark.parametrize("distance", [1e-12, 1e-15])
    def test_nearly_equal_pairs(self, distance):
        for tag in range(5):
            u, w = self._pair(10 + tag)
            t = np.arcsin(distance / 2)
            v = np.cos(t) * u + np.sin(t) * w  # || uu* - vv* ||_1 = 2 sin t
            assert abs(pure_trace_distance(u, v) - eigvalsh_pure_trace_distance(u, v)) <= 1e-15
            if distance > 1e-15:  # above the collinear cut-off the closed form resolves 2 sin t
                assert abs(pure_trace_distance(u, v) - distance) <= 1e-15

    def test_zero_vector(self):
        u, _ = self._pair(2)
        zero = np.zeros_like(u)
        for a, b, want in ((zero, 0.5 * u, 0.25), (0.5 * u, zero, 0.25), (zero, zero, 0.0)):
            assert abs(pure_trace_distance(a, b) - want) <= 1e-15
            assert pure_trace_distance(a, b) == eigvalsh_pure_trace_distance(a, b)

    def test_symmetric_in_its_arguments(self):
        rng = SeededStream(15).generator()
        for d in range(2, 40):
            u, v = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
            u *= rng.uniform(0.1, 1.0) / np.linalg.norm(u)
            v *= rng.uniform(0.1, 1.0) / np.linalg.norm(v)  # subnormalized on purpose
            assert abs(pure_trace_distance(u, v) - pure_trace_distance(v, u)) <= 1e-15
            assert abs(pure_trace_distance(u, v) - eigvalsh_pure_trace_distance(u, v)) <= 1e-15

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_input_sized_temporary(self, order):
        # FactoredIsometry.apply returns a transposed, F-ordered matrix.  In either order, u is
        # read once into one C-ordered buffer that then holds u/nu, c u/nu and w in turn.
        rng = SeededStream(16).generator()
        u, v = rng.standard_normal((2, 512, 512)) + 1j * rng.standard_normal((2, 512, 512))
        u, v = np.asarray(u / np.linalg.norm(u), order=order), v / np.linalg.norm(v)
        before, want = u.copy(), pure_trace_distance(np.ascontiguousarray(u), v)
        tracemalloc.start()
        try:
            got = pure_trace_distance(u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= u.nbytes + 2**20, (peak, u.nbytes)
        assert got == want
        assert abs(got - eigvalsh_pure_trace_distance(u.reshape(-1), v.reshape(-1))) <= 1e-12
        assert np.array_equal(u, before)


class TestGramTraceDistance:
    @staticmethod
    def _factor(rng, d, k, rank):
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        f = g @ (rng.standard_normal((rank, k)) + 1j * rng.standard_normal((rank, k)))
        return f / np.linalg.norm(f)

    # (12, 2, 3) takes the thin-QR branch (k1 + k2 < d), (6, 4, 5) the dense one.
    @pytest.mark.parametrize("d,k1,k2", [(12, 2, 3), (6, 4, 5)])
    def test_matches_dense_difference_on_rank_deficient_factors(self, d, k1, k2):
        rng = SeededStream(5).derive(d).generator()
        for rank in (1, 2):
            a, b = self._factor(rng, d, k1, rank), self._factor(rng, d, k2, rank)
            want = hermitian_trace_distance(a @ a.conj().T, b @ b.conj().T)
            assert abs(gram_trace_distance(a, b) - want) < 1e-12

    @pytest.mark.parametrize("d,k", [(12, 3), (6, 4)])
    def test_equal_grams_give_zero(self, d, k):
        rng = SeededStream(6).derive(d).generator()
        a = self._factor(rng, d, k, 2)
        rotation = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
        assert gram_trace_distance(a, a) < 1e-12
        assert gram_trace_distance(a, a @ rotation) < 1e-12


class TestPurityEntropy:
    def test_purity_of_maximally_mixed(self):
        for d in (2, 3, 4):
            assert abs(purity(maximally_mixed(d, "X")) - 1.0 / d) < 1e-12

    def test_purity_of_pure_projector(self):
        psi = random_pure_state(SystemLayout.of(("X", 4)), SeededStream(5))
        assert abs(purity(psi.projector()) - 1.0) < 1e-10

    def test_purity_skewed(self):
        rho = DensityOperator(SystemLayout.of(("X", 2)), np.diag([0.9, 0.1]))
        assert abs(purity(rho) - 0.82) < 1e-12

    def test_entropy_of_pure_state(self):
        psi = random_pure_state(SystemLayout.of(("X", 4)), SeededStream(6))
        assert abs(von_neumann_entropy(psi.projector())) < 1e-9

    def test_entropy_of_maximally_mixed(self):
        for d in (2, 3, 8):
            assert abs(von_neumann_entropy(maximally_mixed(d, "X")) - np.log2(d)) < 1e-12

    def test_binary_entropy_value(self):
        rho = DensityOperator(SystemLayout.of(("X", 2)), np.diag([0.9, 0.1]))
        s = von_neumann_entropy(rho)
        assert abs(s - 0.468996) < 1e-5
        assert abs(s - H_09) < 1e-12


class TestMutualInformation:
    def test_maximally_entangled_pair(self):
        bell = maximally_entangled(2, ("C", "A"))
        assert abs(mutual_information(bell, ["C"], ["A"]) - 2.0) < 1e-9

    def test_ghz_conditional(self):
        # GHZ over C, B, R with trivial A: S(CB) = S(RB) = S(B) = 1, S(CRB) = 0.
        ghz = preset_state("ghz-CBR")
        cmi = conditional_mutual_information(ghz, ["C"], ["R"], ["B"])
        assert abs(cmi - 1.0) < 1e-9

    def test_strong_subadditivity_sweep(self):
        for tag in range(50):
            phi = random_pure_state(FOUR_QUBITS, SeededStream(7).derive(tag))
            assert conditional_mutual_information(phi, ["C"], ["R"], ["B"]) >= -1e-9
            assert conditional_mutual_information(phi, ["A"], ["B"], ["C"]) >= -1e-9

    def test_overlapping_sets_rejected(self):
        phi = random_pure_state(FOUR_QUBITS, SeededStream(8))
        with pytest.raises(LayoutError):
            mutual_information(phi, ["C"], ["C"])
        with pytest.raises(LayoutError):
            conditional_mutual_information(phi, ["C"], ["A"], ["C"])


class TestResourceRates:
    @pytest.mark.parametrize(
        "preset,expected",
        [("bell-CA", (0.0, 1.0, 0.0)), ("bell-CR", (1.0, 0.0, 0.0)), ("bell-CB", (0.0, 0.0, 1.0))],
    )
    def test_preset_trio(self, preset, expected):
        rates = resource_rates(preset_state(preset), PRESET_ROLES)
        got = (rates.qubits, rates.ebits_consumed, rates.ebits_distilled)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_net_rate_identity_exact(self):
        for tag in range(20):
            phi = random_pure_state(FOUR_QUBITS, SeededStream(9).derive(tag))
            rates = resource_rates(phi, PRESET_ROLES)
            assert rates.net_ebits == rates.ebits_consumed - rates.ebits_distilled

    def test_missing_role_rejected(self):
        phi = random_pure_state(FOUR_QUBITS, SeededStream(10))
        with pytest.raises(LayoutError):
            resource_rates(phi, {"C": "C", "A": "A", "B": "B", "R": "A"})

    def test_role_for_a_label_not_in_the_layout_rejected(self):
        with pytest.raises(LayoutError, match="not in the layout"):
            role_groups(FOUR_QUBITS.labels, {**PRESET_ROLES, "X": "R"})

    def test_rate_swap_under_ab_exchange(self):
        for tag in range(10):
            phi = random_pure_state(FOUR_QUBITS, SeededStream(11).derive(tag))
            fwd = resource_rates(phi, PRESET_ROLES)
            swapped = resource_rates(phi, {"C": "C", "A": "B", "B": "A", "R": "R"})
            assert abs(fwd.qubits - swapped.qubits) < 1e-9
            assert abs(fwd.ebits_consumed - swapped.ebits_distilled) < 1e-9
            assert abs(fwd.ebits_distilled - swapped.ebits_consumed) < 1e-9

    def test_negative_rate_rejected(self):
        with pytest.raises(Exception):
            ResourceRates(qubits=-1.0, ebits_consumed=0.0, ebits_distilled=0.0)


class TestGlobalPurityIdentities:
    def test_complement_symmetry(self):
        for tag in range(20):
            phi = random_pure_state(FOUR_QUBITS, SeededStream(12).derive(tag))
            for subset, complement in [(["C"], ["A", "B", "R"]), (["C", "B"], ["A", "R"])]:
                assert abs(marginal_entropy(phi, subset) - marginal_entropy(phi, complement)) < 1e-9

    def test_qubit_rate_exchange_symmetry(self):
        # I(C;R|B) = I(C;R|A) on globally pure states.
        for tag in range(20):
            phi = random_pure_state(FOUR_QUBITS, SeededStream(13).derive(tag))
            a = conditional_mutual_information(phi, ["C"], ["R"], ["B"])
            b = conditional_mutual_information(phi, ["C"], ["R"], ["A"])
            assert abs(a - b) < 1e-9

    def test_product_state_all_rates_zero(self):
        rates = resource_rates(preset_state("product"), PRESET_ROLES)
        np.testing.assert_allclose(
            [rates.qubits, rates.ebits_consumed, rates.ebits_distilled], [0, 0, 0], atol=1e-9
        )
