"""Purification alignment: cross operator, polar isometry, distance guarantees."""

import time

import numpy as np
import pytest

from qsr.decoupling import CutPartition
from qsr.iid import TypicalSpec, iid_experiment
from qsr.presets import PRESET_ROLES, preset_state
from qsr.protocol import build_plan
from qsr.qstate import (
    DEFAULT_GUARD,
    GuardExceededError,
    InvariantViolation,
    LayoutError,
    LinearMap,
    PureState,
    SystemLayout,
    apply,
    basis_state,
    maximally_entangled,
    permute,
    vector_partial_trace,
)
from qsr.sampling import SeededStream, haar_unitary_matrix, random_pure_state
from qsr.uhlmann import FactoredIsometry, UhlmannResult, _align, _householder, cross_operator, uhlmann_isometry

from oracles import uhlmann_fidelity, uhlmann_polar


def _pair(tag, d_a=3, d_b=2, d_c=4, noise=0.05):
    """A random purification on A (x) B and a noisy embedded partner on A (x) C."""
    mu = random_pure_state(SystemLayout.of(("A", d_a), ("B", d_b)), SeededStream(70).derive(tag))
    rng = SeededStream(71).derive(tag).generator()
    emb = np.zeros((d_a, d_c), dtype=complex)
    emb[:, :d_b] = mu.amplitudes.reshape(d_a, d_b)
    vec = emb.reshape(-1) + noise * (rng.standard_normal(d_a * d_c) + 1j * rng.standard_normal(d_a * d_c))
    vec /= np.linalg.norm(vec)
    nu = PureState(SystemLayout.of(("A", d_a), ("C", d_c)), vec)
    return mu, nu


class TestCrossOperator:
    def test_self_pair_is_conjugate_marginal(self):
        mu = random_pure_state(SystemLayout.of(("A", 3), ("B", 2)), SeededStream(72))
        x = cross_operator(mu, mu, ["A"])
        marg = vector_partial_trace(mu.amplitudes, mu.layout.dims, [1])
        np.testing.assert_allclose(x, marg.conj(), atol=1e-12)
        # Hermitian PSD either way.
        np.testing.assert_allclose(x, x.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(x).min() > -1e-12

    def test_real_self_pair_equals_marginal(self):
        amps = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
        mu = PureState(SystemLayout.of(("A", 2), ("B", 2)), amps)
        x = cross_operator(mu, mu, ["A"])
        marg = vector_partial_trace(amps, (2, 2), [1])
        np.testing.assert_allclose(x, marg, atol=1e-12)

    def test_single_entry_case(self):
        mu = basis_state(SystemLayout.of(("A", 2), ("B", 2)), [0, 0])
        nu = basis_state(SystemLayout.of(("A", 2), ("C", 2)), [0, 1])
        x = cross_operator(mu, nu, ["A"])
        want = np.zeros((2, 2))
        want[1, 0] = 1.0  # links |0>_B to |1>_C
        np.testing.assert_allclose(x, want, atol=1e-12)

    def test_nuclear_norm_equals_fidelity(self):
        for tag in range(20):
            mu, nu = _pair(tag)
            x = cross_operator(mu, nu, ["A"])
            nuc = float(np.linalg.svd(x, compute_uv=False).sum())
            mu_a = vector_partial_trace(mu.amplitudes, mu.layout.dims, [0])
            nu_a = vector_partial_trace(nu.amplitudes, nu.layout.dims, [0])
            assert abs(nuc - uhlmann_fidelity(mu_a, nu_a)) < 1e-9

    def test_shared_dim_mismatch(self):
        mu = random_pure_state(SystemLayout.of(("A", 3), ("B", 2)), SeededStream(73))
        nu = random_pure_state(SystemLayout.of(("A", 2), ("C", 4)), SeededStream(74))
        with pytest.raises(LayoutError):
            cross_operator(mu, nu, ["A"])

    def test_oversized_purifier_refused(self):
        mu = random_pure_state(SystemLayout.of(("A", 2), ("B", 4)), SeededStream(75))
        nu = random_pure_state(SystemLayout.of(("A", 2), ("C", 2)), SeededStream(76))
        with pytest.raises(LayoutError):
            cross_operator(mu, nu, ["A"])


def _check_householder_completion(head, count):
    """Columns k .. k+count-1 of Q = I - Y T Y^H are orthonormal, orthogonal to head, and Q[:, :k] R = head."""
    d, k = head.shape
    y, t, r = _householder(head)
    lead = np.eye(d, k) - y @ (t @ y[:k].conj().T)
    tail = -(y @ (t @ y[k : k + count].conj().T))
    tail[k : k + count] += np.eye(count)
    np.testing.assert_allclose(tail.conj().T @ tail, np.eye(count), atol=1e-10)
    np.testing.assert_allclose(head.conj().T @ tail, 0.0, atol=1e-10)
    np.testing.assert_allclose(lead @ r, head, atol=1e-10)


class TestUhlmannIsometry:
    def test_rotated_purification_aligns_exactly(self):
        # nu = (I (x) u) Phi has the same marginal as Phi: overlap 1, distance ~0.
        phi = maximally_entangled(2, ("A", "B"))
        u = haar_unitary_matrix(2, SeededStream(77).generator())
        rot = LinearMap(SystemLayout.of(("B", 2)), SystemLayout.of(("C", 2)), u, "unitary")
        nu = apply(rot, phi, ["B"])
        res = uhlmann_isometry(phi, nu, ["A"])
        assert res.achieved_overlap > 1.0 - 1e-10
        assert res.distance_out < 1e-9
        assert res.epsilon_in < 1e-10

    def test_self_alignment_acts_as_identity_on_support(self):
        mu = random_pure_state(SystemLayout.of(("A", 3), ("B", 2)), SeededStream(78))
        res = uhlmann_isometry(mu, mu, ["A"])
        assert res.achieved_overlap > 1.0 - 1e-10
        moved = apply(res.isometry, mu, ["B"])
        np.testing.assert_allclose(moved.amplitudes, mu.amplitudes, atol=1e-9)

    def test_isometry_contract(self):
        for tag in range(10):
            mu, nu = _pair(tag)
            k = uhlmann_isometry(mu, nu, ["A"]).isometry.matrix
            np.testing.assert_allclose(k.conj().T @ k, np.eye(k.shape[1]), atol=1e-10)

    def test_two_sqrt_eps_bound_on_perturbed_pairs(self):
        for tag in range(50):
            mu, nu = _pair(tag, noise=0.05)
            res = uhlmann_isometry(mu, nu, ["A"])
            assert res.distance_out <= 2.0 * np.sqrt(res.epsilon_in) + 1e-8

    def test_distance_overlap_identity(self):
        for tag in range(20):
            mu, nu = _pair(tag, noise=0.2)
            res = uhlmann_isometry(mu, nu, ["A"])
            want = 2.0 * np.sqrt(max(0.0, 1.0 - res.achieved_overlap**2))
            assert abs(res.distance_out - want) < 1e-9

    def test_polar_choice_maximizes_overlap(self):
        mu, nu = _pair(3, noise=0.3)
        res = uhlmann_isometry(mu, nu, ["A"])
        nu_perm = permute(nu, ("A", "C"))
        rng = SeededStream(79).generator()
        for _ in range(100):
            k = haar_unitary_matrix(4, rng)[:, :2]
            cand = LinearMap(SystemLayout.of(("B", 2)), SystemLayout.of(("C", 4)), k, "isometry")
            moved = apply(cand, mu, ["B"])
            ov = abs(np.vdot(permute(nu, moved.layout.labels).amplitudes, moved.amplitudes))
            assert ov <= res.achieved_overlap + 1e-9
        assert nu_perm.layout.labels == ("A", "C")

    def test_rank_deficient_cross_operator_completion(self):
        # Product states give a rank-1 cross operator; the null space must be
        # completed to a genuine isometry.
        mu = basis_state(SystemLayout.of(("A", 2), ("B", 2)), [0, 0])
        nu = basis_state(SystemLayout.of(("A", 2), ("C", 3)), [0, 1])
        res = uhlmann_isometry(mu, nu, ["A"])
        k = res.isometry.matrix
        np.testing.assert_allclose(k.conj().T @ k, np.eye(2), atol=1e-10)
        assert res.achieved_overlap > 1.0 - 1e-10
        assert res.distance_out < 1e-9

    def test_global_phase_invariance(self):
        # The achieved overlap is fixed real nonnegative, so a global phase on
        # either purification changes nothing.
        mu, nu = _pair(5, noise=0.1)
        base = uhlmann_isometry(mu, nu, ["A"])
        rotated = PureState(nu.layout, np.exp(0.7j) * nu.amplitudes)
        res = uhlmann_isometry(mu, rotated, ["A"])
        assert res.achieved_overlap == base.achieved_overlap
        assert res.distance_out == base.distance_out

    def test_completion_scales_to_wide_targets(self):
        # Large rank-deficient cross operators appear when the protocol's
        # encoder target is much bigger than its input; the completion must
        # stay fast and exactly orthonormal.
        rng = SeededStream(82).generator()
        d, k, count = 20_000, 16, 200
        head = np.linalg.qr(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))[0]
        t0 = time.perf_counter()
        _check_householder_completion(head, count)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"completion took {elapsed:.1f} s"

    @pytest.mark.parametrize("d,k", [(4, 2), (512, 256)])
    def test_completion_of_paired_columns(self, d, k):
        # Columns (e_2i + e_2i+1)/sqrt 2 give every row the same mass, so no
        # choice of standard-basis rows is favoured; the reflectors must
        # complete them all the same.
        head = np.zeros((d, k), dtype=complex)
        head[2 * np.arange(k), np.arange(k)] = head[2 * np.arange(k) + 1, np.arange(k)] = 0.5**0.5
        t0 = time.perf_counter()
        _check_householder_completion(head, d - k)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"completion took {elapsed:.1f} s"

    def test_completion_with_zero_reflectors(self):
        # Columns already in R form (zero below the real diagonal) give
        # tau = 0 reflectors, which the T recursion must carry through.
        head = np.zeros((6, 3), dtype=complex)
        head[np.arange(3), np.arange(3)] = [1.0, 0.5, 2.0]
        head[0, 1:] = [0.3 + 0.1j, -0.2j]
        head[4, 2] = 1.0  # one reflector that does act
        tau = np.linalg.qr(head, mode="raw")[1]
        assert np.count_nonzero(tau == 0) == 2
        _check_householder_completion(head, 3)

    def test_multi_label_shared_systems(self):
        lay_mu = SystemLayout.of(("A1", 2), ("A2", 2), ("B", 3))
        lay_nu = SystemLayout.of(("A2", 2), ("C", 3), ("A1", 2))
        mu = random_pure_state(lay_mu, SeededStream(80))
        nu = random_pure_state(lay_nu, SeededStream(81))
        res = uhlmann_isometry(mu, nu, ["A1", "A2"])
        k = res.isometry.matrix
        np.testing.assert_allclose(k.conj().T @ k, np.eye(3), atol=1e-10)
        assert res.isometry.input_layout.labels == ("B",)
        assert res.isometry.output_layout.labels == ("C",)


def _tied_rows(d_s, d_own, label, angle):
    """GHZ-like purification on S (x) own: cos|0>|p0> + sin|1>|p1>, p_j = (e_2j + e_2j+1)/sqrt 2."""
    amps = np.zeros((d_s, d_own), dtype=complex)
    amps[0, [0, 1]] = np.cos(angle) * 0.5**0.5
    amps[1, [2, 3]] = np.sin(angle) * 0.5**0.5
    return PureState(SystemLayout.of(("S", d_s), (label, d_own)), amps)


def _wide_random(tag, d_s, d_b, d_c):
    mu = random_pure_state(SystemLayout.of(("S", d_s), ("B", d_b)), SeededStream(83).derive(tag))
    nu = random_pure_state(SystemLayout.of(("S", d_s), ("C", d_c)), SeededStream(84).derive(tag))
    return mu, nu


WIDE_PAIRS = {
    "random-2-8-16": lambda: _wide_random(0, 2, 8, 16),
    "random-3-8-8": lambda: _wide_random(1, 3, 8, 8),
    "random-1-4-6": lambda: _wide_random(2, 1, 4, 6),
    "noisy-2-8-16": lambda: _pair(7, d_a=2, d_b=8, d_c=16, noise=0.1),
    "tied-exact-8-8": lambda: (_tied_rows(2, 8, "B", np.pi / 4), _tied_rows(2, 8, "C", np.pi / 4)),
    "tied-tilted-8-16": lambda: (_tied_rows(2, 8, "B", np.pi / 4), _tied_rows(2, 16, "C", 0.6)),
}


class TestFactoredAlignment:
    """d_S < d_B: the polar factor comes from the d_S x d_S core, not a dense SVD."""

    @pytest.mark.parametrize("case", sorted(WIDE_PAIRS))
    def test_matches_dense_polar_oracle(self, case):
        mu, nu = WIDE_PAIRS[case]()  # both list the shared label first
        shared, d_s = mu.layout.subsystems[0]
        overlap, eps_in, distance = uhlmann_polar(
            mu.amplitudes.reshape(d_s, -1), nu.amplitudes.reshape(d_s, -1)
        )
        res = uhlmann_isometry(mu, nu, [shared])
        assert abs(res.achieved_overlap - overlap) < 1e-12
        assert abs(res.epsilon_in - eps_in) < 1e-12
        assert abs(res.distance_out - distance) < 1e-12
        k = res.isometry.matrix
        np.testing.assert_allclose(k.conj().T @ k, np.eye(k.shape[1]), atol=1e-10)

    def test_shared_labels_in_different_orders(self):
        # nu lists the shared labels in the opposite order; both marginals must
        # still be compared in one basis.
        mu = random_pure_state(SystemLayout.of(("S1", 2), ("S2", 2), ("B", 8)), SeededStream(85))
        nu = random_pure_state(SystemLayout.of(("S2", 2), ("C", 8), ("S1", 2)), SeededStream(86))
        n = nu.amplitudes.reshape(2, 8, 2).transpose(2, 0, 1).reshape(4, 8)
        overlap, eps_in, distance = uhlmann_polar(mu.amplitudes.reshape(4, 8), n)
        res = uhlmann_isometry(mu, nu, ["S1", "S2"])
        assert abs(res.achieved_overlap - overlap) < 1e-12
        assert abs(res.epsilon_in - eps_in) < 1e-12
        assert abs(res.distance_out - distance) < 1e-12


def _assert_matches_dense(iso, rng):
    """apply and adjoint of ``iso`` against its dense export, on random matrices of several rows."""
    k = iso.to_linear_map().matrix
    d_out, d_in = k.shape
    x = rng.standard_normal((6, d_in)) + 1j * rng.standard_normal((6, d_in))
    np.testing.assert_allclose(iso.apply(x), x @ k.T, rtol=0.0, atol=1e-12)
    y = rng.standard_normal((6, d_out)) + 1j * rng.standard_normal((6, d_out))
    np.testing.assert_allclose(iso.adjoint(y), y @ k.conj(), rtol=0.0, atol=1e-12)


class TestFactoredIsometry:
    def test_apply_and_adjoint_match_the_dense_export(self):
        # Random d_C = 4 states over all six cuts, and the i.i.d. presets whose
        # targets are widest at n = 5; the reflector form, the dense form and
        # the closed form U^H (x) I_rest with rest > 1 must all occur.
        rng = SeededStream(87).generator()
        isos = []
        layout = SystemLayout.of(("C", 4), ("A", 2), ("B", 2), ("R", 2))
        for tag in range(2):
            phi = random_pure_state(layout, SeededStream(88).derive(tag))
            for cut in [(1, 1, 4), (1, 2, 2), (1, 4, 1), (2, 1, 2), (2, 2, 1), (4, 1, 1)]:
                plan = build_plan(phi, PRESET_ROLES, CutPartition(*cut), stream=SeededStream(89).derive(tag))
                isos += [plan.encoder_alignment.isometry, plan.decoder_alignment.isometry]
        for preset in ("bell-CA", "bell-CB", "ghz-CBR"):
            rep = iid_experiment(preset_state(preset), PRESET_ROLES, TypicalSpec(n=5, delta=0.05), SeededStream(90))
            isos += [rep.plan.encoder_alignment.isometry, rep.plan.decoder_alignment.isometry]
        assert {(iso.y is None, iso.rest > 1) for iso in isos} == {(False, False), (True, False), (True, True)}
        u = haar_unitary_matrix(3, SeededStream(86).generator())
        six, six_p = SystemLayout.of(("C", 3), ("A", 2)), SystemLayout.of(("Cp", 3), ("Ap", 2))
        isos.append(FactoredIsometry(six, six_p, u, rest=2))
        for iso in isos:
            if iso.rest > 1:  # the dense export goes through apply: check it against np.kron
                want = np.kron(iso.z, np.eye(iso.rest))
                np.testing.assert_allclose(iso.to_linear_map().matrix, want, rtol=0.0, atol=1e-12)
            _assert_matches_dense(iso, rng)

    def test_perturbed_factors_are_refused(self):
        mu, nu = _wide_random(3, 2, 8, 16)  # d_S = 2 < d_B = 8: the reflector branch
        iso, _, _ = _align(mu.amplitudes.reshape(2, 8), nu.amplitudes.reshape(2, 16),
                           mu.layout.restrict(["B"]), nu.layout.restrict(["C"]))
        assert iso.y is not None
        def nudged(a):
            a = a.copy()
            a[0, 0] += 1e-3
            return a

        factors, dense = {"z": iso.z, "y": iso.y, "t": iso.t}, {"z": iso.to_linear_map().matrix}
        for good in (factors, dense):
            FactoredIsometry(iso.input_layout, iso.output_layout, **good)
        # A nudged y leaves Z unitary: only the WY identity T + T^H = T^H (Y^H Y) T catches it.
        for bad in (*({**factors, name: nudged(f)} for name, f in factors.items()), {"z": nudged(dense["z"])}):
            with pytest.raises(InvariantViolation):
                FactoredIsometry(iso.input_layout, iso.output_layout, **bad)

    def test_malformed_identity_factors_are_refused(self):
        # K = z (x) I_rest: rest must divide both dims, z must be their quotient,
        # a nudged z is caught at its own size, and reflectors take no rest.
        u = haar_unitary_matrix(3, SeededStream(85).generator())
        six, six_p = SystemLayout.of(("C", 3), ("A", 2)), SystemLayout.of(("Cp", 3), ("Ap", 2))
        FactoredIsometry(six, six_p, u, rest=2)
        for z, rest in ((u, 4), (u, 3), (np.eye(6), 2)):
            with pytest.raises(LayoutError):
                FactoredIsometry(six, six_p, z, rest=rest)
        with pytest.raises(InvariantViolation):
            FactoredIsometry(six, six_p, u + 1e-3, rest=2)
        mu, nu = _wide_random(3, 2, 8, 16)
        iso, _, _ = _align(mu.amplitudes.reshape(2, 8), nu.amplitudes.reshape(2, 16),
                           mu.layout.restrict(["B"]), nu.layout.restrict(["C"]))
        with pytest.raises(LayoutError):
            FactoredIsometry(iso.input_layout, iso.output_layout, iso.z, iso.y, iso.t, rest=2)

    def test_dense_export_is_refused_above_the_guard(self):
        # bell-CA n = 6 runs with its 65536 x 256 encoder kept factored; only
        # the dense export would exceed the guard.
        rep = iid_experiment(preset_state("bell-CA"), PRESET_ROLES, TypicalSpec(n=6, delta=0.05), SeededStream(91))
        enc = rep.plan.encoder_alignment.isometry
        assert enc.output_layout.total_dim * enc.input_layout.total_dim > DEFAULT_GUARD
        with pytest.raises(GuardExceededError):
            enc.to_linear_map()
        assert rep.protocol.distance_to_target <= 1e-6


class TestUhlmannResult:
    def test_guarantee_holds_at_its_limit(self):
        UhlmannResult(None, achieved_overlap=1.0, epsilon_in=0.01, distance_out=0.2)

    @pytest.mark.parametrize("overlap,eps,distance,match", [
        (1.5, 0.0, 0.0, "overlap"),
        (-0.1, 0.0, 0.0, "overlap"),
        (0.9, 0.01, 0.21, r"2\*sqrt\(eps\)"),
    ])
    def test_violations_rejected(self, overlap, eps, distance, match):
        with pytest.raises(InvariantViolation, match=match):
            UhlmannResult(None, achieved_overlap=overlap, epsilon_in=eps, distance_out=distance)
