"""Seeded streams, Haar unitaries, random states."""

import numpy as np
import pytest

from qsr.qstate import LayoutError, SystemLayout
from qsr.metrics import purity
from qsr.sampling import (
    SeededStream,
    ginibre,
    haar_unitary,
    haar_unitary_batch,
    haar_unitary_matrix,
    random_density,
    random_pure_state,
)


class TestSeededStream:
    def test_bit_exact_reproducibility(self):
        a = SeededStream(123, 4).generator().standard_normal(64)
        b = SeededStream(123, 4).generator().standard_normal(64)
        assert a.tobytes() == b.tobytes()

    def test_distinct_streams_disagree(self):
        a = SeededStream(123, 0).generator().standard_normal(64)
        b = SeededStream(123, 1).generator().standard_normal(64)
        assert not np.allclose(a, b)

    def test_derive_is_deterministic_and_fresh(self):
        s = SeededStream(5, 2)
        assert s.derive(7) == s.derive(7)
        assert s.derive(7) != s.derive(8)
        assert s.derive(7) != s


class TestHaarUnitary:
    def test_dimension_one_is_phase(self):
        u = haar_unitary_matrix(1, SeededStream(0).generator())
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_unitarity_residual(self, d):
        u = haar_unitary_matrix(d, SeededStream(1).generator())
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12

    def test_first_entry_second_moment(self):
        # Haar: E|U_00|^2 = 1/d.  10^4 samples at d = 4, 3 sigma allowance.
        rng = SeededStream(2).generator()
        n = 10_000
        vals = np.empty(n)
        for i in range(n):
            vals[i] = abs(haar_unitary_matrix(4, rng)[0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 0.25) < 3 * se

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_batch_is_bit_identical_to_single_draws(self, d):
        # Reference: one QR of ginibre(d, d) per unitary.  150 draws as one
        # stack, as consecutive stacks of 64, 64 and 22 (150 is not a multiple
        # of 64), and one at a time must all consume the generator alike.
        def reference(rng):
            q, r = np.linalg.qr(ginibre(d, d, rng))
            diag = np.diagonal(r)
            return q * (diag / np.abs(diag))

        rng = SeededStream(9).generator()
        want = np.stack([reference(rng) for _ in range(150)])
        whole = haar_unitary_batch(150, d, SeededStream(9).generator())
        rng = SeededStream(9).generator()
        blocks = np.concatenate([haar_unitary_batch(k, d, rng) for k in (64, 64, 22)])
        rng = SeededStream(9).generator()
        singles = np.stack([haar_unitary_matrix(d, rng) for _ in range(150)])
        assert whole.shape == (150, d, d)
        for got in (whole, blocks, singles):
            assert np.array_equal(got, want)

    def test_linear_map_wrapper(self):
        m = haar_unitary(4, SeededStream(3), label="C")
        assert m.kind == "unitary" and m.input_layout.dims == (4,)

    def test_invalid_dimension(self):
        with pytest.raises(LayoutError):
            haar_unitary_matrix(0, SeededStream(0).generator())


class TestRandomStates:
    def test_pure_norm(self):
        psi = random_pure_state(SystemLayout.of(("X", 8)), SeededStream(4))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_rank_one_density_is_pure(self):
        rho = random_density(SystemLayout.of(("X", 4)), 1, SeededStream(5))
        assert abs(purity(rho) - 1.0) < 1e-9

    def test_full_rank_mean_purity_interior(self):
        d = 4
        vals = []
        for tag in range(1000):
            rho = random_density(SystemLayout.of(("X", d)), d, SeededStream(6).derive(tag))
            vals.append(purity(rho))
        mean = float(np.mean(vals))
        assert 1.0 / d < mean < 1.0
        assert min(vals) > 1.0 / d - 1e-12 and max(vals) < 1.0 + 1e-12

    def test_rank_out_of_range(self):
        with pytest.raises(LayoutError):
            random_density(SystemLayout.of(("X", 4)), 5, SeededStream(7))
        with pytest.raises(LayoutError):
            random_density(SystemLayout.of(("X", 4)), 0, SeededStream(7))

    def test_determinism_of_sampled_state(self):
        a = random_pure_state(SystemLayout.of(("X", 6)), SeededStream(8, 3))
        b = random_pure_state(SystemLayout.of(("X", 6)), SeededStream(8, 3))
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
