"""Decoupling bounds, residuals, Haar averages, and the unitary search."""

import tracemalloc

import numpy as np
import pytest

from qsr import decoupling
from qsr.decoupling import (
    KEEP_C1,
    KEEP_C2,
    HAAR_BLOCK_BYTES,
    CutPartition,
    bounds,
    condition_met,
    find_simultaneous_unitary,
    haar_average_check,
    residual,
    residual_stack,
    search_unitary,
    single_bound,
)
from qsr.decoupling import _difference, _factors, _purified, _residuals
from qsr.iid import TypicalSpec, iid_experiment
from qsr.metrics import hermitian_trace_distance
from qsr.qstate import (
    DEFAULT_GUARD,
    GuardExceededError,
    LayoutError,
    SystemLayout,
    basis_state,
    maximally_mixed,
    tensor,
)
from qsr.sampling import SeededStream, haar_unitary_batch, haar_unitary_matrix, random_density

from qsr.presets import PRESET_ROLES, preset_state

from oracles import decoupling_residuals, loop_partial_trace


def _rank2(d_c, d_side, tag, label="F"):
    return random_density(SystemLayout.of(("C", d_c), (label, d_side)), 2, SeededStream(50).derive(tag))


class TestBounds:
    def test_maximally_mixed_example(self):
        # pi_C (x) pi_F with d_C = 4, d_F = 2, cut (2,2,1): 4*2*(1/8)/2^2 = 0.25
        omega = tensor(maximally_mixed(4, "C"), maximally_mixed(2, "F"))
        assert abs(single_bound(omega, CutPartition(2, 2, 1), KEEP_C1) - 0.25) < 1e-12

    def test_pure_state_vacuous_regime(self):
        # Purity 1, d_C = d_F = 2, cut (2,1,1): alpha = 2*2*1/1 = 4; the
        # acceptance threshold 2 alpha = 8 then exceeds any eps^2 <= 4.
        bell = basis_state(SystemLayout.of(("C", 2), ("F", 2)), [0, 0])
        alpha = single_bound(bell.projector(), CutPartition(2, 1, 1), KEEP_C1)
        assert abs(alpha - 4.0) < 1e-12
        assert condition_met(2.0, alpha)

    def test_inverse_square_scaling_in_traced_dims(self):
        omega = _rank2(8, 2, 0)
        a1 = single_bound(omega, CutPartition(2, 2, 2), KEEP_C1)
        a2 = single_bound(omega, CutPartition(1, 4, 2), KEEP_C1)  # doubled d2
        assert abs(a1 / a2 - 4.0) < 1e-9

    def test_bounds_pair(self):
        omega = _rank2(8, 2, 1)
        psi = _rank2(8, 2, 2, label="E")
        b = bounds(omega, psi, CutPartition(2, 2, 2))
        assert b.alpha > 0 and b.beta > 0

    def test_dim_mismatch(self):
        omega = _rank2(8, 2, 3)
        psi = _rank2(4, 2, 4, label="E")
        with pytest.raises(LayoutError):
            bounds(omega, psi, CutPartition(2, 2, 2))


class TestResidual:
    def test_maximally_mixed_is_invariant(self):
        omega = tensor(maximally_mixed(4, "C"), maximally_mixed(2, "F"))
        for tag in range(5):
            u = haar_unitary_matrix(4, SeededStream(51).derive(tag).generator())
            assert residual(omega, u, CutPartition(2, 2, 1), KEEP_C1) < 1e-10

    def test_pure_state_on_c_alone(self):
        # d_C = 2, cut (2,1,1), keep C1: |1 - 1/2| + |0 - 1/2| = 1 for every U.
        pure_c = basis_state(SystemLayout.of(("C", 2)), [0]).projector()
        for tag in range(5):
            u = haar_unitary_matrix(2, SeededStream(52).derive(tag).generator())
            assert abs(residual(pure_c, u, CutPartition(2, 1, 1), KEEP_C1) - 1.0) < 1e-10

    def test_range_and_loop_oracle(self):
        omega = _rank2(8, 2, 5)
        p = CutPartition(2, 2, 2)
        for tag in range(5):
            u = haar_unitary_matrix(8, SeededStream(53).derive(tag).generator())
            eps = residual(omega, u, p, KEEP_C1)
            assert 0.0 <= eps <= 2.0

            # Oracle: rotate, then index-loop partial trace over C2 C3.
            full_u = np.kron(u, np.eye(2))
            rotated = full_u @ omega.matrix @ full_u.conj().T
            reduced = loop_partial_trace(rotated, (2, 2, 2, 2), [0, 3])
            side = loop_partial_trace(omega.matrix, (8, 2), [1])
            target = np.kron(np.eye(2) / 2, side)
            want = hermitian_trace_distance(reduced, target)
            assert abs(eps - want) < 1e-9

    def test_depends_only_on_reduced_object(self):
        # Recomputing the distance from the traced-out object reproduces the
        # residual exactly; the traced factors carry no other information.
        omega = _rank2(8, 2, 6)
        p = CutPartition(2, 2, 2)
        u = haar_unitary_matrix(8, SeededStream(54).generator())
        eps = residual(omega, u, p, KEEP_C2)
        full_u = np.kron(u, np.eye(2))
        rotated = full_u @ omega.matrix @ full_u.conj().T
        reduced = loop_partial_trace(rotated, (2, 2, 2, 2), [1, 3])
        side = loop_partial_trace(omega.matrix, (8, 2), [1])
        assert abs(eps - hermitian_trace_distance(reduced, np.kron(np.eye(2) / 2, side))) < 1e-12

    def test_identity_on_maximally_mixed_exact_zero(self):
        omega = tensor(maximally_mixed(8, "C"), maximally_mixed(2, "F"))
        eps = residual(omega, np.eye(8), CutPartition(2, 2, 2), KEEP_C1)
        assert eps < 1e-14


class TestResidualStack:
    @staticmethod
    def _oracle(rho, u, p, keep):
        """Rotate by U (x) 1, loop partial trace, trace norm from singular values."""
        d_c, side = rho.layout.dims[0], rho.layout.dims[1:]
        d_side = rho.layout.total_dim // d_c
        full_u = np.kron(u, np.eye(d_side))
        rotated = full_u @ rho.matrix @ full_u.conj().T
        side_axes = list(range(3, 3 + len(side)))
        keep_axis = 0 if keep == KEEP_C1 else 1
        reduced = loop_partial_trace(rotated, (p.d1, p.d2, p.d3) + side, [keep_axis] + side_axes)
        rho_side = loop_partial_trace(rho.matrix, (d_c,) + side, [a - 2 for a in side_axes])
        d_kept = (p.d1, p.d2)[keep_axis]
        target = np.kron(np.eye(d_kept) / d_kept, rho_side)
        return np.linalg.svd(reduced - target, compute_uv=False).sum()

    @pytest.mark.parametrize("keep", [KEEP_C1, KEEP_C2])
    @pytest.mark.parametrize(
        "side,cut,rank",
        [
            pytest.param((("F", 2),), (2, 2, 2), 3, id="side0-cut0"),
            pytest.param((("F", 2), ("G", 3)), (2, 2, 2), 3, id="side1-cut1"),  # two-factor side system
            pytest.param((("F", 2),), (1, 4, 2), 3, id="side2-cut2"),           # d1 = 1
            pytest.param((("F", 3),), (2, 4, 1), 3, id="side3-cut3"),           # d3 = 1
            pytest.param((("F", 8),), (2, 2, 2), 3, id="wide-side"),            # d_side = 8 > rank
            pytest.param((("F", 2),), (2, 2, 2), 1, id="rank-one"),             # one-dimensional purifier
        ],
    )
    def test_matches_loop_oracle(self, side, cut, rank, keep):
        rho = random_density(SystemLayout.of(("C", 8), *side), rank, SeededStream(64).derive(len(side)))
        p = CutPartition(*cut)
        us = haar_unitary_batch(3, 8, SeededStream(65).generator())
        got = residual_stack(rho, us, p, keep)
        assert got.shape == (3,)
        for u, eps in zip(us, got):
            assert abs(eps - self._oracle(rho, u, p, keep)) < 1e-12
            assert abs(eps - residual(rho, u, p, keep)) < 1e-14

    def test_stack_shape_must_match(self):
        with pytest.raises(LayoutError):
            residual_stack(_rank2(8, 2, 15), np.eye(4)[None], CutPartition(2, 2, 2), KEEP_C1)

    @pytest.mark.parametrize("us", [np.eye(8), np.eye(8)[None, None]], ids=["one-matrix", "4-d"])
    def test_stack_must_be_three_dimensional(self, us):
        with pytest.raises(LayoutError):
            residual_stack(_rank2(8, 2, 15), us, CutPartition(2, 2, 2), KEEP_C1)

    def test_partition_must_factor_dimension(self):
        with pytest.raises(LayoutError):
            residual_stack(_rank2(8, 2, 15), np.eye(8)[None], CutPartition(2, 2, 1), KEEP_C1)
        with pytest.raises(LayoutError):
            residual(_rank2(8, 2, 15), np.eye(8), CutPartition(2, 2, 3), KEEP_C2)


class TestResidualKernel:
    @pytest.mark.parametrize("keep", [KEEP_C1, KEEP_C2])
    @pytest.mark.parametrize("case", ["random", "ghz"])
    def test_equals_the_subtract_then_eigvalsh_expression(self, case, keep):
        # The kernel subtracts its target in place.  On a full-support operand
        # that must leave every residual bit-identical.  ghz-CBR's side marginal
        # lives on 2 of its 4 strings, so the kernel's eigvalsh runs on the
        # live rows of the same (bit-identical) difference: only the solver's
        # rounding moves, within its backward-error bound n u ||D||.
        if case == "random":
            dims, side, cut = (8, 2, 3, 4), (1, 2), (2, 2, 2)
            rng = SeededStream(68).generator()
            vec = rng.standard_normal(192) + 1j * rng.standard_normal(192)
        else:
            ghz = preset_state("ghz-CBR")
            vec, dims, side, cut = ghz.amplitudes, ghz.dims, (2, 3), (1, 2, 1) if keep == KEEP_C2 else (2, 1, 1)
        us = haar_unitary_batch(5, dims[0], SeededStream(69).generator())
        got = _residuals(vec, dims, side, keep, CutPartition(*cut), us)
        want = decoupling_residuals(vec, dims, side, 0 if keep == KEEP_C1 else 1, cut, us)
        if case == "random":
            assert np.array_equal(got, want)
        else:
            n = 2 * dims[2] * dims[3]  # the difference's width, d_kept * d_side
            assert np.all(np.abs(got - want) <= 8 * n * np.finfo(float).eps * want), got - want

    @pytest.mark.parametrize("w", [1, 3, 8])
    @pytest.mark.parametrize("d_kept", [1, 2, 3])
    def test_difference_equals_the_kron_definition(self, d_kept, w):
        rng = SeededStream(70).derive(10 * d_kept + w).generator()
        m = rng.standard_normal((2, d_kept * w, 5)) + 1j * rng.standard_normal((2, d_kept * w, 5))
        s = rng.standard_normal((w, 4)) + 1j * rng.standard_normal((w, 4))
        want = m @ m.conj().transpose(0, 2, 1) - np.kron(np.eye(d_kept) / d_kept, s @ s.conj().T)
        assert np.array_equal(_difference(m, s, d_kept), want)

    @pytest.mark.parametrize("d_kept", [1, 2])
    def test_peak_memory_of_one_call(self, d_kept):
        # A 512-wide Gram: besides it, only S S^H / d_kept (1/d_kept^2 of
        # its size) may be alive.  A dense kron target, subtracted from the
        # Gram, peaks at two Gram-sized arrays whatever d_kept is.
        d_c, w = 4 * d_kept, 512 // d_kept
        rng = SeededStream(71).derive(d_kept).generator()
        vec = rng.standard_normal(d_c * w) + 1j * rng.standard_normal(d_c * w)
        args = (vec / np.linalg.norm(vec), (d_c, w), (1,), KEEP_C1, CutPartition(d_kept, 2, 2))
        us = haar_unitary_batch(1, d_c, rng)
        _residuals(*args, us)
        tracemalloc.start()
        try:
            _residuals(*args, us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1.25 + 1 / d_kept**2) * 512**2 * 16, peak / (512**2 * 16)


@pytest.fixture
def residual_spy(monkeypatch):
    """Records each ``_residuals`` call's operands and the widths of the ``eigvalsh`` calls it makes."""
    calls, inside = [], []
    kernel, eigvalsh = decoupling._residuals, np.linalg.eigvalsh

    def residuals(*args):
        calls.append((args, []))
        inside.append(calls[-1][1])
        try:
            return kernel(*args)
        finally:
            inside.pop()

    def spy(a, *rest, **kwargs):
        if inside:
            inside[-1].append(a.shape[-1])
        return eigvalsh(a, *rest, **kwargs)

    monkeypatch.setattr(decoupling, "_residuals", residuals)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def _support_rows(vec, dims, side, keep, cut):
    """(live, dropped) rows of the difference: k * d_side + s for side strings s where vec is or is not zero."""
    w = int(np.prod([dims[a] for a in side]))
    on = np.moveaxis(vec.reshape(dims), side, range(len(side))).reshape(w, -1).any(axis=1)
    rows = np.arange(cut[0 if keep == KEEP_C1 else 1] * w).reshape(-1, w)
    return rows[:, on].reshape(-1), rows[:, ~on].reshape(-1)


class TestResidualSupport:
    """The residual kernel's eigvalsh runs only on the rows of the side marginal's support."""

    @staticmethod
    def _assert_dropped_rows_are_zero(vec, dims, side, keep, p, us):
        cut = (p.d1, p.d2, p.d3)
        _, dropped = _support_rows(vec, dims, side, keep, cut)
        diff = _difference(*_factors(vec, dims, side, keep, p, us), cut[0 if keep == KEEP_C1 else 1])
        assert len(dropped) > 0
        assert not diff[:, dropped, :].any() and not diff[:, :, dropped].any()

    @staticmethod
    def _assert_live_block_is_bit_identical(vec, dims, side, keep, p, us):
        # The kernel forms each live row of the Gram against every column of
        # M^H, so every entry must be the full difference's; a square
        # M_live M_live^H rounds differently on tilted-ghz-CBR.
        live, _ = _support_rows(vec, dims, side, keep, (p.d1, p.d2, p.d3))
        m, s = _factors(vec, dims, side, keep, p, us)
        d_kept = len(m[0]) // len(s)
        full = _difference(m, s, d_kept)
        rows = live[: len(live) // d_kept]  # kept index 0: the live side strings themselves
        assert np.array_equal(_difference(m, s, d_kept, rows), full[:, live[:, None], live])

    @pytest.mark.parametrize("keep,cut", [(KEEP_C1, (2, 1, 1)), (KEEP_C2, (1, 2, 1))])
    def test_dropped_rows_of_ghz_are_exact_zeros(self, keep, cut):
        ghz = preset_state("ghz-CBR")
        us = haar_unitary_batch(4, 2, SeededStream(72).generator())
        self._assert_dropped_rows_are_zero(ghz.amplitudes, ghz.dims, (2, 3), keep, CutPartition(*cut), us)

    @pytest.mark.parametrize("preset,delta,widths", [
        ("ghz-CBR", 0.05, {64, 32}), ("tilted-ghz-CBR", 0.2, {5}), ("product", 0.1, {1}),
    ])
    def test_iid_residuals_run_on_the_support(self, residual_spy, preset, delta, widths):
        # At n = 5 these presets search a half whose side marginal lives on 32
        # (ghz), 5 (tilted) or 1 (product) of 1,024 strings: its full
        # difference is 1,024 wide.
        iid_experiment(preset_state(preset), PRESET_ROLES, TypicalSpec(n=5, delta=delta, t=1.5), SeededStream(73))
        assert residual_spy and {w for _, got in residual_spy for w in got} == widths
        for args, got in residual_spy:
            vec, dims, side, keep, p, us = args[:6]
            live, dropped = _support_rows(vec, dims, side, keep, (p.d1, p.d2, p.d3))
            assert got == [len(live)]
            if len(dropped):
                self._assert_dropped_rows_are_zero(vec, dims, side, keep, p, us)
                self._assert_live_block_is_bit_identical(vec, dims, side, keep, p, us)

    def test_full_support_keeps_full_width(self, residual_spy):
        rng = SeededStream(74).generator()
        vec = rng.standard_normal(192) + 1j * rng.standard_normal(192)
        us = haar_unitary_batch(3, 8, rng)
        decoupling._residuals(vec, (8, 2, 3, 4), (1, 2), KEEP_C1, CutPartition(2, 2, 2), us)
        assert residual_spy[0][1] == [2 * 6]

    @pytest.mark.parametrize("keep", [KEEP_C1, KEEP_C2])
    def test_live_rows_are_indexed_kept_factor_major(self, residual_spy, keep):
        # d_kept = 2 with side string 1 of 3 zero: the live rows are 0, 2, 3, 5
        # (k * 3 + s), not the 0, 1, 4, 5 of an index built as s * d_kept + k.
        rng = SeededStream(75).generator()
        vec = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
        vec[:, 1] = 0.0
        vec = vec.reshape(-1) / np.linalg.norm(vec)
        dims, cut, us = (4, 3, 2), (2, 2, 1), haar_unitary_batch(5, 4, rng)
        got = decoupling._residuals(vec, dims, (1,), keep, CutPartition(*cut), us)
        want = decoupling_residuals(vec, dims, (1,), 0 if keep == KEEP_C1 else 1, cut, us)
        assert residual_spy[0][1] == [4]
        assert np.all(np.abs(got - want) <= 8 * 6 * np.finfo(float).eps * want), got - want

    def test_peak_memory_of_a_sparse_side(self):
        # ghz-CBR n=5's vacuous half: M is 1,024 x 32 with 32 live side strings.
        # The full 1,024-wide Gram alone is 16 MiB; the live rows need 0.5 MiB.
        rng = SeededStream(78).generator()
        vec = np.zeros((2, 1024, 16), complex)
        on = rng.choice(1024, 32, replace=False)
        vec[:, on] = rng.standard_normal((2, 32, 16)) + 1j * rng.standard_normal((2, 32, 16))
        args = (vec.reshape(-1) / np.linalg.norm(vec), (2, 1024, 16), (1,), KEEP_C1, CutPartition(1, 2, 1))
        us = haar_unitary_batch(1, 2, rng)
        _residuals(*args, us)
        tracemalloc.start()
        try:
            _residuals(*args, us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak / 2**20

    def test_all_zero_support_is_zero(self):
        us = haar_unitary_batch(3, 4, SeededStream(76).generator())
        got = _residuals(np.zeros(24, complex), (4, 3, 2), (1,), KEEP_C1, CutPartition(2, 2, 1), us)
        assert got.shape == (3,) and not got.any()


class TestHaarAverage:
    def test_maximally_mixed_mean_zero(self):
        omega = tensor(maximally_mixed(4, "C"), maximally_mixed(2, "F"))
        chk = haar_average_check(omega, CutPartition(2, 2, 1), KEEP_C1, 100, SeededStream(55))
        assert chk.mean_square < 1e-18 and chk.passed

    def test_random_instance_passes(self):
        omega = _rank2(8, 2, 7)
        chk = haar_average_check(omega, CutPartition(2, 2, 2), KEEP_C1, 500, SeededStream(56))
        assert chk.passed
        assert chk.mean_square <= chk.bound + 3 * chk.std_error

    @pytest.mark.parametrize(
        "d_c,d_f,rank,p,keep",
        [
            (8, 2, 8, (2, 2, 2), KEEP_C1),   # full rank
            (8, 2, 1, (2, 2, 2), KEEP_C1),   # pure
            (6, 3, 4, (2, 3, 1), KEEP_C2),   # non-power-of-2 dims
            (12, 2, 5, (3, 2, 2), KEEP_C1),  # mixed factors
        ],
    )
    def test_bound_across_structures(self, d_c, d_f, rank, p, keep):
        rho = random_density(
            SystemLayout.of(("C", d_c), ("F", d_f)), rank, SeededStream(700 + d_c * rank)
        )
        chk = haar_average_check(rho, CutPartition(*p), keep, 300, SeededStream(800 + d_c))
        assert chk.passed

    def test_standard_error_shrinks_with_samples(self):
        omega = _rank2(4, 2, 8)
        p = CutPartition(2, 2, 1)
        small = haar_average_check(omega, p, KEEP_C1, 100, SeededStream(57))
        big = haar_average_check(omega, p, KEEP_C1, 10_000, SeededStream(58))
        ratio = small.std_error / big.std_error
        assert 6.0 < ratio < 16.0  # sqrt(100) = 10 up to estimator noise

    def test_blocked_draws_match_one_by_one_loop(self):
        # 150 draws are not a multiple of the block (64 at this operand size);
        # the blocks must consume the generator exactly like single draws.
        omega = _rank2(8, 2, 16)
        p = CutPartition(2, 2, 2)
        assert 150 % (HAAR_BLOCK_BYTES // omega.matrix.nbytes) != 0
        rng = SeededStream(66).generator()
        sq = [residual(omega, haar_unitary_matrix(8, rng), p, KEEP_C2) ** 2 for _ in range(150)]
        chk = haar_average_check(omega, p, KEEP_C2, 150, SeededStream(66))
        assert abs(chk.mean_square - np.mean(sq)) < 1e-12
        assert abs(chk.std_error - np.std(sq, ddof=1) / np.sqrt(150)) < 1e-12

    def test_memory_does_not_grow_with_samples(self):
        omega = _rank2(8, 2, 17)
        p = CutPartition(2, 2, 2)
        peaks = []
        for n in (200, 20_000):
            tracemalloc.start()
            try:
                haar_average_check(omega, p, KEEP_C1, n, SeededStream(67))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks

    def test_minimum_sample_size(self):
        omega = _rank2(4, 2, 9)
        with pytest.raises(ValueError):
            haar_average_check(omega, CutPartition(2, 2, 1), KEEP_C1, 99, SeededStream(59))

    @pytest.mark.parametrize("cut,samples,error", [
        ((2, 2, 2), 200, LayoutError),  # does not factor d_C = 4
        ((2, 2, 1), DEFAULT_GUARD + 1, GuardExceededError),  # more squares than the guard admits
    ], ids=["partition", "samples"])
    def test_refuses_before_the_first_draw(self, monkeypatch, cut, samples, error):
        # The bound checks the partition without randomness, so a refusal comes before the
        # first unitary is drawn.
        def no_draw(*args):
            raise AssertionError("a unitary was drawn before the refusal")

        omega = _rank2(4, 2, 10)
        monkeypatch.setattr(decoupling, "haar_unitary_batch", no_draw)
        with pytest.raises(error):
            haar_average_check(omega, CutPartition(*cut), KEEP_C1, samples, SeededStream(68))


class TestSimultaneousSearch:
    def test_vacuous_bounds_accept_first_draw(self):
        # Pure omega and psi on C alone make both thresholds >= 4.
        lay = SystemLayout.of(("C", 2), ("F", 1))
        pure = basis_state(lay, [0, 0]).projector()
        p = CutPartition(2, 1, 1)
        assert 2.0 * single_bound(pure, p, KEEP_C1) >= 4.0
        _, res, iters = find_simultaneous_unitary(pure, pure, p, 64, SeededStream(60))
        assert res.accepted and iters == 1

    def test_maximally_mixed_accepts_with_zero_residuals(self):
        omega = tensor(maximally_mixed(8, "C"), maximally_mixed(2, "F"))
        _, res, iters = find_simultaneous_unitary(omega, omega, CutPartition(2, 2, 2), 64, SeededStream(61))
        assert res.accepted and iters == 1
        assert res.eps1 < 1e-10 and res.eps2 < 1e-10

    def test_acceptance_frequency_exceeds_half(self):
        # Markov on the Haar average: each condition alone holds for more than
        # half of all unitaries; estimate over 400 draws with 3 sigma slack.
        omega = _rank2(8, 2, 10)
        psi = _rank2(8, 2, 11, label="E")
        p = CutPartition(2, 2, 2)
        alpha = single_bound(omega, p, KEEP_C1)
        beta = single_bound(psi, p, KEEP_C2)
        n = 400
        us = haar_unitary_batch(n, 8, SeededStream(62).generator())
        hits1 = np.count_nonzero(condition_met(residual_stack(omega, us, p, KEEP_C1), alpha))
        hits2 = np.count_nonzero(condition_met(residual_stack(psi, us, p, KEEP_C2), beta))
        for hits in (hits1, hits2):
            f = hits / n
            assert f > 0.5 - 3 * np.sqrt(0.25 / n)

    def test_determinism(self):
        omega = _rank2(8, 2, 12)
        psi = _rank2(8, 2, 13, label="E")
        p = CutPartition(2, 2, 2)
        u1, r1, i1 = find_simultaneous_unitary(omega, psi, p, 16, SeededStream(63))
        u2, r2, i2 = find_simultaneous_unitary(omega, psi, p, 16, SeededStream(63))
        assert np.array_equal(u1.matrix, u2.matrix) and r1 == r2 and i1 == i2

    def test_no_acceptance_returns_the_best_draw(self):
        # Bounds of 1e-12 admit no draw, so the search returns the draw of least objective
        # max(eps1^2/2 alpha, eps2^2/2 beta) (the first on a tie) with that draw's residuals.
        omega, psi = _rank2(8, 2, 15), _rank2(8, 2, 16, label="E")
        p, alpha, beta, stream = CutPartition(2, 2, 2), 1e-12, 1e-12, SeededStream(69)
        first, second = _purified(omega, KEEP_C1), _purified(psi, KEEP_C2)
        u, res, iters = search_unitary(first, second, p, alpha, beta, 5, stream.generator())
        rng = stream.generator()
        draws = [haar_unitary_matrix(8, rng) for _ in range(5)]
        eps = [(residual(omega, d, p, KEEP_C1), residual(psi, d, p, KEEP_C2)) for d in draws]
        best = int(np.argmin([max(e1**2 / (2.0 * alpha), e2**2 / (2.0 * beta)) for e1, e2 in eps]))
        assert np.array_equal(u, draws[best])
        assert (res.eps1, res.eps2) == eps[best]
        assert not res.accepted and iters == 5

    def test_partition_must_factor_dimension(self):
        omega = _rank2(8, 2, 14)
        with pytest.raises(LayoutError):
            single_bound(omega, CutPartition(2, 2, 3), KEEP_C1)
