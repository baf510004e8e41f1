import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from haarforge.analytics import chi_square, ks_two_sample
from haarforge.linalg import (
    CHUNK_BYTES,
    REDRAW_ROUNDS,
    ConvergenceError,
    adjoint_residual,
    eigenphases_batch,
    symplectic_residual,
)
from haarforge.randstream import RandomStream
from haarforge import euler, samplers, spectra, verify
from haarforge.samplers import SAMPLERS, Sampler, sample_batch, sampler

from oracles import (bin_probabilities, bubble_bits, compose_word_swaps, sp_angles_rowwise,
                     u_angles_rowwise, wave_band)

TWO_PI = 2.0 * np.pi


class ZeroStream:
    """Gaussians that are all zero; fails the test instead of hanging."""

    calls = 0

    def gaussian(self, size, out=None):
        self.calls += 1
        assert self.calls <= 64, "the zero-draw redraw does not stop"
        if out is None:
            return np.zeros(size)
        out[:] = 0.0
        return out


class TestSOEuler:
    def test_n2_trace_centered(self):
        s = RandomStream(200)
        mats = samplers.so_euler_batch(s, 2, 100_000)
        tr = mats[:, 0, 0] + mats[:, 1, 1]
        se = tr.std(ddof=1) / math.sqrt(len(tr))
        assert abs(tr.mean()) <= 5 * se

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_entry_squared_mean(self, n):
        s = RandomStream(201 + n)
        mats = samplers.so_euler_batch(s, n, 60_000)
        sq = mats[:, 0, 0] ** 2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 1.0 / n) <= 5 * se

    def test_first_column_is_normalized_gaussian_vector(self):
        n = 5
        mats = samplers.so_euler_batch(RandomStream(210), n, 40_000)
        ref = RandomStream(211).cos_theta_so(n - 1, size=40_000)
        rep = ks_two_sample(mats[:, 0, 0], ref)
        assert rep.passed

    def test_single_draw_contract(self):
        m = samplers.so_euler_batch(RandomStream(212), 4, 1)[0]
        assert m.dtype == np.float64 and adjoint_residual(m) <= 1e-13 * 4
        assert np.linalg.det(m).real == pytest.approx(1.0, abs=1e-12)


class TestUEuler:
    def test_n1_phase(self):
        s = RandomStream(220)
        mats = samplers.u_euler_batch(s, 1, 100_000)
        re = mats[:, 0, 0].real
        se = re.std(ddof=1) / math.sqrt(len(re))
        assert abs(re.mean()) <= 5 * se
        assert np.abs(np.abs(mats[:, 0, 0]) - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 4])
    def test_entry_modulus_mean_cross_checked_with_qr(self, n):
        count = 60_000
        eu = samplers.u_euler_batch(RandomStream(221), n, count)
        qr = samplers.qr_batch(RandomStream(222), n, count, "complex")
        sq_eu = np.abs(eu[:, 0, 0]) ** 2
        sq_qr = np.abs(qr[:, 0, 0]) ** 2
        se_eu = sq_eu.std(ddof=1) / math.sqrt(count)
        se_qr = sq_qr.std(ddof=1) / math.sqrt(count)
        assert abs(sq_eu.mean() - 1.0 / n) <= 5 * se_eu
        assert abs(sq_eu.mean() - sq_qr.mean()) <= 5 * math.hypot(se_eu, se_qr)

    def test_determinant_phase_uniform(self):
        from haarforge.analytics import ks_test
        mats = samplers.u_euler_batch(RandomStream(223), 4, 20_000)
        phases = np.angle(np.linalg.det(mats)) % TWO_PI
        assert ks_test(phases, lambda v: np.asarray(v) / TWO_PI).passed

    def test_single_draw_contract(self):
        m = samplers.u_euler_batch(RandomStream(224), 3, 1)[0]
        assert m.dtype == np.complex128 and adjoint_residual(m) <= 1e-13 * 3


class TestSpEuler:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_residuals(self, n):
        mats = samplers.sp_euler_batch(RandomStream(230 + n), n, 1000)
        assert adjoint_residual(mats[:200]).max() <= 1e-12 * n
        assert symplectic_residual(mats[:200]).max() <= 1e-12 * n

    def test_n1_entry_mean(self):
        mats = samplers.sp_euler_batch(RandomStream(235), 1, 100_000)
        sq = np.abs(mats[:, 0, 0]) ** 2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 0.5) <= 5 * se

    def test_eigenphases_closed_under_negation(self):
        ph = eigenphases_batch(samplers.sp_euler_batch(RandomStream(236), 3, 1))[0]
        neg = np.sort((-ph) % TWO_PI)
        assert np.abs(np.sort(ph) - neg).max() <= 1e-8

    def test_peak_memory_bounded(self, traced_peak):
        # the draw holds angles, and the kernel builds each span's SU(2)
        # blocks: 1.51x the output (1.88x with SU(2) blocks held from the draw)
        out = 10 * 10 * 16 * 10_000
        peak = traced_peak(lambda: samplers.sp_euler_batch(RandomStream(0), 5, 10_000))
        assert peak <= 1.6 * out


# The angle draws against their row-by-row oracles, on bytes: one uniform
# block per stack and one law call per j give the stream of the loop over
# packed rows.  Sp at n = 40 draws its rows in several uniform blocks.
ANGLE_DRAWS = [(n, count) for n in (1, 2, 5, 12) for count in (1, 7, 300)]


@pytest.mark.parametrize("n,count", ANGLE_DRAWS)
def test_u_angles_match_rowwise_oracle(n, count):
    got = samplers._u_angles(RandomStream(240 + n, count), n, count)
    want = u_angles_rowwise(RandomStream(240 + n, count)._gen, n, count)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n,count", ANGLE_DRAWS + [(40, 3)])
def test_sp_angles_match_rowwise_oracle(n, count):
    got = samplers._sp_angles(RandomStream(250 + n, count), n, count)
    want = sp_angles_rowwise(RandomStream(250 + n, count)._gen, n, count)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestQR:
    @pytest.mark.parametrize("kind,n", [("real", 5), ("complex", 4)])
    def test_residuals(self, kind, n):
        mats = samplers.qr_batch(RandomStream(240), n, 300, kind)
        assert adjoint_residual(mats).max() <= 1e-13 * n

    def test_real_det_signs_balanced(self):
        mats = samplers.qr_batch(RandomStream(241), 4, 100_000, "real")
        sign, _ = np.linalg.slogdet(mats)
        frac = (sign > 0).mean()
        se = math.sqrt(0.25 / len(sign))
        assert abs(frac - 0.5) <= 5 * se

    def test_agreement_with_euler_conditioned(self):
        n, count = 5, 10_000
        eu = samplers.so_euler_batch(RandomStream(242), n, count)
        raw = samplers.qr_batch(RandomStream(243), n, int(count * 2.4), "real")
        sign, _ = np.linalg.slogdet(raw)
        qr = raw[sign > 0][:count]
        assert len(qr) == count
        rep = ks_two_sample(eu[:, 0, 0], qr[:, 0, 0])
        assert rep.passed

    def test_group_guard(self):
        with pytest.raises(ValueError):
            sample_batch("so", 3, 1, method="qr", seed=244)

    def test_a_tag_n_pair_is_not_a_tag(self):
        # a (tag, n) pair carries its own n, which sample_batch would ignore
        with pytest.raises(ValueError, match="unknown group tag"):
            sample_batch(("so", 5), 3, 2)

    def test_rank_deficient_draw_is_redrawn_after_the_batch(self):
        n, seed = 4, 245
        stream = RandomStream(seed)
        gaussian = stream.gaussian
        first = []

        def zero_second_matrix(size):
            g = gaussian(size)
            if not first:
                first.append(size)
                g[1] = 0.0
            return g

        stream.gaussian = zero_second_matrix
        got = samplers.qr_batch(stream, n, 3, "real")
        clean = samplers.qr_batch(RandomStream(seed), n, 3, "real")
        assert np.array_equal(got[[0, 2]], clean[[0, 2]])
        replay = RandomStream(seed)
        replay.gaussian(size=(3, n, n))
        assert np.array_equal(got[1], samplers.qr_batch(replay, n, 1, "real")[0])

    @pytest.mark.parametrize("kind,n,count", [("real", 64, 192), ("complex", 5, 10_000)])
    def test_peak_memory_bounded(self, traced_peak, kind, n, count):
        # Q is written over its Gaussian block: 2.5x / 2.3x the output
        # (4.8x / 4.3x with whole-batch Q, R and phase products)
        out = n * n * count * (8 if kind == "real" else 16)
        assert traced_peak(lambda: samplers.qr_batch(RandomStream(247), n, count, kind)) <= 3 * out

    @pytest.mark.parametrize("draw,n,count,d,itemsize", [
        (lambda s, n, c: samplers.qr_batch(s, n, c, "real"), 16, 200, 16, 8),
        (lambda s, n, c: samplers.qr_batch(s, n, c, "complex"), 33, 8, 33, 16),
        (samplers.coe_batch, 16, 64, 16, 16),
        (samplers.cse_batch, 17, 8, 34, 16),
    ], ids=["qr-real", "qr-complex", "coe", "cse"])
    def test_one_chunk_batch_peaks_within_five_stacks(self, traced_peak, draw, n, count, d,
                                                      itemsize):
        # one chunk's np.linalg.qr holds a copy, Q and R of the whole batch
        # beside it: 4.09x for export's O(16) x 200, 4.1x for the others
        out = d * d * itemsize * count
        assert out < CHUNK_BYTES  # the batch is one chunk
        assert traced_peak(lambda: draw(RandomStream(248), n, count)) <= 5 * out

    def test_complex_gaussians_are_drawn_into_the_block(self, traced_peak):
        # real and imaginary parts fill strided halves of the complex block:
        # 1.8x the output (2.3x when each part was a fresh array)
        out = 5 * 5 * 16 * 10_000
        assert traced_peak(lambda: samplers.qr_batch(RandomStream(247), 5, 10_000,
                                                     "complex")) <= 2 * out

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_rank_deficient_redraw_is_bounded(self, kind):
        stream = ZeroStream()
        with pytest.raises(ConvergenceError):
            samplers.qr_batch(stream, 3, 2, kind)
        assert stream.calls == (1 + REDRAW_ROUNDS) * (2 if kind == "complex" else 1)


class TestHouseholder:
    def test_n1_is_phase_or_sign(self):
        real = samplers.householder_batch(RandomStream(250), 1, 2000, "real")
        assert set(np.unique(real.round(12))) <= {-1.0, 1.0}
        frac = (real[:, 0, 0] > 0).mean()
        assert abs(frac - 0.5) <= 5 * math.sqrt(0.25 / 2000)
        cplx = samplers.householder_batch(RandomStream(251), 1, 100, "complex")
        assert np.abs(np.abs(cplx[:, 0, 0]) - 1.0).max() <= 1e-14

    def test_full_reflector_maps_last_axis_to_generating_vector(self):
        # replay the documented draw order: vectors of lengths 1, 2, ..., n;
        # the product then satisfies V e_n = z^(n), the last vector drawn
        n = 6
        v = samplers.householder_batch(RandomStream(252), n, 1, "complex")[0]
        rep = RandomStream(252)
        z = None
        for k in range(1, n + 1):
            z = rep.gaussian(size=(1, k)) + 1j * rep.gaussian(size=(1, k))
        z = z[0] / np.linalg.norm(z[0])
        assert np.abs(v[:, n - 1] - z).max() <= 1e-13

    def test_residuals(self):
        mats = samplers.householder_batch(RandomStream(253), 6, 200, "complex")
        assert adjoint_residual(mats).max() <= 1e-13 * 6

    def test_cross_sampler_ks_entry_modulus(self):
        n, count = 6, 10_000
        hh = samplers.householder_batch(RandomStream(254), n, count, "complex")
        qr = samplers.qr_batch(RandomStream(255), n, count, "complex")
        rep = ks_two_sample(np.abs(hh[:, 0, 0]) ** 2, np.abs(qr[:, 0, 0]) ** 2)
        assert rep.passed

    def test_single_draw(self):
        m = samplers.householder_batch(RandomStream(256), 4, 1, "real")[0]
        assert m.dtype == np.float64 and adjoint_residual(m) <= 1e-13 * 4

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_zero_vectors_redraw_is_bounded(self, kind):
        stream = ZeroStream()
        with pytest.raises(ConvergenceError):
            samplers.householder_batch(stream, 3, 2, kind)
        assert stream.calls == (1 + REDRAW_ROUNDS) * (2 if kind == "complex" else 1)


class TestPermutations:
    def test_n2_fair(self):
        s = RandomStream(260)
        lines = samplers.permutation_batch(s, 2, 50_000)
        share = (lines[:, 0] == 0).mean()
        assert abs(share - 0.5) <= 5 * math.sqrt(0.25 / 50_000)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exact_uniformity_by_enumeration(self, n):
        dist = verify._exact_word_distribution(n)
        assert len(dist) == math.factorial(n)
        assert all(p == Fraction(1, math.factorial(n)) for p in dist.values())

    def test_bits_compose_to_one_line(self):
        for n in (1, 2, 5, 8, 64, 500):
            lines = samplers.permutation_batch(RandomStream(261), n, 50)
            bits = bubble_bits(RandomStream(261), n, 50)
            assert lines.shape == (50, n) and lines.dtype == np.int64
            assert (lines == compose_word_swaps(n, 50, bits)).all()
            assert all(sorted(row) == list(range(n)) for row in lines.tolist())
            assert adjoint_residual(samplers.permutation_matrices(lines)).max() == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_coset_composition_equals_swaps_on_every_pattern(self, n):
        keys = [(i, j) for j in range(1, n) for i in range(1, j + 1)]
        patterns = np.array(list(product((0, 1), repeat=len(keys))))
        bits = {key: patterns[:, c] for c, key in enumerate(keys)}
        lines = samplers._compose_cosets(
            lambda j, out: np.logical_not(
                np.stack([bits[(i, j)] for i in range(1, j + 1)], axis=1), out=out),
            n, len(patterns))
        assert (lines == compose_word_swaps(n, len(patterns), bits)).all()

    # counts 1 and 3 compose by coset rotations, 2049 by the wave (in several
    # bands at n = 130); (500, 2049) is left out: the oracle's bits would take
    # 255 MB, that shape runs the rotations, and test_wave_equals_rotations_at_large_n
    # takes n = 500 through the wave.  At n = 17 the last coset's uniform
    # block, 8 * 16 * count bytes, is just below, at and just above CHUNK_BYTES,
    # so it is drawn in one row chunk, one and two.
    @pytest.mark.parametrize("n,count", [(n, c) for n in (1, 2, 3, 9, 64, 130, 500)
                                         for c in (1, 3, 2049) if (n, c) != (500, 2049)]
                             + [(17, CHUNK_BYTES // (8 * 16) + d) for d in (-1, 0, 1)])
    def test_permutations_equal_the_swap_oracle(self, n, count):
        lines = samplers.permutation_batch(RandomStream(263, n), n, count)
        bits = bubble_bits(RandomStream(263, n), n, count)
        want = compose_word_swaps(n, count, bits)
        assert lines.dtype == np.int64 and lines.flags.c_contiguous
        assert lines.tobytes() == want.tobytes()

    def test_wave_in_several_bands_equals_the_swap_oracle(self):
        n, count = 50, 20_000  # 1,225 flag rows of 20,000 against a band of 209
        budget = max(4 * (n - 1) * count, samplers._BAND_FLOOR)
        assert budget // count < n * (n - 1) // 2 and count >= samplers._WAVE_MIN_COUNT
        lines = samplers.permutation_batch(RandomStream(264), n, count)
        bits = bubble_bits(RandomStream(264), n, count)
        assert lines.tobytes() == compose_word_swaps(n, count, bits).tobytes()

    def test_lanes_equal_per_lane_oracles(self):
        n, count = 20, 900  # three lanes of 300, each composed by the wave
        got = sample_batch("sn", n, count, seed=265, streams=3)
        want = [compose_word_swaps(n, 300, bubble_bits(RandomStream(265, lane), n, 300)) + 1
                for lane in range(3)]
        assert got.tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_each_kernel_composes_every_pattern(self, n):
        # the wave in one band, in bands of about one coset, and the rotations
        keys = [(i, j) for j in range(1, n) for i in range(1, j + 1)]
        patterns = np.array(list(product((0, 1), repeat=len(keys))))
        count, calls = len(patterns), []

        def clear(j, out):
            calls.append(j)
            np.equal(patterns[:, j * (j - 1) // 2:j * (j + 1) // 2], 0, out=out)

        want = compose_word_swaps(n, count, {key: patterns[:, c] for c, key in enumerate(keys)})
        for kernel in (lambda: samplers._wave_cosets(clear, n, count, 4 * n * n * count),
                       lambda: samplers._wave_cosets(clear, n, count, (n - 1) * count),
                       lambda: samplers._rotate_cosets(clear, n, count)):
            calls.clear()
            assert kernel().tobytes() == want.tobytes()
            assert calls == list(range(1, n))

    @pytest.mark.parametrize("n,count,rows", [(500, 3, 499), (500, 3, 2000), (130, 7, 129)])
    def test_wave_equals_rotations_at_large_n(self, n, count, rows):
        # shapes the dispatch gives to the rotations, forced through the wave
        u = RandomStream(266, n).uniform(size=(n, n, count)) < 0.6

        def clear(j, out):
            out[:] = u[j, :j].T

        got = samplers._wave_cosets(clear, n, count, rows * count)
        assert got.tobytes() == samplers._rotate_cosets(clear, n, count).tobytes()

    @pytest.mark.parametrize("n", [3, 5, 8, 12, 33])
    def test_wave_steps_are_the_euler_coset_waves(self, n):
        # step t of the one-band wave swaps the position pairs of wave t of
        # the Euler coset product's plane blocks, in the same column order
        steps = samplers._wave_band(1, n)[0]
        runs = euler._coset_schedule(n, 2)[3]
        assert [(a.start, a.step, q) for a, _, _, q in steps] == [
            (c, width, len(rows)) for c, width, _, rows in runs]

    def test_wave_bands_equal_the_one_move_at_a_time_oracle(self, monkeypatch):
        # every band the wave forms at two shapes, and the one-band wave of
        # each n the coset schedule is checked at
        formed = []
        monkeypatch.setattr(samplers, "_run_band", lambda clear, sigma, j0, j1:
                            formed.append((j0, j1)))
        for n, count in ((50, 20_000), (130, 2049)):
            samplers._wave_cosets(None, n, count, max(4 * (n - 1) * count, samplers._BAND_FLOOR))
        assert len(formed) > 2 and formed[0][0] == 1 and formed[-1][1] == 130
        for j0, j1 in formed + [(1, n) for n in (*range(2, 65), 128, 256, 512)]:
            steps, place, rows, widest = samplers._wave_band(j0, j1)
            a, m = range(2 * j1), range(rows)
            got = [(list(a[sa]), list(a[sb]), list(m[sm]), q) for sa, sb, sm, q in steps]
            want = wave_band(j0, j1)
            assert got == want[0] and (rows, widest) == want[2:], (j0, j1)
            assert np.array_equal(place, want[1]), (j0, j1)

    def test_dispatch_by_batch_width_and_band_width(self, monkeypatch):
        seen = []
        monkeypatch.setattr(samplers, "_wave_cosets", lambda *a: seen.append("wave"))
        monkeypatch.setattr(samplers, "_rotate_cosets", lambda *a: seen.append("rotate"))
        for n, count in ((64, 2048), (6, 10 ** 5), (50, 10 ** 5), (256, 128),  # waves
                         (16, 64), (12, 4), (5000, 1), (500, 50), (2000, 128)):  # rotations
            samplers._compose_cosets(None, n, count)
        assert seen == ["wave"] * 4 + ["rotate"] * 5

    def test_peak_memory_within_one_and_a_half_uniform_blocks(self, traced_peak):
        # a coset's (count, n - 1) float64 uniforms are drawn in row chunks and
        # the wave's flags take at most half that block (4 MiB here)
        n, count = 50, 20_000
        peak = traced_peak(lambda: samplers.permutation_batch(RandomStream(267), n, count))
        assert peak <= 1.5 * 8 * (n - 1) * count

    def test_index_type_is_the_narrowest_that_holds_n(self):
        assert samplers._index_dtype(2) is np.int16
        assert samplers._index_dtype(32767) is np.int16
        assert samplers._index_dtype(32768) is np.int32
        assert samplers._index_dtype(2 ** 31 - 1) is np.int32
        assert samplers._index_dtype(2 ** 31) is np.int64

    def test_fixed_points_near_poisson(self):
        lines = samplers.permutation_batch(RandomStream(262), 50, 40_000)
        fixed = (lines == np.arange(50)).sum(axis=1)
        kmax = 5
        counts = np.array([(fixed == k).sum() for k in range(kmax)]
                          + [(fixed >= kmax).sum()], dtype=float)
        probs = np.array([math.exp(-1.0) / math.factorial(k) for k in range(kmax)])
        probs = np.append(probs, 1.0 - probs.sum())
        assert chi_square(counts, probs * len(fixed)).passed


class TestCircularEnsembles:
    def test_coe_structure(self):
        n = 4
        mats = samplers.coe_batch(RandomStream(270), n, 200)
        assert np.abs(mats - np.swapaxes(mats, 1, 2)).max() <= 1e-13
        assert adjoint_residual(mats[:50]).max() <= 1e-13 * n

    def test_coe_n1_is_phase(self):
        m = samplers.coe_batch(RandomStream(271), 1, 1)[0]
        assert abs(abs(m[0, 0]) - 1.0) <= 1e-14

    def test_coe_gap_density_n2(self):
        # eigenphase gap of the 2x2 symmetric unitary ensemble has density
        # proportional to |e^{i a} - e^{i b}| = 2 sin(gap/2); bins by quadrature
        mats = samplers.coe_batch(RandomStream(272), 2, 40_000)
        tr = mats[:, 0, 0] + mats[:, 1, 1]
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        disc = np.sqrt(tr * tr - 4.0 * det + 0j)
        th1 = np.angle((tr + disc) / 2.0) % TWO_PI
        th2 = np.angle((tr - disc) / 2.0) % TWO_PI
        gap = np.abs(th1 - th2)
        gap = np.minimum(gap, TWO_PI - gap)
        edges = np.linspace(0.0, np.pi, 13)
        counts = np.histogram(gap, bins=edges)[0]
        probs = bin_probabilities(lambda d: math.sin(d / 2.0), edges)
        assert chi_square(counts, probs * len(gap)).passed

    def test_cse_structure_and_degeneracy(self):
        n = 2
        mats = samplers.cse_batch(RandomStream(273), n, 100)
        z = np.kron(np.eye(n), np.array([[0.0, -1.0], [1.0, 0.0]]))
        dual = np.einsum("ij,bkj,kl->bil", -z, mats, z)
        assert np.abs(dual - mats).max() <= 1e-12
        ph = eigenphases_batch(mats[:10])
        assert np.abs(ph[:, 1::2] - ph[:, 0::2]).max() <= 1e-8

    @pytest.mark.parametrize("ensemble,dim", [("coe_batch", 5), ("cse_batch", 10)])
    def test_peak_memory_bounded(self, traced_peak, ensemble, dim):
        # the congruence is written over U: 2.3x / 2.2x the output (4.3x /
        # 4.2x with whole-batch products)
        draw = getattr(samplers, ensemble)
        out = dim * dim * 16 * 10_000
        assert traced_peak(lambda: draw(RandomStream(275), 5, 10_000)) <= 3 * out

    def test_cse_peak_memory_within_twice_the_output(self, traced_peak):
        # U and the complex Gaussians drawn into it: 1.7x the output (2.2x
        # with a fresh array per Gaussian part)
        out = 10 * 10 * 16 * 10_000
        assert traced_peak(lambda: samplers.cse_batch(RandomStream(275), 5, 10_000)) <= 2 * out

    def test_cse_n1_is_det_times_identity(self):
        # replay the internal unitary: S~ = Z^{-1} U^T Z U = det(U) I for 2x2
        s = samplers.cse_batch(RandomStream(274), 1, 1)[0]
        u = samplers.qr_batch(RandomStream(274), 2, 1, "complex")[0]
        want = np.linalg.det(u) * np.eye(2)
        assert np.abs(s - want).max() <= 1e-13


EMPTY_DRAWS = {  # every batch function, as draw(stream, n, count)
    "so_euler": samplers.so_euler_batch,
    "o_euler": samplers.o_euler_batch,
    "u_euler": samplers.u_euler_batch,
    "sp_euler": samplers.sp_euler_batch,
    "qr-real": lambda s, n, c: samplers.qr_batch(s, n, c, "real"),
    "qr-complex": lambda s, n, c: samplers.qr_batch(s, n, c, "complex"),
    "householder-real": lambda s, n, c: samplers.householder_batch(s, n, c, "real"),
    "householder-complex": lambda s, n, c: samplers.householder_batch(s, n, c, "complex"),
    "permutation": samplers.permutation_batch,
    "coe": samplers.coe_batch,
    "cse": samplers.cse_batch,
    "hessenberg": spectra.hessenberg_batch,
    "cmv": spectra.cmv_batch,
}


@pytest.mark.parametrize("name", list(EMPTY_DRAWS))
def test_count_zero_gives_the_empty_stack_of_count_one(name):
    # numpy gives an empty stack zero strides, which must not cut its chunks
    draw = EMPTY_DRAWS[name]
    one, empty = draw(RandomStream(7), 3, 1), draw(RandomStream(7), 3, 0)
    assert empty.shape == (0, *one.shape[1:]) and empty.dtype == one.dtype


class TestBatchFrontEnd:
    def test_deterministic_and_lane_split(self):
        a = sample_batch("so", 4, 7, seed=5, streams=3)
        b = sample_batch("so", 4, 7, seed=5, streams=3)
        assert np.array_equal(a, b)
        assert a.shape == (7, 4, 4)
        lane0 = samplers.so_euler_batch(RandomStream(5, 0), 4, 3)
        assert np.array_equal(a[:3], lane0)

    def test_method_validation(self):
        with pytest.raises(ValueError):
            sample_batch("so", 4, 2, method="qr", seed=0)
        with pytest.raises(ValueError):
            sample_batch("sp", 2, 2, method="householder", seed=0)

    def test_permutation_batch_front_end(self):
        words = sample_batch("sn", 5, 6, seed=9, streams=2)
        assert words.shape == (6, 5) and words.dtype == np.int64
        assert (np.sort(words, axis=1) == np.arange(1, 6)).all()  # 1-based

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("tag,method", list(SAMPLERS))
    def test_table_entry_shape_and_dtype(self, tag, method, n):
        entry = sampler(tag, method)
        out = sample_batch(tag, n, 4, method=method, seed=3, streams=2)
        d = 2 * n if tag == "sp" else n
        if entry.kind == "permutation":
            assert entry.shape(n) == (n,)
            assert out.shape == (4, n) and out.dtype == np.int64
        else:
            assert entry.shape(n) == (d, d)
            assert out.shape == (4, d, d)
            assert out.dtype == (np.float64 if entry.kind == "real" else np.complex128)

    def test_table_defaults_are_first_listed(self):
        assert samplers.DEFAULT_METHOD == {"so": "euler", "o": "euler", "u": "euler",
                                           "sp": "euler", "sn": "bubble"}
        assert samplers.GROUP_TAGS == ("so", "o", "u", "sp", "sn")

    def test_lookup_defaults_only_for_none(self):
        assert sampler("sp") is SAMPLERS[("sp", "euler")]
        assert sampler("sn", None) is SAMPLERS[("sn", "bubble")]
        for tag, method in (("so", ""), ("so", "qr"), ("sn", "euler"), ("o", ["qr"])):
            with pytest.raises(ValueError, match="not valid for group"):
                sampler(tag, method)
        with pytest.raises(ValueError, match="not valid for group"):
            sample_batch("so", 3, 2, method="")  # the default only for None
        for tag in ("x", None, ("so", 3), ["so"]):
            with pytest.raises(ValueError, match="unknown group tag"):
                sampler(tag)

    @pytest.mark.parametrize("n", [0, -1, 2.7, 3.0, True, "3", None])
    def test_shape_needs_an_int_n_of_at_least_one(self, n):
        for entry in SAMPLERS.values():
            with pytest.raises(ValueError, match="integer >= 1"):
                entry.shape(n)
        with pytest.raises(ValueError, match="integer >= 1"):
            sample_batch("so", n, 2)

    @pytest.mark.parametrize("name,value", [
        ("count", 0), ("count", -1), ("count", True), ("count", 2.5), ("count", 2.0),
        ("streams", 0), ("streams", -1), ("streams", True), ("streams", 1.5), ("streams", None)])
    def test_count_and_streams_need_an_int_of_at_least_one(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            sample_batch("so", 3, **{"count": 2, "streams": 1, name: value})

    def test_shape_of_a_custom_entry(self):
        assert Sampler(None, "complex", 3).shape(np.int64(2)) == (6, 6)
        assert Sampler(None, "permutation", 2).shape(5) == (5,)

    def test_table_calls_rebound_batch_function(self, monkeypatch):
        calls = []

        def fake(stream, n, count, kind):
            calls.append((n, count, kind))
            return np.zeros((count, n, n))

        monkeypatch.setattr(samplers, "qr_batch", fake)
        out = sample_batch("o", 3, 5, method="qr", seed=1, streams=2)
        assert calls == [(3, 3, "real"), (3, 2, "real")]
        assert out.shape == (5, 3, 3) and not out.any()

    def test_single_lane_is_not_copied(self, traced_peak):
        # one lane is returned as drawn: sample_batch peaks within 5% of
        # the bare sampler on the same count (1.22x when it was stacked)
        batch = traced_peak(lambda: sample_batch("so", 32, 4000, seed=0, streams=1))
        bare = traced_peak(lambda: samplers.so_euler_batch(RandomStream(0, 0), 32, 4000))
        assert batch <= 1.05 * bare

    def test_permutations_are_made_one_based_in_place(self, traced_peak):
        # the one is added to the drawn stack, not to a second int64 stack:
        # sample_batch peaks within 5% of the bare sampler (1.6x with a copy)
        batch = traced_peak(lambda: sample_batch("sn", 64, 50_000, seed=0, streams=1))
        bare = traced_peak(lambda: samplers.permutation_batch(RandomStream(0, 0), 64, 50_000))
        assert batch <= 1.05 * bare

    @pytest.mark.parametrize("count,streams", [(7, 3), (2, 3)])
    @pytest.mark.parametrize("tag,method", list(SAMPLERS))
    def test_lanes_equal_their_concatenation(self, tag, method, count, streams):
        draw = sampler(tag, method).draw
        sizes = map(len, np.array_split(np.arange(count), min(count, streams)))
        want = np.concatenate([draw(RandomStream(12, lane), 3, c)
                               for lane, c in enumerate(sizes)])
        got = samplers._draw_lanes(draw, 3, count, 12, streams)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    def test_lanes_peak_at_the_stack_and_one_lanes_draw(self, traced_peak):
        # each lane is written into its slice and dies before the next is
        # drawn; 64 KiB covers the Python objects
        draw = sampler("o", "householder").draw
        one = max(traced_peak(lambda: draw(RandomStream(0, lane), 16, 1000)) for lane in range(3))
        peak = traced_peak(lambda: samplers._draw_lanes(draw, 16, 3000, 0, 3))
        assert peak <= 3000 * 16 * 16 * 8 + one + 64 * 1024

    def test_o_euler_det_balanced(self):
        mats = samplers.o_euler_batch(RandomStream(280), 3, 60_000)
        sign, _ = np.linalg.slogdet(mats)
        frac = (sign > 0).mean()
        assert abs(frac - 0.5) <= 5 * math.sqrt(0.25 / len(sign))


class TestMomentOracleAcrossSamplers:
    """Every SO(n) route reproduces the closed-form entry moments."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_qr_and_householder_det_conditioned(self, p):
        from haarforge.analytics import moment_single
        n, count = 4, 40_000
        for sid, kernel in ((290, samplers.qr_batch),
                            (291, samplers.householder_batch)):
            raw = kernel(RandomStream(sid), n, int(count * 2.4), "real")
            sign, _ = np.linalg.slogdet(raw)
            mats = raw[sign > 0][:count]
            vals = np.abs(mats[:, n - 1, n - 1]) ** (2.0 * p)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - moment_single(n, p)) <= 5 * se
