import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from haarforge.analytics import chi_square, ks_two_sample
from haarforge.linalg import (
    REDRAW_ROUNDS,
    ConvergenceError,
    adjoint_residual,
    determinant,
    eigenphases_batch,
    symplectic_residual,
)
from haarforge.randstream import RandomStream
from haarforge import samplers, verify
from haarforge.samplers import SAMPLERS, GroupId, sample_batch

from oracles import (bin_probabilities, bubble_bits, compose_word_swaps, sp_angles_rowwise,
                     u_angles_rowwise)

TWO_PI = 2.0 * np.pi


class ZeroStream:
    """Gaussians that are all zero; fails the test instead of hanging."""

    calls = 0

    def gaussian(self, size):
        self.calls += 1
        assert self.calls <= 64, "the zero-draw redraw does not stop"
        return np.zeros(size)


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
        assert determinant(m).real == pytest.approx(1.0, abs=1e-12)


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

    def test_group_id_is_not_a_tag(self):
        # a GroupId carries its own n, which sample_batch would ignore
        with pytest.raises(ValueError, match="unknown group tag"):
            sample_batch(GroupId("so", 5), 3, 2)

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
            assert (lines == compose_word_swaps(n, bits)).all()
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
        assert (lines == compose_word_swaps(n, bits)).all()

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

    def test_cse_n1_is_det_times_identity(self):
        # replay the internal unitary: S~ = Z^{-1} U^T Z U = det(U) I for 2x2
        s = samplers.cse_batch(RandomStream(274), 1, 1)[0]
        u = samplers.qr_batch(RandomStream(274), 2, 1, "complex")[0]
        want = np.linalg.det(u) * np.eye(2)
        assert np.abs(s - want).max() <= 1e-13


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
        entry = SAMPLERS[(tag, method)]
        out = sample_batch(tag, n, 4, method=method, seed=3, streams=2)
        d = entry.matrix_dim(n)
        if entry.kind == "permutation":
            assert out.shape == (4, d) and out.dtype == np.int64
        else:
            assert out.shape == (4, d, d)
            assert out.dtype == (np.float64 if entry.kind == "real" else np.complex128)

    def test_table_defaults_are_first_listed(self):
        assert samplers.DEFAULT_METHOD == {"so": "euler", "o": "euler", "u": "euler",
                                           "sp": "euler", "sn": "bubble"}
        assert samplers.GROUP_TAGS == ("so", "o", "u", "sp", "sn")

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
