import math

import numpy as np
import pytest

from haarforge import samplers, spectra
from haarforge.linalg import (
    REDRAW_ROUNDS,
    ConvergenceError,
    adjoint_residual,
    charpoly_eval,
    eigenphases_batch,
)
from haarforge.randstream import RandomStream
from haarforge.analytics import chi_square, ks_test, ks_two_sample
from haarforge.spectra import (
    charpoly_recurrence,
    cmv_batch,
    cmv_order,
    hessenberg_batch,
    hessenberg_entries,
    recurrence_sequences,
    rotation_product_batch,
    so_min_eigenphase_batch,
    trace_series_perm_batch,
    trace_series_so_batch,
)

from oracles import hessenberg_entries_triple_loop

TWO_PI = 2.0 * np.pi


def random_cosines(stream, n):
    return stream.uniform(-1.0, 1.0, size=n - 1)


class TestHessenberg:
    def test_zero_pattern(self):
        mats = hessenberg_batch(RandomStream(300), 6, 500)
        for i in range(6):
            for j in range(6):
                if j > i + 1:
                    assert np.abs(mats[:, i, j]).max() <= 1e-15

    def test_n2_is_plane_rotation(self):
        m = hessenberg_batch(RandomStream(301), 2, 1)[0]
        assert m[0, 0] == pytest.approx(m[1, 1])
        assert m[0, 1] == pytest.approx(-m[1, 0])
        assert abs(m[0, 0] ** 2 + m[0, 1] ** 2 - 1.0) <= 1e-14

    def test_orthogonal(self):
        mats = hessenberg_batch(RandomStream(302), 7, 100)
        assert adjoint_residual(mats[:30]).max() <= 1e-13 * 7

    def test_eigenphase_ks_vs_full_product(self):
        n, count = 6, 6000
        hess = hessenberg_batch(RandomStream(303), n, count)
        full = samplers.so_euler_batch(RandomStream(304), n, count)
        rep = ks_two_sample(so_min_eigenphase_batch(hess),
                            so_min_eigenphase_batch(full))
        assert rep.passed


class TestHessenbergEntries:
    def test_n2_closed_form(self):
        theta = 1.234
        m = hessenberg_entries([math.cos(theta)])
        # oracle: the 2x2 rotation product directly
        assert m[0, 0] == pytest.approx(math.cos(theta), abs=1e-15)
        assert m[1, 1] == pytest.approx(math.cos(theta), abs=1e-15)
        assert m[0, 1] == pytest.approx(math.sin(theta), abs=1e-15)
        assert m[1, 0] == pytest.approx(-math.sin(theta), abs=1e-15)

    def test_degenerate_all_cos_one(self):
        m = hessenberg_entries([1.0, 1.0, 1.0])
        assert np.all(np.abs(np.diag(m, 1)) == 0.0)  # rho = 0 throughout
        assert np.abs(np.abs(np.diag(m)) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_rotation_product(self, n):
        s = RandomStream(310 + n)
        for _ in range(10):
            c = random_cosines(s, n)
            m = hessenberg_entries(c)
            ref = rotation_product_batch(np.arccos(c)[None, :],
                                         spectra.hessenberg_order(n))[0]
            assert np.abs(m - ref).max() <= 1e-13

    def test_bit_identical_to_triple_loop_oracle(self):
        # 1,000 cosine vectors at n = 2..40; a fifth of the entries are set
        # to exactly -1, 0 or 1 (alpha = 0 or rho = 0)
        s = RandomStream(312)
        for trial in range(1000):
            n = 2 + trial % 39
            c = random_cosines(s, n)
            pick = s.uniform(size=n - 1)
            edge = pick < 0.2
            c[edge] = np.array([-1.0, 0.0, 1.0])[(pick[edge] * 15).astype(int)]
            got = hessenberg_entries(c)
            assert got.tobytes() == hessenberg_entries_triple_loop(c).tobytes(), (n, c)

    def test_alpha_rho_pythagoras_exact(self):
        alpha, rho = spectra._alpha_rho(random_cosines(RandomStream(311), 6))
        for i in range(0, 5):
            a, r = alpha[i], rho[i]
            assert abs(a * a + r * r - 1.0) <= 1e-15

    def test_coefficient_validation(self):
        for call in (hessenberg_entries, lambda c: recurrence_sequences(c, 0.5)):
            with pytest.raises(ValueError):
                call([0.5, 1.5])
            with pytest.raises(ValueError):
                call([0.5, float("nan")])


class TestRecurrence:
    def test_first_step(self):
        c = [0.4, -0.7]
        lam = 0.9 + 0.3j
        chi, _ = recurrence_sequences(c, lam)
        assert chi[1] == pytest.approx(lam - spectra._alpha_rho(c)[0][0])

    def test_lambda_zero_vs_determinant_oracle(self):
        s = RandomStream(320)
        for n in (2, 4, 6):
            c = random_cosines(s, n)
            m = hessenberg_entries(c)
            assert abs(charpoly_recurrence(c, 0.0)
                       - charpoly_eval(m, 0.0)) <= 1e-12

    def test_matches_determinant_over_random_inputs(self):
        s = RandomStream(321)
        for trial in range(20):
            n = 2 + trial % 9
            c = random_cosines(s, n)
            m = hessenberg_entries(c)
            for _ in range(20):
                lam = complex(s.uniform(-2, 2), s.uniform(-2, 2))
                err = abs(charpoly_recurrence(c, lam) - charpoly_eval(m, lam))
                assert err <= 1e-10 * (1.0 + abs(lam)) ** n

    def test_lambda_array_equals_per_lambda_calls(self):
        s = RandomStream(323)
        for n in (2, 5, 10):
            c = random_cosines(s, n)
            lams = s.uniform(-2.0, 2.0, size=(3, 8)).view(complex)
            got = charpoly_recurrence(c, lams)
            assert got.shape == (3, 4)
            for idx in np.ndindex(got.shape):
                want = charpoly_recurrence(c, complex(lams[idx]))
                assert abs(got[idx] - want) <= 1e-13 * abs(want)
            chi, chit = recurrence_sequences(c, lams)
            assert chi.shape == chit.shape == (n + 1, 3, 4)

    def test_stacked_cosines_broadcast_against_lambda(self):
        # (T, 1, n-1) cosines against (T, L) lam: trial t's cosines meet
        # row t of lam, as criterion 7 evaluates them
        s = RandomStream(324)
        c = s.uniform(-1.0, 1.0, size=(4, 6))
        lams = s.uniform(-2.0, 2.0, size=(4, 10)).view(complex)
        got = charpoly_recurrence(c[:, None], lams)
        mats = hessenberg_entries(c)
        assert mats.shape == (4, 7, 7)
        for t in range(4):
            assert mats[t].tobytes() == hessenberg_entries(c[t]).tobytes()
            want = charpoly_recurrence(c[t], lams[t])
            assert np.all(np.abs(got[t] - want) <= 1e-13 * np.abs(want))
            det = charpoly_eval(mats[t], lams[t])
            assert np.all(np.abs(got[t] - det) <= 1e-10 * (1.0 + np.abs(lams[t])) ** 7)

    def test_reversed_polynomial_identity(self):
        s = RandomStream(322)
        c = random_cosines(s, 7)
        for _ in range(20):
            lam = complex(s.uniform(-2, 2), s.uniform(-2, 2))
            if abs(lam) < 1e-3:
                continue
            chi, chit = recurrence_sequences(c, lam)
            chi_inv, _ = recurrence_sequences(c, 1.0 / lam)
            for k in range(7 + 1):
                want = lam ** k * chi_inv[k]
                assert abs(chit[k] - want) <= 1e-9 * max(1.0, abs(want))


class TestCMV:
    def test_bandwidth(self):
        mats = cmv_batch(RandomStream(330), 7, 300)
        for i in range(7):
            for j in range(7):
                if abs(i - j) > 2:
                    assert np.abs(mats[:, i, j]).max() <= 1e-15

    def test_n3_explicit_product(self):
        # symbolic oracle: R_odd R_even = R_1 R_2 built from explicit matrices
        from oracles import rotation
        s = RandomStream(331)
        thetas = np.array([[s.uniform(0, np.pi), s.uniform(0, np.pi)]])
        got = rotation_product_batch(thetas, cmv_order(3))[0]
        want = rotation(1, thetas[0, 0], 3) @ rotation(2, thetas[0, 1], 3)
        assert np.abs(got - want).max() <= 1e-15

    def test_eigenphase_ks_vs_hessenberg(self):
        n, count = 6, 6000
        cmv = cmv_batch(RandomStream(332), n, count)
        hess = hessenberg_batch(RandomStream(333), n, count)
        assert ks_two_sample(so_min_eigenphase_batch(cmv),
                             so_min_eigenphase_batch(hess)).passed

    def test_three_orderings_share_spectral_law(self):
        n, count = 6, 5000
        orders = [spectra.hessenberg_order(n), cmv_order(n),
                  [2, 4, 1, 5, 3]]  # a third fixed shuffle of the planes
        phases = []
        for i, order in enumerate(orders):
            thetas = spectra._spectral_thetas(RandomStream(334 + i), n, count)
            phases.append(so_min_eigenphase_batch(
                rotation_product_batch(thetas, order)))
        assert ks_two_sample(phases[0], phases[1]).passed
        assert ks_two_sample(phases[0], phases[2]).passed
        assert ks_two_sample(phases[1], phases[2]).passed

    def test_single_draw(self):
        m = cmv_batch(RandomStream(335), 5, 1)[0]
        assert adjoint_residual(m) <= 1e-13 * 5


class TestTraceSeries:
    def test_first_term_is_sign(self):
        s = RandomStream(340)
        z = s.gaussian(size=(500, 1))
        y1 = z / np.sqrt(np.cumsum(z * z, axis=1))
        assert np.abs(np.abs(y1) - 1.0).max() <= 1e-15

    def test_finite_trace_matches_hessenberg_trace(self):
        n, count = 20, 10_000
        series = trace_series_so_batch(RandomStream(341), n, count,
                                       finite_trace=True)
        mats = hessenberg_batch(RandomStream(342), n, count)
        traces = np.einsum("bii->b", mats)
        assert ks_two_sample(series, traces).passed

    def test_truncated_series_is_normal(self):
        series = trace_series_so_batch(RandomStream(343), 200, 20_000)
        cdf = lambda v: 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(v) / math.sqrt(2.0)))
        assert ks_test(series, cdf).passed

    def test_terms_guard(self):
        with pytest.raises(ValueError):
            trace_series_so_batch(RandomStream(344), 1, 10)

    def test_peak_memory_bounded(self, traced_peak):
        # one 16 MiB chunk of Z and one block for Y, neither alive during
        # the next chunk's draw: 38 MiB (81 MiB with a block per step)
        peak = traced_peak(lambda: trace_series_so_batch(RandomStream(345), 200, 10 ** 5))
        assert peak <= 48 * 2 ** 20

    def test_zero_first_term_redraw_is_bounded(self):
        class ZeroStream:
            calls = 0

            def gaussian(self, size):
                self.calls += 1
                assert self.calls <= 64, "the zero-draw redraw does not stop"
                return np.zeros(size)

        stream = ZeroStream()
        with pytest.raises(ConvergenceError):
            trace_series_so_batch(stream, 5, 3)
        assert stream.calls == 1 + REDRAW_ROUNDS


class TestPermSeries:
    def test_first_indicator_always_one(self):
        # with two terms the series equals Y_2 alone since Y_1 = 1 surely
        vals = trace_series_perm_batch(RandomStream(350), 2, 40_000)
        assert set(np.unique(vals)) <= {0, 1}
        assert abs(vals.mean() - 0.5) <= 5 * math.sqrt(0.25 / len(vals))

    def test_poisson_one(self):
        vals = trace_series_perm_batch(RandomStream(351), 400, 40_000)
        kmax = 5
        counts = np.array([(vals == k).sum() for k in range(kmax)]
                          + [(vals >= kmax).sum()], dtype=float)
        probs = np.array([math.exp(-1.0) / math.factorial(k) for k in range(kmax)])
        probs = np.append(probs, 1.0 - probs.sum())
        assert chi_square(counts, probs * len(vals)).passed

    def test_agrees_with_fixed_point_counts(self):
        n, count = 500, 2000
        series = trace_series_perm_batch(RandomStream(352), n, count)
        lines = samplers.permutation_batch(RandomStream(353), n, count)
        fixed = (lines == np.arange(n)).sum(axis=1)
        kmax = 4
        ca = np.array([(series == k).sum() for k in range(kmax)]
                      + [(series >= kmax).sum()], dtype=float)
        cb = np.array([(fixed == k).sum() for k in range(kmax)]
                      + [(fixed >= kmax).sum()], dtype=float)
        # two-sample chi-square on pooled expectations
        pooled = (ca + cb) / 2.0
        assert chi_square(ca, pooled).passed and chi_square(cb, pooled).passed


class TestMinEigenphase:
    def test_matches_full_extraction(self):
        mats = samplers.so_euler_batch(RandomStream(360), 6, 20)
        fast = so_min_eigenphase_batch(mats)
        for i in range(20):
            ph = eigenphases_batch(mats[i:i + 1])[0]
            ph = ph[(ph > 1e-9) & (ph < TWO_PI - 1e-9)]
            assert abs(fast[i] - ph.min()) <= 1e-8

    def test_odd_dimension_forced_eigenvalue(self):
        mats = samplers.so_euler_batch(RandomStream(361), 5, 50)
        kept = so_min_eigenphase_batch(mats)
        # the largest cosine of the symmetric part is the forced +1
        top = np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, 1, 2)))[:, -1]
        assert np.abs(np.arccos(np.clip(top, -1.0, 1.0))).max() <= 1e-7
        assert kept.min() > 1e-4

    def test_one_by_one_stack_is_refused(self):
        # SO(1) is {1}: its one eigenphase is the excluded forced +1
        with pytest.raises(ValueError, match="n >= 2 required"):
            so_min_eigenphase_batch(samplers.so_euler_batch(RandomStream(362), 1, 3))
