import math

import numpy as np
import pytest
from scipy import integrate, stats

from haarforge.analytics import ks_test
from haarforge.linalg import REDRAW_ROUNDS, ConvergenceError
from haarforge.randstream import RandomStream

from oracles import bin_probabilities, grid_cdf, polar_gaussian

TWO_PI = 2.0 * np.pi


def xi_stream(xi):
    """A stream whose uniforms are the fixed values ``xi`` (for the
    transforms' boundaries); every other draw is the real one."""
    s = RandomStream(0)
    gen = s._gen

    class Gen:
        def __getattr__(self, name):
            return getattr(gen, name)

        def random(self, size=None):
            return np.asarray(xi, dtype=float).reshape(size)

    s._gen = Gen()
    return s


def test_uniform_mean():
    s = RandomStream(100)
    draws = s.uniform(size=1_000_000)
    assert abs(draws.mean() - 0.5) <= 0.002


def test_uniform_ks_against_cdf():
    s = RandomStream(101)
    draws = s.uniform(0.0, TWO_PI, size=100_000)
    rep = ks_test(draws, lambda v: np.asarray(v) / TWO_PI)
    assert rep.passed
    # the 0.1% asymptotic critical value is 1.95/sqrt(n)
    assert rep.critical * math.sqrt(100_000) == pytest.approx(1.95, abs=0.005)


def test_uniform_replay_and_bounds():
    a = RandomStream(7, 3).uniform(size=100)
    b = RandomStream(7, 3).uniform(size=100)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        RandomStream(7).uniform(1.0, 1.0)


@pytest.mark.parametrize("size", [None, 1, 7, (3, 4)])
def test_scaled_uniform_bits(size):
    # scaled in place, the draw keeps the bits of lo + (hi - lo) * r
    r = RandomStream(101, 2)._gen.random(size)
    got = RandomStream(101, 2).uniform(-1.5, 2.25, size=size)
    assert np.asarray(got).tobytes() == np.asarray(-1.5 + 3.75 * r).tobytes()


def test_distinct_streams_differ_and_interleave_independently():
    a = RandomStream(7, 0)
    b = RandomStream(7, 1)
    seq_a_alone = RandomStream(7, 0).uniform(size=50)
    got_a, got_b = [], []
    for _ in range(50):
        got_a.append(a.uniform())
        got_b.append(b.uniform())
    assert np.array_equal(np.asarray(got_a), seq_a_alone)
    assert not np.array_equal(np.asarray(got_a), np.asarray(got_b))


def _size_for_pairs(m):
    """The smallest draw whose single chunk takes m uniform pairs."""
    need = int((m - 16) / 0.7)
    while int(need * 0.7) + 16 < m:
        need += 1
    return need


_BLOCK, _CHUNK = RandomStream._BLOCK, RandomStream._CHUNK


class TestGaussian:
    @pytest.mark.parametrize("size", [
        1, 7, (2, 3, 5), _size_for_pairs(_BLOCK - 1), _size_for_pairs(_BLOCK),
        _size_for_pairs(_BLOCK + 1), _CHUNK - 1, _CHUNK, _CHUNK + 1, int(2.5 * _CHUNK)])
    def test_bits_equal_polar_oracle(self, size):
        # the blocked form draws the whole-chunk form's stream: the same
        # variates, and the stream left at the same position
        s, ref = RandomStream(104, 3), RandomStream(104, 3)
        got, want = s.gaussian(size), polar_gaussian(ref._gen, size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert s.uniform(size=3).tobytes() == ref.uniform(size=3).tobytes()

    def test_peak_memory_bounded(self, traced_peak):
        # the uniforms are the only scratch: 2.5x the output (4.9x when
        # every step of the chunk had its own array)
        assert traced_peak(lambda: RandomStream(105).gaussian(10 ** 6)) <= 3 * 8 * 10 ** 6

    def test_moments(self):
        s = RandomStream(102)
        z = s.gaussian(size=1_000_000)
        assert abs(z.mean()) <= 0.004
        assert abs(z.var() - 1.0) <= 0.006

    def test_fourth_moment_vs_quadrature_oracle(self):
        # oracle: E[x^4] for the standard normal by quadrature
        target, _ = integrate.quad(
            lambda x: x ** 4 * math.exp(-x * x / 2.0) / math.sqrt(TWO_PI),
            -12.0, 12.0)
        assert target == pytest.approx(3.0, abs=1e-10)
        z = RandomStream(103).gaussian(size=1_000_000)
        assert abs((z ** 4).mean() - target) <= 0.05

    def test_size_one_calls_replay(self):
        s1, s2 = RandomStream(5, 9), RandomStream(5, 9)
        a = [s1.gaussian(1)[0] for _ in range(10)]
        assert a == [s2.gaussian(1)[0] for _ in range(10)]
        assert RandomStream(5, 9).gaussian((2, 3)).shape == (2, 3)

    def test_size_is_required(self):
        with pytest.raises(TypeError):
            RandomStream(5).gaussian()

    @pytest.mark.parametrize("size", [1, 7, _CHUNK + 1])
    def test_out_fills_a_strided_view_with_the_same_stream(self, size):
        s, ref = RandomStream(106, 2), RandomStream(106, 2)
        block = np.zeros(2 * size)
        assert s.gaussian(size, out=block[1::2]) is not None
        assert block[1::2].tobytes() == ref.gaussian(size).tobytes()
        assert not block[0::2].any()
        assert s.uniform(size=3).tobytes() == ref.uniform(size=3).tobytes()

    def test_out_of_another_length_raises(self):
        with pytest.raises(ValueError):
            RandomStream(5).gaussian(4, out=np.empty(5))
        with pytest.raises(ValueError):
            RandomStream(5).gaussian((2, 2), out=np.empty((2, 2)))


class TestCosThetaSO:
    def test_j2_is_uniform(self):
        draws = RandomStream(104).cos_theta_so(2, size=100_000)
        rep = ks_test(draws, lambda v: (np.asarray(v) + 1.0) / 2.0)
        assert rep.passed

    def test_j1_second_moment(self):
        draws = RandomStream(105).cos_theta_so(1, size=200_000)
        se = (draws ** 2).std(ddof=1) / math.sqrt(len(draws))
        assert abs((draws ** 2).mean() - 0.5) <= 5 * se

    @pytest.mark.parametrize("j", [1, 2, 3, 5, 8])
    def test_second_moment_is_beta_mean(self, j):
        draws = RandomStream(106 + j).cos_theta_so(j, size=100_000)
        sq = draws ** 2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 1.0 / (j + 1)) <= 5 * se

    def test_ks_against_quadrature_cdf(self):
        j = 3
        draws = RandomStream(115).cos_theta_so(j, size=100_000)
        cdf = grid_cdf(lambda t: (1.0 - t * t) ** ((j - 2) / 2.0), -1.0, 1.0)
        assert ks_test(draws, cdf).passed

    def test_array_j_rows_follow_beta_laws(self):
        # fixed design: seed 170, 50,000 per row, family-wise 1e-3
        # Bonferroni over the 8 rows
        js = np.arange(1, 9)
        draws = RandomStream(170).cos_theta_so(js[:, None], size=(8, 50_000))
        p = [stats.kstest(0.5 * (1.0 + row), stats.beta(j / 2.0, j / 2.0).cdf).pvalue
             for j, row in zip(js, draws)]
        assert min(p) > 1e-3 / len(js), p

    def test_array_j_broadcasts_against_size(self):
        s = RandomStream(171)
        got = s.cos_theta_so(np.array([[1], [4], [9]]), size=(3, 5))
        assert got.shape == (3, 5) and np.all(np.abs(got) <= 1.0)
        assert s.cos_theta_so(np.array([2, 3]), size=(4, 2)).shape == (4, 2)
        assert s.cos_theta_so(np.array([2, 3]), size=2).shape == (2,)
        with pytest.raises(ValueError):
            s.cos_theta_so(np.array([2, 3, 4]), size=(4, 2))

    def test_zero_denominator_is_redrawn(self):
        # force g = 0 and G = 0 at one entry of the first block: that entry
        # must be redrawn, not returned as 0/0
        s = RandomStream(174)
        gen, gaussian = s._gen, s.gaussian
        first = {"g", "G"}

        def zero_first(out, key):
            if key in first:
                first.discard(key)
                out[0, 1] = 0.0
            return out

        class Gen:
            def __getattr__(self, name):
                return getattr(gen, name)

            def standard_gamma(self, shape, size=None):
                return zero_first(gen.standard_gamma(shape, size=size), "G")

        s.gaussian = lambda size=None: zero_first(gaussian(size), "g")
        s._gen = Gen()
        got = s.cos_theta_so(np.array([[1], [3]]), size=(2, 4))
        assert not first and np.all(np.isfinite(got)) and got[0, 1] != 0.0

    def test_zero_denominator_redraw_is_bounded(self):
        s = RandomStream(175)
        calls = []

        def zero_gaussians(size=None):
            calls.append(size)
            assert len(calls) <= 64, "the zero-denominator redraw does not stop"
            return np.zeros(size)

        class Gen:
            def standard_gamma(self, shape, size=None):
                return np.zeros(np.shape(shape) if size is None else size)

        s.gaussian, s._gen = zero_gaussians, Gen()
        with pytest.raises(ConvergenceError):
            s.cos_theta_so(np.array([[1], [3]]), size=(2, 4))
        assert len(calls) == 1 + REDRAW_ROUNDS

    def test_j_below_one_rejected(self):
        s = RandomStream(173)
        with pytest.raises(ValueError):
            s.cos_theta_so(0, size=1)
        with pytest.raises(ValueError):
            s.cos_theta_so(np.array([[3], [0]]), size=(2, 4))


class TestPhiUnitary:
    def test_j1_mean(self):
        draws = RandomStream(120).phi_unitary(1, size=200_000)
        sq = np.sin(draws) ** 2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 0.5) <= 5 * se

    @pytest.mark.parametrize("j", [1, 2, 4, 7])
    def test_sin_squared_is_beta_j_1(self, j):
        # Beta(j, 1) has mean j/(j+1)
        draws = RandomStream(121 + j).phi_unitary(j, size=100_000)
        sq = np.sin(draws) ** 2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - j / (j + 1.0)) <= 5 * se

    def test_boundary_transform(self):
        phi = xi_stream([1.0, 0.0]).phi_unitary(3, size=2)
        assert phi[0] == pytest.approx(np.pi / 2.0)
        assert phi[1] == 0.0

    def test_ks_against_quadrature_cdf(self):
        j = 2
        draws = RandomStream(130).phi_unitary(j, size=100_000)
        cdf = grid_cdf(lambda p: math.cos(p) * math.sin(p) ** (2 * j - 1),
                       0.0, np.pi / 2.0)
        assert ks_test(draws, cdf).passed


class TestRhoSymplectic:
    def test_j1_mean_is_half(self):
        # sin^2 rho ~ Beta(2, 2), mean 1/2, by the u(1-u) change of variables
        draws = RandomStream(140).rho_symplectic(1, size=200_000)
        sq = np.sin(draws) ** 2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 0.5) <= 5 * se

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_mean_matches_quadrature_oracle(self, j):
        def pdf(r):
            return math.cos(r) ** 3 * math.sin(r) ** (4 * j - 1)
        num, _ = integrate.quad(lambda r: math.sin(r) ** 2 * pdf(r), 0, np.pi / 2)
        den, _ = integrate.quad(pdf, 0, np.pi / 2)
        target = num / den
        draws = RandomStream(141 + j).rho_symplectic(j, size=100_000)
        sq = np.sin(draws) ** 2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - target) <= 5 * se

    def test_range(self):
        draws = RandomStream(150).rho_symplectic(3, size=10_000)
        assert draws.min() >= 0.0 and draws.max() <= np.pi / 2.0

    def test_ks_against_quadrature_cdf(self):
        j = 2
        draws = RandomStream(151).rho_symplectic(j, size=100_000)
        cdf = grid_cdf(lambda r: math.cos(r) ** 3 * math.sin(r) ** (4 * j - 1),
                       0.0, np.pi / 2.0)
        assert ks_test(draws, cdf).passed


class TestSin2Phi:
    def test_mean(self):
        draws = RandomStream(160).sin2phi_quaternion(size=200_000)
        sq = np.sin(draws) ** 2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 0.5) <= 5 * se

    def test_boundary(self):
        phi = xi_stream([0.0, 1.0]).sin2phi_quaternion(size=2)
        assert phi[0] == 0.0
        assert phi[1] == pytest.approx(np.pi / 2.0)

    def test_histogram_chi_square(self):
        from haarforge.analytics import chi_square
        draws = RandomStream(161).sin2phi_quaternion(size=100_000)
        edges = np.linspace(0.0, np.pi / 2.0, 17)
        counts = np.histogram(draws, bins=edges)[0]
        probs = bin_probabilities(lambda p: math.sin(2.0 * p), edges)
        rep = chi_square(counts, probs * len(draws))
        assert rep.passed

    def test_ks_against_quadrature_cdf(self):
        draws = RandomStream(162).sin2phi_quaternion(size=100_000)
        cdf = grid_cdf(lambda p: math.sin(2.0 * p), 0.0, np.pi / 2.0)
        assert ks_test(draws, cdf).passed


def test_every_sampler_is_reproducible():
    def consume(s):
        return (list(s.uniform(size=3)) + list(s.gaussian(1))
                + list(s.cos_theta_so(2, size=2)) + list(s.phi_unitary(3, size=1))
                + list(s.rho_symplectic(2, size=1)) + list(s.sin2phi_quaternion(size=1)))
    assert consume(RandomStream(42, 17)) == consume(RandomStream(42, 17))
