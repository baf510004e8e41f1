import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import chdtri, kolmogi

from haarforge import analytics
from haarforge.analytics import (
    TestReport,
    chi_square,
    coe_normalization,
    cue_normalization,
    ks_test,
    ks_two_sample,
    log_volume,
    moment_joint,
    moment_single,
    reynolds_average,
    so_volume_sphere_ratio,
    sphere_area,
    u_volume_sphere_ratio,
    volume,
    volume_quadrature,
)
from haarforge.randstream import RandomStream
from haarforge.samplers import DEFAULT_METHOD, SAMPLERS

TWO_PI = 2.0 * math.pi


class TestMoments:
    def test_normalization(self):
        for n in (2, 5, 9):
            assert moment_single(n, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_n2_p1_is_half(self):
        assert moment_single(2, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_n3_p2_vs_quadrature_oracle(self):
        # oracle: int |cos t|^4 sin(t) dt / int sin(t) dt over [0, pi]
        num, _ = integrate.quad(lambda t: math.cos(t) ** 4 * math.sin(t), 0, math.pi)
        den, _ = integrate.quad(math.sin, 0, math.pi)
        assert num / den == pytest.approx(0.2, rel=1e-12)
        assert moment_single(3, 2.0) == pytest.approx(num / den, rel=1e-12)

    def test_random_pairs_vs_quadrature(self):
        # X_NN = cos t with density ~ sin^{n-2} t on [0, pi]: the moment is
        # int |cos t|^{2p} sin^{n-2} t dt / int sin^{n-2} t dt; eight (n, p)
        # pairs from a fixed generator, p on [0, 4)
        rng = np.random.default_rng(400)
        for n, p in zip(rng.integers(2, 10, size=8).tolist(), rng.uniform(0.0, 4.0, size=8)):
            num, _ = integrate.quad(
                lambda t: abs(math.cos(t)) ** (2.0 * p) * math.sin(t) ** (n - 2),
                0, math.pi, limit=300, points=[math.pi / 2])
            den, _ = integrate.quad(lambda t: math.sin(t) ** (n - 2), 0, math.pi)
            assert moment_single(n, p) == pytest.approx(num / den, rel=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            moment_single(1, 1.0)
        with pytest.raises(ValueError):
            moment_single(3, -0.5)

    def test_joint_reduces_to_single(self):
        for n in range(4, 11):
            for p in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
                a, b = moment_joint(n, p, 0.0), moment_single(n, p)
                assert abs(a - b) <= 1e-14 * b

    def test_joint_value_and_symmetry(self):
        assert moment_joint(3, 1.0, 1.0) == pytest.approx(2.0 / 15.0, rel=1e-13)
        for n in (4, 6):
            assert moment_joint(n, 1.5, 0.5) == pytest.approx(
                moment_joint(n, 0.5, 1.5), rel=1e-14)

    def test_out_of_range_arguments_rejected(self):
        for call in (lambda: moment_single(1, 1.0), lambda: moment_single(4, -1.0),
                     lambda: moment_joint(1, 1.0, 1.0), lambda: moment_joint(4, -1.0, 1.0),
                     lambda: moment_joint(4, 1.0, -0.5)):
            with pytest.raises(ValueError):
                call()
        for bad in (math.nan, math.inf):
            for call in (lambda: moment_single(4, bad), lambda: moment_joint(4, bad, 1.0),
                         lambda: moment_joint(4, 1.0, bad)):
                with pytest.raises(ValueError):
                    call()

    @pytest.mark.parametrize("p", [1e20, 1e308])
    def test_exponents_past_the_bound_rejected(self, p):
        # lgamma overflows at 1e308; at 1e20 the log-gamma difference
        # returns 1.0 where the true value is 7.5e-41
        for call in (lambda: moment_single(3, p), lambda: moment_single(5, p),
                     lambda: moment_joint(5, p, 1.0), lambda: moment_joint(5, 1.0, p)):
            with pytest.raises(ValueError, match="1e\\+06"):
                call()

    def test_exponent_bound_is_inclusive_and_accurate(self):
        bound = analytics.MOMENT_EXPONENT_MAX
        # Gamma(p + 1/2) / Gamma(p + 1) ~ p^(-1/2) (1 - 1/(8p)), so
        # moment_single(2, p) = Gamma(p + 1/2) / (sqrt(pi) Gamma(p + 1))
        want = (1.0 - 1.0 / (8.0 * bound)) / math.sqrt(math.pi * bound)
        assert moment_single(2, bound) == pytest.approx(want, rel=1e-8)
        assert moment_joint(5, bound, bound) > 0.0
        with pytest.raises(ValueError):
            moment_single(2, math.nextafter(bound, math.inf))


class TestVolumes:
    def test_named_values(self):
        assert volume("u", 1) == pytest.approx(TWO_PI, rel=1e-14)
        assert volume("so", 2) == pytest.approx(2.0 ** 1.5 * math.pi, rel=1e-14)
        assert volume("so", 3) == pytest.approx(2.0 ** 4.5 * math.pi ** 2, rel=1e-14)
        assert volume("u", 2) == pytest.approx(8.0 * math.pi ** 3, rel=1e-14)

    def test_quadrature_cross_checks(self):
        for tag, n in (("so", 2), ("so", 3), ("u", 1), ("u", 2)):
            got, refine = volume_quadrature(tag, n)
            assert got == pytest.approx(volume(tag, n), rel=1e-6)
            assert refine <= 1e-6 * volume(tag, n)

    def test_quadrature_grid_is_never_materialised_per_axis(self, traced_peak):
        # one dense weight grid and its product with the density (36^4
        # doubles, 12.8 MiB each) bound the traced peak of the refined U(2)
        # grid; per-axis coordinate grids would add four more
        assert traced_peak(lambda: volume_quadrature("u", 2)) <= 40 * 2 ** 20

    def test_quadrature_calls_density_once_per_grid(self, monkeypatch):
        for tag, n, name in (("so", 3, "density_so"), ("u", 2, "density_u")):
            calls = []
            real = getattr(analytics, name)

            def counting(*args, real=real):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(analytics, name, counting)
            volume_quadrature(tag, n)
            assert len(calls) == 2  # the coarse grid and the 3/2-refined one

    def test_quotient_relations(self):
        for n in range(1, 15):
            assert volume("o", n) == pytest.approx(2.0 * volume("so", n), rel=1e-12)
            assert volume("o/o1", n) == pytest.approx(
                volume("o", n) / 2.0 ** n, rel=1e-12)
            assert volume("u/u1", n) == pytest.approx(
                volume("u", n) / TWO_PI ** n, rel=1e-12)
            lhs = log_volume("u/o", n)
            rhs = (n * (n + 1) / 2.0 * math.log(2.0) + log_volume("u", n)
                   - log_volume("o", n))
            assert abs(lhs - rhs) <= 1e-12

    def test_unsupported_tag(self):
        with pytest.raises(ValueError):
            volume("sp", 2)

    def test_sphere_area(self):
        assert sphere_area(2, 1.0) == pytest.approx(TWO_PI, rel=1e-14)
        assert sphere_area(3, 1.0) == pytest.approx(4.0 * math.pi, rel=1e-14)
        lhs, rhs = so_volume_sphere_ratio(3)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        lhs, rhs = u_volume_sphere_ratio(3)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_no_overflow_at_large_n(self):
        assert math.isfinite(log_volume("u", 60))
        with pytest.raises(ValueError, match="underflows"):
            volume("u", 60)
        with pytest.raises(ValueError, match="underflows"):
            volume("o/o1", 84)
        assert volume("o/o1", 83) > 0.0 and volume("so", 85) > 0.0
        lhs, rhs = so_volume_sphere_ratio(20)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestNormalizations:
    def test_small_cases(self):
        assert cue_normalization(1) == pytest.approx(TWO_PI, rel=1e-14)
        assert coe_normalization(1) == pytest.approx(1.0, rel=1e-14)
        assert cue_normalization(2) == pytest.approx(8.0 * math.pi ** 2, rel=1e-14)
        assert coe_normalization(2) == pytest.approx(4.0 / math.pi, rel=1e-14)
        assert TWO_PI ** 2 * coe_normalization(2) == pytest.approx(16.0 * math.pi, rel=1e-13)

    def test_volume_identity(self):
        # C_N = N! vol(U/O) / vol(O/O1^N) / (2 pi)^N
        for n in (1, 2, 3, 5, 8):
            lhs = coe_normalization(n)
            rhs = math.exp(math.lgamma(n + 1.0) + log_volume("u/o", n)
                           - log_volume("o/o1", n) - n * math.log(TWO_PI))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_n3_raw_integrals_by_tensor_quadrature(self):
        # periodic midpoint rule over [0, 2*pi)^3 of prod |e^{i a}-e^{i b}|^beta;
        # the beta=2 integrand is a trigonometric polynomial (rule is exact),
        # the beta=1 kinks converge at second order (512 vs 256 panels agree)
        def raw3(beta, m):
            t = (np.arange(m) + 0.5) * TWO_PI / m
            f = (2.0 * np.abs(np.sin(0.5 * (t[:, None] - t[None, :])))) ** beta
            h3 = (TWO_PI / m) ** 3
            total = 0.0
            for c in range(m):
                v = f[:, c]
                total += v @ f @ v
            return h3 * total

        got2 = raw3(2.0, 256)
        assert got2 == pytest.approx(cue_normalization(3), rel=1e-10)
        got1a, got1b = raw3(1.0, 256), raw3(1.0, 512)
        want1 = TWO_PI ** 3 * coe_normalization(3)  # = (2 pi)^3 * 6/pi = 48 pi^2
        assert want1 == pytest.approx(48.0 * math.pi ** 2, rel=1e-12)
        assert got1b == pytest.approx(want1, rel=5e-3)
        assert abs(got1b - want1) < abs(got1a - want1)  # converging


class TestReynolds:
    def test_constant_is_exact(self):
        mean, se = reynolds_average(lambda m, x: 4.25, "o", 3,
                                    RandomStream(410), 100, None)
        assert mean == 4.25 and se == 0.0

    def test_exact_permutation_enumeration(self):
        x = np.array([0.3, 1.4, -2.0, 0.7])
        mean, se = reynolds_average(lambda m, v: (m @ v)[:, 0],
                                    "sn", 4, RandomStream(411), 2,
                                    x, exact=True)
        assert se == 0.0
        assert mean == pytest.approx(x.mean(), rel=1e-14)

    def test_fourth_power_over_o3(self):
        x = np.array([0.0, 1.0, 0.0])
        mean, se = reynolds_average(lambda m, v: (m @ v)[:, 0] ** 4,
                                    "o", 3, RandomStream(412),
                                    60_000, x)
        assert abs(mean - 0.2) <= 5 * se

    def test_guards(self):
        with pytest.raises(ValueError):
            reynolds_average(lambda m, x: 0.0, "o", 3,
                             RandomStream(413), 1, None)
        for tag, n in (("x", 3), ("o", 0), ("o", 2.5), ("sn", True)):
            with pytest.raises(ValueError):
                reynolds_average(lambda m, x: 0.0, tag, n, RandomStream(413), 10, None)

    @pytest.mark.parametrize("group", [("o", 3), ("u", 2), ("sp", 1)])
    def test_exact_needs_the_permutation_group(self, group):
        with pytest.raises(ValueError, match="permutation group"):
            reynolds_average(lambda m, x: 1.0, *group, RandomStream(414), 100, None, exact=True)

    def test_stack_matches_per_matrix_loop(self):
        cases = [(("o", 3), np.array([0.6, 0.0, 0.8]),
                  lambda m, v: (m @ v)[:, 0] ** 4, lambda m, v: float((m @ v)[0]) ** 4),
                 (("u", 2), np.array([1.0, 1.0j]) / math.sqrt(2.0),
                  lambda m, v: np.abs((m @ v)[:, 1]) ** 2, lambda m, v: abs((m @ v)[1]) ** 2)]
        for seed, (group, x, f_stack, f_one) in enumerate(cases, start=414):
            samples = 2_000
            mean, se = reynolds_average(f_stack, *group, RandomStream(seed), samples, x)
            tag, n = group
            mats = SAMPLERS[(tag, DEFAULT_METHOD[tag])].draw(RandomStream(seed), n, samples)
            vals = [f_one(m, x) for m in mats]
            want = sum(vals) / samples
            var = sum((v - want) ** 2 for v in vals) / (samples - 1)
            assert mean == pytest.approx(want, rel=1e-13)
            assert se == pytest.approx(math.sqrt(var / samples), rel=1e-13)

    def test_complex_values_are_rejected(self):
        x = np.array([1.0, 0.0])
        for f in (lambda m, v: 1j * np.abs((m @ v)[:, 0]) ** 2,
                  lambda m, v: (m @ v)[:, 0]):
            with pytest.raises(ValueError, match="real values"):
                reynolds_average(f, "u", 2, RandomStream(417), 50, x)

    def test_complex_dtype_with_zero_imaginary_parts_is_real(self):
        x = np.array([1.0, 0.0])
        f = lambda m, v: np.abs((m @ v)[:, 0]) ** 2
        want = reynolds_average(f, "u", 2, RandomStream(418), 50, x)
        got = reynolds_average(lambda m, v: f(m, v) + 0j, "u", 2,
                               RandomStream(418), 50, x)
        assert got == want

    def test_wrong_shape_is_rejected(self):
        with pytest.raises(ValueError, match="scalar or shape"):
            reynolds_average(lambda m, v: m[:, 0, :2], "o", 3,
                             RandomStream(416), 50, None)


class TestStatPrimitives:
    def test_ks_uniform_passes(self):
        draws = RandomStream(420).uniform(size=20_000)
        assert ks_test(draws, lambda v: np.asarray(v)).passed

    def test_ks_shifted_uniform_fails(self):
        draws = RandomStream(421).uniform(size=10_000)
        shifted_cdf = lambda v: np.clip(np.asarray(v) - 0.2, 0.0, 1.0)
        rep = ks_test(draws, shifted_cdf)
        assert not rep.passed and rep.statistic >= 0.19

    def test_ks_cdf_must_return_the_sample_shape(self):
        draws = RandomStream(423).uniform(size=100)
        with pytest.raises(ValueError, match="cdf must return"):
            ks_test(draws, lambda v: 0.5)

    def test_two_sample_identical_is_zero(self):
        draws = RandomStream(422).uniform(size=500)
        rep = ks_two_sample(draws, draws)
        assert rep.statistic == 0.0 and rep.passed

    def test_sample_size_guards(self):
        with pytest.raises(ValueError):
            ks_test([0.5] * 10, lambda v: v)
        with pytest.raises(ValueError):
            ks_two_sample([0.5] * 50, [0.6] * 200)

    def test_chi_square_guards(self):
        with pytest.raises(ValueError):
            chi_square([10, 10], [0.0, 20.0])
        with pytest.raises(ValueError):
            chi_square([10, 10], [2.0, 18.0])

    def test_report_invariant(self):
        # the pass flag is derived: statistic <= critical, False for NaN
        def passed(statistic):
            return TestReport(statistic=statistic, critical=1.0, n=10, method="ks").passed

        assert passed(1.0) is True and passed(0.5) is True
        assert passed(2.0) is False and passed(math.nan) is False

    def test_chi_square_calibration(self):
        # uniform counts against their own expectation pass at the 0.1% level
        draws = RandomStream(423).uniform(size=50_000)
        counts = np.histogram(draws, bins=np.linspace(0, 1, 11))[0]
        rep = chi_square(counts, np.full(10, 5000.0))
        assert rep.passed

    @pytest.mark.parametrize("level", [math.nan, 0.0, -0.1, 1.0, 1.5, math.inf])
    def test_a_level_outside_the_open_unit_interval_is_rejected(self, level):
        draws = RandomStream(424).uniform(size=200)
        with pytest.raises(ValueError, match="level must lie in"):
            ks_test(draws, lambda v: v, level=level)
        with pytest.raises(ValueError, match="level must lie in"):
            ks_two_sample(draws[:100], draws[100:], level=level)
        with pytest.raises(ValueError, match="level must lie in"):
            chi_square([10, 10], [10.0, 10.0], level=level)

    @pytest.mark.parametrize("bins", [0, 1])
    def test_chi_square_needs_two_bins(self, bins):
        with pytest.raises(ValueError, match="at least two bins"):
            chi_square([10] * bins, [10.0] * bins)


class TestCriticalValues:
    """The KS and chi-square critical values, solved in numpy and math,
    against scipy.special's kolmogi and chdtri."""

    @pytest.mark.parametrize("level", np.logspace(-12, math.log10(0.5), 25))
    def test_kolmogorov_quantile_matches_kolmogi(self, level):
        got = analytics._kolmogorov_quantile(level)
        assert got == pytest.approx(kolmogi(level), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("level", 1.0 - np.geomspace(0.499, 1e-15, 20))
    def test_kolmogorov_quantile_near_level_one_matches_kolmogi(self, level):
        # above 0.5 the survival series cancels; Jacobi's CDF form does not
        got = analytics._kolmogorov_quantile(level)
        assert got == pytest.approx(kolmogi(level), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dof", [*range(1, 61), 100, 719, 1000, 5039])
    def test_chi2_quantile_matches_chdtri(self, dof):
        for level in (1e-6, 1e-3, 0.01, 0.05, 0.1):
            got = analytics._chi2_quantile(level, dof)
            assert got == pytest.approx(chdtri(dof, level), rel=1e-13, abs=0.0), level

    def test_a_value_is_solved_once_per_level_and_dof(self, monkeypatch):
        solved, solve = [], analytics._upper_quantile

        def spy(sf_pdf, level, lo, hi):
            solved.append(level)
            return solve(sf_pdf, level, lo, hi)

        monkeypatch.setattr(analytics, "_upper_quantile", spy)
        analytics._kolmogorov_quantile.cache_clear()
        analytics._chi2_quantile.cache_clear()
        draws = RandomStream(425).uniform(size=400)

        def run(level, bins):
            return (ks_test(draws, lambda v: v, level=level).critical,
                    ks_two_sample(draws[:200], draws[200:], level=level).critical,
                    chi_square(np.full(bins, 20.0), np.full(bins, 20.0), level=level).critical)

        first = run(0.02, 4)
        assert solved == [0.02, 0.02]  # one Kolmogorov and one chi-square solve
        assert run(0.02, 4) == first and len(solved) == 2
        run(0.02, 5)  # a new dof is a new chi-square solve, the KS value is kept
        run(0.03, 4)
        assert solved == [0.02, 0.02, 0.02, 0.03, 0.03]
