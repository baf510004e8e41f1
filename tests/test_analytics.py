import math

import numpy as np
import pytest
from scipy import integrate

from haarforge import analytics
from haarforge.analytics import (
    TestReport,
    beta_integral_T,
    chi_square,
    coe_normalization,
    coe_normalization_raw,
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
from haarforge.samplers import DEFAULT_METHOD, SAMPLERS, GroupId

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


class TestBetaIntegral:
    def test_endpoints(self):
        assert beta_integral_T(0.0, 0.0) == pytest.approx(math.pi, rel=1e-15)
        val, _ = integrate.quad(lambda t: abs(math.sin(t)) * abs(math.cos(t)),
                                0, math.pi)
        assert val == pytest.approx(1.0, rel=1e-12)
        assert beta_integral_T(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_random_pairs_vs_quadrature(self):
        rng = np.random.default_rng(400)
        for _ in range(8):
            a, b = rng.uniform(0.0, 4.0, size=2)
            want, _ = integrate.quad(
                lambda t: abs(math.sin(t)) ** a * abs(math.cos(t)) ** b,
                0, math.pi, limit=300, points=[math.pi / 2])
            assert beta_integral_T(a, b) == pytest.approx(want, rel=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_integral_T(-1.0, 0.0)


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
        lhs, rhs = so_volume_sphere_ratio(20)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestNormalizations:
    def test_small_cases(self):
        assert cue_normalization(1) == pytest.approx(TWO_PI, rel=1e-14)
        assert coe_normalization(1) == pytest.approx(1.0, rel=1e-14)
        assert cue_normalization(2) == pytest.approx(8.0 * math.pi ** 2, rel=1e-14)
        assert coe_normalization(2) == pytest.approx(4.0 / math.pi, rel=1e-14)
        assert coe_normalization_raw(2) == pytest.approx(16.0 * math.pi, rel=1e-13)

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
        want1 = coe_normalization_raw(3)  # = (2 pi)^3 * 6/pi = 48 pi^2
        assert want1 == pytest.approx(48.0 * math.pi ** 2, rel=1e-12)
        assert got1b == pytest.approx(want1, rel=5e-3)
        assert abs(got1b - want1) < abs(got1a - want1)  # converging


class TestReynolds:
    def test_constant_is_exact(self):
        mean, se = reynolds_average(lambda m, x: 4.25, GroupId("o", 3),
                                    RandomStream(410), 100, None)
        assert mean == 4.25 and se == 0.0

    def test_exact_permutation_enumeration(self):
        x = np.array([0.3, 1.4, -2.0, 0.7])
        mean, se = reynolds_average(lambda m, v: (m @ v)[:, 0],
                                    GroupId("sn", 4), RandomStream(411), 2,
                                    x, exact=True)
        assert se == 0.0
        assert mean == pytest.approx(x.mean(), rel=1e-14)

    def test_fourth_power_over_o3(self):
        x = np.array([0.0, 1.0, 0.0])
        mean, se = reynolds_average(lambda m, v: (m @ v)[:, 0] ** 4,
                                    GroupId("o", 3), RandomStream(412),
                                    60_000, x)
        assert abs(mean - 0.2) <= 5 * se

    def test_guards(self):
        with pytest.raises(ValueError):
            reynolds_average(lambda m, x: 0.0, GroupId("o", 3),
                             RandomStream(413), 1, None)

    def test_stack_matches_per_matrix_loop(self):
        cases = [(GroupId("o", 3), np.array([0.6, 0.0, 0.8]),
                  lambda m, v: (m @ v)[:, 0] ** 4, lambda m, v: float((m @ v)[0]) ** 4),
                 (GroupId("u", 2), np.array([1.0, 1.0j]) / math.sqrt(2.0),
                  lambda m, v: np.abs((m @ v)[:, 1]) ** 2, lambda m, v: abs((m @ v)[1]) ** 2)]
        for seed, (group, x, f_stack, f_one) in enumerate(cases, start=414):
            samples = 2_000
            mean, se = reynolds_average(f_stack, group, RandomStream(seed), samples, x)
            mats = SAMPLERS[(group.tag, DEFAULT_METHOD[group.tag])].draw(
                RandomStream(seed), group.n, samples)
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
                reynolds_average(f, GroupId("u", 2), RandomStream(417), 50, x)

    def test_complex_dtype_with_zero_imaginary_parts_is_real(self):
        x = np.array([1.0, 0.0])
        f = lambda m, v: np.abs((m @ v)[:, 0]) ** 2
        want = reynolds_average(f, GroupId("u", 2), RandomStream(418), 50, x)
        got = reynolds_average(lambda m, v: f(m, v) + 0j, GroupId("u", 2),
                               RandomStream(418), 50, x)
        assert got == want

    def test_wrong_shape_is_rejected(self):
        with pytest.raises(ValueError, match="scalar or shape"):
            reynolds_average(lambda m, v: m[:, 0, :2], GroupId("o", 3),
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
        with pytest.raises(ValueError):
            TestReport(statistic=2.0, critical=1.0, n=10, passed=True,
                       method="ks")

    def test_chi_square_calibration(self):
        # uniform counts against their own expectation pass at the 0.1% level
        draws = RandomStream(423).uniform(size=50_000)
        counts = np.histogram(draws, bins=np.linspace(0, 1, 11))[0]
        rep = chi_square(counts, np.full(10, 5000.0))
        assert rep.passed
