import math

import numpy as np
import pytest

from haarforge import euler
from haarforge.euler import (
    EulerAnglesSO,
    EulerAnglesSp,
    EulerAnglesU,
    ReflectionError,
    angle_pairs,
    compose_so,
    compose_sp,
    compose_u,
    coset_E_so,
    coset_E_u,
    density_so,
    density_sp,
    density_u,
    extract_angles_so,
    extract_angles_u,
    quaternion_block,
    rotation_R,
    unitary_U,
)
from haarforge.linalg import (
    NotUnitaryError,
    SquareMatrix,
    adjoint_residual,
    determinant,
    symplectic_residual,
)
from haarforge.randstream import RandomStream
from haarforge import samplers

from oracles import so_coset_bottom_row, triple_loop_multiply

TWO_PI = 2.0 * np.pi


def so_record(rng, n, margin=0.0):
    theta = {}
    for (j, k) in angle_pairs(n):
        if j == 1:
            theta[(j, k)] = rng.uniform(0.0, TWO_PI)
        else:
            theta[(j, k)] = rng.uniform(margin, np.pi - margin)
    return EulerAnglesSO(n=n, theta=theta)


def u_record(rng, n):
    pairs = angle_pairs(n)
    return EulerAnglesU(
        n=n,
        phi={p: rng.uniform(0.0, np.pi / 2.0) for p in pairs},
        psi={p: rng.uniform(0.0, TWO_PI) for p in pairs},
        alpha=tuple(rng.uniform(0.0, TWO_PI, size=n)),
    )


def sp_record(rng, n):
    pairs = angle_pairs(n)
    trip = lambda: (rng.uniform(0.0, np.pi / 2.0), rng.uniform(0.0, TWO_PI),
                    rng.uniform(0.0, TWO_PI))
    return EulerAnglesSp(
        n=n,
        rho={p: rng.uniform(0.0, np.pi / 2.0) for p in pairs},
        quat={p: trip() for p in pairs},
        lead=tuple(trip() for _ in range(n)),
    )


class TestElementaryBlocks:
    def test_rotation_zero_angle(self):
        assert np.array_equal(rotation_R(2, 0.0, 4).entries, np.eye(4))

    def test_rotation_quarter_turn(self):
        got = rotation_R(1, np.pi / 2.0, 2).entries.real
        assert np.allclose(got, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_rotation_orthogonal_and_det_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            j = int(rng.integers(1, 5))
            r = rotation_R(j, rng.uniform(0, TWO_PI), 5)
            assert adjoint_residual(r.entries) <= 1e-15
            assert determinant(r).real == pytest.approx(1.0)

    def test_rotation_index_range(self):
        with pytest.raises(ValueError):
            rotation_R(4, 0.1, 4)

    def test_unitary_identity_case(self):
        assert np.array_equal(unitary_U(1, 0.0, 1.3, 0.0, 3).entries, np.eye(3))

    def test_unitary_reduces_to_rotation(self):
        phi = 0.77
        u = unitary_U(2, phi, 0.0, 0.0, 4)
        assert np.abs(u.entries - rotation_R(2, phi, 4).entries).max() <= 1e-15

    def test_unitary_special(self):
        u = unitary_U(1, 0.9, 2.1, 4.4, 2)
        assert abs(determinant(u) - 1.0) <= 1e-14
        assert adjoint_residual(u.entries) <= 1e-14

    def test_quaternion_block_identity(self):
        ident = (0.0, 0.0, 0.0)
        blk = quaternion_block(0.0, ident, ident)
        assert np.array_equal(blk.entries, np.eye(4))

    def test_quaternion_block_quarter(self):
        blk = quaternion_block(np.pi / 2.0, (0.4, 1.0, 2.0), (0.0, 0.0, 0.0))
        want = np.block([[np.zeros((2, 2)), np.eye(2)],
                         [-np.eye(2), np.zeros((2, 2))]])
        assert np.abs(blk.entries - want).max() <= 1e-15

    def test_quaternion_block_generic_residuals(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            trip = lambda: (rng.uniform(0, np.pi / 2), rng.uniform(0, TWO_PI),
                            rng.uniform(0, TWO_PI))
            blk = quaternion_block(rng.uniform(0, np.pi / 2), trip(), trip())
            # oracle: direct multiplication
            prod = triple_loop_multiply(blk.entries.conj().T, blk.entries)
            assert np.abs(prod - np.eye(4)).max() <= 1e-14
            assert symplectic_residual(blk.entries) <= 1e-14

    def test_quaternion_block_range(self):
        with pytest.raises(ValueError):
            quaternion_block(2.0, (0, 0, 0), (0, 0, 0))


class TestCosetsAndComposition:
    def test_coset_zero_angles(self):
        ang = EulerAnglesSO(n=4, theta={p: 0.0 for p in angle_pairs(4)})
        for j in (1, 2, 3):
            assert np.array_equal(coset_E_so(ang, j).entries, np.eye(4))

    def test_coset_single_factor(self):
        rng = np.random.default_rng(2)
        ang = so_record(rng, 4)
        got = coset_E_so(ang, 1).entries
        want = rotation_R(1, ang.theta[(1, 2)], 4).entries
        assert np.abs(got - want).max() <= 1e-15

    def test_coset_bottom_row_matches_signed_expansion(self):
        # entrywise expansion of the rotation recursion, N=3 then up to 6
        rng = np.random.default_rng(3)
        for n in (3, 4, 5, 6):
            ang = so_record(rng, n)
            j = n - 1
            row = coset_E_so(ang, j).entries[j, :].real
            thetas = [ang.theta[(l, n)] for l in range(1, n)]
            assert np.abs(row - so_coset_bottom_row(thetas)).max() <= 1e-13

    def test_coset_fixes_trailing_axes_exactly(self):
        rng = np.random.default_rng(4)
        ang = so_record(rng, 6)
        for j in (1, 2, 3):
            e = coset_E_so(ang, j).entries
            tail = np.s_[j + 1:]
            assert np.array_equal(e[tail, :][:, tail], np.eye(6 - j - 1))
            assert np.all(e[tail, :j + 1] == 0.0) and np.all(e[:j + 1, tail] == 0.0)

    def test_compose_so_zero_and_n2(self):
        ang = EulerAnglesSO(n=3, theta={p: 0.0 for p in angle_pairs(3)})
        assert np.array_equal(compose_so(ang).entries, np.eye(3))
        rng = np.random.default_rng(5)
        a2 = so_record(rng, 2)
        assert np.abs(compose_so(a2).entries
                      - rotation_R(1, a2.theta[(1, 2)], 2).entries).max() == 0.0

    def test_compose_so_matches_displayed_three_factor_form(self):
        # V_3 = R_z(phi) * R_x(theta) * R_z(psi) with (phi, theta, psi)
        # mapped onto (theta_{1,2}, theta_{2,3}, theta_{1,3})
        phi, theta, psi = 1.1, 2.2, 4.4
        ang = EulerAnglesSO(n=3, theta={(1, 2): phi, (2, 3): theta, (1, 3): psi})
        rz = lambda a: np.array([[math.cos(a), math.sin(a), 0.0],
                                 [-math.sin(a), math.cos(a), 0.0],
                                 [0.0, 0.0, 1.0]])
        rx = np.array([[1.0, 0.0, 0.0],
                       [0.0, math.cos(theta), math.sin(theta)],
                       [0.0, -math.sin(theta), math.cos(theta)]])
        want = rz(phi) @ rx @ rz(psi)
        assert np.abs(compose_so(ang).entries.real - want).max() <= 1e-14

    def test_compose_so_residuals_over_batch(self):
        # 10^4 random records across sizes up to 16
        for n, count in ((2, 2000), (5, 3000), (9, 3000), (16, 2000)):
            s = RandomStream(50 + n)
            theta = {}
            for (j, k) in angle_pairs(n):
                theta[(j, k)] = (s.uniform(0.0, TWO_PI, size=count) if j == 1
                                 else s.uniform(0.0, np.pi, size=count))
            v = euler.compose_so_batch(theta, n)
            gram = np.einsum("bji,bjk->bik", v, v) - np.eye(n)
            assert np.abs(gram).max() <= 1e-13 * n
            sign, logdet = np.linalg.slogdet(v)
            assert np.all(sign > 0) and np.abs(logdet).max() <= 1e-12

    def test_compose_u_trivial_and_scalar(self):
        ang = EulerAnglesU(n=3, phi={p: 0.0 for p in angle_pairs(3)},
                           psi={p: 0.0 for p in angle_pairs(3)},
                           alpha=(0.0, 0.0, 0.0))
        assert np.array_equal(compose_u(ang).entries, np.eye(3))
        one = EulerAnglesU(n=1, phi={}, psi={}, alpha=(1.25,))
        assert compose_u(one).entries[0, 0] == pytest.approx(np.exp(1.25j))

    def test_u_parameter_count_is_n_squared(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3, 5):
            ang = u_record(rng, n)
            assert ang.parameter_count() == n * n

    def test_coset_E_u_unitary(self):
        rng = np.random.default_rng(7)
        ang = u_record(rng, 5)
        for j in (1, 2, 3, 4):
            assert adjoint_residual(coset_E_u(ang, j).entries) <= 1e-13 * 5

    def test_compose_sp_trivial(self):
        pairs = angle_pairs(3)
        ident = (0.0, 0.0, 0.0)
        ang = EulerAnglesSp(n=3, rho={p: 0.0 for p in pairs},
                            quat={p: ident for p in pairs},
                            lead=(ident, ident, ident))
        assert np.array_equal(compose_sp(ang).entries, np.eye(6))

    def test_compose_sp_n1_is_su2(self):
        ang = EulerAnglesSp(n=1, rho={}, quat={}, lead=((0.7, 1.0, 2.0),))
        got = compose_sp(ang)
        assert got.dim == 2
        assert adjoint_residual(got.entries) <= 1e-15
        assert abs(determinant(got) - 1.0) <= 1e-14

    def test_compose_sp_residuals(self):
        rng = np.random.default_rng(8)
        for n in (2, 3):
            ang = sp_record(rng, n)
            v = compose_sp(ang)
            assert adjoint_residual(v.entries) <= 1e-12 * n
            assert symplectic_residual(v.entries) <= 1e-12 * n


class TestExtraction:
    def test_identity_gives_zero_angles(self):
        ang = extract_angles_so(SquareMatrix.identity(4))
        assert all(t == 0.0 for t in ang.theta.values())

    def test_roundtrip_idempotent_on_image(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5, 7):
            v = compose_so(so_record(rng, n))
            v2 = compose_so(extract_angles_so(v))
            assert np.abs(v.entries - v2.entries).max() <= 1e-10

    def test_angle_level_roundtrip_away_from_degeneracies(self):
        rng = np.random.default_rng(10)
        for n in (3, 5, 8):
            ang = so_record(rng, n, margin=1e-3)
            back = extract_angles_so(compose_so(ang))
            for key in ang.theta:
                diff = abs(back.theta[key] - ang.theta[key])
                if key[0] == 1:
                    diff = min(diff, TWO_PI - diff)
                assert diff <= 1e-9

    def test_qr_sampled_reconstruction(self):
        s = RandomStream(60)
        for _ in range(5):
            q = SquareMatrix.from_array(samplers.qr_batch(s, 3, 1, "real")[0],
                                        kind="real")
            if determinant(q).real < 0.0:
                ent = q.entries.real.copy()
                ent[0, :] *= -1.0
                q = SquareMatrix.from_array(ent, kind="real")
            back = compose_so(extract_angles_so(q))
            assert np.abs(back.entries - q.entries).max() <= 1e-10

    def test_reflection_reported_not_fixed(self):
        refl = SquareMatrix.from_array(np.diag([-1.0, 1.0, 1.0]))
        with pytest.raises(ReflectionError):
            extract_angles_so(refl)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(NotUnitaryError):
            extract_angles_so(SquareMatrix.from_array(np.diag([2.0, 0.5])))

    def test_u_identity_and_pure_phase(self):
        ang = extract_angles_u(SquareMatrix.identity(4, kind="complex"))
        assert all(p == 0.0 for p in ang.phi.values())
        for n in (1, 3, 4):
            beta = 0.9
            d = np.eye(n, dtype=complex)
            d[0, 0] = np.exp(1j * beta)
            v = SquareMatrix.from_array(d, kind="complex")
            back = compose_u(extract_angles_u(v))
            assert np.abs(back.entries - d).max() <= 1e-12

    def test_u_roundtrip_haar(self):
        s = RandomStream(61)
        for _ in range(5):
            v = SquareMatrix.from_array(samplers.qr_batch(s, 4, 1, "complex")[0],
                                        kind="complex")
            back = compose_u(extract_angles_u(v))
            assert np.abs(back.entries - v.entries).max() <= 1e-10

    def test_u_roundtrip_euler_sampled(self):
        s = RandomStream(62)
        v = SquareMatrix.from_array(samplers.u_euler_batch(s, 6, 1)[0],
                                    kind="complex")
        back = compose_u(extract_angles_u(v))
        assert np.abs(back.entries - v.entries).max() <= 1e-10

    def test_u_non_unitary_rejected(self):
        with pytest.raises(NotUnitaryError):
            extract_angles_u(SquareMatrix.from_array(np.diag([2.0 + 0j, 1.0]),
                                                     kind="complex"))


class TestDensities:
    def test_so_n2_constant(self):
        for t in (0.1, 3.0, 6.0):
            assert density_so(2, {(1, 2): t}) == pytest.approx(math.sqrt(2.0))

    def test_so_vanishes_at_degenerate_angles(self):
        rng = np.random.default_rng(11)
        ang = so_record(rng, 4)
        theta = dict(ang.theta)
        theta[(2, 4)] = 0.0
        assert density_so(4, theta) == 0.0
        theta[(2, 4)] = np.pi  # sin(pi) is ~1e-16 in floats
        assert density_so(4, theta) <= 1e-15
        assert density_so(ang.n, ang.theta) > 0.0

    def test_so_independent_of_first_row_angles(self):
        rng = np.random.default_rng(12)
        ang = so_record(rng, 4)
        shifted = dict(ang.theta)
        for k in (2, 3, 4):
            shifted[(1, k)] = (shifted[(1, k)] + np.pi) % TWO_PI
        assert density_so(4, shifted) == pytest.approx(density_so(ang.n, ang.theta))

    def test_u_densities(self):
        assert density_u(1, {}) == 1.0
        rng = np.random.default_rng(13)
        ang = u_record(rng, 3)
        phi = dict(ang.phi)
        phi[(1, 3)] = np.pi / 2.0
        assert density_u(3, phi) == pytest.approx(0.0, abs=1e-15)

    def test_sp_densities(self):
        assert density_sp(1, {}, {}, (0.5,)) == pytest.approx(0.5 * math.sin(1.0))
        rng = np.random.default_rng(14)
        ang = sp_record(rng, 3)
        quat_phi = {key: t[0] for key, t in ang.quat.items()}
        lead_phi = [t[0] for t in ang.lead]
        rho = dict(ang.rho)
        rho[(1, 2)] = 0.0
        assert density_sp(3, rho, quat_phi, lead_phi) == 0.0
        assert density_sp(3, ang.rho, quat_phi, lead_phi) >= 0.0


def _oracle_so(n, theta):
    val = 2.0 ** (n * (n - 1) / 4.0)
    for (j, k), t in theta.items():
        val *= math.sin(t) ** (j - 1)
    return val


def _oracle_u(n, phi):
    val = 2.0 ** (n * (n - 1) / 2.0)
    for (j, k), p in phi.items():
        val *= math.cos(p) * math.sin(p) ** (2 * j - 1)
    return val


def _oracle_sp(n, rho, quat_phi, lead_phi):
    # (1/2) sin(2 phi) written as sin(phi) cos(phi)
    val = 2.0 ** (n * (n - 1))
    for (j, k), r in rho.items():
        p = quat_phi[(j, k)]
        val *= math.cos(r) ** 3 * math.sin(r) ** (4 * j - 1) * math.sin(p) * math.cos(p)
    for p in lead_phi:
        val *= math.sin(p) * math.cos(p)
    return val


class TestArrayDensities:
    """Array angles give, point by point, a scalar math-module product."""

    POINTS = 100

    @staticmethod
    def _angles(rng, pairs, hi):
        return {p: rng.uniform(0.0, hi(p), size=TestArrayDensities.POINTS) for p in pairs}

    @staticmethod
    def _at(angles, i):
        return {key: float(v[i]) for key, v in angles.items()}

    def _check(self, got, want_at):
        assert got.shape == (self.POINTS,)
        for i in range(self.POINTS):
            assert got[i] == pytest.approx(want_at(i), rel=1e-14, abs=0.0)

    def test_so(self):
        rng = np.random.default_rng(15)
        for n in range(2, 6):
            theta = self._angles(rng, angle_pairs(n),
                                 lambda p: TWO_PI if p[0] == 1 else np.pi)
            got = np.broadcast_to(density_so(n, theta), (self.POINTS,))
            self._check(got, lambda i: _oracle_so(n, self._at(theta, i)))
            scalar = density_so(n, self._at(theta, 0))
            assert isinstance(scalar, float)
            assert scalar == got[0]

    def test_u(self):
        rng = np.random.default_rng(16)
        for n in range(1, 5):
            phi = self._angles(rng, angle_pairs(n), lambda p: np.pi / 2.0)
            got = np.broadcast_to(density_u(n, phi), (self.POINTS,))
            self._check(got, lambda i: _oracle_u(n, self._at(phi, i)))
            scalar = density_u(n, self._at(phi, 0))
            assert isinstance(scalar, float)
            assert scalar == got[0]

    def test_sp(self):
        rng = np.random.default_rng(17)
        for n in range(1, 4):
            pairs = angle_pairs(n)
            rho = self._angles(rng, pairs, lambda p: np.pi / 2.0)
            quat_phi = self._angles(rng, pairs, lambda p: np.pi / 2.0)
            lead_phi = rng.uniform(0.0, np.pi / 2.0, size=(n, self.POINTS))
            got = density_sp(n, rho, quat_phi, list(lead_phi))
            self._check(got, lambda i: _oracle_sp(n, self._at(rho, i), self._at(quat_phi, i),
                                                  [float(p) for p in lead_phi[:, i]]))
            scalar = density_sp(n, self._at(rho, 0), self._at(quat_phi, 0),
                                [float(p) for p in lead_phi[:, 0]])
            assert isinstance(scalar, float)
            assert scalar == got[0]
