import math

import numpy as np
import pytest

from haarforge import euler
from haarforge.euler import (
    ReflectionError,
    _quat_factor_batch,
    angle_pairs,
    compose_so_batch,
    compose_sp_batch,
    compose_u_batch,
    density_so,
    density_sp,
    density_u,
    extract_angles_so,
    extract_angles_u,
    su2_block,
)
from haarforge.linalg import (
    NotUnitaryError,
    adjoint_residual,
    determinant,
    symplectic_residual,
)
from haarforge.randstream import RandomStream
from haarforge import samplers

from oracles import rotation, so_coset_bottom_row, triple_loop_multiply

TWO_PI = 2.0 * np.pi


def so_angles(rng, n, margin=0.0):
    """theta[(j,k)] as (1,) arrays, a batch of one inside the documented ranges."""
    theta = {}
    for (j, k) in angle_pairs(n):
        if j == 1:
            theta[(j, k)] = rng.uniform(0.0, TWO_PI, 1)
        else:
            theta[(j, k)] = rng.uniform(margin, np.pi - margin, 1)
    return theta


def u_angles(rng, n):
    """(phi, psi, alpha) for one U(n) matrix: (1,) arrays and a (1, n) array."""
    pairs = angle_pairs(n)
    phi = {p: rng.uniform(0.0, np.pi / 2.0, 1) for p in pairs}
    psi = {p: rng.uniform(0.0, TWO_PI, 1) for p in pairs}
    return phi, psi, rng.uniform(0.0, TWO_PI, size=(1, n))


def sp_angles(rng, n):
    """rho[(j,k)] as (1,) arrays plus (phi, psi, alpha) triples of the
    quaternions Q_{j,k} and of the leading q_1..q_n."""
    pairs = angle_pairs(n)
    trip = lambda: (rng.uniform(0.0, np.pi / 2.0), rng.uniform(0.0, TWO_PI),
                    rng.uniform(0.0, TWO_PI))
    rho = {p: rng.uniform(0.0, np.pi / 2.0, 1) for p in pairs}
    return rho, {p: trip() for p in pairs}, [trip() for _ in range(n)]


def compose_sp(rho, quat, lead, n):
    """One Sp(2n) matrix from sp_angles-style triples."""
    quat_blk = {key: su2_block(*t)[None] for key, t in quat.items()}
    lead_blk = np.stack([su2_block(*t) for t in lead])[None]
    return compose_sp_batch(rho, quat_blk, lead_blk, n)[0]


def first(angles):
    """The first matrix's angles as floats."""
    return {key: float(v[0]) for key, v in angles.items()}


def only_column(angles, k):
    """The angles of column k kept, every other angle set to 0."""
    return {key: v if key[1] == k else np.zeros_like(v) for key, v in angles.items()}


def coset_so(theta, j, n):
    """E_j = R_j(theta_{j,j+1}) ... R_1(theta_{1,j+1}): compose_so_batch with
    only column j+1's angles nonzero."""
    return compose_so_batch(only_column(theta, j + 1), n)[0]


def plane(j, theta, n):
    """R_j(theta) as the coset E_j whose only nonzero angle is theta_{j,j+1}."""
    angles = {p: np.zeros(1) for p in angle_pairs(n)}
    angles[(j, j + 1)] = np.array([theta])
    return coset_so(angles, j, n)


class TestElementaryBlocks:
    def test_rotation_zero_angle(self):
        assert np.array_equal(plane(2, 0.0, 4), np.eye(4))

    def test_rotation_quarter_turn(self):
        got = plane(1, np.pi / 2.0, 2)
        assert np.allclose(got, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_rotation_orthogonal_and_det_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            j = int(rng.integers(1, 5))
            r = plane(j, rng.uniform(0, TWO_PI), 5)
            assert adjoint_residual(r) <= 1e-15
            assert determinant(r).real == pytest.approx(1.0)

    def test_unitary_identity_case(self):
        assert np.array_equal(su2_block(0.0, 1.3, 0.0), np.eye(2))

    def test_unitary_reduces_to_rotation(self):
        phi = 0.77
        u = su2_block(phi, 0.0, 0.0)
        assert np.abs(u - rotation(1, phi, 2)).max() <= 1e-15

    def test_unitary_special(self):
        u = su2_block(0.9, 2.1, 4.4)
        assert abs(determinant(u) - 1.0) <= 1e-14
        assert adjoint_residual(u) <= 1e-14

    def test_quaternion_block_identity(self):
        ident = su2_block(0.0, 0.0, 0.0)
        blk = _quat_factor_batch(0.0, ident, ident)
        assert np.array_equal(blk, np.eye(4))

    def test_quaternion_block_quarter(self):
        blk = _quat_factor_batch(np.pi / 2.0, su2_block(0.4, 1.0, 2.0),
                                 su2_block(0.0, 0.0, 0.0))
        want = np.block([[np.zeros((2, 2)), np.eye(2)],
                         [-np.eye(2), np.zeros((2, 2))]])
        assert np.abs(blk - want).max() <= 1e-15

    def test_quaternion_block_generic_residuals(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            trip = lambda: (rng.uniform(0, np.pi / 2), rng.uniform(0, TWO_PI),
                            rng.uniform(0, TWO_PI))
            blk = _quat_factor_batch(rng.uniform(0, np.pi / 2), su2_block(*trip()),
                                     su2_block(*trip()))
            # oracle: direct multiplication
            prod = triple_loop_multiply(blk.conj().T, blk)
            assert np.abs(prod - np.eye(4)).max() <= 1e-14
            assert symplectic_residual(blk) <= 1e-14


class TestCosetsAndComposition:
    def test_coset_zero_angles(self):
        theta = {p: np.zeros(1) for p in angle_pairs(4)}
        for j in (1, 2, 3):
            assert np.array_equal(coset_so(theta, j, 4), np.eye(4))

    def test_coset_single_factor(self):
        rng = np.random.default_rng(2)
        theta = so_angles(rng, 4)
        got = coset_so(theta, 1, 4)
        want = rotation(1, theta[(1, 2)][0], 4)
        assert np.abs(got - want).max() <= 1e-15

    def test_coset_bottom_row_matches_signed_expansion(self):
        # entrywise expansion of the rotation recursion, N=3 then up to 6
        rng = np.random.default_rng(3)
        for n in (3, 4, 5, 6):
            theta = so_angles(rng, n)
            j = n - 1
            row = coset_so(theta, j, n)[j, :]
            thetas = [theta[(l, n)][0] for l in range(1, n)]
            assert np.abs(row - so_coset_bottom_row(thetas)).max() <= 1e-13

    def test_coset_fixes_trailing_axes_exactly(self):
        rng = np.random.default_rng(4)
        theta = so_angles(rng, 6)
        for j in (1, 2, 3):
            e = coset_so(theta, j, 6)
            tail = np.s_[j + 1:]
            assert np.array_equal(e[tail, :][:, tail], np.eye(6 - j - 1))
            assert np.all(e[tail, :j + 1] == 0.0) and np.all(e[:j + 1, tail] == 0.0)

    def test_compose_so_zero_and_n2(self):
        zero = {p: np.zeros(1) for p in angle_pairs(3)}
        assert np.array_equal(compose_so_batch(zero, 3)[0], np.eye(3))
        rng = np.random.default_rng(5)
        a2 = so_angles(rng, 2)
        assert np.abs(compose_so_batch(a2, 2)[0]
                      - rotation(1, a2[(1, 2)][0], 2)).max() == 0.0

    def test_compose_so_matches_displayed_three_factor_form(self):
        # V_3 = R_z(phi) * R_x(theta) * R_z(psi) with (phi, theta, psi)
        # mapped onto (theta_{1,2}, theta_{2,3}, theta_{1,3})
        phi, theta, psi = 1.1, 2.2, 4.4
        angles = {(1, 2): np.array([phi]), (2, 3): np.array([theta]),
                  (1, 3): np.array([psi])}
        rz = lambda a: np.array([[math.cos(a), math.sin(a), 0.0],
                                 [-math.sin(a), math.cos(a), 0.0],
                                 [0.0, 0.0, 1.0]])
        rx = np.array([[1.0, 0.0, 0.0],
                       [0.0, math.cos(theta), math.sin(theta)],
                       [0.0, -math.sin(theta), math.cos(theta)]])
        want = rz(phi) @ rx @ rz(psi)
        assert np.abs(compose_so_batch(angles, 3)[0] - want).max() <= 1e-14

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
        zero = {p: np.zeros(1) for p in angle_pairs(3)}
        assert np.array_equal(compose_u_batch(zero, zero, np.zeros((1, 3)), 3)[0],
                              np.eye(3))
        assert compose_u_batch({}, {}, np.array([[1.25]]), 1)[0, 0, 0] \
            == pytest.approx(np.exp(1.25j))

    def test_u_parameter_count_is_n_squared(self):
        s = RandomStream(63)
        for n in (1, 2, 3, 5):
            phi, psi, alpha = extract_angles_u(samplers.qr_batch(s, n, 4, "complex"))
            assert len(phi) + len(psi) + alpha.shape[1] == n * n

    def test_coset_E_u_unitary(self):
        rng = np.random.default_rng(7)
        phi, psi, alpha = u_angles(rng, 5)
        for j in (1, 2, 3, 4):
            keep = np.zeros_like(alpha)
            keep[:, j] = alpha[:, j]
            e = compose_u_batch(only_column(phi, j + 1), only_column(psi, j + 1), keep, 5)
            assert adjoint_residual(e[0]) <= 1e-13 * 5

    def test_compose_sp_trivial(self):
        pairs = angle_pairs(3)
        ident = (0.0, 0.0, 0.0)
        got = compose_sp({p: np.zeros(1) for p in pairs}, {p: ident for p in pairs},
                         [ident] * 3, 3)
        assert np.array_equal(got, np.eye(6))

    def test_compose_sp_n1_is_su2(self):
        got = compose_sp({}, {}, [(0.7, 1.0, 2.0)], 1)
        assert got.shape == (2, 2)
        assert adjoint_residual(got) <= 1e-15
        assert abs(determinant(got) - 1.0) <= 1e-14

    def test_compose_sp_residuals(self):
        rng = np.random.default_rng(8)
        for n in (2, 3):
            v = compose_sp(*sp_angles(rng, n), n)
            assert adjoint_residual(v) <= 1e-12 * n
            assert symplectic_residual(v) <= 1e-12 * n


def _haar_so(stream, n, count):
    """Haar SO(n) from the QR sampler, the first row negated where det = -1."""
    q = samplers.qr_batch(stream, n, count, "real")
    q[np.linalg.det(q) < 0.0, 0, :] *= -1.0
    return q


class TestExtraction:
    def test_identity_gives_zero_angles(self):
        theta = extract_angles_so(np.eye(4)[None])
        assert all(t.tolist() == [0.0] for t in theta.values())

    def test_roundtrip_idempotent_on_image(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5, 7):
            v = compose_so_batch(so_angles(rng, n), n)
            v2 = compose_so_batch(extract_angles_so(v), n)
            assert np.abs(v - v2).max() <= 1e-10

    def test_angle_level_roundtrip_away_from_degeneracies(self):
        rng = np.random.default_rng(10)
        for n in (3, 5, 8):
            theta = so_angles(rng, n, margin=1e-3)
            back = extract_angles_so(compose_so_batch(theta, n))
            for key in theta:
                diff = abs(back[key][0] - theta[key][0])
                if key[0] == 1:
                    diff = min(diff, TWO_PI - diff)
                assert diff <= 1e-9

    def test_qr_sampled_reconstruction(self):
        s = RandomStream(60)
        for _ in range(5):
            q = samplers.qr_batch(s, 3, 1, "real")[0]
            if determinant(q).real < 0.0:
                q[0, :] *= -1.0
            back = compose_so_batch(extract_angles_so(q[None]), 3)[0]
            assert np.abs(back - q).max() <= 1e-10

    def test_signed_zero_pivots_roundtrip(self):
        # a zero pivot of negative sign is a half turn, not theta = 0
        for d in ([1, -1, -1], [-1, 1, -1], [1, 1, -1, -1], [-1, -1, -1, -1]):
            v = np.diag(np.array(d, dtype=float))[None]
            back = compose_so_batch(extract_angles_so(v), len(d))
            assert np.abs(back - v).max() <= 1e-15

    def test_reflection_reported_not_fixed(self):
        with pytest.raises(ReflectionError):
            extract_angles_so(np.diag([-1.0, 1.0, 1.0])[None])

    def test_non_orthogonal_rejected(self):
        with pytest.raises(NotUnitaryError):
            extract_angles_so(np.diag([2.0, 0.5])[None])
        with pytest.raises(NotUnitaryError):
            extract_angles_so(np.diag([1.0, 1j])[None])
        with pytest.raises(ValueError):
            extract_angles_so(np.eye(3))

    def test_one_bad_matrix_in_stack(self):
        so = _haar_so(RandomStream(64), 4, 7)
        so[3, 0, :] *= -1.0
        with pytest.raises(ReflectionError):
            extract_angles_so(so)
        so[3, 0, :] *= -1.0
        so[5, 1, 2] += 1e-6
        with pytest.raises(NotUnitaryError):
            extract_angles_so(so)
        u = samplers.qr_batch(RandomStream(65), 4, 7, "complex")
        u[2, 3, 0] += 1e-6j
        with pytest.raises(NotUnitaryError):
            extract_angles_u(u)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_stack_equals_batches_of_one(self, n):
        so = _haar_so(RandomStream(66, n), n, 9)
        theta = extract_angles_so(so)
        for i in range(9):
            one = extract_angles_so(so[i:i + 1])
            assert all(one[key].tobytes() == theta[key][i:i + 1].tobytes() for key in theta)
        u = samplers.qr_batch(RandomStream(67, n), n, 9, "complex")
        phi, psi, alpha = extract_angles_u(u)
        for i in range(9):
            p1, s1, a1 = extract_angles_u(u[i:i + 1])
            assert all(p1[key].tobytes() == phi[key][i:i + 1].tobytes() for key in phi)
            assert all(s1[key].tobytes() == psi[key][i:i + 1].tobytes() for key in psi)
            assert a1.tobytes() == alpha[i:i + 1].tobytes()

    def test_ranges_over_2000_draws(self):
        theta = extract_angles_so(samplers.so_euler_batch(RandomStream(68), 6, 2000))
        for (j, k), t in theta.items():
            hi_ok = (t < TWO_PI) if j == 1 else (t <= np.pi)
            assert t.shape == (2000,) and np.all((t >= 0.0) & hi_ok)
        phi, psi, alpha = extract_angles_u(samplers.qr_batch(RandomStream(69), 5, 2000, "complex"))
        assert np.all([(p >= 0.0) & (p <= np.pi / 2.0) for p in phi.values()])
        assert np.all([(p >= 0.0) & (p < TWO_PI) for p in psi.values()])
        assert alpha.shape == (2000, 5) and np.all((alpha >= 0.0) & (alpha < TWO_PI))

    def test_u_identity_and_pure_phase(self):
        phi, _, _ = extract_angles_u(np.eye(4, dtype=complex)[None])
        assert all(p.tolist() == [0.0] for p in phi.values())
        for n in (1, 3, 4):
            beta = 0.9
            d = np.eye(n, dtype=complex)
            d[0, 0] = np.exp(1j * beta)
            phi, psi, alpha = extract_angles_u(d[None])
            assert all(p.tolist() == [0.0] for p in phi.values())
            back = compose_u_batch(phi, psi, alpha, n)[0]
            assert np.abs(back - d).max() <= 1e-12

    def test_u_roundtrip_haar(self):
        s = RandomStream(61)
        for _ in range(5):
            v = samplers.qr_batch(s, 4, 1, "complex")
            back = compose_u_batch(*extract_angles_u(v), 4)
            assert np.abs(back - v).max() <= 1e-10

    def test_u_roundtrip_euler_sampled(self):
        s = RandomStream(62)
        v = samplers.u_euler_batch(s, 6, 1)
        back = compose_u_batch(*extract_angles_u(v), 6)
        assert np.abs(back - v).max() <= 1e-10

    def test_u_non_unitary_rejected(self):
        with pytest.raises(NotUnitaryError):
            extract_angles_u(np.diag([2.0 + 0j, 1.0])[None])


class TestDensities:
    def test_so_n2_constant(self):
        for t in (0.1, 3.0, 6.0):
            assert density_so(2, {(1, 2): t}) == pytest.approx(math.sqrt(2.0))

    def test_so_vanishes_at_degenerate_angles(self):
        rng = np.random.default_rng(11)
        angles = first(so_angles(rng, 4))
        theta = dict(angles)
        theta[(2, 4)] = 0.0
        assert density_so(4, theta) == 0.0
        theta[(2, 4)] = np.pi  # sin(pi) is ~1e-16 in floats
        assert density_so(4, theta) <= 1e-15
        assert density_so(4, angles) > 0.0

    def test_so_independent_of_first_row_angles(self):
        rng = np.random.default_rng(12)
        angles = first(so_angles(rng, 4))
        shifted = dict(angles)
        for k in (2, 3, 4):
            shifted[(1, k)] = (shifted[(1, k)] + np.pi) % TWO_PI
        assert density_so(4, shifted) == pytest.approx(density_so(4, angles))

    def test_u_densities(self):
        assert density_u(1, {}) == 1.0
        rng = np.random.default_rng(13)
        phi = first(u_angles(rng, 3)[0])
        phi[(1, 3)] = np.pi / 2.0
        assert density_u(3, phi) == pytest.approx(0.0, abs=1e-15)

    def test_sp_densities(self):
        assert density_sp(1, {}, {}, (0.5,)) == pytest.approx(0.5 * math.sin(1.0))
        rng = np.random.default_rng(14)
        rho, quat, lead = sp_angles(rng, 3)
        quat_phi = {key: t[0] for key, t in quat.items()}
        lead_phi = [t[0] for t in lead]
        rho = first(rho)
        zeroed = dict(rho)
        zeroed[(1, 2)] = 0.0
        assert density_sp(3, zeroed, quat_phi, lead_phi) == 0.0
        assert density_sp(3, rho, quat_phi, lead_phi) >= 0.0


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
