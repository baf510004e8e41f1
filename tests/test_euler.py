import hashlib
import math

import numpy as np
import pytest

from haarforge import euler, spectra
from haarforge.euler import (
    ReflectionError,
    _quat_factor_batch,
    _su2_stack,
    compose_so_batch,
    compose_sp_batch,
    compose_u_batch,
    coset_rows,
    density_so,
    density_sp,
    density_u,
    extract_angles_so,
    extract_angles_u,
)
from haarforge.linalg import (
    NotUnitaryError,
    adjoint_residual,
    symplectic_residual,
)
from haarforge.randstream import RandomStream
from haarforge import samplers

from oracles import (angle_dict, angle_pairs, packed, rotation, so_coset_bottom_row,
                     sp_density, triple_loop_multiply)

TWO_PI = 2.0 * np.pi


def so_theta(rng, n, margin=0.0):
    """Packed (P, 1) SO angles, a batch of one inside the documented ranges."""
    return packed({(j, k): rng.uniform(0.0, TWO_PI, 1) if j == 1
                   else rng.uniform(margin, np.pi - margin, 1) for j, k in angle_pairs(n)})


def coset_so(theta, j, n):
    """E_j = R_j(theta_{j,j+1}) ... R_1(theta_{1,j+1}): compose_so_batch with
    only coset E_j's angles nonzero."""
    keep = np.zeros_like(theta)
    keep[coset_rows(j + 1)] = theta[coset_rows(j + 1)]
    return compose_so_batch(keep)[0]


def plane(j, theta, n):
    """R_j(theta) as the coset E_j whose only nonzero angle is theta_{j,j+1}."""
    angles = {p: [0.0] for p in angle_pairs(n)}
    angles[(j, j + 1)] = [theta]
    return coset_so(packed(angles), j, n)


def su2(phi, psi, alpha):
    """The SU(2) block of one angle triple, built as the Sp kernel builds it."""
    return _su2_stack(np.array([phi, psi, alpha], dtype=float))


def su2_angles(rng, shape):
    """(3, *shape) SU(2) angles (phi, psi, alpha), phi on [0, pi/2)."""
    return np.stack([rng.uniform(0.0, np.pi / 2.0, shape), rng.uniform(0.0, TWO_PI, shape),
                     rng.uniform(0.0, TWO_PI, shape)])


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
            assert np.linalg.det(r).real == pytest.approx(1.0)

    def test_unitary_identity_case(self):
        assert np.array_equal(su2(0.0, 1.3, 0.0), np.eye(2))

    def test_unitary_reduces_to_rotation(self):
        phi = 0.77
        u = su2(phi, 0.0, 0.0)
        assert np.abs(u - rotation(1, phi, 2)).max() <= 1e-15

    def test_unitary_special(self):
        u = su2(0.9, 2.1, 4.4)
        assert abs(np.linalg.det(u) - 1.0) <= 1e-14
        assert adjoint_residual(u) <= 1e-14

    def test_quaternion_block_identity(self):
        ident = su2(0.0, 0.0, 0.0)
        blk = _quat_factor_batch(0.0, ident, ident, ident)
        assert np.array_equal(blk, np.eye(4))

    def test_quaternion_block_quarter(self):
        q = su2(0.4, 1.0, 2.0)
        blk = _quat_factor_batch(np.pi / 2.0, q, su2(0.0, 0.0, 0.0),
                                 q @ q.conj().T)
        want = np.block([[np.zeros((2, 2)), np.eye(2)],
                         [-np.eye(2), np.zeros((2, 2))]])
        assert np.abs(blk - want).max() <= 1e-15

    def test_quaternion_block_generic_residuals(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            trip = lambda: (rng.uniform(0, np.pi / 2), rng.uniform(0, TWO_PI),
                            rng.uniform(0, TWO_PI))
            rho = rng.uniform(0, np.pi / 2)
            q, big = su2(*trip()), su2(*trip())
            blk = _quat_factor_batch(rho, q, big, q @ big @ q.conj().T)
            # oracle: direct multiplication
            prod = triple_loop_multiply(blk.conj().T, blk)
            assert np.abs(prod - np.eye(4)).max() <= 1e-14
            assert symplectic_residual(blk) <= 1e-14


class TestCosetsAndComposition:
    def test_coset_zero_angles(self):
        theta = np.zeros((6, 1))
        for j in (1, 2, 3):
            assert np.array_equal(coset_so(theta, j, 4), np.eye(4))

    def test_coset_single_factor(self):
        rng = np.random.default_rng(2)
        theta = so_theta(rng, 4)
        got = coset_so(theta, 1, 4)
        want = rotation(1, angle_dict(theta)[(1, 2)][0], 4)
        assert np.abs(got - want).max() <= 1e-15

    def test_coset_bottom_row_matches_signed_expansion(self):
        # entrywise expansion of the rotation recursion, N=3 then up to 6
        rng = np.random.default_rng(3)
        for n in (3, 4, 5, 6):
            theta = so_theta(rng, n)
            j = n - 1
            row = coset_so(theta, j, n)[j, :]
            thetas = theta[coset_rows(n), 0]
            assert np.abs(row - so_coset_bottom_row(thetas)).max() <= 1e-13

    def test_coset_fixes_trailing_axes_exactly(self):
        rng = np.random.default_rng(4)
        theta = so_theta(rng, 6)
        for j in (1, 2, 3):
            e = coset_so(theta, j, 6)
            tail = np.s_[j + 1:]
            assert np.array_equal(e[tail, :][:, tail], np.eye(6 - j - 1))
            assert np.all(e[tail, :j + 1] == 0.0) and np.all(e[:j + 1, tail] == 0.0)

    def test_compose_so_zero_and_n2(self):
        assert np.array_equal(compose_so_batch(np.zeros((3, 1)))[0], np.eye(3))
        rng = np.random.default_rng(5)
        a2 = so_theta(rng, 2)
        assert np.abs(compose_so_batch(a2)[0]
                      - rotation(1, a2[0, 0], 2)).max() == 0.0

    def test_compose_so_matches_displayed_three_factor_form(self):
        # V_3 = R_z(phi) * R_x(theta) * R_z(psi) with (phi, theta, psi)
        # mapped onto (theta_{1,2}, theta_{2,3}, theta_{1,3})
        phi, theta, psi = 1.1, 2.2, 4.4
        angles = packed({(1, 2): [phi], (2, 3): [theta], (1, 3): [psi]})
        rz = lambda a: np.array([[math.cos(a), math.sin(a), 0.0],
                                 [-math.sin(a), math.cos(a), 0.0],
                                 [0.0, 0.0, 1.0]])
        rx = np.array([[1.0, 0.0, 0.0],
                       [0.0, math.cos(theta), math.sin(theta)],
                       [0.0, -math.sin(theta), math.cos(theta)]])
        want = rz(phi) @ rx @ rz(psi)
        assert np.abs(compose_so_batch(angles)[0] - want).max() <= 1e-14

    def test_compose_so_residuals_over_batch(self):
        # 10^4 random records across sizes up to 16
        for n, count in ((2, 2000), (5, 3000), (9, 3000), (16, 2000)):
            s = RandomStream(50 + n)
            theta = packed({(j, k): s.uniform(0.0, TWO_PI if j == 1 else np.pi, size=count)
                            for j, k in angle_pairs(n)})
            v = euler.compose_so_batch(theta)
            gram = np.einsum("bji,bjk->bik", v, v) - np.eye(n)
            assert np.abs(gram).max() <= 1e-13 * n
            sign, logdet = np.linalg.slogdet(v)
            assert np.all(sign > 0) and np.abs(logdet).max() <= 1e-12

    def test_compose_u_trivial_and_scalar(self):
        zero = np.zeros((3, 1))
        assert np.array_equal(compose_u_batch(zero, zero, np.zeros((1, 3)))[0],
                              np.eye(3))
        none = np.empty((0, 1))
        assert compose_u_batch(none, none, np.array([[1.25]]))[0, 0, 0] \
            == pytest.approx(np.exp(1.25j))

    def test_u_parameter_count_is_n_squared(self):
        s = RandomStream(63)
        for n in (1, 2, 3, 5):
            phi, psi, alpha = extract_angles_u(samplers.qr_batch(s, n, 4, "complex"))
            assert len(phi) + len(psi) + alpha.shape[1] == n * n

    def test_coset_E_u_unitary(self):
        rng = np.random.default_rng(7)
        phi0, psi0 = rng.uniform(0.0, np.pi / 2.0, (10, 1)), rng.uniform(0.0, TWO_PI, (10, 1))
        alpha = rng.uniform(0.0, TWO_PI, size=(1, 5))
        for j in (1, 2, 3, 4):
            keep = np.zeros_like(alpha)
            keep[:, j] = alpha[:, j]
            rows = coset_rows(j + 1)
            phi, psi = np.zeros((2, 10, 1))
            phi[rows], psi[rows] = phi0[rows], psi0[rows]
            e = compose_u_batch(phi, psi, keep)
            assert adjoint_residual(e[0]) <= 1e-13 * 5

    def test_compose_sp_trivial(self):
        got = compose_sp_batch(np.zeros((3, 1)), np.zeros((3, 3, 1)), np.zeros((3, 1, 3)))[0]
        assert np.array_equal(got, np.eye(6))

    def test_compose_sp_n1_is_su2(self):
        lead = np.array([0.7, 1.0, 2.0]).reshape(3, 1, 1)
        got = compose_sp_batch(np.empty((0, 1)), np.empty((3, 0, 1)), lead)[0]
        assert got.shape == (2, 2)
        assert np.array_equal(got, su2(0.7, 1.0, 2.0))
        assert adjoint_residual(got) <= 1e-15
        assert abs(np.linalg.det(got) - 1.0) <= 1e-14

    def test_missing_packed_rows_rejected(self):
        # n = 4 takes 6 rows; the last coset comes up one angle short
        with pytest.raises(ValueError):
            compose_so_batch(np.zeros((5, 1)))
        with pytest.raises(ValueError):
            compose_u_batch(np.zeros((5, 1)), np.zeros((5, 1)), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            compose_sp_batch(np.zeros((5, 1)), np.zeros((3, 5, 1)), np.zeros((3, 1, 4)))

    def test_compose_u_with_no_columns_rejected(self):
        # a (B, 0) alpha is n = 0, which the batch-chunk rule cannot cut
        with pytest.raises(ValueError, match="n >= 1 required"):
            compose_u_batch(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((3, 0)))

    def test_compose_sp_with_no_leads_rejected(self):
        with pytest.raises(ValueError, match="n >= 1 required"):
            compose_sp_batch(np.zeros((0, 3)), np.zeros((3, 0, 3)), np.zeros((3, 3, 0)))

    def test_batch_is_read_from_theta(self):
        # every column of a (6, 5) packed array composes: no count can drop some
        v = compose_so_batch(np.zeros((6, 5)))
        assert v.shape == (5, 4, 4) and np.array_equal(v, np.broadcast_to(np.eye(4), v.shape))

    def test_compose_sp_residuals(self):
        rng = np.random.default_rng(8)
        for n in (2, 3):
            p = n * (n - 1) // 2
            v = compose_sp_batch(rng.uniform(0.0, np.pi / 2.0, (p, 1)), su2_angles(rng, (p, 1)),
                                 su2_angles(rng, (1, n)))[0]
            assert adjoint_residual(v) <= 1e-12 * n
            assert symplectic_residual(v) <= 1e-12 * n


# Angle arrays whose sizes disagree or that are not (P, B, ...); where a size
# argument once came with them, the call composed a stack of the wrong size
MISMATCHES = {
    "so 7 rows": lambda: compose_so_batch(np.zeros((7, 1))),
    "so 1-d theta": lambda: compose_so_batch(np.zeros(6)),
    "so 3-d theta": lambda: compose_so_batch(np.zeros((6, 5, 2))),
    "u rows for n=4, alpha for n=5": lambda: compose_u_batch(
        np.zeros((6, 1)), np.zeros((6, 1)), np.zeros((1, 5))),
    "u 7 rows": lambda: compose_u_batch(np.zeros((7, 1)), np.zeros((7, 1)), np.zeros((1, 4))),
    "u psi batch": lambda: compose_u_batch(np.zeros((6, 2)), np.zeros((6, 1)), np.zeros((2, 4))),
    "sp rows for n=3, lead for n=5": lambda: compose_sp_batch(
        np.zeros((3, 1)), np.zeros((3, 3, 1)), np.zeros((3, 1, 5))),
    "sp quat not three angles": lambda: compose_sp_batch(
        np.zeros((3, 1)), np.zeros((2, 3, 1)), np.zeros((3, 1, 3))),
    "rotation plane 0": lambda: spectra.rotation_product_batch(np.zeros((1, 3)), [0]),
    "rotation plane n": lambda: spectra.rotation_product_batch(np.zeros((1, 3)), [1, 4]),
    "rotation plane 1.5": lambda: spectra.rotation_product_batch(np.full((1, 2), 0.3), [1.5]),
    "rotation 3-d thetas": lambda: spectra.rotation_product_batch(np.zeros((1, 3, 2)), [1]),
    "rotation plane '1'": lambda: spectra.rotation_product_batch(np.zeros((1, 2)), ['1']),
    "rotation plane None": lambda: spectra.rotation_product_batch(np.zeros((1, 2)), [None]),
    "rotation plane True": lambda: spectra.rotation_product_batch(np.zeros((1, 2)), [True]),
}


@pytest.mark.parametrize("call", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_mismatched_sizes_raise(call):
    with pytest.raises(ValueError):
        call()


def _haar_so(stream, n, count):
    """Haar SO(n) from the QR sampler, the first row negated where det = -1."""
    q = samplers.qr_batch(stream, n, count, "real")
    q[np.linalg.det(q) < 0.0, 0, :] *= -1.0
    return q


class TestExtraction:
    def test_identity_gives_zero_angles(self):
        theta = extract_angles_so(np.eye(4)[None])
        assert theta.shape == (6, 1) and np.all(theta == 0.0)

    def test_roundtrip_idempotent_on_image(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5, 7):
            v = compose_so_batch(so_theta(rng, n))
            v2 = compose_so_batch(extract_angles_so(v))
            assert np.abs(v - v2).max() <= 1e-10

    def test_angle_level_roundtrip_away_from_degeneracies(self):
        rng = np.random.default_rng(10)
        for n in (3, 5, 8):
            theta = angle_dict(so_theta(rng, n, margin=1e-3))
            back = angle_dict(extract_angles_so(compose_so_batch(packed(theta))))
            for key in theta:
                diff = abs(back[key][0] - theta[key][0])
                if key[0] == 1:
                    diff = min(diff, TWO_PI - diff)
                assert diff <= 1e-9

    def test_qr_sampled_reconstruction(self):
        s = RandomStream(60)
        for _ in range(5):
            q = samplers.qr_batch(s, 3, 1, "real")[0]
            if np.linalg.det(q).real < 0.0:
                q[0, :] *= -1.0
            back = compose_so_batch(extract_angles_so(q[None]))[0]
            assert np.abs(back - q).max() <= 1e-10

    def test_signed_zero_pivots_roundtrip(self):
        # a zero pivot of negative sign is a half turn, not theta = 0
        for d in ([1, -1, -1], [-1, 1, -1], [1, 1, -1, -1], [-1, -1, -1, -1]):
            v = np.diag(np.array(d, dtype=float))[None]
            back = compose_so_batch(extract_angles_so(v))
            assert np.abs(back - v).max() <= 1e-15

    def test_stack_roundtrips_without_sizes(self):
        v = _haar_so(RandomStream(64), 5, 9)
        back = compose_so_batch(extract_angles_so(v))
        assert back.shape == v.shape and np.abs(back - v).max() <= 1e-10
        u = samplers.qr_batch(RandomStream(65), 4, 9, "complex")
        back = compose_u_batch(*extract_angles_u(u))
        assert back.shape == u.shape and np.abs(back - u).max() <= 1e-10

    def test_so1_stack_roundtrips(self):
        # no angles at n = 1: the batch comes from theta's (0, B) shape
        back = compose_so_batch(extract_angles_so(np.ones((5, 1, 1))))
        assert back.shape == (5, 1, 1) and np.all(back == 1.0)

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
            assert one.tobytes() == theta[:, i:i + 1].tobytes()
        u = samplers.qr_batch(RandomStream(67, n), n, 9, "complex")
        phi, psi, alpha = extract_angles_u(u)
        for i in range(9):
            p1, s1, a1 = extract_angles_u(u[i:i + 1])
            assert p1.tobytes() == phi[:, i:i + 1].tobytes()
            assert s1.tobytes() == psi[:, i:i + 1].tobytes()
            assert a1.tobytes() == alpha[i:i + 1].tobytes()

    def test_ranges_over_2000_draws(self):
        theta = extract_angles_so(samplers.so_euler_batch(RandomStream(68), 6, 2000))
        for (j, k), t in angle_dict(theta).items():
            hi_ok = (t < TWO_PI) if j == 1 else (t <= np.pi)
            assert t.shape == (2000,) and np.all((t >= 0.0) & hi_ok)
        phi, psi, alpha = extract_angles_u(samplers.qr_batch(RandomStream(69), 5, 2000, "complex"))
        assert phi.shape == psi.shape == (10, 2000)
        assert np.all((phi >= 0.0) & (phi <= np.pi / 2.0))
        assert np.all((psi >= 0.0) & (psi < TWO_PI))
        assert alpha.shape == (2000, 5) and np.all((alpha >= 0.0) & (alpha < TWO_PI))

    def test_u_identity_and_pure_phase(self):
        phi, _, _ = extract_angles_u(np.eye(4, dtype=complex)[None])
        assert phi.shape == (6, 1) and np.all(phi == 0.0)
        for n in (1, 3, 4):
            beta = 0.9
            d = np.eye(n, dtype=complex)
            d[0, 0] = np.exp(1j * beta)
            phi, psi, alpha = extract_angles_u(d[None])
            assert np.all(phi == 0.0)
            back = compose_u_batch(phi, psi, alpha)[0]
            assert np.abs(back - d).max() <= 1e-12

    def test_u_roundtrip_haar(self):
        s = RandomStream(61)
        for _ in range(5):
            v = samplers.qr_batch(s, 4, 1, "complex")
            back = compose_u_batch(*extract_angles_u(v))
            assert np.abs(back - v).max() <= 1e-10

    def test_u_roundtrip_euler_sampled(self):
        s = RandomStream(62)
        v = samplers.u_euler_batch(s, 6, 1)
        back = compose_u_batch(*extract_angles_u(v))
        assert np.abs(back - v).max() <= 1e-10

    # SHA-256 of every angle array, taken when each turn conjugated a full
    # SU(2) block copy
    U_EXTRACTION_DIGEST = "02ca0deeea6ad35d5837b465b061eb0c463e042812d81b288b6f2302cff646a7"

    def test_u_extraction_digest_pinned(self):
        def stacks():
            for n in range(1, 17):
                yield samplers.qr_batch(RandomStream(71, n), n, 3, "complex")
                yield samplers.householder_batch(RandomStream(72, n), n, 3, "complex")
                yield samplers.u_euler_batch(RandomStream(73, n), n, 3)
            for n in (1, 4, 7):
                eye = np.eye(n, dtype=complex)
                yield np.stack([eye, np.diag(np.exp(1j * np.arange(1, n + 1))),
                                eye[::-1], -eye])

        h = hashlib.sha256()
        for v in stacks():
            phi, psi, alpha = extract_angles_u(v)
            phi, psi = angle_dict(phi), angle_dict(psi)
            for key in sorted(phi):
                h.update(phi[key].tobytes() + psi[key].tobytes())
            h.update(alpha.tobytes())
        assert h.hexdigest() == self.U_EXTRACTION_DIGEST

    # SHA-256 of dtype, shape and bytes of each packed angle array, taken
    # from the (j, k)-keyed extraction output put in coset-major order
    EXTRACTION_DIGESTS = {
        ("so", 2): "057646c7b9a5a8361f1782e7d7ac89ac5ee50a0c820560678b426355c3dc0c67",
        ("so", 3): "aaca9514be60fc11a29070f82e6f5f9a8d71f3bd72420f4354c2f44d0270f839",
        ("so", 5): "06fcb075332de12162971efe3024ab3e6f3c3afd8f820d612490cff84492fd43",
        ("so", 8): "d44e16ad0469e3d9a5d31ee3cb4f12a873d9670d5a44e21f5bbde76d278e7437",
        ("u", 2): "d693d778e4b421ffefb26820425e85fd7a76a2c035c1038fe3f0d63bc9a49a04",
        ("u", 3): "3e4043e4b40bab0aaa5c39850059bcab8e677ea9c8e2fd72db5f3862f063463e",
        ("u", 5): "affdf9bbf031107b90871d545e88506968731ec548137f87b31af26ab6c4f10f",
        ("u", 8): "47b88d0bb4f04fe8dbed925d4d206991fec6a206a98f3d181a7ab5cdfaa1d012",
    }

    @staticmethod
    def _digest(*arrays):
        h = hashlib.sha256()
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_extraction_digest_pinned(self, n):
        theta = extract_angles_so(samplers.so_euler_batch(RandomStream(81, n), n, 11))
        assert self._digest(theta) == self.EXTRACTION_DIGESTS[("so", n)]
        u = samplers.qr_batch(RandomStream(82, n), n, 11, "complex")
        assert self._digest(*extract_angles_u(u)) == self.EXTRACTION_DIGESTS[("u", n)]

    def test_u_non_unitary_rejected(self):
        with pytest.raises(NotUnitaryError):
            extract_angles_u(np.diag([2.0 + 0j, 1.0])[None])


class TestDensities:
    def test_so_n2_constant(self):
        for t in (0.1, 3.0, 6.0):
            assert density_so([t]) == pytest.approx(math.sqrt(2.0))

    def test_so_vanishes_at_degenerate_angles(self):
        rng = np.random.default_rng(11)
        angles = angle_dict(so_theta(rng, 4)[:, 0].tolist())
        theta = dict(angles)
        theta[(2, 4)] = 0.0
        assert density_so(packed(theta)) == 0.0
        theta[(2, 4)] = np.pi  # sin(pi) is ~1e-16 in floats
        assert density_so(packed(theta)) <= 1e-15
        assert density_so(packed(angles)) > 0.0

    def test_so_independent_of_first_row_angles(self):
        rng = np.random.default_rng(12)
        angles = angle_dict(so_theta(rng, 4)[:, 0].tolist())
        shifted = dict(angles)
        for k in (2, 3, 4):
            shifted[(1, k)] = (shifted[(1, k)] + np.pi) % TWO_PI
        assert density_so(packed(shifted)) == pytest.approx(density_so(packed(angles)))

    def test_u_densities(self):
        assert density_u([]) == 1.0
        rng = np.random.default_rng(13)
        phi = angle_dict(rng.uniform(0.0, np.pi / 2.0, 3).tolist())
        phi[(1, 3)] = np.pi / 2.0
        assert density_u(packed(phi)) == pytest.approx(0.0, abs=1e-15)

    def test_sp_densities(self):
        assert density_sp([], [], (0.5,)) == pytest.approx(0.5 * math.sin(1.0))
        rng = np.random.default_rng(14)
        rho = angle_dict(rng.uniform(0.0, np.pi / 2.0, 3).tolist())
        quat_phi, lead_phi = rng.uniform(0.0, np.pi / 2.0, (2, 3))
        zeroed = dict(rho)
        zeroed[(1, 2)] = 0.0
        assert density_sp(packed(zeroed), quat_phi, lead_phi) == 0.0
        assert density_sp(packed(rho), quat_phi, lead_phi) >= 0.0

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ValueError):
            density_so(np.zeros(5))
        with pytest.raises(ValueError):
            density_sp(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_sp1_quadrature_is_the_three_sphere_area(self):
        # Sp(2) = SU(2) = S^3: density_sp(1) over phi in [0, pi/2] and psi,
        # alpha in [0, 2 pi), by a tensor Gauss-Legendre rule, is |S^3| = 2 pi^2
        x, w = np.polynomial.legendre.leggauss(24)
        (phi, wp), (_, ws), (_, wa) = [(0.5 * hi * (x + 1.0), 0.5 * hi * w)
                                       for hi in (np.pi / 2.0, TWO_PI, TWO_PI)]
        got = float((density_sp([], [], [phi]) * wp).sum() * ws.sum() * wa.sum())
        assert got == pytest.approx(2.0 * np.pi ** 2, rel=0.0, abs=1e-6)

    def test_sp2_at_random_points_matches_the_oracle_product(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            rho, quat_phi = rng.uniform(0.0, np.pi / 2.0, (2, 1))
            lead_phi = rng.uniform(0.0, np.pi / 2.0, 2)
            want = sp_density(2, angle_dict(rho.tolist()), angle_dict(quat_phi.tolist()),
                              lead_phi.tolist())
            assert density_sp(rho, quat_phi, lead_phi) == pytest.approx(want, rel=1e-14, abs=0.0)


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


class TestArrayDensities:
    """Packed rows of arrays give, point by point, a scalar math-module
    product over the (j, k)-keyed angles."""

    POINTS = 100

    @staticmethod
    def _angles(rng, n, hi):
        """Packed (P, POINTS) angles, the row of (j, k) uniform on [0, hi(j))."""
        return packed({(j, k): rng.uniform(0.0, hi(j), size=TestArrayDensities.POINTS)
                       for j, k in angle_pairs(n)}).reshape(-1, TestArrayDensities.POINTS)

    @staticmethod
    def _at(angles, i):
        return angle_dict(angles[:, i].tolist())

    def _check(self, got, want_at):
        assert got.shape == (self.POINTS,)
        for i in range(self.POINTS):
            assert got[i] == pytest.approx(want_at(i), rel=1e-14, abs=0.0)

    def test_so(self):
        rng = np.random.default_rng(15)
        for n in range(2, 6):
            theta = self._angles(rng, n, lambda j: TWO_PI if j == 1 else np.pi)
            got = np.broadcast_to(density_so(theta), (self.POINTS,))
            self._check(got, lambda i: _oracle_so(n, self._at(theta, i)))
            scalar = density_so(theta[:, 0].tolist())
            assert isinstance(scalar, float)
            assert scalar == got[0]

    def test_u(self):
        rng = np.random.default_rng(16)
        for n in range(1, 5):
            phi = self._angles(rng, n, lambda j: np.pi / 2.0)
            got = np.broadcast_to(density_u(phi), (self.POINTS,))
            self._check(got, lambda i: _oracle_u(n, self._at(phi, i)))
            scalar = density_u(phi[:, 0].tolist())
            assert isinstance(scalar, float)
            assert scalar == got[0]

    def test_sp(self):
        rng = np.random.default_rng(17)
        for n in range(1, 4):
            rho = self._angles(rng, n, lambda j: np.pi / 2.0)
            quat_phi = self._angles(rng, n, lambda j: np.pi / 2.0)
            lead_phi = rng.uniform(0.0, np.pi / 2.0, size=(n, self.POINTS))
            got = density_sp(rho, quat_phi, list(lead_phi))
            self._check(got, lambda i: sp_density(n, self._at(rho, i), self._at(quat_phi, i),
                                                  lead_phi[:, i].tolist()))
            scalar = density_sp(rho[:, 0].tolist(), quat_phi[:, 0].tolist(),
                                lead_phi[:, 0].tolist())
            assert isinstance(scalar, float)
            assert scalar == got[0]

    def test_sp_reads_the_draws_own_arrays(self):
        # the (P, B) rows quat[0] and the (n, B) leads lead[0].T of one draw
        n = 3
        rho, quat, lead = samplers._sp_angles(RandomStream(19), n, self.POINTS)
        got = density_sp(rho, quat[0], lead[0].T)
        self._check(got, lambda i: sp_density(n, self._at(rho, i), self._at(quat[0], i),
                                              lead[0, i].tolist()))
