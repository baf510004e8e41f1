import tracemalloc

import numpy as np
import pytest

from haarforge import linalg, samplers, spectra
from haarforge.euler import rotation_R
from haarforge.linalg import (
    ConvergenceError,
    EigenPhaseList,
    NotUnitaryError,
    SquareMatrix,
    adjoint_residual,
    charpoly_eval,
    determinant,
    eigenphases,
    eigenphases_batch,
    multiply,
    symplectic_form,
    symplectic_residual,
    trace_certificate,
)
from haarforge.randstream import RandomStream

from oracles import cofactor_det, triple_loop_multiply

TWO_PI = 2.0 * np.pi


def _qr(stream, n, kind):
    """One Haar O(n) ("real") or U(n) ("complex") matrix from the QR sampler."""
    return SquareMatrix.from_array(samplers.qr_batch(stream, n, 1, kind)[0], kind=kind)


def rand_matrix(rng, n, cplx=False):
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    if cplx:
        m = m + 1j * rng.uniform(-1.0, 1.0, size=(n, n))
    return SquareMatrix.from_array(m, kind="complex" if cplx else "real")


class TestMultiply:
    def test_identity(self):
        rng = np.random.default_rng(1)
        a = rand_matrix(rng, 3)
        assert np.array_equal(multiply(SquareMatrix.identity(3), a).entries,
                              a.entries)

    def test_rotation_angle_addition(self):
        r = rotation_R(1, np.pi / 2.0, 2)
        sq = multiply(r, r)
        assert np.allclose(sq.entries, [[-1.0, 0.0], [0.0, -1.0]], atol=1e-15)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        a = rand_matrix(rng, 4, cplx=True)
        b = rand_matrix(rng, 4, cplx=True)
        want = triple_loop_multiply(a.entries, b.entries)
        assert np.abs(multiply(a, b).entries - want).max() <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multiply(SquareMatrix.identity(2), SquareMatrix.identity(3))

    def test_kind_propagation(self):
        rng = np.random.default_rng(3)
        a, b = rand_matrix(rng, 3), rand_matrix(rng, 3, cplx=True)
        assert multiply(a, a).kind == "real"
        assert multiply(a, b).kind == "complex"


class TestAdjointResidual:
    def test_identity_is_zero(self):
        assert adjoint_residual(SquareMatrix.identity(4).entries) == 0.0

    def test_rotation_is_orthogonal(self):
        for theta in (0.3, 1.7, 5.9):
            assert adjoint_residual(rotation_R(1, theta, 2).entries) <= 1e-15

    def test_diag_2_1(self):
        m = SquareMatrix.from_array(np.diag([2.0, 1.0]))
        assert adjoint_residual(m.entries) == pytest.approx(3.0)

    def test_stack_gives_one_residual_per_matrix(self):
        stack = np.stack([np.eye(3), np.diag([2.0, 1.0, 1.0]),
                          rotation_R(2, 0.4, 3).entries.real])
        got = adjoint_residual(stack)
        assert got.shape == (3,)
        assert got.tolist() == [adjoint_residual(m) for m in stack]
        assert adjoint_residual(stack.reshape(1, 3, 3, 3)).shape == (1, 3)


class TestDeterminant:
    def test_identity(self):
        assert determinant(SquareMatrix.identity(5)) == pytest.approx(1.0)

    def test_rotation_blocks(self):
        for j in (1, 2, 3):
            assert determinant(rotation_R(j, 1.234, 4)).real == pytest.approx(1.0)

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = rand_matrix(rng, 5, cplx=True)
            assert abs(determinant(m) - cofactor_det(m.entries)) <= 1e-10

    def test_singular_returns_zero(self):
        m = SquareMatrix.from_array(np.ones((3, 3)))
        assert abs(determinant(m)) <= 1e-14

    def test_multiplicativity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b = rand_matrix(rng, 5), rand_matrix(rng, 5)
            lhs = determinant(multiply(a, b))
            rhs = determinant(a) * determinant(b)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestCharpolyEval:
    def test_identity_root(self):
        assert charpoly_eval(SquareMatrix.identity(2), 1.0) == pytest.approx(0.0)

    def test_zero_matrix(self):
        z = SquareMatrix.from_array(np.zeros((2, 2)))
        lam = 1.7 - 0.3j
        assert charpoly_eval(z, lam) == pytest.approx(lam * lam)

    def test_matches_cofactor_oracle(self):
        q = _qr(RandomStream(11), 4, "real")
        lam = 2.0
        want = cofactor_det(lam * np.eye(4) - q.entries)
        assert abs(charpoly_eval(q, lam) - want) <= 1e-10


class TestEigenphases:
    def test_identity(self):
        assert eigenphases(SquareMatrix.identity(3)).phases == (0.0, 0.0, 0.0)

    def test_planar_rotation(self):
        for theta in (0.4, 1.2, 2.9):
            got = eigenphases(rotation_R(1, theta, 2)).phases
            assert got == pytest.approx((theta, TWO_PI - theta), abs=1e-10)

    def test_swap_matrix(self):
        swap = SquareMatrix.from_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert eigenphases(swap).phases == pytest.approx((0.0, np.pi), abs=1e-10)

    def test_not_unitary_is_distinct_error(self):
        bad = SquareMatrix.from_array(np.diag([2.0, 1.0]))
        with pytest.raises(NotUnitaryError):
            eigenphases(bad)
        assert not issubclass(ConvergenceError, NotUnitaryError)

    def test_similarity_invariance(self):
        s = RandomStream(12)
        m = _qr(s, 5, "complex")
        q = _qr(s, 5, "complex")
        conj = SquareMatrix.from_array(
            q.entries @ m.entries @ q.entries.conj().T, kind="complex")
        a = np.array(eigenphases(m).phases)
        b = np.array(eigenphases(conj).phases)
        assert np.abs(a - b).max() <= 1e-8

    def test_charpoly_product_identity(self):
        s = RandomStream(13)
        for n in (2, 4, 8):
            m = _qr(s, n, "complex")
            ph = np.array(eigenphases(m).phases)
            for lam in (0.3 + 0.1j, -1.2 + 0.8j, 2.0):
                prod = np.prod(lam - np.exp(1j * ph))
                assert abs(charpoly_eval(m, lam) - prod) <= 1e-8 * (1 + abs(lam)) ** n

    def test_real_kind_phases_closed_under_negation(self):
        m = _qr(RandomStream(14), 6, "real")
        ph = np.array(eigenphases(m).phases)
        neg = np.sort((-ph) % TWO_PI)
        assert np.abs(np.sort(ph) - neg).max() <= 1e-8


def _cse_stack(stream, n, count):
    """Self-dual Z^{-1} U^T Z U from Haar U(2n), by plain matmuls."""
    u = samplers.qr_batch(stream, 2 * n, count, "complex")
    z = symplectic_form(2 * n).entries.real
    return (-z @ np.swapaxes(u, 1, 2) @ z) @ u


STACKS = {
    "so-euler": (samplers.so_euler_batch, "real"),
    "u-qr": (lambda s, n, b: samplers.qr_batch(s, n, b, "complex"), "complex"),
    "sp-euler": (samplers.sp_euler_batch, "complex"),
    "hessenberg": (spectra.hessenberg_batch, "real"),
    "cmv": (spectra.cmv_batch, "real"),
    "cse": (_cse_stack, "complex"),
}


def circular_distance(phases, reference):
    """Per row, the largest circular distance after pairing the two sorted
    phase lists up to a rotation (phases near 0 may sort to either end)."""
    p = np.sort(np.mod(phases, TWO_PI), axis=1)
    r = np.sort(np.mod(reference, TWO_PI), axis=1)
    return np.min([np.abs(np.angle(np.exp(1j * (p - np.roll(r, k, axis=1))))).max(axis=1)
                   for k in (-1, 0, 1)], axis=0)


class TestEigenphasesBatch:
    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("n", [2, 3, 8, 16, 50])
    @pytest.mark.parametrize("name", list(STACKS))
    def test_matches_eigvals(self, name, n, batch):
        stack = STACKS[name][0](RandomStream(20, n), n, batch)
        got = eigenphases_batch(stack)
        assert got.shape == (batch, stack.shape[-1])
        assert np.all((got >= 0.0) & (got < TWO_PI))
        assert np.all(np.diff(got, axis=1) >= 0.0)
        ref = np.angle(np.linalg.eigvals(stack))
        assert circular_distance(got, ref).max() <= 1e-12

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("name", list(STACKS))
    def test_equals_single_matrix_wrapper(self, name, n):
        fn, kind = STACKS[name]
        stack = fn(RandomStream(21, n), n, 7)
        one = np.array([eigenphases(SquareMatrix.from_array(m, kind=kind)).phases
                        for m in stack])
        assert eigenphases_batch(stack).tobytes() == one.tobytes()

    def test_degenerate_pairs_exactly_equal(self):
        ph = eigenphases_batch(_cse_stack(RandomStream(22), 4, 16))
        assert np.array_equal(ph[:, 0::2], ph[:, 1::2])

    def test_one_non_unitary_matrix_in_stack(self):
        stack = samplers.qr_batch(RandomStream(23), 4, 7, "complex")
        stack[5, 1, 2] += 1e-6
        with pytest.raises(NotUnitaryError):
            eigenphases_batch(stack)
        stack[5, 1, 2] = np.nan
        with pytest.raises(NotUnitaryError):
            eigenphases_batch(stack)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError):
            eigenphases_batch(np.eye(3))

    def test_certificate_rejects_shifted_phase(self):
        stack = samplers.qr_batch(RandomStream(24), 16, 7, "complex")
        ph = eigenphases_batch(stack)
        assert np.all(trace_certificate(stack, ph) <= 1.0)
        ph[3, 5] += 1e-10
        cert = trace_certificate(stack, ph)
        assert cert[3] > 1.0 and np.all(np.delete(cert, 3) <= 1.0)

    def test_certificate_failure_raises(self, monkeypatch):
        stack = samplers.qr_batch(RandomStream(25), 8, 3, "complex")
        eigvalsh = np.linalg.eigvalsh

        def off(h):
            lam = eigvalsh(h)
            lam[1, 4] += 1e-6
            return lam

        monkeypatch.setattr(linalg.np.linalg, "eigvalsh", off)
        with pytest.raises(ConvergenceError):
            eigenphases_batch(stack)

    def test_peak_memory_bounded(self):
        stack = samplers.qr_batch(RandomStream(26), 16, 512, "complex")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            eigenphases_batch(stack)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * stack.nbytes


class TestSymplecticResidual:
    def test_z_itself(self):
        z = symplectic_form(2)
        assert symplectic_residual(z.entries) <= 1e-15

    def test_identity(self):
        assert symplectic_residual(SquareMatrix.identity(6).entries) <= 1e-15

    def test_generic_unitary_is_not_symplectic(self):
        u = samplers.qr_batch(RandomStream(15), 4, 1, "complex")[0]
        assert symplectic_residual(u) > 1e-3

    def test_stack_gives_one_residual_per_matrix(self):
        z = symplectic_form(4).entries
        stack = np.stack([z, np.eye(4), 2.0 * np.eye(4)])
        got = symplectic_residual(stack)
        assert got.shape == (3,)
        assert got.tolist() == [symplectic_residual(m) for m in stack]
        assert got[0] <= 1e-15 and got[2] == 3.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            symplectic_residual(SquareMatrix.identity(3).entries)


class TestInvariants:
    def test_multiply_associativity(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            a, b, c = (rand_matrix(rng, 6, cplx=True) for _ in range(3))
            lhs = multiply(multiply(a, b), c).entries
            rhs = multiply(a, multiply(b, c)).entries
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_value_objects_validate(self):
        with pytest.raises(ValueError):
            SquareMatrix(dim=2, entries=np.eye(3, dtype=complex), kind="real")
        with pytest.raises(ValueError):
            SquareMatrix(dim=2, entries=np.eye(2) * np.nan + 0j, kind="real")
        with pytest.raises(ValueError):
            SquareMatrix(dim=2, entries=np.eye(2) * (1 + 1j), kind="real")
        with pytest.raises(ValueError):
            EigenPhaseList(dim=2, phases=(1.0, 0.5))
        with pytest.raises(ValueError):
            EigenPhaseList(dim=2, phases=(0.0, TWO_PI))
