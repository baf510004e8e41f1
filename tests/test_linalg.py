import hashlib

import numpy as np
import pytest

from haarforge import linalg, samplers, spectra
from haarforge.linalg import (
    ConvergenceError,
    NotUnitaryError,
    adjoint_residual,
    charpoly_eval,
    eigenphases_batch,
    symplectic_form,
    symplectic_residual,
    trace_certificate,
)
from haarforge.randstream import RandomStream

from oracles import cofactor_det, rotation

TWO_PI = 2.0 * np.pi


def _qr(stream, n, kind):
    """One Haar O(n) ("real") or U(n) ("complex") matrix from the QR sampler."""
    return samplers.qr_batch(stream, n, 1, kind)[0]


def eigenphases(m):
    """Phases of one matrix: a batch of one."""
    return eigenphases_batch(m[None])[0]


class TestAdjointResidual:
    def test_identity_is_zero(self):
        assert adjoint_residual(np.eye(4)) == 0.0

    def test_rotation_is_orthogonal(self):
        for theta in (0.3, 1.7, 5.9):
            assert adjoint_residual(rotation(1, theta, 2)) <= 1e-15

    def test_diag_2_1(self):
        assert adjoint_residual(np.diag([2.0, 1.0])) == pytest.approx(3.0)

    def test_stack_gives_one_residual_per_matrix(self):
        stack = np.stack([np.eye(3), np.diag([2.0, 1.0, 1.0]),
                          rotation(2, 0.4, 3)])
        got = adjoint_residual(stack)
        assert got.shape == (3,)
        assert got.tolist() == [adjoint_residual(m) for m in stack]
        assert adjoint_residual(stack.reshape(1, 3, 3, 3)).shape == (1, 3)


class TestCharpolyEval:
    def test_identity_root(self):
        assert charpoly_eval(np.eye(2), 1.0) == pytest.approx(0.0)

    def test_zero_matrix(self):
        lam = 1.7 - 0.3j
        assert charpoly_eval(np.zeros((2, 2)), lam) == pytest.approx(lam * lam)

    def test_matches_cofactor_oracle(self):
        q = _qr(RandomStream(11), 4, "real")
        lam = 2.0
        want = cofactor_det(lam * np.eye(4) - q)
        assert abs(charpoly_eval(q, lam) - want) <= 1e-10

    def test_lambda_array_equals_scalar_calls(self):
        q = _qr(RandomStream(14), 5, "complex")
        lams = np.array([0.3 + 0.1j, -1.2 + 0.8j, 2.0, 0.0])
        got = charpoly_eval(q, lams)
        assert got.shape == (4,)
        assert got.tolist() == [charpoly_eval(q, lam) for lam in lams]
        stack = np.stack([q, q.T, np.eye(5)])
        assert charpoly_eval(stack[:, None], lams).tolist() == [
            [charpoly_eval(m, lam) for lam in lams] for m in stack]


class TestEigenphases:
    def test_identity(self):
        assert eigenphases(np.eye(3)).tolist() == [0.0, 0.0, 0.0]

    def test_planar_rotation(self):
        for theta in (0.4, 1.2, 2.9):
            got = eigenphases(rotation(1, theta, 2))
            assert got == pytest.approx((theta, TWO_PI - theta), abs=1e-10)

    def test_swap_matrix(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert eigenphases(swap) == pytest.approx((0.0, np.pi), abs=1e-10)

    def test_not_unitary_is_distinct_error(self):
        bad = np.diag([2.0, 1.0])
        with pytest.raises(NotUnitaryError):
            eigenphases(bad)
        assert not issubclass(ConvergenceError, NotUnitaryError)

    def test_similarity_invariance(self):
        s = RandomStream(12)
        m = _qr(s, 5, "complex")
        q = _qr(s, 5, "complex")
        conj = q @ m @ q.conj().T
        a = eigenphases(m)
        b = eigenphases(conj)
        assert np.abs(a - b).max() <= 1e-8

    def test_charpoly_product_identity(self):
        s = RandomStream(13)
        for n in (2, 4, 8):
            m = _qr(s, n, "complex")
            ph = eigenphases(m)
            for lam in (0.3 + 0.1j, -1.2 + 0.8j, 2.0):
                prod = np.prod(lam - np.exp(1j * ph))
                assert abs(charpoly_eval(m, lam) - prod) <= 1e-8 * (1 + abs(lam)) ** n

    def test_real_kind_phases_closed_under_negation(self):
        m = _qr(RandomStream(14), 6, "real")
        ph = eigenphases(m)
        neg = np.sort((-ph) % TWO_PI)
        assert np.abs(np.sort(ph) - neg).max() <= 1e-8


def _cse_stack(stream, n, count):
    """Self-dual Z^{-1} U^T Z U from Haar U(2n), by plain matmuls."""
    u = samplers.qr_batch(stream, 2 * n, count, "complex")
    z = symplectic_form(2 * n)
    return (-z @ np.swapaxes(u, 1, 2) @ z) @ u


STACKS = {
    "so-euler": samplers.so_euler_batch,
    "u-qr": lambda s, n, b: samplers.qr_batch(s, n, b, "complex"),
    "sp-euler": samplers.sp_euler_batch,
    "hessenberg": spectra.hessenberg_batch,
    "cmv": spectra.cmv_batch,
    "cse": _cse_stack,
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
        stack = STACKS[name](RandomStream(20, n), n, batch)
        got = eigenphases_batch(stack)
        assert got.shape == (batch, stack.shape[-1])
        assert np.all((got >= 0.0) & (got < TWO_PI))
        assert np.all(np.diff(got, axis=1) >= 0.0)
        ref = np.angle(np.linalg.eigvals(stack))
        assert circular_distance(got, ref).max() <= 1e-12

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("name", list(STACKS))
    def test_equals_single_matrix_wrapper(self, name, n):
        # one matrix is a batch of one, and its phases are its row of the stack
        stack = STACKS[name](RandomStream(21, n), n, 7)
        one = np.array([eigenphases(m) for m in stack])
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

    def test_peak_memory_bounded(self, traced_peak):
        stack = samplers.qr_batch(RandomStream(26), 16, 512, "complex")
        assert traced_peak(lambda: eigenphases_batch(stack)) <= 8 * stack.nbytes

    @pytest.mark.parametrize("count,calls", [(1, 1), (25, 4), (70, 17)])
    def test_grouped_anchors_equal_a_per_anchor_loop(self, monkeypatch, count, calls):
        # one complex n = 16 chunk of 4096-byte matrices: the 17 anchors go
        # to slogdet in groups of 128 (all at once), 5 and 1; the phases are
        # the bytes of one slogdet call per anchor point
        stack = samplers.qr_batch(RandomStream(29, count), 16, count, "complex")
        assert len(linalg._chunks(count, 16 * 16 * 16)) == 1

        def per_anchor(u):
            eye = np.eye(u.shape[-1])
            return np.array([np.linalg.slogdet(z * eye - u)[1] for z in linalg._ANCHOR_POINTS])

        assert linalg._anchor_logdets(stack).tobytes() == per_anchor(stack).tobytes()
        slogdet, seen = np.linalg.slogdet, []

        def counted(a):
            seen.append(a.shape)
            return slogdet(a)

        monkeypatch.setattr(linalg.np.linalg, "slogdet", counted)
        got = eigenphases_batch(stack)
        assert len(seen) == calls and sum(shape[0] for shape in seen) == 17
        monkeypatch.setattr(linalg, "_anchor_logdets", per_anchor)
        assert got.tobytes() == eigenphases_batch(stack).tobytes()

    # SHA-256 of the phases, taken when one pipeline ran over the whole stack
    WHOLE_STACK_DIGESTS = {
        (27, 16, 4096): "b00217898c7fe737372454dd6bc42c22d296a2e8b43e0f2205c7ddebde827949",
        (28, 64, 256): "b471eef2595ea54d477886b36afd5d30b473a6474094e2ab718ddaa5527f6549",
    }

    @pytest.mark.parametrize("seed,n,count", list(WHOLE_STACK_DIGESTS))
    def test_chunked_stack_keeps_bytes_in_one_chunks_memory(self, traced_peak, seed, n, count):
        # real Hessenberg stacks over several batch chunks: the same phases as
        # one whole-stack pass, and a traced peak of at most the stack's
        # complex bytes plus eight complex chunks of temporaries
        stack = spectra.hessenberg_batch(RandomStream(seed), n, count)
        chunks = linalg._chunks(count, 16 * n * n)
        assert len(chunks) > 2
        got = []
        peak = traced_peak(lambda: got.append(eigenphases_batch(stack)))
        digest = hashlib.sha256(got[0].tobytes()).hexdigest()
        assert digest == self.WHOLE_STACK_DIGESTS[(seed, n, count)]
        chunk_bytes = 16 * n * n * (chunks[0].stop - chunks[0].start)
        assert peak <= 2 * stack.nbytes + 8 * chunk_bytes


class TestSymplecticResidual:
    def test_z_itself(self):
        assert symplectic_residual(symplectic_form(2)) <= 1e-15

    def test_identity(self):
        assert symplectic_residual(np.eye(6)) <= 1e-15

    def test_generic_unitary_is_not_symplectic(self):
        u = samplers.qr_batch(RandomStream(15), 4, 1, "complex")[0]
        assert symplectic_residual(u) > 1e-3

    def test_stack_gives_one_residual_per_matrix(self):
        z = symplectic_form(4)
        stack = np.stack([z, np.eye(4), 2.0 * np.eye(4)])
        got = symplectic_residual(stack)
        assert got.shape == (3,)
        assert got.tolist() == [symplectic_residual(m) for m in stack]
        assert got[0] <= 1e-15 and got[2] == 3.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            symplectic_residual(np.eye(3))

