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
    phase lists up to a cyclic shift (a cluster at 0 may sort to either end)."""
    p = np.sort(np.mod(phases, TWO_PI), axis=1)
    r = np.sort(np.mod(reference, TWO_PI), axis=1)
    return np.min([np.abs(np.angle(np.exp(1j * (p - np.roll(r, k, axis=1))))).max(axis=1)
                   for k in range(p.shape[1])], axis=0)


# The first phases of every known spectrum: exact clusters at 0 and at pi.
# LAPACK's eigenvalues of a cluster at 0 land on both sides of the 0/2*pi
# cut.  The real path takes them as rotation angles, R(0) = I, R(pi) = -I.
_FORCED_PHASES = (0.0, 0.0, np.pi, np.pi, 0.0)
_FORCED_ROTATIONS = (0.0, np.pi, 0.0)


def _known_spectrum(q, stream):
    """(q D q^dagger, phases of D) for a unitary stack q: complex q gets
    D = diag(e^{i theta}); real q gets D = blockdiag(R(theta_k), -1 if the
    size is odd), a real stack for LAPACK's real path.  The phases start
    with the forced clusters, the rest are uniform."""
    count, d = q.shape[:2]
    if np.iscomplexobj(q):
        theta = stream.uniform(0.0, TWO_PI, size=(count, d))
        theta[:, :len(_FORCED_PHASES)] = _FORCED_PHASES[:d]
        diag = np.zeros((count, d, d), dtype=complex)
        diag[:, range(d), range(d)] = np.exp(1j * theta)
        return q @ diag @ q.conj().swapaxes(1, 2), theta
    angle = stream.uniform(0.0, np.pi, size=(count, d // 2))
    angle[:, :len(_FORCED_ROTATIONS)] = _FORCED_ROTATIONS[:d // 2]
    block = np.tile(-np.eye(d), (count, 1, 1))
    i = 2 * np.arange(d // 2)
    block[:, i, i] = block[:, i + 1, i + 1] = np.cos(angle)
    block[:, i + 1, i] = np.sin(angle)
    block[:, i, i + 1] = -np.sin(angle)
    theta = np.concatenate([angle, -angle, np.full((count, d % 2), np.pi)], axis=1)
    return q @ block @ q.swapaxes(1, 2), theta


class TestEigenphasesBatch:
    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("n", [2, 3, 8, 16, 50])
    @pytest.mark.parametrize("name", list(STACKS))
    def test_matches_eigvals(self, name, n, batch):
        # each sampled matrix q is the eigenbasis of a stack of known spectra
        stream = RandomStream(20, n)
        stack, theta = _known_spectrum(STACKS[name](stream, n, batch), stream)
        got = eigenphases_batch(stack)
        assert got.shape == (batch, stack.shape[-1])
        assert np.all((got >= 0.0) & (got < TWO_PI))
        assert np.all(np.diff(got, axis=1) >= 0.0)
        assert circular_distance(got, theta).max() <= 1e-12

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

    def test_identity_and_minus_identity_are_exact(self):
        assert eigenphases_batch(np.eye(3)[None]).tolist() == [[0.0, 0.0, 0.0]]
        assert eigenphases_batch(-np.eye(3)[None]).tolist() == [[np.pi] * 3]

    @pytest.mark.parametrize("delta", [1e-14, 1e-12, 1e-10])
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_phase_just_below_two_pi_stays_there(self, n, delta):
        # a lone phase within 1e-9 below 2*pi keeps its value, as the
        # certificate requires (the mean of the cluster at pi may move by ulps)
        m = np.diag(np.r_[np.exp(-1j * delta), -np.ones(n - 1)])
        got = eigenphases(m)
        assert abs(got[-1] - (TWO_PI - delta)) <= 1e-15
        assert np.abs(got[:-1] - np.pi).max() <= 1e-14

    def test_pair_across_zero_is_one_run(self):
        # the phases +-1e-12 are neighbours on the circle: they merge to 0
        assert eigenphases(rotation(1, 1e-12, 2)).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n", [6, 16, 40])
    def test_cluster_at_zero_is_exact(self, n):
        # LAPACK puts the double eigenvalue 1 on both sides of the 0/2*pi cut
        q = samplers.qr_batch(RandomStream(29, n), n, 300, "complex")
        lam = np.exp(1j * np.r_[0.0, 0.0, np.full(n - 2, 0.7)])
        got = eigenphases_batch(q @ (lam[:, None] * q.conj().swapaxes(1, 2)))
        pair = np.where(got[:, :1] < 0.35, got[:, :2], got[:, -2:])
        assert np.array_equal(pair[:, 0], pair[:, 1])
        assert np.abs(np.angle(np.exp(1j * pair))).max() <= 1e-15

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_degenerate_clusters_keep_their_exact_value(self, n):
        # a run is averaged as offsets from its first member, so n equal
        # phases stay equal to their value (a sum of n copies over n was off by
        # up to 5 ulp); a double eigenvalue 1 that LAPACK splits across the
        # 0/2*pi cut merges to one phase within rounding of 0
        assert eigenphases_batch(-np.eye(n)[None]).tolist() == [[np.pi] * n]
        assert eigenphases_batch(1j * np.eye(n)[None]).tolist() == [[np.pi / 2] * n]
        q = samplers.qr_batch(RandomStream(30, n), n, 20, "complex")
        lam = np.exp(1j * np.r_[0.0, 0.0, np.full(n - 2, 2.0)])
        got = eigenphases_batch(q @ (lam[:, None] * q.conj().swapaxes(1, 2)))
        pair = np.where(got[:, :1] < 1.0, got[:, :2], got[:, -2:])
        assert np.array_equal(pair[:, 0], pair[:, 1])
        assert np.abs(np.angle(np.exp(1j * pair))).max() <= 1e-15

    def test_merge_runs_of_neighbours_on_the_circle(self):
        rows = np.array([[0.0, 0.6e-9, 1.2e-9, 3.0],  # a chain of close neighbours
                         [2e-10, 1.0, 2.0, TWO_PI - 6e-10],  # a run across 0, mean below 0
                         [0.5, 1.0, 2.0, 3.0]])  # nothing to merge
        got = rows.copy()
        linalg._merge_clusters(got)
        assert got[0].tolist() == [0.6e-9] * 3 + [3.0]
        assert got[1, :2].tolist() == [1.0, 2.0]
        assert got[1, 2] == got[1, 3] and abs(got[1, 3] - (TWO_PI - 2e-10)) <= 1e-15
        assert got[2].tolist() == rows[2].tolist()

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

    def test_single_precision_stack_runs_in_double(self):
        # float32 permutation matrices: LAPACK's single-precision phases
        # would fail the double-precision certificate
        perms = np.eye(5)[[[1, 2, 3, 4, 0], [0, 2, 1, 4, 3]]]
        got = eigenphases_batch(perms.astype(np.float32))
        assert got.tobytes() == eigenphases_batch(perms).tobytes()

    def test_rejects_empty_matrices(self):
        with pytest.raises(ValueError, match=r"expected a \(B, N, N\) stack"):
            eigenphases_batch(np.zeros((3, 0, 0)))

    def test_certificate_rejects_shifted_phase(self):
        stack = samplers.qr_batch(RandomStream(24), 16, 7, "complex")
        ph = eigenphases_batch(stack)
        assert np.all(trace_certificate(stack, ph) <= 1.0)
        ph[3, 5] += 1e-10
        cert = trace_certificate(stack, ph)
        assert cert[3] > 1.0 and np.all(np.delete(cert, 3) <= 1.0)

    def test_certificate_failure_raises(self, monkeypatch):
        stack = samplers.qr_batch(RandomStream(25), 8, 3, "complex")
        eigvals = np.linalg.eigvals

        def off(m):
            lam = eigvals(m)
            lam[1, 4] *= np.exp(1e-6j)
            return lam

        monkeypatch.setattr(linalg.np.linalg, "eigvals", off)
        with pytest.raises(ConvergenceError):
            eigenphases_batch(stack)

    def test_peak_memory_bounded(self, traced_peak):
        stack = samplers.qr_batch(RandomStream(26), 16, 512, "complex")
        assert traced_peak(lambda: eigenphases_batch(stack)) <= 8 * stack.nbytes

    # SHA-256 of the phases, taken when one pipeline ran over the whole stack
    WHOLE_STACK_DIGESTS = {
        (27, 16, 4096): "dad413f8ee44a69d257432813f73e5c93126f0093ab7e055beb7e9a0dfaff408",
        (28, 64, 256): "5a5e67282e305c2d7ec5c3c7cf926350dcf4f914f8041d66c7583816d0d26147",
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

