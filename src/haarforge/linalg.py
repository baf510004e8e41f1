"""Minimal dense matrix arithmetic for unitary-class matrices.

Everything here is plain double precision on ndarrays, single matrices or
(..., N, N) stacks; operations are pure functions, safe to call from
multiple threads.  The shared batch policies live here too: the bounded
redraw loop, ``_redraw``, and the one batch-chunk rule, ``_chunks``.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


class NotUnitaryError(ValueError):
    """Input violated a unitary / orthogonal precondition."""


class ConvergenceError(RuntimeError):
    """A numerical procedure (root finding, a redraw loop) did not converge."""


# Redraw rounds after which a probability-zero rejection (a zero Gaussian
# vector, a rank-deficient matrix, a 0/0 angle) raises ConvergenceError.
REDRAW_ROUNDS = 8


def _redraw(rejected, redo, what: str) -> None:
    """While the mask ``rejected()`` flags an entry, ``redo(mask)`` redraws those
    entries in place; REDRAW_ROUNDS rounds that leave one raise ConvergenceError."""
    for _ in range(REDRAW_ROUNDS):
        bad = rejected()
        if not bad.any():
            return
        redo(bad)
    if rejected().any():
        raise ConvergenceError(f"{REDRAW_ROUNDS} redraws left {what}")


CHUNK_BYTES = 1 << 19  # a batch chunk of blocks and their scratch fits L2


def _chunks(count: int, item_bytes: int, eighth: bool = True) -> list:
    """Slices over 0..count (the last may be short), CHUNK_BYTES of
    ``item_bytes``-sized items each, or with ``eighth`` an eighth of the
    batch when that is more, so that a per-chunk cost is paid at most 8
    times.  The text writers pass eighth=False: a chunk's text takes several
    times its bytes, and a fixed budget bounds it at any stack size."""
    step = max(1, -(-count // 8) if eighth else 1, CHUNK_BYTES // item_bytes)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def adjoint_residual(a: np.ndarray):
    """max |a^dagger a - I| of each matrix of a (..., d, d) array."""
    a = np.asarray(a)
    gram = np.swapaxes(a, -1, -2).conj() @ a - np.eye(a.shape[-1])
    return np.abs(gram).max(axis=(-2, -1))


def charpoly_eval(m, lam):
    """det(lam*I - m) by LAPACK's LU (np.linalg.det), for a (..., n, n) stack
    m and a scalar or array lam that broadcasts against its batch shape."""
    m = np.asarray(m)
    lam = np.asarray(lam)[..., None, None]
    return np.linalg.det(lam * np.eye(m.shape[-1]) - m)


def symplectic_form(two_n: int) -> np.ndarray:
    """The dual-involution matrix Z = I_N (x) [[0, -1], [1, 0]], size 2N."""
    if two_n % 2:
        raise ValueError("symplectic form needs even dimension")
    return np.kron(np.eye(two_n // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))


def symplectic_residual(a: np.ndarray):
    """max |a^T Z a - Z| of each matrix of a (..., 2n, 2n) array; ~0
    together with adjoint_residual ~0 certifies Sp."""
    a = np.asarray(a)
    if a.shape[-1] % 2:
        raise ValueError("odd dimension has no symplectic structure")
    z = symplectic_form(a.shape[-1])
    return np.abs(np.swapaxes(a, -1, -2) @ z @ a - z).max(axis=(-2, -1))


# --- eigenphases of a unitary-class matrix -------------------------------
#
# Each matrix is mapped through the Cayley transform anchored at a point
# e^{ia} kept away from its spectrum:
#
#     M(a) = i (I - e^{-ia} m)^{-1} (I + e^{-ia} m)
#
# M(a) is Hermitian with eigenvalues lambda_k = -cot((theta_k - a)/2), a
# strictly increasing function of theta_k on (a, a + 2*pi), so one batched
# Hermitian eigensolve (np.linalg.eigvalsh) gives every phase as
# theta_k = a + pi + 2*arctan(lambda_k), already in order; no nonsymmetric
# eigensolver is needed.  The anchor is the one of 17 golden-ratio points
# with the largest |det(e^{ia} I - m)|, which keeps M(a) well conditioned.
# The anchors go to np.linalg.slogdet in groups, one (g, b, N, N) operand
# e^{ia} I - m per group of g = max(1, CHUNK_BYTES // chunk bytes) points,
# so an operand holds at most CHUNK_BYTES or one chunk, whichever is more:
# a chunk of up to 30 KiB (one complex matrix up to N = 43, two up to
# N = 31) takes all 17 points in one call, one above CHUNK_BYTES a call per
# point.  LAPACK factors each matrix on its own, so the grouping changes
# no bit.
# Phases within 1e-9 of the first member of their run are replaced by the
# run's mean, so exactly degenerate roots (the doubly degenerate spectra of
# self-dual quaternion unitaries) come out exactly equal.
#
# The returned phases are certified against the matrix itself: the power
# sums sum_k e^{i j theta_k} must match tr(m^j) for j = 1, 2, 3 within
# 64*N*eps, a bound that means the same at every N.

_GOLDEN = 0.6180339887498949
_ANCHORS = TWO_PI * ((np.arange(17) * _GOLDEN) % 1.0)
_ANCHOR_POINTS = np.exp(1j * _ANCHORS)
_MERGE = 1e-9
_CERT_C = 64.0


def _merge_clusters(raw: np.ndarray) -> None:
    """In place, per row of ascending phases: each run of phases within
    _MERGE of its first member becomes the run's mean."""
    rows = np.flatnonzero((np.diff(raw, axis=1) < _MERGE).any(axis=1))
    if rows.size == 0:
        return
    sub = raw[rows]
    label = np.zeros(sub.shape, dtype=np.intp)
    first = sub[:, 0]
    for j in range(1, sub.shape[1]):
        new = sub[:, j] - first >= _MERGE
        first = np.where(new, sub[:, j], first)
        label[:, j] = label[:, j - 1] + new
    label += sub.shape[1] * np.arange(rows.size)[:, None]
    _, run, size = np.unique(label.ravel(), return_inverse=True, return_counts=True)
    mean = np.bincount(run, weights=sub.ravel()) / size
    raw[rows] = mean[run].reshape(sub.shape)


def trace_certificate(stack: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Per matrix, max over j = 1, 2, 3 of |tr(m^j) - sum_k e^{i j theta_k}|
    divided by the tolerance 64*N*eps; a value <= 1 certifies the phases."""
    u = np.asarray(stack)
    z = np.exp(1j * np.asarray(phases))
    u2 = u @ u
    err = np.stack([
        np.trace(u, axis1=1, axis2=2) - z.sum(axis=1),
        np.einsum("bij,bji->b", u, u) - (z * z).sum(axis=1),
        np.einsum("bij,bji->b", u2, u) - (z * z * z).sum(axis=1),
    ])
    return np.abs(err).max(axis=0) / (_CERT_C * u.shape[-1] * np.finfo(float).eps)


def eigenphases_batch(stack) -> np.ndarray:
    """Phases of a (B, N, N) stack of unitary-class matrices, as a (B, N)
    array; each row sorted, every entry in [0, 2*pi).

    The stack runs in the batch chunks of ``_chunks``, each copied to complex
    and taken through the whole pipeline on its own, so the temporaries are
    those of one chunk; every LAPACK call works per matrix, so the phases
    equal those of one call on the whole stack.

    Raises NotUnitaryError if any matrix fails its orthogonality/unitarity
    precondition (max |m^dagger m - I| <= 1e-8*N), ConvergenceError if the
    phases of any matrix fail the trace certificate; either is raised for
    the first chunk that fails.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a (B, N, N) stack, got shape {stack.shape}")
    count, n = stack.shape[:2]
    phases = np.empty((count, n))
    for sl in _chunks(count, 16 * n * n or 1):
        phases[sl] = _eigenphases_chunk(np.asarray(stack[sl], dtype=complex))
    return phases


def _anchor_logdets(u: np.ndarray) -> np.ndarray:
    """(17, b) log|det(z I - m)| of each matrix m of a complex (b, N, N)
    chunk u at each anchor point z, the anchors grouped as above."""
    step = max(1, CHUNK_BYTES // u.nbytes)
    eye = np.eye(u.shape[-1])
    return np.concatenate([np.linalg.slogdet(_ANCHOR_POINTS[i:i + step, None, None, None]
                                             * eye - u)[1]
                           for i in range(0, len(_ANCHOR_POINTS), step)])


def _eigenphases_chunk(u: np.ndarray) -> np.ndarray:
    """eigenphases_batch of one complex (b, N, N) chunk."""
    n = u.shape[-1]
    eye = np.eye(n)
    if not np.all(adjoint_residual(u) <= 1e-8 * n):
        raise NotUnitaryError("input is not unitary within 1e-8*N")

    logdet = _anchor_logdets(u)
    best = logdet.argmax(axis=0)
    if not np.all(np.isfinite(logdet[best, np.arange(len(u))])):
        raise ConvergenceError("no anchor point off the unit-circle spectrum")
    a = _ANCHORS[best]

    w = np.exp(-1j * a)[:, None, None] * u
    herm = np.linalg.solve(eye - w, eye + w)
    del w
    herm *= 1j
    herm += herm.conj().swapaxes(1, 2)
    herm *= 0.5
    raw = a[:, None] + np.pi + 2.0 * np.arctan(np.linalg.eigvalsh(herm))
    del herm

    _merge_clusters(raw)
    phases = np.remainder(raw, TWO_PI, out=raw)
    phases[phases > TWO_PI - _MERGE] = 0.0
    phases.sort(axis=1)
    if not np.all(trace_certificate(u, phases) <= 1.0):
        raise ConvergenceError("eigenphases fail the trace certificate")
    return phases
