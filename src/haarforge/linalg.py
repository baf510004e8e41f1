"""Minimal dense matrix arithmetic for unitary-class matrices.

Everything here is plain double precision on ndarrays, single matrices or
(..., N, N) stacks; operations are pure functions, safe to call from
multiple threads.  The shared policies live here too: the bounded redraw
loop, ``_redraw``, the one batch-chunk rule, ``_chunks``, and the one wrap
rule onto [0, 2*pi), ``_wrap``.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


class NotUnitaryError(ValueError):
    """Input violated a unitary / orthogonal precondition."""


class ConvergenceError(RuntimeError):
    """A redraw or rejection loop gave up, or computed phases failed their certificate."""


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
# README's eigenphase paragraph gives the pipeline: LAPACK's eigenvalues,
# ``_wrap``, runs within _MERGE merged, and the power-sum certificate of
# _CERT_C * N * eps.

_MERGE = 1e-9
_CERT_C = 64.0


def _wrap(t):
    """t mod 2*pi in [0, 2*pi); a remainder that rounds up to 2*pi is 0."""
    t = np.remainder(t, TWO_PI)
    return np.where(t < TWO_PI, t, 0.0)


def _merge_clusters(raw: np.ndarray) -> None:
    """In place, per row of ascending phases in [0, 2*pi): each run of
    neighbours less than _MERGE apart on the circle becomes the run's mean,
    and the row is sorted again.  A run that crosses 0 is averaged on
    unwrapped values and its mean wrapped by ``_wrap``.  The mean is the
    run's first phase plus the mean of the offsets from it, so a run of
    equal phases keeps their value exactly."""
    gap = np.diff(raw, axis=1, append=raw[:, :1] + TWO_PI)  # gap[:, k]: k to k + 1
    rows = np.flatnonzero((gap < _MERGE).any(axis=1))
    if rows.size == 0:
        return
    sub, joined = raw[rows], gap[rows] < _MERGE
    label = np.cumsum(~joined, axis=1) - ~joined  # the breaks before each phase
    tail = joined[:, -1:] & (label == label[:, -1:])  # a run across 0: its part below 2*pi
    sub = np.where(tail, sub - TWO_PI, sub)
    k = np.arange(sub.shape[1])
    first = np.maximum.accumulate(np.where(np.diff(label, axis=1, prepend=-1) > 0, k, 0), axis=1)
    anchor = np.take_along_axis(sub, np.where(tail, 0, first), axis=1).ravel()
    label = (np.where(tail, 0, label) + sub.shape[1] * np.arange(rows.size)[:, None]).ravel()
    off = np.bincount(label, weights=sub.ravel() - anchor)[label] / np.bincount(label)[label]
    raw[rows] = np.sort(_wrap(anchor + off).reshape(sub.shape), axis=1)


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
    """Phases of a (B, N, N) stack of unitary-class matrices, N >= 1, as a
    (B, N) array; each row sorted, every entry in [0, 2*pi).

    The stack runs in the batch chunks of ``_chunks``, each taken through
    the whole pipeline on its own in double precision (a real stack stays
    real): precondition, ``eigvals``, ``_wrap``, sort, ``_merge_clusters``
    and certificate, so the temporaries are those of one chunk; every LAPACK
    call works per matrix, so the phases equal those of one call on the
    whole stack.

    Raises NotUnitaryError if any matrix fails its orthogonality/unitarity
    precondition (max |m^dagger m - I| <= 1e-8*N), ConvergenceError if the
    phases of any matrix fail the trace certificate; either is raised for
    the first chunk that fails.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError(f"expected a (B, N, N) stack, got shape {stack.shape}")
    count, n = stack.shape[:2]
    dtype = np.promote_types(stack.dtype, float)
    phases = np.empty((count, n))
    for sl in _chunks(count, 16 * n * n):
        u = np.asarray(stack[sl], dtype=dtype)
        if not np.all(adjoint_residual(u) <= 1e-8 * n):
            raise NotUnitaryError("input is not unitary within 1e-8*N")
        phases[sl] = np.sort(_wrap(np.angle(np.linalg.eigvals(u))), axis=1)
        _merge_clusters(phases[sl])
        if not np.all(trace_certificate(u, phases[sl]) <= 1.0):
            raise ConvergenceError("eigenphases fail the trace certificate")
    return phases
