"""Minimal dense matrix arithmetic for unitary-class matrices.

Everything here is plain double precision on ndarrays, single matrices or
(B, N, N) stacks; operations are pure functions, safe to call from
multiple threads.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


class NotUnitaryError(ValueError):
    """Input violated a unitary / orthogonal precondition."""


class ConvergenceError(RuntimeError):
    """Root finding failed to meet its residual target."""


def adjoint_residual(a: np.ndarray):
    """max |a^dagger a - I| of each matrix of a (..., d, d) array."""
    a = np.asarray(a)
    gram = np.swapaxes(a, -1, -2).conj() @ a - np.eye(a.shape[-1])
    return np.abs(gram).max(axis=(-2, -1))


def determinant(m) -> complex:
    """Determinant of one square matrix by partially pivoted Gaussian elimination."""
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    det = 1.0 + 0.0j
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) == 0.0:
            return 0.0 + 0.0j
        if p != k:
            a[[k, p]] = a[[p, k]]
            det = -det
        det *= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k + 1:])
    return complex(det)


def charpoly_eval(m, lam: complex) -> complex:
    """det(lam*I - m) by elimination."""
    m = np.asarray(m)
    return determinant(lam * np.eye(m.shape[0]) - m)


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

    Raises NotUnitaryError if any matrix fails its orthogonality/unitarity
    precondition (max |m^dagger m - I| <= 1e-8*N), ConvergenceError if the
    phases of any matrix fail the trace certificate.
    """
    u = np.asarray(stack, dtype=complex)
    if u.ndim != 3 or u.shape[1] != u.shape[2]:
        raise ValueError(f"expected a (B, N, N) stack, got shape {u.shape}")
    n = u.shape[-1]
    eye = np.eye(n)
    if not np.all(adjoint_residual(u) <= 1e-8 * n):
        raise NotUnitaryError("input is not unitary within 1e-8*N")

    logdet = np.array([np.linalg.slogdet(z * eye - u)[1] for z in _ANCHOR_POINTS])
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
