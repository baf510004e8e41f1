"""Eigenvalue-only random matrix models for SO(N).

The single coset factor E_{N-1} = R_{N-1}(theta_{N-1}) ... R_1(theta_1),
with (1 + cos(theta_j))/2 ~ Beta(j/2, j/2) (``cos_theta_so``), shares the
eigenvalue distribution of a full Haar SO(N) matrix, and so does any
reordering of its factors.  Two orderings are of special interest: the
descending product is lower Hessenberg, and the odd/even split
R_odd * R_even is five-diagonal (the CMV shape).  All angles here are
taken in [0, pi] (the arccos branch); conjugating by diag(-1, 1, ..., 1)
maps theta_1 to 2*pi - theta_1 without moving eigenvalues, so the branch
choice does not affect any spectral law.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from haarforge.euler import _plane_product, _rotation_blocks, _waves
from haarforge.linalg import _redraw
from haarforge.randstream import RandomStream


class ClosedFormMismatch(RuntimeError):
    """The Hessenberg entry formula disagreed with the rotation product."""


# --- rotation products ------------------------------------------------------


def rotation_product_batch(thetas: np.ndarray, order) -> np.ndarray:
    """(B, n, n) stack of products of R_l(theta_l) over plane indices l in ``order``.

    thetas has shape (B, n-1), n read from it; thetas[:, l-1] belongs to
    plane l.  The product is taken left to right, i.e. order[0] is the
    leftmost factor.  ValueError for thetas of another rank or a plane
    outside 1..n-1.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n, planes = thetas.shape[1] + 1, [l - 1 for l in order]
    if thetas.ndim != 2 or not all(0 <= c < n - 1 for c in planes):
        raise ValueError(f"need (B, n-1) angles and planes in 1..n-1, not shape "
                         f"{thetas.shape} and planes {list(order)}")
    sel, runs = _rotation_schedule(tuple(planes), n)
    return _plane_product(n, thetas.shape[0], float, runs,
                          lambda sl, at: _rotation_blocks(thetas[sl, sel[at]].T))


@functools.lru_cache(maxsize=32)
def _rotation_schedule(planes: tuple, n: int):
    """The ``_waves`` schedule of 0-based planes applied in turn to all n
    rows: each block's plane in wave order (read-only), and the runs.  A
    build takes 40-90 us for n <= 64, a third of a small stack's product,
    so the last 32 (planes, n) are kept: a perfbench check cycle uses 18
    Hessenberg and CMV orders, and an entry holds about 1 KiB.  Cutting
    the runs into the kernel's pieces costs as much again per chunk width,
    and ``euler._cuts`` keeps those cuts for n <= 24, keyed by the runs'
    value."""
    order, runs = _waves(planes, [n] * len(planes), 2)
    sel = np.asarray(planes, dtype=int)[order]
    sel.flags.writeable = False
    return sel, runs


def _spectral_thetas(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """(B, n-1) angles theta_j = arccos(cos_theta_so(j)), j = 1..n-1.

    Draw order: one (n-1, count) cos_theta_so block, row j-1 holding
    theta_j; the result is its transpose.
    """
    c = stream.cos_theta_so(np.arange(1, n)[:, None], size=(n - 1, count))
    np.clip(c, -1.0, 1.0, out=c)
    return np.arccos(c, out=c).T


def hessenberg_order(n: int):
    """Descending plane order: the lower-Hessenberg product E_{N-1}."""
    return list(range(n - 1, 0, -1))


def cmv_order(n: int):
    """Odd planes first, then even: the five-diagonal product R_odd R_even."""
    return list(range(1, n, 2)) + list(range(2, n, 2))


def hessenberg_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """Lower-Hessenberg orthogonal matrices with the Haar SO(n) spectrum."""
    return rotation_product_batch(_spectral_thetas(stream, n, count), hessenberg_order(n))


def cmv_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """Five-diagonal orthogonal matrices with the Haar SO(n) spectrum."""
    return rotation_product_batch(_spectral_thetas(stream, n, count), cmv_order(n))


# --- closed-form entries and the characteristic-polynomial recurrence ------


def _alpha_rho(c):
    """Arrays alpha, rho = (1 - alpha^2)^{1/2} of (..., n-1) cosines c_i =
    cos(theta_{i,N}), alpha[..., i] = alpha_i for i = -1..n-1 (the last slot
    is alpha_{-1} = -1): alpha_{i-1} = (-1)^{i-1} c_i, alpha_{n-1} =
    (-1)^{n-1}.  ValueError unless c has an axis and every |c_i| <= 1."""
    c = np.asarray(c, dtype=float)
    if c.ndim < 1 or not np.all(np.abs(c) <= 1.0):  # NaN fails too
        raise ValueError("cosines must be a (..., n-1) array with entries in [-1, 1]")
    ends = np.broadcast_to([(-1.0) ** c.shape[-1], -1.0], c.shape[:-1] + (2,))
    alpha = np.concatenate([np.where(np.arange(c.shape[-1]) % 2, -c, c), ends], axis=-1)
    return alpha, np.sqrt(np.maximum(0.0, 1.0 - alpha * alpha))


def hessenberg_entries(c) -> np.ndarray:
    """The n x n Hessenberg matrices of (..., n-1) cosines c, written
    directly in terms of alpha/rho, as a (..., n, n) array.

    Entry formula (one unified expression; the diagonal is the i = j case):

        E[i, j] = -alpha_{j-2} alpha_{i-1} * prod_{l=j-1}^{i-2} rho_l   (j <= i)
        E[i, i+1] = rho_{i-1}
        E[i, j] = 0                                                     (j > i+1)

    The sub-diagonal product bounds here are one index lower than a naive
    reading of the usual statement suggests; the rotation product is the
    source of truth, and this function cross-checks the whole stack
    against one rotation product on every call, raising
    ClosedFormMismatch on disagreement.
    """
    alpha, rho = _alpha_rho(c)
    batch, n = alpha.shape[:-1], alpha.shape[-1] - 1
    m = np.zeros(batch + (n, n))
    one = np.ones(batch + (1,))
    for j in range(1, n + 1):  # column j: rows i = j..n, one running product
        prod = np.cumprod(np.concatenate([one, rho[..., j - 1:n - 1]], axis=-1), axis=-1)
        m[..., j - 1:, j - 1] = -alpha[..., j - 2, None] * alpha[..., j - 1:n] * prod
    m[..., np.arange(n - 1), np.arange(1, n)] = rho[..., :n - 1]
    thetas = np.arccos(np.asarray(c, dtype=float)).reshape(math.prod(batch), n - 1)
    ref = rotation_product_batch(thetas, hessenberg_order(n)).reshape(m.shape)
    err = float(np.abs(m - ref).max(initial=0.0))
    if err > 1e-12:
        raise ClosedFormMismatch(
            f"closed form deviates from the rotation product by {err:.3e}")
    return m


def recurrence_sequences(c, lam):
    """All chi_k(lam), chi~_k(lam), k = 0..n, for (..., n-1) cosines c and
    a scalar or array lam that broadcasts against their batch shape, from
    the coupled recurrence

        chi_k  = lam * chi_{k-1} - alpha_{k-1} * chi~_{k-1}
        chi~_k = chi~_{k-1} - lam * alpha_{k-1} * chi_{k-1}

    started from chi_0 = chi~_0 = 1, one array step per k for every lam.
    chi_k is the characteristic polynomial of the leading k x k block of
    the Hessenberg matrix.  Returns two (n+1, *shape) arrays, row k
    holding chi_k and chi~_k.
    """
    alpha, _ = _alpha_rho(c)
    lam = np.asarray(lam, dtype=complex)
    n = alpha.shape[-1] - 1
    shape = (n + 1,) + np.broadcast_shapes(alpha.shape[:-1], lam.shape)
    chi, chit = np.ones(shape, dtype=complex), np.ones(shape, dtype=complex)
    for k in range(1, n + 1):
        a = alpha[..., k - 1]
        chi[k] = lam * chi[k - 1] - a * chit[k - 1]
        chit[k] = chit[k - 1] - lam * a * chi[k - 1]
    return chi, chit


def charpoly_recurrence(c, lam):
    """chi_n(lam) = det(lam I - E) for the Hessenberg matrices E of
    (..., n-1) cosines c, at a scalar or array lam as in
    ``recurrence_sequences``."""
    chi, _ = recurrence_sequences(c, lam)
    return chi[-1]


# --- limit-law series -------------------------------------------------------


def trace_series_so_batch(stream: RandomStream, terms: int, count: int,
                          finite_trace: bool = False) -> np.ndarray:
    """Y_1 Y_2 + ... + Y_{T-1} Y_T (+ Y_T for the finite-trace form), with
    Y_i = Z_i / sqrt(Z_1^2 + ... + Z_i^2) from independent standard normals.
    A draw with Z_1^2 = 0 (a zero first norm) is redrawn whole;
    ConvergenceError after REDRAW_ROUNDS rounds that leave one.

    Per (chunk, terms) block of Z, one scratch block holds Z^2, its running
    sums, their roots and then Y in turn, and the neighbour products are
    written over Z; neither block is alive during the next chunk's draw.
    The chunk of about 2^21 variates sets the size of each ``gaussian``
    call, so it defines the stream (as ``RandomStream._CHUNK`` does); it is
    not a ``linalg._chunks`` batch chunk, on whose size output never depends.
    """
    if terms < 2:
        raise ValueError("terms >= 2 required")
    out = np.empty(count)
    chunk = max(1, (1 << 21) // terms)  # keep the (chunk, terms) block small
    for done in range(0, count, chunk):
        b = min(chunk, count - done)
        z = stream.gaussian(size=(b, terms))

        def redo(bad):
            z[bad] = stream.gaussian(size=(int(bad.sum()), terms))

        _redraw(lambda: z[:, 0] ** 2 == 0.0, redo, "a zero first term")
        y = z * z
        np.cumsum(y, axis=1, out=y)
        np.sqrt(y, out=y)
        np.divide(z, y, out=y)
        np.multiply(y[:, :-1], y[:, 1:], out=z[:, :-1])
        s = np.add.reduce(z[:, :-1], axis=1, out=out[done:done + b])
        if finite_trace:
            s += y[:, -1]
        del z, y
    return out


def trace_series_perm_batch(stream: RandomStream, terms: int,
                            count: int) -> np.ndarray:
    """Y_1 Y_2 + Y_2 Y_3 + ... with Y_i = 1 with probability 1/i, else 0."""
    if terms < 2:
        raise ValueError("terms >= 2 required")
    acc = np.zeros(count, dtype=np.int64)
    prev = stream.uniform(size=count) < 1.0  # Y_1 = 1 surely
    for i in range(2, terms + 1):
        cur = stream.uniform(size=count) < 1.0 / i
        acc += prev & cur
        prev = cur
    return acc


# --- batched eigenphase summaries -------------------------------------------


def so_min_eigenphase_batch(mats: np.ndarray) -> np.ndarray:
    """Smallest eigenphase in (0, pi] of each real orthogonal matrix.

    Phases come from the symmetric part (m + m^T)/2, whose spectrum is
    {cos(theta_k)}; the largest cosine gives the smallest phase.  For odd
    dimension an SO matrix has a forced +1 eigenvalue (phase 0); it is
    excluded so spacing statistics are not polluted by a deterministic
    point mass.  ValueError for 1 x 1 matrices, which have no such phase.
    """
    mats = np.asarray(mats)
    n = mats.shape[-1]
    if n < 2:
        raise ValueError("n >= 2 required")
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2)).real
    eig = np.linalg.eigvalsh(sym)  # ascending
    col = -2 if n % 2 == 1 else -1
    return np.arccos(np.clip(eig[:, col], -1.0, 1.0))
