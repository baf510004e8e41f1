"""Eigenvalue-only random matrix models for SO(N).

The single coset factor E_{N-1} = R_{N-1}(theta_{N-1}) ... R_1(theta_1),
with cos(theta_j) following the normalized-Gaussian-ratio law, shares the
eigenvalue distribution of a full Haar SO(N) matrix, and so does any
reordering of its factors.  Two orderings are of special interest: the
descending product is lower Hessenberg, and the odd/even split
R_odd * R_even is five-diagonal (the CMV shape).  All angles here are
taken in [0, pi] (the arccos branch); conjugating by diag(-1, 1, ..., 1)
maps theta_1 to 2*pi - theta_1 without moving eigenvalues, so the branch
choice does not affect any spectral law.
"""

from __future__ import annotations

import numpy as np

from haarforge.euler import _plane_product, _rotation_blocks
from haarforge.randstream import RandomStream


class ClosedFormMismatch(RuntimeError):
    """The Hessenberg entry formula disagreed with the rotation product."""


# --- rotation products ------------------------------------------------------


def rotation_product_batch(thetas: np.ndarray, order, n: int) -> np.ndarray:
    """Stack of products of R_l(theta_l) over plane indices l in ``order``.

    thetas has shape (B, n-1); thetas[:, l-1] belongs to plane l.  The
    product is taken left to right, i.e. order[0] is the leftmost factor.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    m, planes = _rotation_blocks(thetas.T), [l - 1 for l in order]
    return _plane_product(n, thetas.shape[0], float,
                          lambda sl: ((c, n, m[c, ..., sl]) for c in planes))


def _spectral_thetas(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """(B, n-1) angles: theta_j = arccos of the Gaussian-ratio law."""
    out = np.empty((count, n - 1))
    for j in range(1, n):
        out[:, j - 1] = np.arccos(
            np.clip(stream.cos_theta_so(j, size=count), -1.0, 1.0))
    return out


def hessenberg_order(n: int):
    """Descending plane order: the lower-Hessenberg product E_{N-1}."""
    return list(range(n - 1, 0, -1))


def cmv_order(n: int):
    """Odd planes first, then even: the five-diagonal product R_odd R_even."""
    return list(range(1, n, 2)) + list(range(2, n, 2))


def hessenberg_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """Lower-Hessenberg orthogonal matrices with the Haar SO(n) spectrum."""
    return rotation_product_batch(
        _spectral_thetas(stream, n, count), hessenberg_order(n), n)


def cmv_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """Five-diagonal orthogonal matrices with the Haar SO(n) spectrum."""
    return rotation_product_batch(
        _spectral_thetas(stream, n, count), cmv_order(n), n)


# --- closed-form entries and the characteristic-polynomial recurrence ------


def _alpha_rho(c):
    """Dicts alpha[i] and rho[i] = (1 - alpha_i^2)^{1/2}, -1 <= i <= n-1, of
    the n-1 cosines c_i = cos(theta_{i,N}): alpha_{i-1} = (-1)^{i-1} c_i,
    with boundary values alpha_{-1} = -1 and alpha_{n-1} = (-1)^{n-1}.
    ValueError unless c is 1-d with every |c_i| <= 1."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or np.any(np.abs(c) > 1.0):
        raise ValueError("cosines must be a 1-d array with entries in [-1, 1]")
    vals = [-1.0] + [float((-1.0) ** i * x) for i, x in enumerate(c)] + [float((-1.0) ** len(c))]
    alpha = dict(enumerate(vals, start=-1))
    return alpha, {i: float(np.sqrt(max(0.0, 1.0 - a * a))) for i, a in alpha.items()}


def hessenberg_entries(c) -> np.ndarray:
    """The n x n Hessenberg matrix of the n-1 cosines c, written directly
    in terms of alpha/rho.

    Entry formula (one unified expression; the diagonal is the i = j case):

        E[i, j] = -alpha_{j-2} alpha_{i-1} * prod_{l=j-1}^{i-2} rho_l   (j <= i)
        E[i, i+1] = rho_{i-1}
        E[i, j] = 0                                                     (j > i+1)

    The sub-diagonal product bounds here are one index lower than a naive
    reading of the usual statement suggests; the rotation product is the
    source of truth, and this function cross-checks against it on every
    call, raising ClosedFormMismatch on disagreement.
    """
    alpha, rho = _alpha_rho(c)
    n = len(alpha) - 1
    m = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            prod = 1.0
            for l in range(j - 1, i - 1):
                prod *= rho[l]
            m[i - 1, j - 1] = -alpha[j - 2] * alpha[i - 1] * prod
        if i <= n - 1:
            m[i - 1, i] = rho[i - 1]
    thetas = np.arccos(np.asarray(c, dtype=float))
    ref = rotation_product_batch(thetas[None, :], hessenberg_order(n), n)[0]
    err = float(np.abs(m - ref).max())
    if err > 1e-12:
        raise ClosedFormMismatch(
            f"closed form deviates from the rotation product by {err:.3e}")
    return m


def recurrence_sequences(c, lam: complex):
    """All chi_k(lam), chi~_k(lam), k = 0..n, for the n-1 cosines c, from
    the coupled recurrence

        chi_k  = lam * chi_{k-1} - alpha_{k-1} * chi~_{k-1}
        chi~_k = chi~_{k-1} - lam * alpha_{k-1} * chi_{k-1}

    started from chi_0 = chi~_0 = 1.  chi_k is the characteristic
    polynomial of the leading k x k block of the Hessenberg matrix.
    """
    alpha, _ = _alpha_rho(c)
    chi, chit = [1.0 + 0.0j], [1.0 + 0.0j]
    lam = complex(lam)
    for k in range(1, len(alpha)):
        a = alpha[k - 1]
        chi.append(lam * chi[k - 1] - a * chit[k - 1])
        chit.append(chit[k - 1] - lam * a * chi[k - 1])
    return chi, chit


def charpoly_recurrence(c, lam: complex) -> complex:
    """chi_n(lam) = det(lam I - E) for the Hessenberg matrix E of cosines c."""
    chi, _ = recurrence_sequences(c, lam)
    return chi[-1]


# --- limit-law series -------------------------------------------------------


def trace_series_so_batch(stream: RandomStream, terms: int, count: int,
                          finite_trace: bool = False) -> np.ndarray:
    """Y_1 Y_2 + ... + Y_{T-1} Y_T (+ Y_T for the finite-trace form), with
    Y_i = Z_i / sqrt(Z_1^2 + ... + Z_i^2) from independent standard normals."""
    if terms < 2:
        raise ValueError("terms >= 2 required")
    out = np.empty(count)
    chunk = max(1, (1 << 21) // terms)  # keep the (chunk, terms) block small
    done = 0
    while done < count:
        b = min(chunk, count - done)
        z = stream.gaussian(size=(b, terms))
        norms = np.sqrt(np.cumsum(z * z, axis=1))
        while np.any(norms[:, 0] == 0.0):
            bad = norms[:, 0] == 0.0
            z[bad] = stream.gaussian(size=(int(bad.sum()), terms))
            norms = np.sqrt(np.cumsum(z * z, axis=1))
        y = z / norms
        s = (y[:, :-1] * y[:, 1:]).sum(axis=1)
        if finite_trace:
            s = s + y[:, -1]
        out[done:done + b] = s
        done += b
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


def so_min_eigenphase_batch(mats: np.ndarray, drop_forced: bool = True) -> np.ndarray:
    """Smallest eigenphase in (0, pi] of each real orthogonal matrix.

    Phases come from the symmetric part (m + m^T)/2, whose spectrum is
    {cos(theta_k)}; the largest cosine gives the smallest phase.  For odd
    dimension an SO matrix has a forced +1 eigenvalue (phase 0); with
    ``drop_forced`` it is excluded so spacing statistics are not polluted
    by a deterministic point mass.
    """
    mats = np.asarray(mats)
    n = mats.shape[-1]
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2)).real
    eig = np.linalg.eigvalsh(sym)  # ascending
    col = -2 if (n % 2 == 1 and drop_forced) else -1
    return np.arccos(np.clip(eig[:, col], -1.0, 1.0))
