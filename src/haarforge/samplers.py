"""Haar / invariant-measure samplers for the classical compact groups.

Three independent constructions are provided for the continuous groups
(Euler angles, QR with the positive-diagonal convention, Householder
reflector chains), plus the weighted bubble-sort factorization for
permutations and the symmetric / self-dual-quaternion circular ensembles.

Every sampler is batched: it takes a RandomStream, n and a count and
returns an ndarray stack.  ``SAMPLERS`` maps each (group tag, method) pair
to its sampler; ``sample_batch`` looks the pair up and splits a batch across
sibling streams (one stream per lane) so results are reproducible
independent of execution order.  Within a lane the draw order is fixed and
documented in the angle generators below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from haarforge import euler
from haarforge.linalg import symplectic_form
from haarforge.randstream import RandomStream

TWO_PI = 2.0 * np.pi


def _compose_word(n: int, bits: dict) -> tuple:
    """sigma = E_1 o E_2 o ... o E_{n-1} with E_j = T_j o ... o T_1."""
    arr = _compose_word_batch(
        n, {key: np.array([v]) for key, v in bits.items()})[0]
    return tuple(int(x) + 1 for x in arr)


def _compose_word_batch(n: int, bits: dict) -> np.ndarray:
    """(B, n) arrays of 0-based one-line permutations from (B,) bit arrays.

    sigma = E_1 o E_2 o ... o E_{n-1} is accumulated left to right as
    sigma <- sigma o E_j; each coset array E_j = T_j o ... o T_1 is built by
    appending factors on the right, where appending T_l swaps *positions*
    (l-1, l), done arithmetically to avoid fancy-index copies.
    """
    batch = np.atleast_1d(next(iter(bits.values()))).shape[0] if bits else 1
    sigma = np.broadcast_to(np.arange(n), (batch, n)).copy()
    e = np.empty((batch, n), dtype=np.int64)
    for j in range(1, n):
        e[:] = np.arange(n)
        for l in range(j, 0, -1):
            swap = np.atleast_1d(bits[(l, j)]).astype(np.int64)
            delta = (e[:, l] - e[:, l - 1]) * swap
            e[:, l - 1] += delta
            e[:, l] -= delta
        sigma = np.take_along_axis(sigma, e, axis=1)
    return sigma


# --- angle draws (fixed, documented order) ---------------------------------


def _so_angles(stream: RandomStream, n: int, count: int) -> dict:
    """theta_{1,k} uniform on [0, 2*pi); arccos of the Gaussian-ratio law
    for j >= 2.  Draw order: k = 2..n, then j = 1..k-1 within each coset."""
    theta = {}
    for k in range(2, n + 1):
        theta[(1, k)] = stream.uniform(0.0, TWO_PI, size=count)
        for j in range(2, k):
            theta[(j, k)] = np.arccos(
                np.clip(stream.cos_theta_so(j, size=count), -1.0, 1.0))
    return theta


def _u_angles(stream: RandomStream, n: int, count: int):
    """phi via the cos(phi) sin(phi)^(2j-1) law, psi uniform; alphas last."""
    phi, psi = {}, {}
    for k in range(2, n + 1):
        for j in range(1, k):
            phi[(j, k)] = stream.phi_unitary(j, size=count)
            psi[(j, k)] = stream.uniform(0.0, TWO_PI, size=count)
    alpha = stream.uniform(0.0, TWO_PI, size=(count, n))
    return phi, psi, alpha


def _haar_su2_blocks(stream: RandomStream, count: int) -> np.ndarray:
    """(B,2,2) Haar-SU(2) stacks: phi ~ sin(2 phi)/2, psi/alpha uniform."""
    ph = stream.sin2phi_quaternion(size=count)
    ps = stream.uniform(0.0, TWO_PI, size=count)
    al = stream.uniform(0.0, TWO_PI, size=count)
    return euler.su2_block(ph, ps, al)


def _sp_angles(stream: RandomStream, n: int, count: int):
    """rho via the cos^3 sin^{4j-1} law; quaternions Haar on SU(2)."""
    rho, quat = {}, {}
    for k in range(2, n + 1):
        for j in range(1, k):
            rho[(j, k)] = stream.rho_symplectic(j, size=count)
            quat[(j, k)] = _haar_su2_blocks(stream, count)
    lead = np.stack([_haar_su2_blocks(stream, count) for _ in range(n)], axis=1)
    return rho, quat, lead


# --- batched samplers -------------------------------------------------------


def so_euler_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n >= 1 required")
    if n == 1:
        return np.ones((count, 1, 1))
    return euler.compose_so_batch(_so_angles(stream, n, count), n)


def o_euler_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """SO(n) samples left-multiplied by diag(-1, 1, ..., 1) on a fair coin."""
    v = so_euler_batch(stream, n, count)
    flip = stream.uniform(size=count) < 0.5
    v[flip, 0, :] *= -1.0
    return v


def u_euler_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    if n == 1:
        alpha = stream.uniform(0.0, TWO_PI, size=(count, 1))
        return np.exp(1j * alpha)[:, :, None] * np.eye(1, dtype=complex)
    phi, psi, alpha = _u_angles(stream, n, count)
    return euler.compose_u_batch(phi, psi, alpha, n)


def sp_euler_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    rho, quat, lead = _sp_angles(stream, n, count)
    return euler.compose_sp_batch(rho, quat, lead, n)


def qr_batch(stream: RandomStream, n: int, count: int, kind: str) -> np.ndarray:
    """Gaussian matrix orthonormalized with the positive-diagonal-R convention.

    Equals in distribution the polar factor (G^dag G)^{-1/2} G, i.e. Haar on
    O(n) (real) or U(n) (complex).  Rank-deficient draws are redrawn.
    """
    if kind == "real":
        g = stream.gaussian(size=(count, n, n))
    else:
        g = (stream.gaussian(size=(count, n, n))
             + 1j * stream.gaussian(size=(count, n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    absd = np.abs(d)
    bad = absd.min(axis=1) < 1e-12
    q = q * (d / np.where(absd == 0.0, 1.0, absd))[:, None, :]
    if np.any(bad):
        q[bad] = qr_batch(stream, n, int(bad.sum()), kind)
    return q.real.copy() if kind == "real" else q


def householder_batch(stream: RandomStream, n: int, count: int, kind: str) -> np.ndarray:
    """Chain of coset reflectors built from shrinking Gaussian vectors.

    The k-dimensional reflector B_k = -e^{i theta}(I_k - 2 w w^dag), with
    w = (z + e^{i theta} e_k)/|..| and theta the phase (sign, for the real
    case) of z_k, maps e_k to the random unit vector z.  The product
    B_n (B_{n-1} (+) I_1) ... (B_1 (+) I_{n-1}) is Haar; the trailing
    one-dimensional factor supplies the random phase / sign of the
    remaining U(1) (O(1)) subgroup.
    """
    cplx = kind == "complex"
    dtype = complex if cplx else float
    acc = None
    for k in range(1, n + 1):
        if cplx:
            z = (stream.gaussian(size=(count, k))
                 + 1j * stream.gaussian(size=(count, k)))
        else:
            z = stream.gaussian(size=(count, k))
        nz = np.linalg.norm(z, axis=1)
        while np.any(nz == 0.0):
            bad = nz == 0.0
            pats = (stream.gaussian(size=(int(bad.sum()), k)) if not cplx else
                    stream.gaussian(size=(int(bad.sum()), k))
                    + 1j * stream.gaussian(size=(int(bad.sum()), k)))
            z[bad] = pats
            nz = np.linalg.norm(z, axis=1)
        z = z / nz[:, None]
        last = z[:, k - 1]
        if cplx:
            a = np.abs(last)
            # z_k exactly zero (probability zero): any phase works; use +1
            phase = np.where(a == 0.0, 1.0 + 0.0j,
                             last / np.where(a == 0.0, 1.0, a))
        else:
            phase = np.where(last >= 0.0, 1.0, -1.0)
        v = z.copy()
        v[:, k - 1] += phase
        w = v / np.linalg.norm(v, axis=1)[:, None]
        if acc is None:
            acc = np.broadcast_to(np.eye(n, dtype=dtype), (count, n, n)).copy()
            acc[:, 0, 0] = -phase * (1.0 - 2.0 * np.abs(w[:, 0]) ** 2)
            continue
        top = acc[:, :k, :]
        wx = np.einsum("bk,bkm->bm", w.conj(), top)
        acc[:, :k, :] = -phase[:, None, None] * (top - 2.0 * w[:, :, None] * wx[:, None, :])
    return acc


def permutation_batch(stream: RandomStream, n: int, count: int,
                      keep_bits: bool = True):
    """Decision bits mu_{i,j} = 1 with probability i/(i+1), composed through
    the transposition factors on the fly.

    Returns (bits, one_line_0based); bits is None when ``keep_bits`` is off
    (large batches need not retain the O(n^2 count) bit record).  Draw
    order: one uniform block of shape (count, j) per coset j = 1..n-1,
    column i holding the T_i decisions.
    """
    bits = {} if keep_bits else None
    sigma = np.broadcast_to(np.arange(n), (count, n)).copy()
    if n == 1:
        return bits, sigma
    e = np.empty((count, n), dtype=np.int64)
    cols = np.arange(n)
    for j in range(1, n):
        probs = np.arange(1, j + 1) / np.arange(2, j + 2)
        coset = stream.uniform(size=(count, j)) < probs[None, :]
        if keep_bits:
            for i in range(1, j + 1):
                bits[(i, j)] = coset[:, i - 1].astype(np.int8)
        # closed form of E_j = T_j o ... o T_1: a value rides up through the
        # run of set bits ahead of it, or steps down one when its own bit is
        # set.  R[l] = length of the 1-run starting at bit l.
        idx = np.where(~coset, cols[:j], j)
        next_zero = np.minimum.accumulate(idx[:, ::-1], axis=1)[:, ::-1]
        run = next_zero - cols[:j]
        e[:] = cols
        e[:, 0] = run[:, 0]
        e[:, 1:j] = np.where(coset[:, :j - 1], cols[:j - 1],
                             cols[1:j] + run[:, 1:])
        e[:, j] = np.where(coset[:, j - 1], j - 1, j)
        sigma = np.take_along_axis(sigma, e, axis=1)
    return bits, sigma


def permutation_matrices(lines: np.ndarray) -> np.ndarray:
    """(B, n, n) 0/1 matrices of (B, n) 0-based one-lines: column x holds
    its 1 in row sigma(x)."""
    count, n = lines.shape
    mats = np.zeros((count, n, n))
    mats[np.arange(count)[:, None], lines, np.arange(n)[None, :]] = 1.0
    return mats


def coe_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """S = U^T U with U Haar on U(n): symmetric unitary (COE)."""
    u = qr_batch(stream, n, count, "complex")
    return np.einsum("bki,bkj->bij", u, u)


def cse_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """S~ = U^D U with U Haar on U(2n), U^D = Z^{-1} U^T Z: self-dual (CSE)."""
    u = qr_batch(stream, 2 * n, count, "complex")
    z = symplectic_form(2 * n)
    ud = -z @ np.swapaxes(u, 1, 2) @ z   # Z^{-1} = -Z
    return np.einsum("bij,bjk->bik", ud, u)


# --- the (group, method) table and the batch front end ---------------------


class Sampler(NamedTuple):
    """``draw(stream, n, count)`` returns a (count, d, d) stack of ``kind``
    "real" or "complex" with d = ``matrix_dim(n)``, or for kind
    "permutation" a (count, n) array of 0-based one-line permutations."""

    draw: Callable
    kind: str
    matrix_dim: Callable


def _dim_n(n: int) -> int:
    return n


# The first method listed for a tag is its default.  Each entry calls its
# batch function by module-global name when it runs, so a rebound name (a
# profiler's wrapper, a test's fake) is the one called.
SAMPLERS = {
    ("so", "euler"): Sampler(lambda s, n, c: so_euler_batch(s, n, c), "real", _dim_n),
    ("o", "euler"): Sampler(lambda s, n, c: o_euler_batch(s, n, c), "real", _dim_n),
    ("o", "qr"): Sampler(lambda s, n, c: qr_batch(s, n, c, "real"), "real", _dim_n),
    ("o", "householder"): Sampler(
        lambda s, n, c: householder_batch(s, n, c, "real"), "real", _dim_n),
    ("u", "euler"): Sampler(lambda s, n, c: u_euler_batch(s, n, c), "complex", _dim_n),
    ("u", "qr"): Sampler(lambda s, n, c: qr_batch(s, n, c, "complex"), "complex", _dim_n),
    ("u", "householder"): Sampler(
        lambda s, n, c: householder_batch(s, n, c, "complex"), "complex", _dim_n),
    ("sp", "euler"): Sampler(
        lambda s, n, c: sp_euler_batch(s, n, c), "complex", lambda n: 2 * n),
    ("sn", "bubble"): Sampler(
        lambda s, n, c: permutation_batch(s, n, c, keep_bits=False)[1],
        "permutation", _dim_n),
}

GROUP_TAGS = tuple(dict.fromkeys(tag for tag, _ in SAMPLERS))
DEFAULT_METHOD = {tag: next(m for t, m in SAMPLERS if t == tag) for tag in GROUP_TAGS}


@dataclass(frozen=True)
class GroupId:
    """A group tag plus its dimension parameter (matrix size 2n for sp)."""

    tag: str
    n: int

    def __post_init__(self):
        if self.tag not in GROUP_TAGS:
            raise ValueError(f"unknown group tag {self.tag!r}")
        if self.n < 1:
            raise ValueError("n >= 1 required")


def _lane_counts(count: int, streams: int):
    base, rem = divmod(count, streams)
    return [base + (1 if i < rem else 0) for i in range(streams)]


def sample_batch(group, n: int, count: int, method: str | None = None,
                 seed: int = 0, streams: int = 1):
    """Draw ``count`` elements, split across ``streams`` sibling streams.

    Returns a (count, d, d) array for matrix groups, or a list of 1-based
    one-line permutation tuples for sn.  Lane i uses
    RandomStream(seed, stream_id=i), so output is reproducible for fixed
    (seed, streams) regardless of how lanes are scheduled.
    """
    tag = group.tag if isinstance(group, GroupId) else str(group)
    GroupId(tag=tag, n=n)
    method = method or DEFAULT_METHOD[tag]
    sampler = SAMPLERS.get((tag, method))
    if sampler is None:
        raise ValueError(f"method {method!r} is not valid for group {tag!r}")
    if count < 1:
        raise ValueError("count >= 1 required")
    streams = max(1, min(streams, count))
    arr = np.concatenate([sampler.draw(RandomStream(seed, stream_id=lane), n, c)
                          for lane, c in enumerate(_lane_counts(count, streams))],
                         axis=0)
    if sampler.kind == "permutation":
        return [tuple(row) for row in (arr + 1).tolist()]
    return arr
