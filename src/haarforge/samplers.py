"""Haar / invariant-measure samplers for the classical compact groups.

Three independent constructions are provided for the continuous groups
(Euler angles, QR with the positive-diagonal convention, Householder
reflector chains), plus the weighted bubble-sort factorization for
permutations and the symmetric / self-dual-quaternion circular ensembles.

Every sampler is batched: it takes a RandomStream, n and a count and
returns an ndarray stack, the (count, n) one-line stack for permutations.
``SAMPLERS`` maps each (group tag, method) pair to its sampler;
``sample_batch`` looks the pair up and ``_draw_lanes`` splits a batch across
sibling streams (one stream per lane) so results are reproducible
independent of execution order.  Within a lane the draw order is fixed and
documented in the angle generators below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from haarforge import euler
from haarforge.linalg import _redraw, symplectic_form
from haarforge.randstream import RandomStream

TWO_PI = 2.0 * np.pi


# --- angle draws (fixed, documented order) ---------------------------------


def _so_angles(stream: RandomStream, n: int, count: int) -> dict:
    """theta_{1,k} uniform on [0, 2*pi); arccos of cos_theta_so(j) for j >= 2.

    Draw order: one (n-1, count) uniform block, row k-2 holding
    theta_{1,k}; then one cos_theta_so block over the pairs with j >= 2
    in coset-major order (k = 3..n, j = 2..k-1 within each coset), one row
    per pair.  Each angle is a contiguous row of one of the two blocks.
    """
    first = stream.uniform(0.0, TWO_PI, size=(n - 1, count))
    pairs = [(j, k) for j, k in euler.angle_pairs(n) if j >= 2]
    rest = stream.cos_theta_so(np.array([j for j, _ in pairs])[:, None],
                               size=(len(pairs), count))
    np.clip(rest, -1.0, 1.0, out=rest)
    np.arccos(rest, out=rest)
    theta = {(1, k): first[k - 2] for k in range(2, n + 1)}
    theta.update(zip(pairs, rest))
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
    return euler.compose_so_batch(_so_angles(stream, n, count), n, count)


def o_euler_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """SO(n) samples left-multiplied by diag(-1, 1, ..., 1) on a fair coin."""
    v = so_euler_batch(stream, n, count)
    flip = stream.uniform(size=count) < 0.5
    v[flip, 0, :] *= -1.0
    return v


def u_euler_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    phi, psi, alpha = _u_angles(stream, n, count)
    return euler.compose_u_batch(phi, psi, alpha, n)


def sp_euler_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    rho, quat, lead = _sp_angles(stream, n, count)
    return euler.compose_sp_batch(rho, quat, lead, n)


def qr_batch(stream: RandomStream, n: int, count: int, kind: str) -> np.ndarray:
    """Gaussian matrix orthonormalized with the positive-diagonal-R convention.

    Equals in distribution the polar factor (G^dag G)^{-1/2} G, i.e. Haar on
    O(n) (real) or U(n) (complex).  Rank-deficient draws are redrawn, in
    order, after the whole batch; ConvergenceError after REDRAW_ROUNDS
    rounds that leave one.
    """
    def draw(m):
        if kind == "real":
            g = stream.gaussian(size=(m, n, n))
        else:
            g = (stream.gaussian(size=(m, n, n))
                 + 1j * stream.gaussian(size=(m, n, n))) / np.sqrt(2.0)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=1, axis2=2)
        absd = np.abs(d)
        return (q * (d / np.where(absd == 0.0, 1.0, absd))[:, None, :],
                absd.min(axis=1) < 1e-12)

    def redo(mask):
        q[mask], bad[mask] = draw(int(mask.sum()))

    q, bad = draw(count)
    _redraw(lambda: bad, redo, f"a rank-deficient {n} x {n} Gaussian matrix")
    return q.real.copy() if kind == "real" else q


HOUSEHOLDER_CHUNK_BYTES = 1 << 19  # a chunk of the k x k block and its scratch fit L2


def _norms(z: np.ndarray) -> np.ndarray:
    """Row norms of a (B, k) array, computed as ``np.linalg.norm(z, axis=1)``
    computes them, without its per-call checks."""
    return np.sqrt(np.add.reduce((z.conj() * z).real, axis=1))


def _gaussian_vectors(stream: RandomStream, count: int, k: int, cplx: bool):
    """(count, k) Gaussian vectors (real, or re + i im) with nonzero norms,
    and those norms.  A zero vector is redrawn in place; ConvergenceError
    after REDRAW_ROUNDS rounds that leave one."""
    def draw(m):
        g = stream.gaussian(size=(m, k))
        return g + 1j * stream.gaussian(size=(m, k)) if cplx else g

    def redo(bad):
        z[bad] = draw(int(bad.sum()))
        nz[bad] = _norms(z[bad])

    z = draw(count)
    nz = _norms(z)
    _redraw(lambda: nz == 0.0, redo, f"a zero Gaussian vector of length {k}")
    return z, nz


def householder_batch(stream: RandomStream, n: int, count: int, kind: str) -> np.ndarray:
    """Chain of coset reflectors built from shrinking Gaussian vectors.

    The k-dimensional reflector B_k = -e^{i theta}(I_k - 2 w w^dag), with
    w = (z + e^{i theta} e_k)/|..| and theta the phase (sign, for the real
    case) of z_k, maps e_k to the random unit vector z.  The product
    B_n (B_{n-1} (+) I_1) ... (B_1 (+) I_{n-1}) is Haar; the trailing
    one-dimensional factor supplies the random phase / sign of the
    remaining U(1) (O(1)) subgroup.

    Draw order: for k = 1..n, one (count, k) Gaussian block (two, real
    then imaginary, when complex), then the redraws of its zero rows.

    Before step k the accumulated product is a (k-1)x(k-1) block plus the
    identity, so B_k acts on the leading k x k block ``top`` alone.  Its
    update, t = (2w) (w^dag top), top - t, then -e^{i theta} t, runs in
    place through one reused scratch array, with the operands in the order
    of the full-width update, so the bits are the same.  In the real case
    -e^{i theta} = +-1 is not applied: the stack holds the product divided
    by a per-matrix sign ``sgn``, which is multiplied in once at the end
    (negation is exact and rounding symmetric, so the bits stay the same).
    It runs in batch chunks of at most HOUSEHOLDER_CHUNK_BYTES of block (or
    an eighth of the batch), so each chunk's passes stay in cache.
    """
    cplx = kind == "complex"
    acc = np.zeros((count, n, n), dtype=complex if cplx else float)
    acc.reshape(count, n * n)[:, ::n + 1] = 1.0
    sgn = np.ones(count)
    # room for the largest chunk: an eighth of the batch at k = n, or the chunk bytes
    scratch = np.empty(min(count * n * n, max(-(-count // 8) * n * n,
                                              HOUSEHOLDER_CHUNK_BYTES // acc.itemsize)),
                       dtype=acc.dtype)
    for k in range(1, n + 1):
        z, nz = _gaussian_vectors(stream, count, k, cplx)
        z /= nz[:, None]
        last = z[:, k - 1]
        if cplx:
            a = np.abs(last)
            # z_k exactly zero (probability zero): any phase works; use +1
            phase = np.where(a == 0.0, 1.0 + 0.0j,
                             last / np.where(a == 0.0, 1.0, a))
        else:
            phase = np.where(last >= 0.0, 1.0, -1.0)
        last += phase
        z /= _norms(z)[:, None]  # z is now w
        if k == 1:
            acc[:, 0, 0] = -phase * (1.0 - 2.0 * np.abs(z[:, 0]) ** 2)
            continue
        if not cplx:
            acc[:, k - 1, k - 1] = sgn  # the identity entry, divided by sgn
            sgn *= -phase
        wc, w2, nph = z.conj(), 2.0 * z, (-phase)[:, None, None]
        step = max(1, -(-count // 8), HOUSEHOLDER_CHUNK_BYTES // (k * k * acc.itemsize))
        for start in range(0, count, step):
            sl = slice(start, start + step)
            top = acc[sl, :k, :k]
            t = scratch[:top.size].reshape(top.shape)
            wx = np.einsum("bk,bkm->bm", wc[sl], top)
            if cplx:
                np.multiply(w2[sl, :, None], wx[:, None, :], out=t)
                np.subtract(top, t, out=t)
                np.multiply(nph[sl], t, out=top)
            else:
                np.einsum("bk,bm->bkm", w2[sl], wx, out=t)
                np.subtract(top, t, out=top)
    if not cplx:
        acc *= sgn[:, None, None]
    return acc


def _index_dtype(n: int):
    """The narrowest signed integer type, int16 at least, that holds n."""
    return np.int16 if n <= 0x7FFF else np.int32 if n <= 0x7FFFFFFF else np.int64


def _compose_cosets(clear, n: int, count: int) -> np.ndarray:
    """(count, n) int64 0-based one-line permutations sigma = E_1 o ... o
    E_{n-1} of the bubble-sort decisions; ``clear(j, out)`` writes coset j's
    "mu_{i,j} = 0" flags into the (count, j) bool view ``out``, column i-1
    for T_i, just before coset j is composed.

    sigma <- sigma o E_j touches only the prefix 0..j that E_j moves.  In
    closed form, E_j = T_j o ... o T_1 right-rotates each segment [a, b]
    of 0..j, a run of set bits a..b-1 closed by the clear bit b or by j:
    position a takes the value at b, every other position the value at
    its left neighbour.  So the prefix shifts right by one and the
    segment ends, gathered in row order, are scattered to the segment
    starts; a row has as many of one as of the other, so the two boolean
    masks pair them up.  The work runs in ``_index_dtype(n)`` (int16 up to
    n = 32767) and is cast to int64 once.
    """
    itype = _index_dtype(n)
    sigma = np.empty((count, n), dtype=itype)
    sigma[:] = np.arange(n, dtype=itype)
    # bound[:, x + 1] holds "bit x is clear"; with bound[:, 0] and
    # bound[:, j + 1] set, bound[:, :j + 1] marks the segment starts of
    # 0..j and bound[:, 1:j + 2] the segment ends.
    bound = np.empty((count, n + 1), dtype=bool)
    bound[:, 0] = True
    for j in range(1, n):
        clear(j, bound[:, 1:j + 1])
        bound[:, j + 1] = True
        head = sigma[:, :j + 1]
        ends = head[bound[:, 1:j + 2]]
        head[:, 1:] = head[:, :-1]
        head[bound[:, :j + 1]] = ends
    return sigma.astype(np.int64)


def permutation_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """(count, n) int64 0-based one-line permutations from the decision bits
    mu_{i,j} = 1 with probability i/(i+1), composed by ``_compose_cosets``.

    Draw order: one uniform block of shape (count, j) per coset j = 1..n-1,
    column i-1 deciding mu_{i,j}, drawn just before the coset is composed.
    """
    probs = np.arange(1, n) / np.arange(2, n + 1)
    return _compose_cosets(
        lambda j, out: np.greater_equal(stream.uniform(size=(count, j)), probs[:j], out=out),
        n, count)


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
        lambda s, n, c: permutation_batch(s, n, c), "permutation", _dim_n),
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
    """``count`` split over max(1, min(streams, count)) lanes, the first
    count % lanes of them one larger."""
    lanes = max(1, min(streams, count))
    base, rem = divmod(count, lanes)
    return [base + (1 if i < rem else 0) for i in range(lanes)]


def _draw_lanes(draw, n: int, count: int, seed: int, streams: int) -> np.ndarray:
    """``draw(stream, n, c)`` on RandomStream(seed, lane) for each lane of
    ``_lane_counts(count, streams)``, stacked along axis 0."""
    return np.concatenate([draw(RandomStream(seed, lane), n, c)
                           for lane, c in enumerate(_lane_counts(count, streams))],
                          axis=0)


def sample_batch(tag: str, n: int, count: int, method: str | None = None,
                 seed: int = 0, streams: int = 1):
    """Draw ``count`` elements of group ``tag``, split across ``streams`` sibling streams.

    Returns a (count, d, d) array for matrix groups, or for sn the
    (count, n) int64 stack of 1-based one-line permutations.  Lane i uses
    RandomStream(seed, stream_id=i), so output is reproducible for fixed
    (seed, streams) regardless of how lanes are scheduled.
    """
    GroupId(tag=tag, n=n)
    method = method or DEFAULT_METHOD[tag]
    sampler = SAMPLERS.get((tag, method))
    if sampler is None:
        raise ValueError(f"method {method!r} is not valid for group {tag!r}")
    if count < 1:
        raise ValueError("count >= 1 required")
    arr = _draw_lanes(sampler.draw, n, count, seed, streams)
    return arr + 1 if sampler.kind == "permutation" else arr
