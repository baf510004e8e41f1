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
documented in the angle generators below.  The QR, Householder and
circular-ensemble loops cut their batches by ``linalg._chunks``, the one
batch-chunk rule; no chunk size here sets a draw's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from haarforge import euler
from haarforge.linalg import CHUNK_BYTES, _chunks, _redraw, symplectic_form
from haarforge.randstream import (RandomStream, phi_unitary_law, rho_symplectic_law,
                                  sin2phi_law)

TWO_PI = 2.0 * np.pi


# --- angle draws (fixed, documented order) ---------------------------------


def _so_angles(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """Packed (P, count) theta: theta_{1,k} uniform, arccos of cos_theta_so(j) for j >= 2.

    Draw order: one (n-1, count) uniform block, row k-2 holding theta_{1,k};
    then one cos_theta_so block over the angles with j >= 2 in coset-major
    order (k = 3..n, j = 2..k-1 within each coset), one row per angle.
    """
    first = stream.uniform(0.0, TWO_PI, size=(n - 1, count))
    j = euler.row_j(n)
    rest = stream.cos_theta_so(j[j >= 2][:, None], size=(len(j) - len(first), count))
    np.clip(rest, -1.0, 1.0, out=rest)
    np.arccos(rest, out=rest)
    theta = np.empty((len(j), count))
    theta[j == 1], theta[j >= 2] = first, rest
    return theta


def _u_angles(stream: RandomStream, n: int, count: int):
    """Packed (P, count) phi via the cos(phi) sin(phi)^(2j-1) law and psi
    uniform; the (count, n) alphas last.

    Draw order: row by row, count uniforms for phi's law, then count for
    psi, as one (P, 2, count) uniform block; then the (count, n) alphas.
    The law runs once per j, on the rows of that j.
    """
    u = stream.uniform(size=(n * (n - 1) // 2, 2, count))
    phi, psi = np.empty(u.shape[::2]), u[:, 1] * TWO_PI  # as uniform(0, 2 pi) maps it
    j = euler.row_j(n)
    for jj in range(1, n):
        phi[j == jj] = phi_unitary_law(u[j == jj, 0], jj)
    alpha = stream.uniform(0.0, TWO_PI, size=(count, n))
    return phi, psi, alpha


def _sp_angles(stream: RandomStream, n: int, count: int):
    """Packed rho via the cos^3 sin^{4j-1} law and quaternions Haar on SU(2);
    (count, n, 2, 2) leads last.

    Draw order: row by row, rho's (count, 2j+1) uniforms, then count each
    for the quaternion's phi (the sin(2 phi) law), psi and alpha; then the
    leads' (3, count) triples, q_1 to q_n.  The rows are drawn in uniform
    blocks of whole rows, each starting with the first row that begins past
    the next multiple of ``linalg.CHUNK_BYTES`` of uniforms, so that a block
    stays in cache (one block for a stack that needs at most 2^16 of them,
    n = 12 up to 78 elements); each block runs the rho law once per j.  The
    blocks do not change the stream, which is the uniforms in order.
    """
    p = n * (n - 1) // 2
    j = euler.row_j(n)
    width = count * (2 * j + 4)  # uniforms per row
    start = np.cumsum(width) - width
    rho = np.empty((p, count))
    quat = np.empty((p, count, 2, 2), dtype=complex)
    lead = np.empty((count, n, 2, 2), dtype=complex)
    block = start // (CHUNK_BYTES // 8)
    for rows in np.split(np.arange(p), np.flatnonzero(np.diff(block)) + 1) if p else []:
        off = start[rows] - start[rows[0]]
        u = stream.uniform(size=int(width[rows].sum()))
        for jj in np.unique(j[rows]).tolist():
            at = j[rows] == jj
            win = _windows(u, count * (2 * jj + 1))[off[at]]
            rho[rows[at]] = rho_symplectic_law(win.reshape(len(win), count, 2 * jj + 1), jj)
        win = _windows(u, 3 * count)[off + count * (2 * j[rows] + 1)]
        _haar_su2(quat[rows[0]:rows[-1] + 1], win.reshape(len(rows), 3, count))
    _haar_su2(lead.transpose(1, 0, 2, 3), stream.uniform(size=(n, 3, count)))
    return rho, quat, lead


def _haar_su2(out: np.ndarray, u: np.ndarray) -> None:
    """Fill the (m, count, 2, 2) view ``out`` with Haar SU(2) blocks from
    (m, 3, count) uniforms: phi by the sin(2 phi) law, psi and alpha
    uniform on [0, 2 pi), as ``euler.su2_block(phi, psi, alpha)``."""
    euler._su2_fill(np.moveaxis(out, (-2, -1), (0, 1)), sin2phi_law(u[:, 0]),
                    u[:, 2] * TWO_PI, u[:, 1] * TWO_PI)


def _windows(u: np.ndarray, size: int) -> np.ndarray:
    """The (len(u) - size + 1, size) view of u's length-size windows, one
    per start offset; indexing it with offsets gathers those windows."""
    return np.lib.stride_tricks.as_strided(u, (len(u) - size + 1, size), u.strides * 2,
                                           writeable=False)


# --- batched samplers -------------------------------------------------------


def so_euler_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n >= 1 required")
    return euler.compose_so_batch(_so_angles(stream, n, count))


def o_euler_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """SO(n) samples left-multiplied by diag(-1, 1, ..., 1) on a fair coin."""
    v = so_euler_batch(stream, n, count)
    flip = stream.uniform(size=count) < 0.5
    v[flip, 0, :] *= -1.0
    return v


def u_euler_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    return euler.compose_u_batch(*_u_angles(stream, n, count))


def sp_euler_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    return euler.compose_sp_batch(*_sp_angles(stream, n, count))


def qr_batch(stream: RandomStream, n: int, count: int, kind: str) -> np.ndarray:
    """Gaussian matrix orthonormalized with the positive-diagonal-R convention.

    Equals in distribution the polar factor (G^dag G)^{-1/2} G, i.e. Haar on
    O(n) (real) or U(n) (complex).  Rank-deficient draws are redrawn, in
    order, after the whole batch; ConvergenceError after REDRAW_ROUNDS
    rounds that leave one.

    Draw order: the whole (count, n, n) Gaussian block (real parts, then
    imaginary parts, when complex).  Q times its R-diagonal phases is
    written back over the Gaussian block chunk by chunk (``_chunks``), so
    the traced peak stays within 3x the returned stack.
    """
    def draw(m):
        if kind == "real":
            g = stream.gaussian(size=(m, n, n))
        else:
            g = np.empty((m, n, n), dtype=complex)
            g.real = stream.gaussian(size=(m, n, n))
            g.imag = stream.gaussian(size=(m, n, n))
            g /= np.sqrt(2.0)
        rank_low = np.empty(m, dtype=bool)
        for sl in _chunks(m, g.strides[0]):
            q, r = np.linalg.qr(g[sl])
            d = np.diagonal(r, axis1=1, axis2=2)
            absd = np.abs(d)
            np.multiply(q, (d / np.where(absd == 0.0, 1.0, absd))[:, None, :], out=g[sl])
            rank_low[sl] = absd.min(axis=1) < 1e-12
        return g, rank_low

    def redo(mask):
        q[mask], bad[mask] = draw(int(mask.sum()))

    q, bad = draw(count)
    _redraw(lambda: bad, redo, f"a rank-deficient {n} x {n} Gaussian matrix")
    return q


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
    Step k runs in the batch chunks ``linalg._chunks`` gives for k x k
    blocks, so each chunk's passes stay in cache.
    """
    cplx = kind == "complex"
    acc = np.zeros((count, n, n), dtype=complex if cplx else float)
    acc.reshape(count, n * n)[:, ::n + 1] = 1.0
    sgn = np.ones(count)
    scratch = np.empty(max([(sl.stop - sl.start) * k * k for k in range(2, n + 1)
                            for sl in _chunks(count, k * k * acc.itemsize)], default=0),
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
        for sl in _chunks(count, k * k * acc.itemsize):
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
    """S = U^T U with U Haar on U(n): symmetric unitary (COE).

    S is written over U chunk by chunk, so the traced peak stays within 3x
    the returned stack.
    """
    u = qr_batch(stream, n, count, "complex")
    for sl in _chunks(count, u.strides[0]):
        u[sl] = np.einsum("bki,bkj->bij", u[sl], u[sl])
    return u


def cse_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """S~ = U^D U with U Haar on U(2n), U^D = Z^{-1} U^T Z: self-dual (CSE).

    S~ is written over U chunk by chunk, so the traced peak stays within 3x
    the returned stack.
    """
    u = qr_batch(stream, 2 * n, count, "complex")
    z = symplectic_form(2 * n)
    for sl in _chunks(count, u.strides[0]):
        ud = -z @ np.swapaxes(u[sl], 1, 2) @ z   # Z^{-1} = -Z
        u[sl] = np.einsum("bij,bjk->bik", ud, u[sl])
    return u


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
    ``_lane_counts(count, streams)``, stacked along axis 0; a lone lane is
    returned as drawn, without a copy."""
    lanes = [draw(RandomStream(seed, lane), n, c)
             for lane, c in enumerate(_lane_counts(count, streams))]
    return lanes[0] if len(lanes) == 1 else np.concatenate(lanes, axis=0)


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
