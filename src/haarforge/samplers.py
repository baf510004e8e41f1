"""Haar / invariant-measure samplers for the classical compact groups.

Every sampler takes a RandomStream, n and a count and returns an ndarray
stack, the (count, n) one-line stack for permutations; ``SAMPLERS`` maps
each (group tag, method) pair to its sampler (README's "Command line").
Within a stream the draw order is fixed and documented on each draw
below, and ``_draw_lanes`` gives lane i its own RandomStream(seed, i), so
output does not depend on the order lanes run in.  No chunk size here sets
a draw's size: the loops cut their batches by ``linalg._chunks``.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from haarforge import euler
from haarforge.linalg import CHUNK_BYTES, TWO_PI, _chunks, _redraw
from haarforge.randstream import (RandomStream, phi_unitary_law, rho_symplectic_law,
                                  sin2phi_law)


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
    """Packed (P, count) rho via the cos^3 sin^{4j-1} law and the (3, P,
    count) angles (phi, psi, alpha) of quaternions Haar on SU(2): phi by the
    sin(2 phi) law, psi and alpha uniform on [0, 2 pi).  The leads' (3,
    count, n) angles last.

    Draw order: row by row, rho's (count, 2j+1) uniforms, then count each
    for the quaternion's phi, psi and alpha; then the leads' (3, count)
    triples, q_1 to q_n.  The rows are drawn in cache-sized blocks of whole
    rows, each from the first row past the next multiple of
    ``linalg.CHUNK_BYTES`` of uniforms (README's kernel paragraph); they
    leave the stream, the uniforms in order, unchanged.
    """
    p = n * (n - 1) // 2
    j = euler.row_j(n)
    width = count * (2 * j + 4)  # uniforms per row
    start = np.cumsum(width) - width
    rho = np.empty((p, count))
    quat = np.empty((3, p, count))
    block = start // (CHUNK_BYTES // 8)
    for rows in np.split(np.arange(p), np.flatnonzero(np.diff(block)) + 1) if p else []:
        off = start[rows] - start[rows[0]]
        u = stream.uniform(size=int(width[rows].sum()))
        for jj in np.unique(j[rows]).tolist():
            at = j[rows] == jj
            win = _windows(u, count * (2 * jj + 1))[off[at]]
            rho[rows[at]] = rho_symplectic_law(win.reshape(len(win), count, 2 * jj + 1), jj)
        win = _windows(u, 3 * count)[off + count * (2 * j[rows] + 1)]
        win = win.reshape(len(rows), 3, count).transpose(1, 0, 2)
        out = quat[:, rows[0]:rows[-1] + 1]
        out[0] = sin2phi_law(win[0])
        np.multiply(win[1:], TWO_PI, out=out[1:])
    lead = stream.uniform(size=(n, 3, count)).transpose(1, 2, 0)  # mapped in its own memory
    lead[0] = sin2phi_law(lead[0])
    lead[1:] *= TWO_PI
    return rho, quat, lead


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

    Draw order: the whole (count, n, n) Gaussian block, by ``_gaussians``.
    Q times its R-diagonal phases is written back over the Gaussian block
    chunk by chunk (``_chunks``), but each chunk's ``np.linalg.qr`` holds a
    copy, Q and R of the chunk beside the block: the traced peak is within
    3x the returned stack from four chunks on, 5x for one (CHANGES.md holds
    the measured ratios).
    """
    def draw(m):
        g = _gaussians(stream, (m, n, n), kind == "complex")
        if kind == "complex":
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


def _gaussians(stream: RandomStream, shape, cplx: bool) -> np.ndarray:
    """Standard normals of ``shape``, or with ``cplx`` the unscaled re + i im:
    all the real parts, then all the imaginary parts, each drawn straight
    into its strided half of one complex array."""
    if not cplx:
        return stream.gaussian(size=shape)
    z = np.empty(shape, dtype=complex)
    parts = z.reshape(-1).view(float)  # re, im interleaved
    stream.gaussian(size=z.size, out=parts[0::2])
    stream.gaussian(size=z.size, out=parts[1::2])
    return z


def _norms(z: np.ndarray) -> np.ndarray:
    """Row norms of a (B, k) array, computed as ``np.linalg.norm(z, axis=1)``
    computes them, without its per-call checks."""
    return np.sqrt(np.add.reduce((z.conj() * z).real, axis=1))


def _gaussian_vectors(stream: RandomStream, count: int, k: int, cplx: bool):
    """(count, k) Gaussian vectors (real, or re + i im) with nonzero norms,
    and those norms.  A zero vector is redrawn in place; ConvergenceError
    after REDRAW_ROUNDS rounds that leave one."""
    def redo(bad):
        z[bad] = _gaussians(stream, (int(bad.sum()), k), cplx)
        nz[bad] = _norms(z[bad])

    z = _gaussians(stream, (count, k), cplx)
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
    place through one reused scratch array, in the batch chunks
    ``linalg._chunks`` gives for k x k blocks, with the operands in the
    order of the full-width update, so the bits are the same.  In the real
    case -e^{i theta} = +-1 is not applied: the stack holds the product
    divided by a per-matrix sign ``sgn``, multiplied in once at the end
    (negation is exact and rounding symmetric).  CHANGES.md holds the
    timings of these forms.
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


_BAND_FLOOR = 1 << 22  # bytes of flags a wave band may hold at any stack size
_STEP_MIN = 1 << 14  # swaps a wave step should carry, to pay for its four ufunc calls
_WAVE_MIN_COUNT = 128  # fewer samples than this compose faster by coset rotations


def _compose_cosets(clear, n: int, count: int) -> np.ndarray:
    """(count, n) int64 0-based one-line permutations sigma = E_1 o ... o
    E_{n-1} of the bubble-sort decisions; ``clear(j, out)`` writes coset j's
    "mu_{i,j} = 0" flags into the (count, j) bool array ``out``, column i-1
    for T_i, once per coset, in the order j = 1..n-1, whichever kernel runs.

    ``_wave_cosets`` runs in bands of at most ``budget`` bytes of flags
    (README's samplers row), when its last band's steps swap at least
    _STEP_MIN pairs each and the batch has at least _WAVE_MIN_COUNT samples;
    otherwise ``_rotate_cosets`` composes one coset at a time.  Both give
    the same permutations.  CHANGES.md holds the timings behind the bounds.
    """
    budget = max(4 * (n - 1) * count, _BAND_FLOOR)
    if count < _WAVE_MIN_COUNT or budget < _STEP_MIN * (n - 1):
        return _rotate_cosets(clear, n, count)
    return _wave_cosets(clear, n, count, budget)


def _wave_cosets(clear, n: int, count: int, budget: int = _BAND_FLOOR) -> np.ndarray:
    """``_compose_cosets`` as a wave of conditional transpositions.

    sigma <- sigma o T_x swaps positions x-1 and x of the one-line sigma,
    and coset j applies T_j, ..., T_1 in that order, at the steps of
    ``euler._coset_wave`` (those of an Euler coset product's blocks).  The
    cosets run in bands of consecutive cosets whose flags take at most
    ``budget`` bytes; each band is a wave of its own (``_wave_band``).
    sigma is held batch last, (n, count) in ``_index_dtype(n)``, and cast
    to int64 once.
    """
    itype = _index_dtype(n)
    sigma = np.empty((n, count), dtype=itype)
    sigma[:] = np.arange(n, dtype=itype)[:, None]
    j0, rows = 1, budget // count  # rows: flag rows a band may hold
    while j0 < n:
        # the largest j1 with j0 + ... + (j1 - 1) <= rows, at least j0 + 1
        j1 = max(j0 + 1, min(n, (1 + math.isqrt(1 + 8 * rows + 4 * j0 * (j0 - 1))) // 2))
        _run_band(clear, sigma, j0, j1)
        j0 = j1
    return sigma.T.astype(np.int64, order="C")


def _run_band(clear, sigma: np.ndarray, j0: int, j1: int) -> None:
    """Compose cosets j0..j1-1 into the batch-last ``sigma`` in place.

    Each coset's flags are written, in the order of the steps, to a
    (rows, count) array: step t's flags are one contiguous slab, row by
    row the cosets from first to last.  They become masks, -1 where the
    pair swaps and 0 where it does not, and each step swaps its strided
    slabs a, b of sigma by d = (a ^ b) & mask, a ^= d, b ^= d.
    """
    count = sigma.shape[1]
    steps, place, rows, widest = _wave_band(j0, j1)
    flags = np.empty((rows, count), dtype=bool)
    scratch = np.empty(count * (j1 - 1), dtype=bool)
    for j in range(j0, j1):
        out = scratch[:count * j].reshape(count, j)
        clear(j, out)
        flags[place[j:2 * j] + j] = out.T[::-1]  # column x - 1 runs at step 2j - x
    mask = flags.view(np.int8)
    mask -= 1
    d = np.empty((widest, count), dtype=sigma.dtype)
    for sa, sb, sm, q in steps:
        a, b, m, dq = sigma[sa], sigma[sb], mask[sm], d[:q]
        np.bitwise_xor(a, b, out=dq)
        np.bitwise_and(dq, m, out=dq)
        np.bitwise_xor(a, dq, out=a)
        np.bitwise_xor(b, dq, out=b)


def _wave_band(j0: int, j1: int):
    """The ``euler._coset_wave`` of cosets j0..j1-1 as swaps: per step t,
    the slices of its a rows and b rows of sigma and of its flag rows, and
    its swap count; the flag row of coset j's swap at step t, less j, as
    ``place[t]``; the band's flag rows; its widest step."""
    t, lo, q, first = euler._coset_wave(j0, j1)
    steps = tuple((slice(x, x + 2 * k, 2), slice(x + 1, x + 2 * k, 2), slice(f, f + k), k)
                  for x, k, f in zip((2 * lo - t - 1).tolist(), q.tolist(), first.tolist()))
    place = np.zeros(2 * j1, dtype=np.intp)
    place[j0:2 * j1 - 2] = first - lo
    return steps, place, int(q.sum()), int(q.max(initial=0))


def _rotate_cosets(clear, n: int, count: int) -> np.ndarray:
    """``_compose_cosets`` one coset at a time.

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

    Draw order, the same whichever kernel composes the cosets: one uniform
    block of shape (count, j) per coset j = 1..n-1, column i-1 deciding
    mu_{i,j}.  As ``Generator.random`` gives the same stream in pieces, each
    block is drawn in row chunks of at most ``linalg.CHUNK_BYTES``, one
    chunk for a block that fits, so no larger float64 block is ever held.
    """
    probs = np.arange(1, n) / np.arange(2, n + 1)

    def clear(j, out):
        rows = max(1, CHUNK_BYTES // (8 * j))
        for r in range(0, count, rows):
            part = out[r:r + rows]
            np.greater_equal(stream.uniform(size=part.shape), probs[:j], out=part)

    return _compose_cosets(clear, n, count)


def permutation_matrices(lines: np.ndarray) -> np.ndarray:
    """(B, n, n) 0/1 matrices of (B, n) 0-based one-lines: column x holds
    its 1 in row sigma(x)."""
    count, n = lines.shape
    mats = np.zeros((count, n, n))
    mats[np.arange(count)[:, None], lines, np.arange(n)[None, :]] = 1.0
    return mats


def coe_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """S = U^T U with U Haar on U(n): symmetric unitary (COE).

    S is written over U chunk by chunk, so the traced peak is ``qr_batch``'s.
    """
    u = qr_batch(stream, n, count, "complex")
    for sl in _chunks(count, u.strides[0]):
        u[sl] = np.einsum("bki,bkj->bij", u[sl], u[sl])
    return u


def cse_batch(stream: RandomStream, n: int, count: int) -> np.ndarray:
    """S~ = U^D U with U Haar on U(2n), U^D = Z^{-1} U^T Z: self-dual (CSE).

    Z^{-1} U^T Z = -Z U^T Z is U^T with each 2 x 2 pair of rows and of
    columns swapped and entry (i, j) multiplied by s_i s_j, s = (-1, +1,
    -1, ...): a gather and an exact sign product in place of two matmuls.

    S~ is written over U chunk by chunk, so the traced peak is ``qr_batch``'s.
    """
    u = qr_batch(stream, 2 * n, count, "complex")
    pair = np.arange(2 * n) ^ 1  # 1, 0, 3, 2, ...
    s = np.where(pair % 2, -1.0, 1.0)  # -1, +1, -1, ...
    sign = s[:, None] * s
    for sl in _chunks(count, u.strides[0]):
        ud = np.swapaxes(u[sl], 1, 2)[:, pair[:, None], pair] * sign
        u[sl] = np.einsum("bij,bjk->bik", ud, u[sl])
    return u


# --- the (group, method) table and the batch front end ---------------------


class Sampler(NamedTuple):
    """``draw(stream, n, count)`` returns a (count, *``shape(n)``) stack of
    ``kind`` "real" or "complex", or of 0-based one-line permutations for
    kind "permutation"; ``dim`` is the matrix size per unit of n."""

    draw: Callable
    kind: str
    dim: int = 1

    def shape(self, n) -> tuple:
        """A sample's shape at n: the (n,) word of a permutation, else (d, d)
        with d = dim * n; ValueError unless n is an int >= 1 (``_positive``)."""
        _positive("n", n)
        return (n,) if self.kind == "permutation" else (self.dim * n,) * 2


def _positive(name: str, value) -> None:
    """ValueError unless ``value`` is an int >= 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, not {value!r}")


# The first method listed for a tag is its default.  Each entry calls its
# batch function by module-global name when it runs, so a rebound name (a
# profiler's wrapper, a test's fake) is the one called.
SAMPLERS = {
    ("so", "euler"): Sampler(lambda s, n, c: so_euler_batch(s, n, c), "real"),
    ("o", "euler"): Sampler(lambda s, n, c: o_euler_batch(s, n, c), "real"),
    ("o", "qr"): Sampler(lambda s, n, c: qr_batch(s, n, c, "real"), "real"),
    ("o", "householder"): Sampler(lambda s, n, c: householder_batch(s, n, c, "real"), "real"),
    ("u", "euler"): Sampler(lambda s, n, c: u_euler_batch(s, n, c), "complex"),
    ("u", "qr"): Sampler(lambda s, n, c: qr_batch(s, n, c, "complex"), "complex"),
    ("u", "householder"): Sampler(
        lambda s, n, c: householder_batch(s, n, c, "complex"), "complex"),
    ("sp", "euler"): Sampler(lambda s, n, c: sp_euler_batch(s, n, c), "complex", 2),
    ("sn", "bubble"): Sampler(lambda s, n, c: permutation_batch(s, n, c), "permutation"),
}

GROUP_TAGS = tuple(dict.fromkeys(tag for tag, _ in SAMPLERS))
DEFAULT_METHOD = {tag: next(m for t, m in SAMPLERS if t == tag) for tag in GROUP_TAGS}


def sampler(tag, method=None) -> Sampler:
    """The table's entry for (tag, method), with the tag's default method
    for None; ValueError for an unknown tag or a pair not in the table."""
    if tag not in GROUP_TAGS:
        raise ValueError(f"unknown group tag {tag!r}")
    try:
        return SAMPLERS[(tag, DEFAULT_METHOD[tag] if method is None else method)]
    except (KeyError, TypeError):  # TypeError: an unhashable method, as a file may hold
        raise ValueError(f"method {method!r} is not valid for group {tag!r}") from None


def _lane_counts(count: int, streams: int):
    """``count`` split over max(1, min(streams, count)) lanes, the first
    count % lanes of them one larger."""
    lanes = max(1, min(streams, count))
    base, rem = divmod(count, lanes)
    return [base + (1 if i < rem else 0) for i in range(lanes)]


def _draw_lanes(draw, n: int, count: int, seed: int, streams: int) -> np.ndarray:
    """``draw(stream, n, c)`` on RandomStream(seed, lane) for each lane of
    ``_lane_counts(count, streams)``, stacked along axis 0.  A lone lane is
    returned as drawn, without a copy.  Otherwise each lane is written into
    its slice of one stack, allocated when the first lane gives its shape
    and dtype, and dies before the next lane is drawn: the peak is the stack
    plus one lane's own draw."""
    counts = _lane_counts(count, streams)
    if len(counts) == 1:
        return draw(RandomStream(seed, 0), n, count)
    stack, start = None, 0
    for lane, c in enumerate(counts):
        part = draw(RandomStream(seed, lane), n, c)
        if stack is None:
            stack = np.empty((count, *part.shape[1:]), dtype=part.dtype)
        stack[start:start + c] = part
        del part  # not alive while the next lane draws
        start += c
    return stack


def sample_batch(tag: str, n: int, count: int, method: str | None = None,
                 seed: int = 0, streams: int = 1):
    """Draw ``count`` elements of group ``tag``, split across ``streams`` sibling streams.

    Returns the (count, *``shape(n)``) stack of ``sampler(tag, method)``,
    for sn the int64 stack of 1-based one-line permutations.  Lane i uses
    RandomStream(seed, stream_id=i), so output is reproducible for fixed
    (seed, streams) regardless of how lanes are scheduled.  ValueError
    unless n, count and streams are ints >= 1 (a bool is not).
    """
    entry = sampler(tag, method)
    entry.shape(n)
    _positive("count", count)
    _positive("streams", streams)
    arr = _draw_lanes(entry.draw, n, count, seed, streams)
    if entry.kind == "permutation":
        arr += 1  # in place: the stack is this call's own
    return arr
