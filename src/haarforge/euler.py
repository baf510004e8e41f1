"""Euler-angle factorizations of SO(N), U(N) and Sp(2N).

A group element factors as V = G_1 E_1 E_2 ... E_{N-1}, where the coset
factor E_j extends a dimension-j element to dimension j+1 and G_1 is the
leftover one-dimensional factor (absent for SO, a scalar phase for U, an
embedded unit quaternion for Sp).  Each E_j is a descending product of
elementary two-plane blocks carrying the new parameters.

Conventions (documented because the 2x2 blocks admit several phase
placements):

* SO(N): E_j = R_j(theta_{j,j+1}) ... R_1(theta_{1,j+1}), with
  theta_{1,k} in [0, 2*pi) and theta_{j,k} in [0, pi] for j >= 2.
* U(N):  E_j = U_j(phi_j, 0, psi_j) ... U_2(phi_2, 0, psi_2)
               * U_1(phi_1, psi_1, alpha_{j+1}),
  i.e. the inner factors carry their psi angle in the *diagonal* phase
  slot of the block (so they stay nontrivial at phi = 0); only the l = 1
  factor carries an off-diagonal phase plus the coset phase alpha_{j+1}.
  Without this slotting the factorization cannot reach diagonal
  unitaries, and round-trips on matrices such as diag(e^{i b}, 1, ..., 1)
  are impossible.
* Sp(2N): the same shape with 2x2 blocks promoted to unit quaternions;
  see ``_quat_factor_batch``.

Batched composition runs on one kernel, ``_plane_product``, in the batch
chunks of ``linalg._chunks``, the one batch-chunk rule, and in one
schedule, ``_waves``: each block joins the first wave after the last wave
that touched any of its columns, so a coset product runs in 2n - 3 waves of
adjacent column pairs (4-column groups for Sp).  The kernel keeps the
product batch-last, ``w[col, row, b]``, applies a wave to strided views of
all its columns, and uses the active-block invariant (before coset E_{k-1},
E_1 ... E_{k-2} is a (k-1) x (k-1) block (+) identity): coset E_{k-1}
touches only the leading k rows (2k for Sp), and a wave runs to the
largest of its blocks' rows, where the rows below a block's own are exact
zeros.  Every column meets its blocks in their order and each entry gets
the products and sums of the all-rows column rotation in the same order, so
output is bit for bit the same (up to the sign of a zero entry) for finite
angles.
Extraction, ``extract_angles_so`` and ``extract_angles_u``, inverts
composition on (B, n, n) stacks in the same batch-last layout; one matrix
is a batch of one.  Draws, composition, extraction and densities share one
packed coset-major angle layout, (P, B) with P = n(n-1)/2 ((P, B, 2, 2) for
Sp quaternions): row (k-1)(k-2)/2 + j - 1 holds angle (j, k), so coset
E_{k-1} is the slice ``coset_rows(k)``, and ``row_j(n)`` gives each row's j.
The angles fix the group, so composition and the densities read n (and B)
from these arrays: from P, or from alpha's or lead's (B, n) for U and Sp;
sizes that disagree raise ValueError.

The invariant-measure densities in these coordinates, ``density_so``,
``density_u`` and ``density_sp``, map packed rows of floats or same-shape
arrays to their broadcast product (a float64 when no array angle enters);
all parametrizing angles are independent under Haar measure.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from haarforge.linalg import CHUNK_BYTES, NotUnitaryError, _chunks, adjoint_residual

TWO_PI = 2.0 * np.pi


class ReflectionError(ValueError):
    """Orthogonal input with determinant -1 (a reflection, not in SO(N))."""


def coset_rows(k: int) -> slice:
    """Rows of coset E_{k-1}, the angles (1, k) ... (k-1, k), in a packed array."""
    return slice((k - 1) * (k - 2) // 2, k * (k - 1) // 2)


def _n_from_rows(p: int) -> int:
    """The n whose packed arrays have p = n(n-1)/2 rows (1 for p = 0);
    ValueError if no n does."""
    n = (1 + math.isqrt(8 * p + 1)) // 2
    if n * (n - 1) // 2 != p:
        raise ValueError(f"{p} packed rows is n(n-1)/2 for no n")
    return n


def _check_shapes(**arrays) -> None:
    """ValueError unless every ``name=(array, shape)`` array has that shape."""
    for name, (a, shape) in arrays.items():
        if a.shape != shape:
            raise ValueError(f"{name} has shape {a.shape}, expected {shape}")


def row_j(n: int) -> np.ndarray:
    """The j of each row of a packed n(n-1)/2-row array: 1, 1, 2, 1, 2, 3, ..."""
    m = np.arange(max(n - 1, 0))
    return np.arange(len(m) * n // 2) - np.repeat(m * (m + 1) // 2, m + 1) + 1


# --- elementary blocks ----------------------------------------------------


def su2_block(phi, psi, alpha) -> np.ndarray:
    """[[cos(phi) e^{i alpha}, sin(phi) e^{i psi}],
        [-sin(phi) e^{-i psi}, cos(phi) e^{-i alpha}]], broadcasting."""
    phi, psi, alpha = np.broadcast_arrays(
        np.asarray(phi, float), np.asarray(psi, float), np.asarray(alpha, float))
    blk = np.empty(phi.shape + (2, 2), dtype=complex)
    _su2_fill(np.moveaxis(blk, (-2, -1), (0, 1)), phi, alpha, psi)
    return blk


def _su2_fill(e, phi, alpha, psi=None) -> None:
    """Write su2_block(phi, psi, alpha) into a complex view e whose first two
    axes are the block's, through its real and imaginary parts; psi=None is
    the off-diagonal phase +0, with no cos or sin evaluated for it.

    Each entry p e^{+-it} gets the floats of the complex product
    (p + 0i)(cos t +- i sin t) that multiplying by np.exp(+-1j t) gives,
    signed zeros included: p cos t - 0 sin t and +-p sin t + 0 cos t.  On
    the diagonal p cos t never vanishes for finite angles and a vanishing
    p sin t has cos t > 0, so only the off-diagonal entries keep the zero
    terms.  (A nonzero product that underflows to zero, which takes angles
    of about 1e-160 or less, may get the other sign: numpy's complex
    product rounds such a zero one way or the other depending on the array.)
    """
    c, s = np.cos(phi), np.sin(phi)
    re, im = e.real, e.imag
    np.multiply(c, np.cos(alpha), out=re[0, 0, ...])
    re[1, 1] = re[0, 0]
    cs = c * np.sin(alpha)
    np.add(cs, 0.0, out=im[0, 0, ...])
    np.subtract(0.0, cs, out=im[1, 1, ...])
    if psi is None:
        re[0, 1] = s
        np.subtract(0.0, s, out=re[1, 0, ...])
        im[0, 1] = im[1, 0] = 0.0
        return
    cp, sp = np.cos(psi), np.sin(psi)
    x = s * cp
    np.subtract(x, 0.0 * (sp + 0.0), out=re[0, 1, ...])  # exp(1j psi) takes sin(psi + 0)
    np.subtract(0.0 * sp, x, out=re[1, 0, ...])
    np.add(s * sp, 0.0 * cp, out=im[0, 1, ...])
    im[1, 0] = im[0, 1]


# --- batched composition ----------------------------------------------------


def _waves(cols, rows, width: int):
    """The wave schedule of plane blocks listed in application order.

    Block i acts on columns cols[i] .. cols[i] + width - 1 of rows
    0 .. rows[i] - 1.  It joins the first wave after the last wave that
    touched any of its columns, so the blocks of a wave touch disjoint
    columns and every column meets its blocks in application order.
    Returns (order, runs): ``order`` lists the blocks by wave, then by
    column, and a run (c, width, start, rows) is the len(rows) blocks of
    one wave at positions start.. of that order, on columns c, c + width,
    ..., with those row counts.
    """
    cols, rows = np.asarray(cols, dtype=int), np.asarray(rows, dtype=int)
    last, wave = [-1] * (int(cols.max(initial=0)) + width), []
    for c in cols.tolist():
        w = max(last[c:c + width]) + 1
        last[c:c + width] = [w] * width
        wave.append(w)
    order = np.lexsort((cols, wave))
    wave, cols = np.asarray(wave, dtype=int)[order], cols[order]
    start = np.flatnonzero(np.diff(wave, prepend=-1) | (np.diff(cols, prepend=-width) - width))
    rows, ends = rows[order].tolist(), start.tolist() + [len(order)]
    return order, tuple((c, width, a, tuple(rows[a:b]))
                        for c, a, b in zip(cols[start].tolist(), ends, ends[1:]))


# The two cuts of a run by shape.  A piece holds column pairs while its
# operand slab, pairs x rows x chunk width x itemsize, stays within
# _PIECE_BYTES: pairs too small to pay for their own calls share them, and
# a 2x2 piece's two column and four product slabs stay within 96 KiB of
# cache, while a pair whose slab passes half the bound runs alone.
# The blocks are built a span at a time, at most _SPAN_BYTES of them (a
# chunk's 2x2 blocks hold about twice its product), so that they are still
# in cache when the pieces use them.
_PIECE_BYTES = CHUNK_BYTES // 32
_SPAN_BYTES = CHUNK_BYTES
_ALL = slice(None)


def _plane_product(d: int, batch: int, dtype, runs, blocks, lead=None) -> np.ndarray:
    """(B, d, d) stack of the identity right-multiplied by plane blocks.

    The batch runs in the chunks ``sl`` that ``linalg._chunks`` gives for
    d x d items, so the copy out adds little memory beside the output and
    the per-chunk cost is paid at most 8 times.  ``runs`` is a ``_waves``
    run list, all of one block width s = 2 or 4, and ``blocks(sl, at)``
    gives the chunk's blocks at the positions ``at`` (a slice: one span) of
    that schedule's order, batch-last (len, s, s, len(sl)).  ``lead(sl)``,
    if given, is a (2, 2, len(sl)) block applied to columns 0 and 1 first.

    The product is kept batch-last, ``w[col, row, b]``, and each piece of a
    run applies to strided views of all its columns at once: for 2x2
    blocks one broadcast multiply gives a m00, a m01, b m10 and b m11, and
    one add writes back a m00 + b m10 and a m01 + b m11, the products and
    sums of the one-block-at-a-time kernel, while a piece of one pair takes
    them as six in-place calls through two slabs, which stream less; 4x4
    blocks go through one einsum.  Every entry sees the same blocks in the
    same order as in the one-block-at-a-time product, and a row below a
    block's own rows (a piece runs to the largest of its blocks' rows)
    holds exact zeros that stay zeros, so for finite blocks the bytes are
    the same.  (A NaN or inf block spreads into those rows too.)  The cuts
    of ``_plan`` are made once per schedule, d, chunk width and itemsize and
    kept (``_cuts``), for d <= _KEPT_D; their views into this call's work
    array and scratch are made once per chunk width.
    """
    out = np.empty((batch, d, d), dtype=dtype)
    chunks = _chunks(batch, d * d * out.itemsize)  # the first is the largest
    work = np.empty(d * d * (chunks[0].stop if chunks else 0), dtype=dtype)
    plans = {}  # per chunk width: the spans of pieces, their operands views into work
    for sl in chunks:
        bc = sl.stop - sl.start
        w = work[:d * d * bc].reshape(d, d, bc)
        w[...] = np.eye(d, dtype=dtype)[:, :, None]
        if bc not in plans:
            plans[bc] = _plan(w, runs, lead is not None)
        for at, pieces in plans[bc]:
            m = blocks(sl, at) if at is not None else lead(sl)[None]
            spread = m[:, :, :, None]  # each (s, s, 1, bc) block spans the rows
            for piece in pieces:
                if len(piece) == 2:  # 4x4 blocks
                    cols, i = piece
                    cols[...] = np.einsum("pkrb,pkmb->pmrb", cols, m[i])
                elif len(piece) == 5:  # one pair
                    _turn_pair(piece[0], piece[1], m[piece[4]], piece[2], piece[3])
                else:  # a m00, a m01 and b m10, b m11, then their two sums
                    cols, ab, prods, a_terms, b_terms, i = piece
                    np.multiply(ab, spread[i], out=prods)
                    np.add(a_terms, b_terms, out=cols)
        out[sl] = w.transpose(2, 1, 0)
    return out


# The largest d whose cut lists are kept: at most 233 pieces and 40 KiB with
# the key's runs (d = 24, 56 items of 8 bytes), so the 128 keys of ``_cuts``
# hold at most 5 MiB.  A chunk's cut list grows with d (939 pieces, 280 KiB
# at d = 64 and 1.1 MiB at d = 256 for a chunk of CHUNK_BYTES) while its
# arithmetic dwarfs the cutting, so larger d are cut per call.
_KEPT_D = 24


@functools.lru_cache(maxsize=128)
def _cuts(runs: tuple, d: int, bc: int, itemsize: int) -> tuple:
    """The runs cut for a (d, d, bc) work array of ``itemsize`` entries into
    pieces and spans (see _PIECE_BYTES and _SPAN_BYTES), in ints and slices
    alone: per span, its positions in the schedule's order and its pieces.
    A piece is, for 4x4 blocks, its column parity, its index into that
    parity's (groups, 4, rows, bc) grid of columns and its blocks among the
    span's; for one pair, its first column, rows and block; for several
    pairs, its parity, grid index, pair count, rows and blocks.

    A cut list holds no array, so every call and thread shares it.  The last
    128 keys are kept, at about 0.3 KiB a piece: a few KiB for a spectra
    call's stacks, at most 40 KiB with the key's runs, since ``_plan``
    caches only d <= _KEPT_D; a perfbench check cycle uses 64 keys, about
    0.1 MiB.  A build costs 1.5-3 us a piece."""
    s, row_bytes = (runs[0][1] if runs else 2), bc * itemsize
    span, total = max(1, _SPAN_BYTES // (s * s * row_bytes)), sum(len(r) for *_, r in runs)
    spans, end, tops = [], 0, {}
    for c, _, start, rows in runs:
        q, g = max(1, _PIECE_BYTES // (max(rows) * row_bytes)), c // s - start
        for p in range(start, start + len(rows), q):
            r = rows[p - start:p - start + q]
            if p + len(r) > end:
                first, end = p, min(max(p + span, p + len(r)), total)
                spans.append((slice(first, end), []))
            i, top = p - first, max(r)
            grid = slice(g + p, g + p + len(r)), _ALL, tops.setdefault(top, slice(top))
            if s == 4:
                piece = c % s, grid, slice(i, i + len(r))
            elif len(r) == 1:
                piece = c + 2 * (p - start), top, i
            else:
                piece = c % s, grid, len(r), top, slice(i, i + len(r))
            spans[-1][1].append(piece)
    return tuple((at, tuple(pieces)) for at, pieces in spans)


def _plan(w: np.ndarray, runs, lead: bool) -> list:
    """The pieces of ``_cuts`` as operand views into a (d, d, bc) work array
    w and one scratch array of this call, with the lead's piece first,
    positions None, if ``lead``.  Returns (positions, pieces) per span; a
    piece is its operands and the index of its blocks among the span's: the
    (count, 4, rows, bc) columns of 4x4 blocks; a pair's (rows, bc) columns
    a and b and two (rows, bc) scratch slabs; or the (count, 2, rows, bc)
    columns of several pairs, the same as (count, 2, 1, rows, bc), and a
    (count, 2, 2, rows, bc) product scratch with its two halves.  Scratch
    views are made once per shape in a call."""
    d, _, bc = w.shape
    s = runs[0][1] if runs else 2
    # a piece of several pairs holds at most _PIECE_BYTES per slab
    scratch = np.empty(max(4 * _PIECE_BYTES // w.itemsize, 2 * d * bc), dtype=w.dtype)
    pair = scratch[:2 * d * bc].reshape(2, d, bc)
    grids = [w[p:p + (d - p) // s * s].reshape(-1, s, d, bc) for p in range(min(s, d))]
    slabs = {}  # scratch views by pair rows, product scratch by piece shape
    plan = [(None, [(w[0, :2], w[1, :2], pair[0, :2], pair[1, :2], 0)])] if lead else []
    cut = _cuts if d <= _KEPT_D else _cuts.__wrapped__  # larger d: per call
    for at, cuts in cut(runs, d, bc, w.itemsize):
        pieces = []
        for piece in cuts:
            if s == 4:
                pieces.append((grids[piece[0]][piece[1]], piece[2]))
            elif len(piece) == 3:
                col, top, i = piece
                if top not in slabs:
                    slabs[top] = pair[0, :top], pair[1, :top]
                pieces.append((w[col, :top], w[col + 1, :top]) + slabs[top] + (i,))
            else:
                parity, grid, count, top, i = piece
                if (count, top) not in slabs:
                    u = scratch[:4 * count * top * bc].reshape(count, 2, 2, top, bc)
                    slabs[count, top] = u, u[:, 0], u[:, 1]
                cols = grids[parity][grid]
                pieces.append((cols, cols[:, :, None]) + slabs[count, top] + (i,))
        plan.append((at, pieces))
    return plan


def _turn_pair(a, b, m, s1, s2) -> None:
    """a, b <- a m00 + b m10, a m01 + b m11 in place for one (2, 2, bc) block
    m and (rows, bc) columns, through the same-shape scratch s1, s2."""
    np.multiply(a, m[0, 0], out=s1)
    np.multiply(a, m[0, 1], out=s2)
    np.multiply(b, m[1, 0], out=a)
    np.add(s1, a, out=a)
    np.multiply(b, m[1, 1], out=b)
    np.add(s2, b, out=b)


@functools.lru_cache(maxsize=16)
def _coset_schedule(n: int, width: int):
    """The ``_waves`` schedule of E_1 ... E_{n-1}: the packed row of each
    block in wave order, a mask of the l = 1 factors, each block's k, and
    the runs.

    Coset E_{k-1} applies angles (k-1, k) .. (1, k), and angle (j, k)'s
    block acts on columns h(j-1) .. h(j-1) + width - 1 of rows 0 .. hk - 1,
    h = width / 2 (2x2 blocks, or 4x4 quaternion blocks).  The arrays are
    read-only.  A build takes 40 us at n = 3 to 1.1 ms at n = 64, as much as
    a small draw's composition, so the last 16 (n, width) pairs are kept:
    a perfbench cycle composes at most 12 (draw and check), and an entry
    holds about 50 KiB at n = 64 (6 MiB at n = 512).  Cutting the runs into
    the kernel's pieces costs about as much again per chunk width (57 us at
    n = 12, 1.6 ms at n = 64); ``_cuts`` keeps those cuts for d <= 24,
    keyed by the runs' value, so a rebuilt schedule finds them again.
    """
    j = row_j(n)
    k = np.repeat(np.arange(2, n + 1), np.arange(1, n))
    app = np.lexsort((-j, k))
    h = width // 2
    order, runs = _waves(h * (j[app] - 1), h * k[app], width)
    sel = app[order]
    one, k = j[sel] == 1, k[sel]
    for a in (sel, one, k):
        a.flags.writeable = False
    return sel, one, k, runs


def _rotation_blocks(thetas: np.ndarray) -> np.ndarray:
    """(P, 2, 2, B) cores [[cos, sin], [-sin, cos]] of R_l for (P, B) angles."""
    m = np.empty(thetas.shape[:1] + (2, 2) + thetas.shape[1:])
    np.cos(thetas, out=m[:, 0, 0])
    np.sin(thetas, out=m[:, 0, 1])
    np.negative(m[:, 0, 1], out=m[:, 1, 0])
    m[:, 1, 1] = m[:, 0, 0]
    return m


def compose_so_batch(theta) -> np.ndarray:
    """(B, n, n) stack of E_1 E_2 ... E_{n-1} from the packed (P, B) angles
    theta, n read from P = n(n-1)/2; for n = 1 (P = 0) B identities."""
    theta = np.asarray(theta, dtype=float)
    p, batch = theta.shape  # ValueError unless theta has two axes
    n = _n_from_rows(p)
    sel, _, _, runs = _coset_schedule(n, 2)
    return _plane_product(n, batch, float, runs,
                          lambda sl, at: _rotation_blocks(theta[sel[at], sl]))


def compose_u_batch(phi, psi, alpha) -> np.ndarray:
    """Stack of e^{i alpha_1} E_1 ... E_{n-1} from packed (P, B) phi, psi and
    (B, n) alpha, B and n read from alpha."""
    phi, psi, alpha = (np.asarray(a, dtype=float) for a in (phi, psi, alpha))
    batch, n = alpha.shape  # ValueError unless alpha has two axes
    p = n * (n - 1) // 2
    _check_shapes(phi=(phi, (p, batch)), psi=(psi, (p, batch)))
    if n < 1:
        raise ValueError("n >= 1 required")
    sel, one, k, runs = _coset_schedule(n, 2)

    def blocks(sl, at):
        """The inner factors U(phi, 0, psi), psi in the diagonal slot, and
        the l = 1 factors U(phi, psi, alpha_k), each set built apart (so no
        angle's cos or sin is taken twice) and written to its positions."""
        ph, ps, l1 = phi[sel[at], sl], psi[sel[at], sl], one[at]
        m = np.empty((len(ph), 2, 2, ph.shape[1]), dtype=complex)
        for rows, angles in ((~l1, (ph[~l1], ps[~l1])),
                             (l1, (ph[l1], alpha[sl, k[at][l1] - 1].T, ps[l1]))):
            part = np.empty((len(angles[0]),) + m.shape[1:], dtype=complex)
            _su2_fill(part.transpose(1, 2, 0, 3), *angles)
            m[rows] = part
        return m

    v = _plane_product(n, batch, complex, runs, blocks)
    v *= np.exp(1j * alpha[:, 0])[:, None, None]
    return v


def _quat_factor_batch(rho, q_blk, big_blk, twisted) -> np.ndarray:
    """(..., 4, 4) unitary symplectic blocks from an angle, two (..., 2, 2)
    SU(2) stacks q and Q, and ``twisted`` = q Q q^dagger.

    With c = cos(rho) and s = sin(rho) the block is

        [[c q,    s q Q q^dagger],
         [-s Q^dagger,  c q^dagger]].

    The off-diagonal conjugation is what keeps the block unitary for
    noncommuting q and Q; it reduces to [[c q, s Q], [-s Q^dag, c q^dag]]
    whenever q is the identity, and the distribution of q Q q^dagger equals
    that of Q for Haar-distributed Q.
    """
    rho = np.asarray(rho, dtype=float)
    c, s = np.cos(rho), np.sin(rho)
    qdag = np.conj(np.swapaxes(q_blk, -1, -2))
    out = np.empty(rho.shape + (4, 4), dtype=complex)
    out[..., 0:2, 0:2] = c[..., None, None] * q_blk
    out[..., 0:2, 2:4] = s[..., None, None] * twisted
    out[..., 2:4, 0:2] = -s[..., None, None] * np.conj(np.swapaxes(big_blk, -1, -2))
    out[..., 2:4, 2:4] = c[..., None, None] * qdag
    return out


def compose_sp_batch(rho, quat, lead) -> np.ndarray:
    """Stack of 2n x 2n symplectic unitaries from packed (P, B) rho, packed
    (P, B, 2, 2) SU(2) stacks quat (the Q_{j,k}) and (B, n, 2, 2) lead
    (q_1 .. q_n), B and n read from lead."""
    rho = np.asarray(rho, dtype=float)
    quat, lead = np.asarray(quat, dtype=complex), np.asarray(lead, dtype=complex)
    batch, n = lead.shape[:2]  # ValueError if lead has fewer axes
    p = n * (n - 1) // 2
    _check_shapes(rho=(rho, (p, batch)), quat=(quat, (p, batch, 2, 2)),
                  lead=(lead, (batch, n, 2, 2)))
    if n < 1:
        raise ValueError("n >= 1 required")
    sel, one, k, runs = _coset_schedule(n, 4)

    def blocks(sl, at):
        """Q = I and q = Q_{j,k} for j > 1, so q Q q^dagger is q q^dagger
        (q @ I is exact, so the bits are those of the identity matmul); the
        l = 1 factor takes q = q_k and Q = Q_{1,k}."""
        q, l1 = quat[sel[at], sl], one[at]
        inner = ~l1
        big = np.empty_like(q)
        big[inner], big[l1] = np.eye(2), q[l1]
        q[l1] = lead[sl, k[at][l1] - 1].transpose(1, 0, 2, 3)
        twisted = np.empty_like(q)
        q_in, q_1 = q[inner], q[l1]
        twisted[inner] = q_in @ np.conj(np.swapaxes(q_in, -1, -2))
        twisted[l1] = (q_1 @ big[l1]) @ np.conj(np.swapaxes(q_1, -1, -2))
        m = _quat_factor_batch(rho[sel[at], sl], q, big, twisted)
        return np.ascontiguousarray(m.transpose(0, 2, 3, 1))

    return _plane_product(2 * n, batch, complex, runs, blocks,
                          lead=lambda sl: lead[sl, 0].transpose(1, 2, 0))


# --- extraction ------------------------------------------------------------


def _wrap(t):
    """t mod 2*pi in [0, 2*pi); a remainder that rounds up to 2*pi is 0."""
    t = np.remainder(t, TWO_PI)
    return np.where(t < TWO_PI, t, 0.0)


def _turn(w, l, m00, m01, m10, m11):
    """w <- w [[m00, m10], [m01, m11]] on columns (l-1, l) of a batch-last
    w[col, ..., b]; the (B,) factors broadcast over the middle axes."""
    a, b = w[l - 1].copy(), w[l]
    w[l - 1] = a * m00 + b * m01
    w[l] = a * m10 + b * m11


def _unitary_stack(v, what: str) -> np.ndarray:
    """v as a (B, n, n) array; NotUnitaryError unless every matrix passes
    max |v^dagger v - I| <= 1e-10*n."""
    v = np.asarray(v)
    if v.ndim != 3 or v.shape[1] != v.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {v.shape}")
    if not np.all(adjoint_residual(v) <= 1e-10 * v.shape[-1]):
        raise NotUnitaryError(f"input is not {what} within 1e-10*N")
    return v


def extract_angles_so(v) -> np.ndarray:
    """Euler angles of a real (B, n, n) stack of SO(n) matrices, as the
    packed (P, B) array that compose_so_batch consumes.

    The column-sweep reduction: rows are cleared bottom-up; within row j+1
    the entries 1..j are zeroed in order by right-multiplying with
    R_l(theta)^T, choosing each theta so that the propagated pivot carries
    the sign that lands the final diagonal entry on +1.  Zero pivots take
    the canonical representative (remaining angles 0).  Raises
    NotUnitaryError or ReflectionError if any matrix is not in SO(n).
    """
    v = np.asarray(v)
    if np.iscomplexobj(v) and np.any(v.imag != 0.0):
        raise NotUnitaryError("extraction requires real orthogonal matrices")
    v = _unitary_stack(v.real, "orthogonal")
    det = np.linalg.det(v)
    off = np.abs(det - 1.0) > 1e-8
    if np.any(off):
        if np.all(np.abs(det[off] + 1.0) <= 1e-8):
            raise ReflectionError("determinant -1: reflections carry no Euler angles")
        raise NotUnitaryError("determinant is not +-1")

    n = v.shape[-1]
    w = np.array(v.transpose(2, 1, 0), dtype=float, order="C")  # w[col, row, b]
    theta = np.empty((n * (n - 1) // 2, v.shape[0]))
    for j in range(n - 1, 0, -1):
        row = theta[coset_rows(j + 1)]  # row l - 1 holds angle (l, j + 1)
        for l in range(1, j + 1):
            want = -1.0 if (j - l) % 2 else 1.0  # sign propagated into slot l+1
            a, b = w[l - 1, j], w[l, j]
            r = np.hypot(a, b)
            zero = r == 0.0
            r[zero] = 1.0
            c = np.where(zero, 1.0, want * b / r)
            s = np.where(zero, 0.0, -want * a / r)
            if l == 1:
                row[0] = _wrap(np.arctan2(s, c))
            else:
                # s >= 0 by construction; a zero of either sign or a rounding
                # negative becomes +0, so atan2 lands in [0, pi], not at -pi
                row[l - 1] = np.arctan2(np.where(s > 0.0, s, 0.0), c)
            # rows below j are never read again
            _turn(w[:, :j + 1], l, c, s, -s, c)
    return theta


def _turn_u(w, l: int, phi, psi, alpha):
    """w <- w U_l^dagger on columns (l-1, l); U_l carries psi off the
    diagonal only for l = 1 (module docstring)."""
    m = np.empty((2, 2, len(phi)), dtype=complex)
    if l == 1:
        _su2_fill(m, phi, alpha, psi)
    else:
        _su2_fill(m, phi, psi)
    np.negative(m.imag, out=m.imag)  # the conjugate, signed zeros included
    _turn(w, l, m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def extract_angles_u(v):
    """Euler angles (phi, psi, alpha) of a (B, n, n) stack of U(n) matrices,
    as compose_u_batch consumes them: packed (P, B) arrays and a (B, n)
    array of phases, which absorb the determinant.

    The sweep mirrors extract_angles_so; each coset's one free joint phase
    shift (psi_1, alpha, psi_2, ..., psi_j) -> +t is fixed at the end of the
    row so the propagated diagonal entry equals e^{i alpha_1}, with
    alpha_1 = Arg(det V)/n.  Raises NotUnitaryError if any matrix is not
    unitary.
    """
    v = _unitary_stack(v, "unitary")
    n = v.shape[-1]
    alpha1 = np.angle(np.linalg.det(v)) / n
    alpha = np.zeros((v.shape[0], n))
    alpha[:, 0] = _wrap(alpha1)
    phi, psi = np.empty((2, n * (n - 1) // 2, v.shape[0]))
    w = np.array(v.transpose(2, 1, 0), dtype=complex, order="C")  # w[col, row, b]
    for j in range(n - 1, 0, -1):
        x = w[:j + 1, j].copy()
        ph, ps = phi[coset_rows(j + 1)], psi[coset_rows(j + 1)]  # row l - 1: (l, j + 1)
        # pass A on a row copy: canonical phases, track the residual phase
        for l in range(1, j + 1):
            a, b = np.abs(x[l - 1]), np.abs(x[l])
            ph[l - 1] = np.arctan2(a, b)
            if l == 1:
                p = np.pi + np.angle(x[l]) - np.angle(x[l - 1])
            else:
                p = np.angle(x[l - 1]) - np.angle(x[l]) - np.pi
            ps[l - 1] = np.where((a == 0.0) | (b == 0.0), 0.0, p)
            _turn_u(x, l, ph[l - 1], ps[l - 1], 0.0)
        t = alpha1 - np.angle(x[j])
        ps += t
        # pass B: the adjusted factors on the rows still to be swept
        for l in range(1, j + 1):
            _turn_u(w[:, :j], l, ph[l - 1], ps[l - 1], t)
        ps[...] = _wrap(ps)
        alpha[:, j] = _wrap(t)
    return phi, psi, alpha


# --- invariant-measure densities -------------------------------------------


def density_so(theta):
    """2^{n(n-1)/4} prod sin(theta_{j,k})^{j-1} over the packed rows theta,
    n read from their count."""
    n = _n_from_rows(len(theta))
    val = np.float64(2.0 ** (n * (n - 1) / 4.0))
    for j, t in zip(row_j(n).tolist(), theta, strict=True):
        if j >= 2:
            val = val * np.sin(t) ** (j - 1)
    return val


def density_u(phi):
    """2^{n(n-1)/2} prod cos(phi_{j,k}) sin(phi_{j,k})^{2j-1} over the packed
    rows phi, n read from their count."""
    n = _n_from_rows(len(phi))
    val = np.float64(2.0 ** (n * (n - 1) / 2.0))
    for j, p in zip(row_j(n).tolist(), phi, strict=True):
        val = val * (np.cos(p) * np.sin(p) ** (2 * j - 1))
    return val


def density_sp(rho, quat_phi, lead_phi):
    """2^{n(n-1)} prod cos^3(rho) sin(rho)^{4j-1} (1/2) sin(2 phi_{j,k}) over the
    packed rows rho and quat_phi, times prod_j (1/2) sin(2 phi_j) over the n
    entries of lead_phi."""
    n = len(lead_phi)
    val = np.float64(2.0 ** (n * (n - 1)))
    for j, r, p in zip(row_j(n).tolist(), rho, quat_phi, strict=True):
        val = val * (np.cos(r) ** 3 * np.sin(r) ** (4 * j - 1))
        val = val * (0.5 * np.sin(2.0 * p))
    for p in lead_phi:
        val = val * (0.5 * np.sin(2.0 * p))
    return val
