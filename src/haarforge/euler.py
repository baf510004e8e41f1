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
chunks of ``linalg._chunks``, the one batch-chunk rule: it keeps the
product batch-last, ``w[col, row, b]``, so a block on columns (c, c+1)
updates two contiguous (rows, B) slabs in place, and by the active-block
invariant (before coset E_{k-1}, E_1 ... E_{k-2} is a (k-1) x (k-1) block
(+) identity) coset E_{k-1} touches only the leading k rows (2k for Sp).
Each entry gets the arithmetic of the all-rows column rotation in the same
order, so output is bit for bit the same (up to the sign of a zero entry).
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

import math

import numpy as np

from haarforge.linalg import NotUnitaryError, _chunks, adjoint_residual

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


def _plane_product(d: int, batch: int, dtype, blocks) -> np.ndarray:
    """(B, d, d) stack of the identity right-multiplied by plane blocks.

    The batch runs in the chunks ``sl`` that ``linalg._chunks`` gives for
    d x d items, so the copy out adds little memory beside the output and
    the per-chunk cost is paid at most 8 times.  ``blocks(sl)`` yields the
    chunk's blocks (c, rows, m): m is batch-last (s, s, len(sl)), s = 2 or
    4, on columns c..c+s-1 of rows 0..rows-1 (the columns are zero below);
    2x2 blocks are in-place multiply-adds a m00 + b m10, a m01 + b m11;
    4x4 blocks go through einsum.
    """
    out = np.empty((batch, d, d), dtype=dtype)
    chunks = _chunks(batch, d * d * out.itemsize)  # the first is the largest
    buf = np.empty((d + 2, d, chunks[0].stop if chunks else 0), dtype=dtype)  # w, 2 slabs
    for sl in chunks:
        w, t = buf[:d, :, :sl.stop - sl.start], buf[d:, :, :sl.stop - sl.start]
        w[...] = np.eye(d, dtype=dtype)[:, :, None]
        for c, rows, m in blocks(sl):
            if len(m) == 2:
                a, b = w[c, :rows], w[c + 1, :rows]
                s1, s2 = t[:, :rows]
                np.multiply(a, m[0, 0], out=s1)
                np.multiply(a, m[0, 1], out=s2)
                np.multiply(b, m[1, 0], out=a)
                np.add(s1, a, out=a)
                np.multiply(b, m[1, 1], out=b)
                np.add(s2, b, out=b)
            else:
                cols = w[c:c + 4, :rows]
                cols[...] = np.einsum("krb,kmb->mrb", cols, m)
        out[sl] = w.transpose(2, 1, 0)
    return out


def _rotation_blocks(thetas: np.ndarray) -> np.ndarray:
    """(P, 2, 2, B) cores [[cos, sin], [-sin, cos]] of R_l for (P, B) angles."""
    c, s = np.cos(thetas), np.sin(thetas)
    return np.stack((c, s, -s, c), axis=1).reshape(c.shape[:1] + (2, 2) + c.shape[1:])


def _so_cosets(theta: np.ndarray, n: int, sl: slice):
    """Blocks of E_1 ... E_{n-1}; E_{k-1} = R_{k-1} ... R_1 acts on the leading k rows."""
    for k in range(2, n + 1):
        m = _rotation_blocks(theta[coset_rows(k)][::-1, sl])  # l = k-1 .. 1
        yield from zip(range(k - 2, -1, -1), [k] * (k - 1), m, strict=True)


def _u_cosets(phi: np.ndarray, psi: np.ndarray, alpha: np.ndarray, n: int, sl: slice):
    """Blocks of the U cosets E_1 ... E_{n-1}, psi slotted as in the module docstring."""
    for k in range(2, n + 1):
        ph, ps = phi[coset_rows(k)][::-1, sl], psi[coset_rows(k)][::-1, sl]  # l = k-1 .. 1
        m = np.empty((len(ph), 2, 2, ph.shape[1]), dtype=complex)  # batch-last
        if k > 2:
            _su2_fill(m[:-1].transpose(1, 2, 0, 3), ph[:-1], ps[:-1])
        _su2_fill(m[-1], ph[-1], alpha[sl, k - 1], ps[-1])
        yield from zip(range(k - 2, -1, -1), [k] * (k - 1), m, strict=True)


def compose_so_batch(theta) -> np.ndarray:
    """(B, n, n) stack of E_1 E_2 ... E_{n-1} from the packed (P, B) angles
    theta, n read from P = n(n-1)/2; for n = 1 (P = 0) B identities."""
    theta = np.asarray(theta, dtype=float)
    p, batch = theta.shape  # ValueError unless theta has two axes
    n = _n_from_rows(p)
    return _plane_product(n, batch, float, lambda sl: _so_cosets(theta, n, sl))


def compose_u_batch(phi, psi, alpha) -> np.ndarray:
    """Stack of e^{i alpha_1} E_1 ... E_{n-1} from packed (P, B) phi, psi and
    (B, n) alpha, B and n read from alpha."""
    phi, psi, alpha = (np.asarray(a, dtype=float) for a in (phi, psi, alpha))
    batch, n = alpha.shape  # ValueError unless alpha has two axes
    p = n * (n - 1) // 2
    _check_shapes(phi=(phi, (p, batch)), psi=(psi, (p, batch)))
    v = _plane_product(n, batch, complex, lambda sl: _u_cosets(phi, psi, alpha, n, sl))
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


def _sp_cosets(rho: np.ndarray, quat: np.ndarray, lead: np.ndarray, n: int, sl: slice):
    """Blocks of q_1 then of the Sp cosets E_1 ... E_{n-1}; only the l = 1
    factor of a coset has Q != identity.

    The other k - 2 factors get q Q q^dagger as q q^dagger: q @ I is exact,
    so the product is the same bit for bit without the identity matmul.
    """
    yield 0, 2, lead[sl, 0].transpose(1, 2, 0)
    for k in range(2, n + 1):
        rows, lead_k = coset_rows(k), lead[sl, k - 1]
        q = np.concatenate((quat[rows][:0:-1, sl], lead_k[None]))  # factors l = k-1 .. 1
        big = np.empty_like(q)
        big[:-1], big[-1] = np.eye(2), quat[rows.start, sl]
        qdag = np.conj(np.swapaxes(q, -1, -2))
        twisted = np.empty_like(q)
        np.matmul(q[:-1], qdag[:-1], out=twisted[:-1])
        np.matmul(lead_k @ big[-1], qdag[-1], out=twisted[-1])
        m = _quat_factor_batch(rho[rows][::-1, sl], q, big, twisted)
        m = np.ascontiguousarray(m.transpose(0, 2, 3, 1))
        yield from zip(range(2 * k - 4, -1, -2), [2 * k] * (k - 1), m, strict=True)


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
    return _plane_product(2 * n, batch, complex,
                          lambda sl: _sp_cosets(rho, quat, lead, n, sl))


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
