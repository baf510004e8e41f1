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

Batched composition runs on one kernel, ``_plane_product``: it keeps the
product batch-last, ``w[col, row, b]``, so a block on columns (c, c+1)
updates two contiguous (rows, B) slabs in place, and by the active-block
invariant (before coset E_{k-1}, E_1 ... E_{k-2} is a (k-1) x (k-1) block
(+) identity) coset E_{k-1} touches only the leading k rows (2k for Sp).
Each entry gets the arithmetic of the all-rows column rotation in the same
order, so output is bit for bit the same (up to the sign of a zero entry).
Extraction, ``extract_angles_so`` and ``extract_angles_u``, inverts
composition on (B, n, n) stacks in the same batch-last layout and returns
the angle layout the compose kernels consume; one matrix is a batch of one.

The invariant-measure densities in these coordinates, ``density_so``,
``density_u`` and ``density_sp``, map angle dicts of floats or same-shape
arrays to their broadcast product (a float64 when no array angle enters);
all parametrizing angles are independent under Haar measure.
"""

from __future__ import annotations

import numpy as np

from haarforge.linalg import NotUnitaryError, adjoint_residual

TWO_PI = 2.0 * np.pi


class ReflectionError(ValueError):
    """Orthogonal input with determinant -1 (a reflection, not in SO(N))."""


def angle_pairs(n: int):
    """Index pairs (j, k), 1 <= j < k <= n, in coset-major order."""
    return [(j, k) for k in range(2, n + 1) for j in range(1, k)]


# --- elementary blocks ----------------------------------------------------


def su2_block(phi, psi, alpha) -> np.ndarray:
    """[[cos(phi) e^{i alpha}, sin(phi) e^{i psi}],
        [-sin(phi) e^{-i psi}, cos(phi) e^{-i alpha}]], broadcasting."""
    phi, psi, alpha = np.broadcast_arrays(
        np.asarray(phi, float), np.asarray(psi, float), np.asarray(alpha, float))
    c, s = np.cos(phi), np.sin(phi)
    blk = np.empty(phi.shape + (2, 2), dtype=complex)
    blk[..., 0, 0] = c * np.exp(1j * alpha)
    blk[..., 0, 1] = s * np.exp(1j * psi)
    blk[..., 1, 0] = -s * np.exp(-1j * psi)
    blk[..., 1, 1] = c * np.exp(-1j * alpha)
    return blk


# --- batched composition ----------------------------------------------------


def _plane_product(d: int, batch: int, dtype, blocks) -> np.ndarray:
    """(B, d, d) stack of the identity right-multiplied by plane blocks.

    The batch runs in chunks ``sl`` of at most 1 MiB of work array, or 1/8
    of the batch, so the copy out adds little memory beside the output and
    the per-chunk cost is paid at most 8 times.  ``blocks(sl)`` yields the
    chunk's blocks (c, rows, m): m is batch-last (s, s, len(sl)), s = 2 or
    4, on columns c..c+s-1 of rows 0..rows-1 (the columns are zero below);
    2x2 blocks are in-place multiply-adds a m00 + b m10, a m01 + b m11;
    4x4 blocks go through einsum.
    """
    out = np.empty((batch, d, d), dtype=dtype)
    step = max(1, -(-batch // 8), (1 << 20) // (d * d * out.itemsize))
    buf = np.empty((d + 2, d, min(step, batch)), dtype=dtype)  # w and 2 scratch slabs
    for start in range(0, batch, step):
        sl = slice(start, min(start + step, batch))
        w, t = buf[:d, :, :sl.stop - start], buf[d:, :, :sl.stop - start]
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
    return np.array([[c, s], [-s, c]]).transpose(2, 0, 1, 3)


def _so_coset(theta: dict, k: int, rows: int, sl: slice) -> list:
    """Blocks of E_{k-1} = R_{k-1} ... R_1 acting on the leading ``rows`` rows."""
    ls = range(k - 1, 0, -1)
    m = _rotation_blocks(np.array([theta[(l, k)][sl] for l in ls], dtype=float))
    return [(l - 1, rows, blk) for l, blk in zip(ls, m)]


def _u_coset(phi: dict, psi: dict, alpha_k, k: int, rows: int, sl: slice) -> list:
    """Blocks of the U coset E_{k-1}, psi slotted as in the module docstring."""
    ls = range(k - 1, 0, -1)
    m = su2_block(np.array([phi[(l, k)][sl] for l in ls], dtype=float),
                  np.array([np.zeros_like(alpha_k)] * (k - 2) + [psi[(1, k)][sl]], dtype=float),
                  np.array([psi[(l, k)][sl] for l in ls[:-1]] + [alpha_k], dtype=float))
    m = np.ascontiguousarray(m.transpose(0, 2, 3, 1))
    return [(l - 1, rows, blk) for l, blk in zip(ls, m)]


def compose_so_batch(theta: dict, n: int) -> np.ndarray:
    """Stack of E_1 E_2 ... E_{n-1} from per-angle arrays theta[(j,k)] of shape (B,)."""
    return _plane_product(n, np.size(next(iter(theta.values()), 0)), float,
                          lambda sl: (b for k in range(2, n + 1)
                                      for b in _so_coset(theta, k, k, sl)))


def compose_u_batch(phi: dict, psi: dict, alpha: np.ndarray, n: int) -> np.ndarray:
    """Stack of e^{i alpha_1} E_1 ... E_{n-1}; alpha has shape (B, n)."""
    alpha = np.asarray(alpha, dtype=float)
    v = _plane_product(n, alpha.shape[0], complex,
                       lambda sl: (b for k in range(2, n + 1)
                                   for b in _u_coset(phi, psi, alpha[sl, k - 1], k, k, sl)))
    v *= np.exp(1j * alpha[:, 0])[:, None, None]
    return v


def _quat_factor_batch(rho, q_blk, big_blk) -> np.ndarray:
    """(..., 4, 4) unitary symplectic blocks from an angle and two (..., 2, 2)
    SU(2) stacks q and Q.

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
    out[..., 0:2, 2:4] = s[..., None, None] * (q_blk @ big_blk @ qdag)
    out[..., 2:4, 0:2] = -s[..., None, None] * np.conj(np.swapaxes(big_blk, -1, -2))
    out[..., 2:4, 2:4] = c[..., None, None] * qdag
    return out


def _sp_coset(rho: dict, quat_blk: dict, lead_k, k: int, rows: int, sl: slice) -> list:
    """Blocks of the Sp coset E_{k-1}; only its l = 1 factor has Q != identity."""
    ls = range(k - 1, 0, -1)
    eye = np.broadcast_to(np.eye(2, dtype=complex), lead_k.shape)
    m = _quat_factor_batch(np.array([rho[(l, k)][sl] for l in ls], dtype=float),
                           np.array([quat_blk[(l, k)][sl] for l in ls[:-1]] + [lead_k]),
                           np.array([eye] * (k - 2) + [quat_blk[(1, k)][sl]]))
    m = np.ascontiguousarray(m.transpose(0, 2, 3, 1))
    return [(2 * (l - 1), rows, blk) for l, blk in zip(ls, m)]


def compose_sp_batch(rho: dict, quat_blk: dict, lead_blk: np.ndarray, n: int) -> np.ndarray:
    """Stack of 2n x 2n symplectic unitaries.

    quat_blk[(j,k)] are (B,2,2) SU(2) stacks for Q_{j,k}; lead_blk is
    (B,n,2,2) for q_1..q_n.
    """
    def blocks(sl):
        yield 0, 2, lead_blk[sl, 0].transpose(1, 2, 0)
        for k in range(2, n + 1):
            yield from _sp_coset(rho, quat_blk, lead_blk[sl, k - 1], k, 2 * k, sl)

    return _plane_product(2 * n, lead_blk.shape[0], complex, blocks)


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


def extract_angles_so(v) -> dict:
    """Euler angles of a real (B, n, n) stack of SO(n) matrices, as the
    dict of (B,) arrays theta[(j,k)] that compose_so_batch consumes.

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
    theta = {}
    for j in range(n - 1, 0, -1):
        for l in range(1, j + 1):
            want = -1.0 if (j - l) % 2 else 1.0  # sign propagated into slot l+1
            a, b = w[l - 1, j], w[l, j]
            r = np.hypot(a, b)
            zero = r == 0.0
            r[zero] = 1.0
            c = np.where(zero, 1.0, want * b / r)
            s = np.where(zero, 0.0, -want * a / r)
            if l == 1:
                theta[(l, j + 1)] = _wrap(np.arctan2(s, c))
            else:
                # s >= 0 by construction; a zero of either sign or a rounding
                # negative becomes +0, so atan2 lands in [0, pi], not at -pi
                theta[(l, j + 1)] = np.arctan2(np.where(s > 0.0, s, 0.0), c)
            # rows below j are never read again
            _turn(w[:, :j + 1], l, c, s, -s, c)
    return theta


def _turn_u(w, l: int, phi, psi, alpha):
    """w <- w U_l^dagger on columns (l-1, l); U_l carries psi off the
    diagonal only for l = 1 (module docstring)."""
    m = (su2_block(phi, psi, alpha) if l == 1 else su2_block(phi, 0.0, psi)).conj()
    _turn(w, l, m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1])


def extract_angles_u(v):
    """Euler angles (phi, psi, alpha) of a (B, n, n) stack of U(n) matrices,
    as compose_u_batch consumes them: dicts of (B,) arrays and a (B, n)
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
    phi, psi = {}, {}
    w = np.array(v.transpose(2, 1, 0), dtype=complex, order="C")  # w[col, row, b]
    for j in range(n - 1, 0, -1):
        x = w[:j + 1, j].copy()
        ph, ps = [], []
        # pass A on a row copy: canonical phases, track the residual phase
        for l in range(1, j + 1):
            a, b = np.abs(x[l - 1]), np.abs(x[l])
            ph.append(np.arctan2(a, b))
            if l == 1:
                p = np.pi + np.angle(x[l]) - np.angle(x[l - 1])
            else:
                p = np.angle(x[l - 1]) - np.angle(x[l]) - np.pi
            ps.append(np.where((a == 0.0) | (b == 0.0), 0.0, p))
            _turn_u(x, l, ph[-1], ps[-1], 0.0)
        t = alpha1 - np.angle(x[j])
        ps = [p + t for p in ps]
        # pass B: the adjusted factors on the rows still to be swept
        for l in range(1, j + 1):
            _turn_u(w[:, :j], l, ph[l - 1], ps[l - 1], t)
            phi[(l, j + 1)] = ph[l - 1]
            psi[(l, j + 1)] = _wrap(ps[l - 1])
        alpha[:, j] = _wrap(t)
    return phi, psi, alpha


# --- invariant-measure densities -------------------------------------------


def density_so(n: int, theta: dict):
    """2^{n(n-1)/4} prod sin(theta_{j,k})^{j-1}."""
    val = np.float64(2.0 ** (n * (n - 1) / 4.0))
    for (j, k), t in theta.items():
        if j >= 2:
            val = val * np.sin(t) ** (j - 1)
    return val


def density_u(n: int, phi: dict):
    """2^{n(n-1)/2} prod cos(phi_{j,k}) sin(phi_{j,k})^{2j-1}."""
    val = np.float64(2.0 ** (n * (n - 1) / 2.0))
    for (j, k), p in phi.items():
        val = val * (np.cos(p) * np.sin(p) ** (2 * j - 1))
    return val


def density_sp(n: int, rho: dict, quat_phi: dict, lead_phi):
    """2^{n(n-1)} prod cos^3(rho) sin(rho)^{4j-1} (1/2) sin(2 phi_{j,k})
    times prod_j (1/2) sin(2 phi_j) over the leading quaternions' phi angles."""
    val = np.float64(2.0 ** (n * (n - 1)))
    for (j, k), r in rho.items():
        val = val * (np.cos(r) ** 3 * np.sin(r) ** (4 * j - 1))
        val = val * (0.5 * np.sin(2.0 * quat_phi[(j, k)]))
    for p in lead_phi:
        val = val * (0.5 * np.sin(2.0 * p))
    return val
