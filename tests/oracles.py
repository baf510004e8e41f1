"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the code paths they check: multiplication by
triple loop, determinants by cofactor expansion, the coset bottom row by
symbolic expansion of the rotation recursion, and distribution functions
by black-box numerical quadrature on a dense grid.
"""

import numpy as np
from scipy import integrate


def triple_loop_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def cofactor_det(m: np.ndarray) -> complex:
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * cofactor_det(minor)
    return total


def rotation(j: int, theta: float, n: int) -> np.ndarray:
    """R_j(theta) written out: [[c, s], [-s, c]] in coordinates (j, j+1) of
    the n x n identity."""
    m = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    m[j - 1:j + 1, j - 1:j + 1] = [[c, s], [-s, c]]
    return m


def so_coset_bottom_row(thetas) -> np.ndarray:
    """Row j+1 of E_j = R_j ... R_1 by expanding the recursion
    e_{l+1}^T R_l = -sin(t_l) e_l^T + cos(t_l) e_{l+1}^T symbolically:

        entry k' = (-1)^{j-k'+1} (prod_{m=k'}^{j} sin t_m) cos t_{k'-1}
        entry 1  = (-1)^j prod_{m=1}^{j} sin t_m
    """
    t = np.asarray(thetas, dtype=float)
    j = len(t)
    row = np.zeros(j + 1)
    row[0] = (-1.0) ** j * np.prod(np.sin(t))
    for kp in range(2, j + 2):
        tail = np.prod(np.sin(t[kp - 1:]))
        row[kp - 1] = (-1.0) ** (j - kp + 1) * tail * np.cos(t[kp - 2])
    return row


def grid_cdf(pdf, lo: float, hi: float, nodes: int = 8192):
    """Normalized CDF of an un-normalized density by dense trapezoid sums.

    Returns a vectorized callable suitable for ks_test.
    """
    xs = np.linspace(lo, hi, nodes)
    ys = np.asarray([pdf(x) for x in xs], dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))])
    cum /= cum[-1]
    return lambda v: np.interp(v, xs, cum)


def bin_probabilities(pdf, edges) -> np.ndarray:
    """Quadrature-normalized bin masses of an un-normalized density."""
    total, _ = integrate.quad(pdf, edges[0], edges[-1], limit=200)
    masses = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(pdf, lo, hi, limit=200)
        masses.append(val / total)
    return np.asarray(masses)


# --- column-rotation composition --------------------------------------------
#
# The plain (B, d, d) loop: each factor right-multiplies the whole stack,
# every row of its two (or four) columns, the way the products read on
# paper.  The batched kernels must reproduce it bit for bit.


def _rotate_columns(v, l, m00, m01, m10, m11):
    """v <- v * [[m00, m01], [m10, m11]] on columns (l-1, l), all rows."""
    a = v[:, :, l - 1].copy()
    b = v[:, :, l]
    v[:, :, l - 1] = a * m00[:, None] + b * m10[:, None]
    v[:, :, l] = a * m01[:, None] + b * m11[:, None]


def column_rotation_so(theta: dict, n: int, batch: int) -> np.ndarray:
    """E_1 ... E_{n-1} with E_{k-1} = R_{k-1} ... R_1 and
    R_l = [[c, s], [-s, c]] on columns (l-1, l)."""
    v = np.broadcast_to(np.eye(n), (batch, n, n)).copy()
    for k in range(2, n + 1):
        for l in range(k - 1, 0, -1):
            t = theta[(l, k)]
            c, s = np.cos(t), np.sin(t)
            a = v[:, :, l - 1].copy()
            b = v[:, :, l]
            v[:, :, l - 1] = c[:, None] * a - s[:, None] * b
            v[:, :, l] = s[:, None] * a + c[:, None] * b
    return v


def rotation_product(thetas: np.ndarray, order, n: int) -> np.ndarray:
    """Product of R_l(thetas[:, l-1]) over l in ``order``, left to right."""
    v = np.broadcast_to(np.eye(n), (thetas.shape[0], n, n)).copy()
    for l in order:
        t = thetas[:, l - 1]
        c, s = np.cos(t), np.sin(t)
        a = v[:, :, l - 1].copy()
        b = v[:, :, l]
        v[:, :, l - 1] = c[:, None] * a - s[:, None] * b
        v[:, :, l] = s[:, None] * a + c[:, None] * b
    return v


def su2(phi, psi, alpha) -> np.ndarray:
    """(B, 2, 2) blocks [[c e^{i alpha}, s e^{i psi}], [-s e^{-i psi}, c e^{-i alpha}]]."""
    phi, psi, alpha = np.broadcast_arrays(
        np.asarray(phi, float), np.asarray(psi, float), np.asarray(alpha, float))
    c, s = np.cos(phi), np.sin(phi)
    blk = np.empty(phi.shape + (2, 2), dtype=complex)
    blk[..., 0, 0] = c * np.exp(1j * alpha)
    blk[..., 0, 1] = s * np.exp(1j * psi)
    blk[..., 1, 0] = -s * np.exp(-1j * psi)
    blk[..., 1, 1] = c * np.exp(-1j * alpha)
    return blk


def column_rotation_u(phi: dict, psi: dict, alpha: np.ndarray, n: int) -> np.ndarray:
    """e^{i alpha_1} E_1 ... E_{n-1}; inner factors U(phi, 0, psi), the
    l = 1 factor U(phi, psi, alpha_k)."""
    batch = alpha.shape[0]
    v = np.broadcast_to(np.eye(n, dtype=complex), (batch, n, n)).copy()
    for k in range(2, n + 1):
        for l in range(k - 1, 0, -1):
            if l == 1:
                blk = su2(phi[(1, k)], psi[(1, k)], alpha[:, k - 1])
            else:
                blk = su2(phi[(l, k)], 0.0, psi[(l, k)])
            _rotate_columns(v, l, blk[:, 0, 0], blk[:, 0, 1], blk[:, 1, 0], blk[:, 1, 1])
    v *= np.exp(1j * alpha[:, 0])[:, None, None]
    return v


def _quat_factor(rho, q, big) -> np.ndarray:
    """(B, 4, 4) block [[c q, s q Q q^dag], [-s Q^dag, c q^dag]]."""
    c, s = np.cos(rho), np.sin(rho)
    qdag = np.conj(np.swapaxes(q, -1, -2))
    out = np.empty(rho.shape + (4, 4), dtype=complex)
    out[..., 0:2, 0:2] = c[..., None, None] * q
    out[..., 0:2, 2:4] = s[..., None, None] * (q @ big @ qdag)
    out[..., 2:4, 0:2] = -s[..., None, None] * np.conj(np.swapaxes(big, -1, -2))
    out[..., 2:4, 2:4] = c[..., None, None] * qdag
    return out


def column_rotation_sp(rho: dict, quat_blk: dict, lead_blk: np.ndarray,
                       n: int) -> np.ndarray:
    """q_1 then E_1 ... E_{n-1} from 4x4 quaternion factors on column
    quadruples, all rows, each applied with einsum."""
    batch = lead_blk.shape[0]
    v = np.broadcast_to(np.eye(2 * n, dtype=complex), (batch, 2 * n, 2 * n)).copy()
    v[:, :, 0:2] = np.einsum("bnk,bkm->bnm", v[:, :, 0:2], lead_blk[:, 0])
    eye2 = np.broadcast_to(np.eye(2, dtype=complex), (batch, 2, 2))
    for k in range(2, n + 1):
        for l in range(k - 1, 0, -1):
            if l == 1:
                blk = _quat_factor(rho[(1, k)], lead_blk[:, k - 1], quat_blk[(1, k)])
            else:
                blk = _quat_factor(rho[(l, k)], quat_blk[(l, k)], eye2)
            c0 = 2 * (l - 1)
            v[:, :, c0:c0 + 4] = np.einsum("bnk,bkm->bnm", v[:, :, c0:c0 + 4], blk)
    return v
