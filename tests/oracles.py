"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the code paths they check: multiplication by
triple loop, determinants by cofactor expansion, the coset bottom row by
symbolic expansion of the rotation recursion, the Hessenberg closed form
entry by entry, permutations by swapping positions one transposition at a
time, and distribution functions by black-box numerical quadrature on a
dense grid.
"""

import math

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


def hessenberg_entries_triple_loop(c) -> np.ndarray:
    """The n x n Hessenberg matrix of the n-1 cosines c, entry by entry:

        E[i, j] = -alpha_{j-2} alpha_{i-1} * prod_{l=j-1}^{i-2} rho_l   (j <= i)
        E[i, i+1] = rho_{i-1}

    with alpha_{i-1} = (-1)^{i-1} c_i, alpha_{-1} = -1, alpha_{n-1} =
    (-1)^{n-1} and rho_i = (1 - alpha_i^2)^{1/2}, each product taken as a
    running product from 1.0 in increasing l.
    """
    c = np.asarray(c, dtype=float)
    vals = [-1.0] + [float((-1.0) ** i * x) for i, x in enumerate(c)] + [float((-1.0) ** len(c))]
    alpha = dict(enumerate(vals, start=-1))
    rho = {i: float(np.sqrt(max(0.0, 1.0 - a * a))) for i, a in alpha.items()}
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
    return m


def polar_gaussian(gen, size) -> np.ndarray:
    """Standard normals of shape ``size`` from the Generator ``gen``, by the
    polar Box-Muller form written whole-chunk: chunks of 2^20 variates, two
    random(m) draws each, every temporary the size of the chunk, the
    accepted u*f then v*f."""
    chunk = 1 << 20
    k = int(np.prod(size))
    out = np.empty(k)
    filled = 0
    while filled < k:
        need = min(chunk, k - filled)
        m = max(8, int(need * 0.7) + 16)
        u = 2.0 * gen.random(m) - 1.0
        v = 2.0 * gen.random(m) - 1.0
        s = u * u + v * v
        ok = (s > 0.0) & (s < 1.0)
        u, v, s = u[ok], v[ok], s[ok]
        f = np.sqrt(-2.0 * np.log(s) / s)
        take_u = min(len(s), need)
        out[filled:filled + take_u] = (u * f)[:take_u]
        filled += take_u
        if filled < k:
            take_v = min(len(s), k - filled)
            out[filled:filled + take_v] = (v * f)[:take_v]
            filled += take_v
    return out.reshape(size)


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


# --- bubble-sort permutations ------------------------------------------------


def bubble_bits(stream, n: int, count: int) -> dict:
    """The decision bits mu_{i,j} behind permutation_batch(stream, n, count),
    replayed from its documented draw order: one (count, j) uniform block
    per coset j = 1..n-1, column i-1 deciding mu_{i,j} = 1 (u < i/(i+1)).
    Returns {(i, j): (count,) int8 array}."""
    bits = {}
    for j in range(1, n):
        u = stream.uniform(size=(count, j))
        for i in range(1, j + 1):
            bits[(i, j)] = (u[:, i - 1] < i / (i + 1)).astype(np.int8)
    return bits


def compose_word_swaps(n: int, bits: dict) -> np.ndarray:
    """(B, n) arrays of 0-based one-line permutations from (B,) bit arrays.

    sigma = E_1 o E_2 o ... o E_{n-1} is accumulated left to right as
    sigma <- sigma o E_j; each coset array E_j = T_j o ... o T_1 is built by
    appending factors on the right, where appending T_l swaps *positions*
    (l-1, l), done arithmetically to avoid fancy-index copies.
    """
    batch = len(next(iter(bits.values()))) if bits else 1
    sigma = np.broadcast_to(np.arange(n), (batch, n)).copy()
    e = np.empty((batch, n), dtype=np.int64)
    for j in range(1, n):
        e[:] = np.arange(n)
        for l in range(j, 0, -1):
            swap = bits[(l, j)].astype(np.int64)
            delta = (e[:, l] - e[:, l - 1]) * swap
            e[:, l - 1] += delta
            e[:, l] -= delta
        sigma = np.take_along_axis(sigma, e, axis=1)
    return sigma


# --- packed angle arrays -----------------------------------------------------
#
# haarforge keeps each Euler angle set as one packed coset-major array whose
# row (k-1)(k-2)/2 + j - 1 holds angle (j, k).  The oracles below key the
# same angles by (j, k); these converters are the one place that owns the
# order, so a test builds either form and hands each side its own.


def angle_pairs(n: int) -> list:
    """Index pairs (j, k), 1 <= j < k <= n, in packed row order."""
    return [(j, k) for k in range(2, n + 1) for j in range(1, k)]


def _size(rows: int) -> int:
    """n of a packed array with n(n-1)/2 rows."""
    n = (1 + math.isqrt(1 + 8 * rows)) // 2
    assert n * (n - 1) // 2 == rows, f"{rows} rows is not n(n-1)/2"
    return n


def angle_dict(rows) -> dict:
    """{(j, k): row} of a packed array (or any sequence of rows)."""
    return dict(zip(angle_pairs(_size(len(rows))), rows))


def packed(angles: dict) -> np.ndarray:
    """The packed array of a (j, k)-keyed dict holding every angle of one n."""
    pairs = angle_pairs(_size(len(angles)))
    return np.array([angles[key] for key in pairs]) if pairs else np.empty(0)


def sp_density(n: int, rho: dict, quat_phi: dict, lead_phi) -> float:
    """The Sp(2n) Euler density at one point, one factor per (j, k) with the
    math module, (1/2) sin(2 phi) written as sin(phi) cos(phi)."""
    val = 2.0 ** (n * (n - 1))
    for (j, k), r in rho.items():
        p = quat_phi[(j, k)]
        val *= math.cos(r) ** 3 * math.sin(r) ** (4 * j - 1) * math.sin(p) * math.cos(p)
    for p in lead_phi:
        val *= math.sin(p) * math.cos(p)
    return val


# --- Euler angle draws, row by row -------------------------------------------
#
# The U and Sp angle draws as loops over the packed rows, each law applied
# to its own uniforms straight from the stream's numpy Generator ``gen``:
# the draw order the samplers document, written without their code.


def _turn_uniform(gen, count):
    """count uniforms on [0, 2 pi), as r * (2 pi - 0) + 0."""
    return gen.random(count) * (2.0 * np.pi) + 0.0


def u_angles_rowwise(gen, n: int, count: int):
    """Packed phi and psi, then (count, n) alpha: for each packed row (j, k),
    phi = arcsin(u^(1/(2j))) from count uniforms, then psi from count."""
    pairs = angle_pairs(n)
    phi, psi = np.empty((2, len(pairs), count))
    for row, (j, _) in enumerate(pairs):
        phi[row] = np.arcsin(gen.random(count) ** (1.0 / (2.0 * j)))
        psi[row] = _turn_uniform(gen, count)
    alpha = gen.random((count, n)) * (2.0 * np.pi) + 0.0
    return phi, psi, alpha


def _haar_su2_rowwise(gen, count):
    """(count, 2, 2) su2 blocks: phi = arcsin(sqrt(u)), then psi and alpha."""
    ph = np.arcsin(np.sqrt(gen.random(count)))
    ps = _turn_uniform(gen, count)
    return su2(ph, ps, _turn_uniform(gen, count))


def sp_angles_rowwise(gen, n: int, count: int):
    """Packed rho and quaternions, then (count, n, 2, 2) leads: for each
    packed row (j, k), rho = arcsin(sqrt(second largest of 2j + 1
    uniforms)) from a (count, 2j + 1) block, then one su2 block; then the n
    leads' su2 blocks."""
    pairs = angle_pairs(n)
    rho = np.empty((len(pairs), count))
    quat = np.empty((len(pairs), count, 2, 2), dtype=complex)
    for row, (j, _) in enumerate(pairs):
        u = np.sort(gen.random((count, 2 * j + 1)), axis=1)
        rho[row] = np.arcsin(np.sqrt(u[:, 2 * j - 1]))
        quat[row] = _haar_su2_rowwise(gen, count)
    lead = np.stack([_haar_su2_rowwise(gen, count) for _ in range(n)], axis=1)
    return rho, quat, lead


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
