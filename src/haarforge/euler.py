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
  see ``quaternion_block``.

Batched composition runs on one kernel, ``_plane_product``: it keeps the
product batch-last, ``w[col, row, b]``, so a block on columns (c, c+1)
updates two contiguous (rows, B) slabs in place, and by the active-block
invariant (before coset E_{k-1}, E_1 ... E_{k-2} is a (k-1) x (k-1) block
(+) identity) coset E_{k-1} touches only the leading k rows (2k for Sp).
Each entry gets the arithmetic of the all-rows column rotation in the same
order, so output is bit for bit the same (up to the sign of a zero entry).

The invariant-measure densities in these coordinates, ``density_so``,
``density_u`` and ``density_sp``, map angle dicts of floats or same-shape
arrays to their broadcast product (a float64 when no array angle enters);
all parametrizing angles are independent under Haar measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from haarforge.linalg import (
    SquareMatrix,
    NotUnitaryError,
    adjoint_residual,
    determinant,
)

TWO_PI = 2.0 * np.pi
HALF_PI = 0.5 * np.pi


class ReflectionError(ValueError):
    """Orthogonal input with determinant -1 (a reflection, not in SO(N))."""


def angle_pairs(n: int):
    """Index pairs (j, k), 1 <= j < k <= n, in coset-major order."""
    return [(j, k) for k in range(2, n + 1) for j in range(1, k)]


# --- angle records --------------------------------------------------------


@dataclass(frozen=True)
class EulerAnglesSO:
    """theta_{j,k} for 1 <= j < k <= n."""

    n: int
    theta: dict

    def __post_init__(self):
        want = set(angle_pairs(self.n))
        if set(self.theta) != want:
            raise ValueError("angle keys must be exactly {(j,k): 1<=j<k<=n}")
        for (j, k), t in self.theta.items():
            hi = TWO_PI if j == 1 else np.pi
            if not (0.0 <= t <= hi) or (j == 1 and t >= TWO_PI):
                raise ValueError(f"theta[{j},{k}]={t} out of range")
        object.__setattr__(self, "theta", dict(self.theta))


@dataclass(frozen=True)
class EulerAnglesU:
    """phi_{j,k} in [0, pi/2], psi_{j,k} in [0, 2*pi), phases alpha_1..alpha_n."""

    n: int
    phi: dict
    psi: dict
    alpha: tuple

    def __post_init__(self):
        want = set(angle_pairs(self.n))
        if set(self.phi) != want or set(self.psi) != want:
            raise ValueError("phi/psi keys must be exactly {(j,k): 1<=j<k<=n}")
        if len(self.alpha) != self.n:
            raise ValueError("need n alpha phases")
        if any(not 0.0 <= p <= HALF_PI for p in self.phi.values()):
            raise ValueError("phi out of [0, pi/2]")
        if any(not 0.0 <= p < TWO_PI for p in self.psi.values()):
            raise ValueError("psi out of [0, 2*pi)")
        if any(not 0.0 <= a < TWO_PI for a in self.alpha):
            raise ValueError("alpha out of [0, 2*pi)")
        object.__setattr__(self, "phi", dict(self.phi))
        object.__setattr__(self, "psi", dict(self.psi))
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))

    def parameter_count(self) -> int:
        return len(self.phi) + len(self.psi) + len(self.alpha)


@dataclass(frozen=True)
class EulerAnglesSp:
    """rho_{j,k} plus unit-quaternion triples; matrix size is 2n.

    ``quat[(j,k)]`` and ``lead[j-1]`` are (phi, psi, alpha) triples defining
    unit quaternions through the SU(2) block; ``lead`` holds q_1..q_n, with
    q_{j+1} consumed by coset E_j and q_1 the global leading factor.
    """

    n: int
    rho: dict
    quat: dict
    lead: tuple

    def __post_init__(self):
        want = set(angle_pairs(self.n))
        if set(self.rho) != want or set(self.quat) != want:
            raise ValueError("rho/quat keys must be exactly {(j,k): 1<=j<k<=n}")
        if len(self.lead) != self.n:
            raise ValueError("need n leading quaternion triples")
        if any(not 0.0 <= r <= HALF_PI for r in self.rho.values()):
            raise ValueError("rho out of [0, pi/2]")
        for trip in list(self.quat.values()) + list(self.lead):
            phi, psi, alpha = trip
            if not (0.0 <= phi <= HALF_PI and 0.0 <= psi < TWO_PI
                    and 0.0 <= alpha < TWO_PI):
                raise ValueError("quaternion triple out of range")
        object.__setattr__(self, "rho", dict(self.rho))
        object.__setattr__(self, "quat", {k: tuple(v) for k, v in self.quat.items()})
        object.__setattr__(self, "lead", tuple(tuple(t) for t in self.lead))


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


def rotation_R(j: int, theta: float, n: int) -> SquareMatrix:
    """Planar rotation in coordinates (j, j+1); identity elsewhere."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"plane index {j} out of range for dimension {n}")
    m = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    m[j - 1, j - 1] = c
    m[j - 1, j] = s
    m[j, j - 1] = -s
    m[j, j] = c
    return SquareMatrix(dim=n, entries=m.astype(complex), kind="real")


def unitary_U(j: int, phi: float, psi: float, alpha: float, n: int) -> SquareMatrix:
    """Elementary SU(2) factor in coordinates (j, j+1)."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"plane index {j} out of range for dimension {n}")
    m = np.eye(n, dtype=complex)
    m[j - 1:j + 1, j - 1:j + 1] = su2_block(phi, psi, alpha)
    return SquareMatrix(dim=n, entries=m, kind="complex")


def quaternion_block(rho: float, q_triple, big_q_triple) -> SquareMatrix:
    """4x4 unitary symplectic block from an angle and two unit quaternions.

    With c = cos(rho), s = sin(rho) and q, Q the SU(2) embeddings of the
    triples, the block is

        [[c q,    s q Q q^dagger],
         [-s Q^dagger,  c q^dagger]].

    The off-diagonal conjugation is what keeps the block unitary for
    noncommuting q and Q; it reduces to [[c q, s Q], [-s Q^dag, c q^dag]]
    whenever q is the identity, and the distribution of q Q q^dagger equals
    that of Q for Haar-distributed Q.
    """
    if not 0.0 <= rho <= HALF_PI:
        raise ValueError("rho out of [0, pi/2]")
    blk = _quat_factor_batch(rho, su2_block(*q_triple), su2_block(*big_q_triple))
    return SquareMatrix(dim=4, entries=blk, kind="complex")


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
    """(..., 4, 4) blocks of ``quaternion_block`` from (..., 2, 2) SU(2) stacks."""
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


# --- record-level composition ---------------------------------------------


def _one(values: dict) -> dict:
    """Record values as (1,) arrays, a batch of one."""
    return {key: np.array([val]) for key, val in values.items()}


def coset_E_so(angles: EulerAnglesSO, j: int) -> SquareMatrix:
    """E_j = R_j(theta_{j,j+1}) ... R_1(theta_{1,j+1})."""
    if not 1 <= j <= angles.n - 1:
        raise ValueError(f"coset index {j} out of range")
    theta = _one(angles.theta)
    v = _plane_product(angles.n, 1, float, lambda sl: _so_coset(theta, j + 1, j + 1, sl))[0]
    return SquareMatrix(dim=angles.n, entries=v.astype(complex), kind="real")


def compose_so(angles: EulerAnglesSO) -> SquareMatrix:
    """V = E_1 E_2 ... E_{n-1} in SO(n)."""
    v = compose_so_batch(_one(angles.theta), angles.n)[0]
    return SquareMatrix(dim=angles.n, entries=v.astype(complex), kind="real")


def coset_E_u(angles: EulerAnglesU, j: int) -> SquareMatrix:
    """E_j, carrying (phi, psi)_{l,j+1} and the coset phase alpha_{j+1}."""
    if not 1 <= j <= angles.n - 1:
        raise ValueError(f"coset index {j} out of range")
    phi, psi, alpha_k = _one(angles.phi), _one(angles.psi), np.array([angles.alpha[j]])
    v = _plane_product(angles.n, 1, complex,
                       lambda sl: _u_coset(phi, psi, alpha_k, j + 1, j + 1, sl))[0]
    return SquareMatrix(dim=angles.n, entries=v, kind="complex")


def compose_u(angles: EulerAnglesU) -> SquareMatrix:
    """V = e^{i alpha_1} E_1 ... E_{n-1} in U(n)."""
    v = compose_u_batch(_one(angles.phi), _one(angles.psi), np.array([angles.alpha]), angles.n)[0]
    return SquareMatrix(dim=angles.n, entries=v, kind="complex")


def compose_sp(angles: EulerAnglesSp) -> SquareMatrix:
    """V in Sp(2n) as a 2n x 2n complex matrix."""
    quat_blk = {key: su2_block(*val)[None] for key, val in angles.quat.items()}
    lead_blk = np.stack([su2_block(*t) for t in angles.lead])[None]
    v = compose_sp_batch(_one(angles.rho), quat_blk, lead_blk, angles.n)[0]
    return SquareMatrix(dim=2 * angles.n, entries=v, kind="complex")


# --- extraction ------------------------------------------------------------


def extract_angles_so(v: SquareMatrix) -> EulerAnglesSO:
    """Euler angles of an SO(n) matrix by the column-sweep reduction.

    Rows are cleared bottom-up; within row j+1 the entries 1..j are zeroed
    in order by right-multiplying with R_l(theta)^T, choosing each theta so
    that the propagated pivot carries the sign that lands the final diagonal
    entry on +1.  Zero pivots take the canonical representative (remaining
    angles 0).
    """
    n = v.dim
    if v.kind != "real":
        raise NotUnitaryError("extraction requires a real orthogonal matrix")
    if adjoint_residual(v.entries) > 1e-10 * n:
        raise NotUnitaryError("input is not orthogonal within 1e-10*N")
    det = determinant(v).real
    if abs(det - 1.0) > 1e-8:
        if abs(det + 1.0) <= 1e-8:
            raise ReflectionError("determinant -1: reflections carry no Euler angles")
        raise NotUnitaryError("determinant is not +-1")

    w = v.entries.real.copy()
    theta = {}
    for j in range(n - 1, 0, -1):
        x = w[j, :]
        for l in range(1, j + 1):
            want = -1.0 if (j - l) % 2 else 1.0  # sign propagated into slot l+1
            r = float(np.hypot(x[l - 1], x[l]))
            if r == 0.0:
                c, s = 1.0, 0.0
            else:
                c = want * x[l] / r
                s = -want * x[l - 1] / r
            if l == 1:
                t = float(np.arctan2(s, c)) % TWO_PI
            else:
                # s >= 0 by construction; clear a signed zero so that
                # atan2 lands in [0, pi] rather than at -pi
                t = float(np.arctan2(max(s, 0.0), c))
                t = min(max(t, 0.0), np.pi)
            theta[(l, j + 1)] = t
            a = w[:, l - 1].copy()
            b = w[:, l]
            w[:, l - 1] = c * a + s * b
            w[:, l] = -s * a + c * b
    return EulerAnglesSO(n=n, theta=theta)


def extract_angles_u(v: SquareMatrix) -> EulerAnglesU:
    """Euler angles of a U(n) matrix; the alpha phases absorb the determinant.

    The sweep mirrors extract_angles_so; each coset's one free joint phase
    shift (psi_1, alpha, psi_2, ..., psi_j) -> +t is fixed at the end of the
    row so the propagated diagonal entry equals e^{i alpha_1}, with
    alpha_1 = Arg(det V)/n.
    """
    n = v.dim
    if adjoint_residual(v.entries) > 1e-10 * n:
        raise NotUnitaryError("input is not unitary within 1e-10*N")
    if n == 1:
        return EulerAnglesU(n=1, phi={}, psi={},
                            alpha=(float(np.angle(v.entries[0, 0]) % TWO_PI),))

    alpha1 = float(np.angle(determinant(v))) / n
    w = v.entries.copy()
    phi, psi = {}, {}
    alpha = [alpha1 % TWO_PI] + [0.0] * (n - 1)

    for j in range(n - 1, 0, -1):
        x = w[j, :j + 1].copy()
        params = []
        # pass A on a row copy: canonical phases, track the residual phase
        for l in range(1, j + 1):
            a, b = x[l - 1], x[l]
            ph = float(np.arctan2(abs(a), abs(b)))
            if abs(a) == 0.0 or abs(b) == 0.0:
                ps = 0.0
            elif l == 1:
                ps = float(np.pi + np.angle(b) - np.angle(a))
            else:
                ps = float(np.angle(a) - np.angle(b) - np.pi)
            params.append([ph, ps, 0.0])
            blk = su2_block(ph, ps, 0.0) if l == 1 else su2_block(ph, 0.0, ps)
            x[l - 1:l + 1] = x[l - 1:l + 1] @ blk.conj().T
        t = alpha1 - float(np.angle(x[j]))
        params[0][1] += t
        params[0][2] += t
        for rec in params[1:]:
            rec[1] += t
        # pass B: apply the adjusted factors to the full matrix
        for l in range(1, j + 1):
            ph, ps, al = params[l - 1]
            blk = su2_block(ph, ps, al) if l == 1 else su2_block(ph, 0.0, ps)
            w[:, l - 1:l + 1] = w[:, l - 1:l + 1] @ blk.conj().T
        for l in range(1, j + 1):
            phi[(l, j + 1)] = params[l - 1][0]
            psi[(l, j + 1)] = params[l - 1][1] % TWO_PI
        alpha[j] = params[0][2] % TWO_PI
    return EulerAnglesU(n=n, phi=phi, psi=psi, alpha=tuple(alpha))


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
