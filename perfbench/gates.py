"""Output checks behind the benchmark's failed-op count.

Every check runs outside the op timing and raises GateError when an output
is wrong.  Residual bounds are C_RESIDUAL * d * eps for a d x d matrix: the
samplers reach at most about 2.5 d * eps on the draw sizes (measured over
three seeds at d = 4..64), so a constant of 16 leaves room for rounding
and still catches any real defect, which moves a residual to order one.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)
C_RESIDUAL = 16.0
CHUNK = 256  # matrices per residual pass, so checks stay small in memory


class GateError(AssertionError):
    """An op's output failed one of the checks below."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def _tol(d: int) -> float:
    return C_RESIDUAL * d * EPS


def stack(mats, count: int, d: int, complex_ok: bool) -> np.ndarray:
    mats = np.asarray(mats)
    require(mats.shape == (count, d, d), f"shape {mats.shape} != {(count, d, d)}")
    require(complex_ok or not np.iscomplexobj(mats), "real group returned complex entries")
    require(bool(np.isfinite(mats).all()), "non-finite entries")
    return mats


def unitary(mats: np.ndarray) -> None:
    """max |M^dagger M - I| <= c d eps for every matrix of the stack."""
    d = mats.shape[-1]
    eye = np.eye(d)
    for i in range(0, len(mats), CHUNK):
        m = mats[i:i + CHUNK]
        r = float(np.abs(np.conj(np.swapaxes(m, 1, 2)) @ m - eye).max())
        require(r <= _tol(d), f"unitarity residual {r:.3e} > {_tol(d):.3e}")


def det_plus_one(mats: np.ndarray) -> None:
    d = mats.shape[-1]
    r = float(np.abs(np.linalg.det(mats) - 1.0).max())
    require(r <= _tol(d), f"|det - 1| = {r:.3e} > {_tol(d):.3e}")


def det_unimodular(mats: np.ndarray) -> None:
    d = mats.shape[-1]
    r = float(np.abs(np.abs(np.linalg.det(mats)) - 1.0).max())
    require(r <= _tol(d), f"||det| - 1| = {r:.3e} > {_tol(d):.3e}")


def symplectic_form(d: int) -> np.ndarray:
    """Z = I_{d/2} (x) [[0, -1], [1, 0]], the form the library uses."""
    return np.kron(np.eye(d // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))


def symplectic(mats: np.ndarray) -> None:
    """max |M^T Z M - Z| <= c d eps."""
    d = mats.shape[-1]
    z = symplectic_form(d)
    for i in range(0, len(mats), CHUNK):
        m = mats[i:i + CHUNK]
        r = float(np.abs(np.swapaxes(m, 1, 2) @ z @ m - z).max())
        require(r <= _tol(d), f"symplectic residual {r:.3e} > {_tol(d):.3e}")


def symmetric(mats: np.ndarray) -> None:
    d = mats.shape[-1]
    r = float(np.abs(mats - np.swapaxes(mats, 1, 2)).max())
    require(r <= _tol(d), f"symmetry residual {r:.3e} > {_tol(d):.3e}")


def self_dual(mats: np.ndarray) -> None:
    """S = Z^{-1} S^T Z with Z^{-1} = -Z."""
    d = mats.shape[-1]
    z = symplectic_form(d)
    r = float(np.abs(-z @ np.swapaxes(mats, 1, 2) @ z - mats).max())
    require(r <= _tol(d), f"self-duality residual {r:.3e} > {_tol(d):.3e}")


def zero_outside_band(mats: np.ndarray, lower: int, upper: int) -> None:
    """Entries with j - i > upper or i - j > lower are exactly zero."""
    d = mats.shape[-1]
    i, j = np.indices((d, d))
    outside = (j - i > upper) | (i - j > lower)
    require(not np.any(mats[:, outside]), "nonzero entry outside the band")


def permutations(words, n: int, count: int) -> np.ndarray:
    """One-line permutations of 1..n, as a (count, n) int array."""
    arr = np.asarray(words, dtype=np.int64)
    require(arr.shape == (count, n), f"shape {arr.shape} != {(count, n)}")
    require(bool((np.sort(arr, axis=1) == np.arange(1, n + 1)).all()),
            "a row is not a permutation of 1..n")
    return arr


def bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    """Bit-for-bit equality of two float arrays (sign of zero included)."""
    got = np.ascontiguousarray(got)
    want = np.ascontiguousarray(want)
    require(got.shape == want.shape and got.dtype == want.dtype,
            f"read back {got.dtype}{got.shape}, wrote {want.dtype}{want.shape}")
    require(np.array_equal(got.view(np.uint8), want.view(np.uint8)),
            "read-back differs from the in-memory draw")


def circular_match(phases, reference, tol: float) -> None:
    """Every phase lies within tol of a reference phase on the circle, and
    the two sorted lists pair up one to one."""
    p = np.sort(np.mod(np.asarray(phases, dtype=float), 2.0 * np.pi))
    r = np.sort(np.mod(np.asarray(reference, dtype=float), 2.0 * np.pi))
    require(p.shape == r.shape, f"{p.size} phases, {r.size} eigenvalues")
    # pair the lists up to a rotation: phases near 0 may sort to either end
    best = min(float(np.abs(np.angle(np.exp(1j * (p - np.roll(r, k))))).max())
               for k in (-1, 0, 1))
    require(best <= tol, f"eigenphase off by {best:.3e} > {tol:.1e}")
